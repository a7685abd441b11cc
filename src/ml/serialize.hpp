// Model serialization.
//
// The paper promises to "open-source the pre-trained models"; the one
// model file any tool ships is TevotModel's (src/tevot/model.hpp), a
// random-forest regressor inside. This is that forest's text format.
//
// It is written through one util::TextWriter and read through one
// util::TextReader (util/text_io.hpp). Loader rules:
//   - Malformed input throws util::StatusError (a std::runtime_error),
//     kParseError: bad magic, version skew, a task other than
//     "regressor", truncation, a number that is not a whole token, an
//     out-of-range integer, a non-finite or out-of-range float.
//   - Counts in a header never size an allocation beyond what the
//     remaining input can hold.
//   - The forest is checked once, after its last tree, with
//     validateForestStructure.
//
// Format:
//   tevot-forest v1 regressor <n_trees>
//   tree <n_nodes>
//   <feature> <threshold> <left> <right> <value>     (one line per node)
//   ...
// All floats are printed as "%.9g", which round-trips every float, so
// save -> load -> save is byte-identical (the model round-trip oracle
// in src/check/ relies on this).
#pragma once

#include <iosfwd>

#include "ml/random_forest.hpp"
#include "util/text_io.hpp"

namespace tevot::ml {

/// The forest as a whole stream; the loader reads the rest of `is` and
/// rejects anything but whitespace after the forest ("trailing bytes").
void saveForest(std::ostream& os, const RandomForestRegressor& forest);
RandomForestRegressor loadForestRegressor(std::istream& is);

/// The forest inside a file of another format (TevotModel's), written
/// to or read from that file's own writer or reader. The loader leaves
/// `in` after the forest and checks the trees against `n_features`:
/// kInvalidArgument for trees that are sound but split on a feature
/// index >= n_features, kParseError for anything else.
void saveForest(util::TextWriter& out, const RandomForestRegressor& forest);
RandomForestRegressor loadForestRegressor(util::TextReader& in,
                                          std::size_t n_features);

}  // namespace tevot::ml
