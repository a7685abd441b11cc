// Model serialization.
//
// The paper promises to "open-source the pre-trained models"; this is
// the corresponding facility: a plain-text format for every learner in
// the library (random forests for both tasks, single CART trees, k-NN,
// and the linear classifiers), so trained models can be saved and
// reloaded without retraining.
//
// Every format is written through one util::TextWriter and read through
// one util::TextReader (util/text_io.hpp): a loader reads the rest of
// its stream into one buffer and parses it with the reader's bounded
// cursor. Loader rules:
//   - Malformed input throws util::StatusError (a std::runtime_error),
//     kParseError: bad magic, version skew, task or kind mismatch,
//     truncation, a number that is not a whole token, an out-of-range
//     integer, a non-finite or out-of-range float.
//   - The model must end its input: anything but whitespace after it is
//     a kParseError ("trailing bytes").
//   - Counts in a header never size an allocation beyond what the
//     remaining input can hold.
//   - A forest is checked once, after its last tree, with
//     validateForestStructure; a single tree with validateTreeShape.
//
// Forest format:
//   tevot-forest v1 <classifier|regressor> <n_trees>
//   tree <n_nodes>
//   <feature> <threshold> <left> <right> <value>     (one line per node)
//   ...
// Single tree: "tevot-tree v1" followed by one tree block.
// k-NN: "tevot-knn v1 <k> <rows> <cols>", scaler mean/invstd lines,
// then one "<features...> <label>" line per training row.
// Linear: "tevot-linear v1 <logistic|svm> <cols>", weight/bias/scaler
// lines.
// All floats are printed as "%.9g", which round-trips every float, so
// save -> load -> save is byte-identical (the model round-trip oracle
// in src/check/ relies on this).
#pragma once

#include <iosfwd>
#include <string>

#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/random_forest.hpp"
#include "util/text_io.hpp"

namespace tevot::ml {

void saveForest(std::ostream& os, const RandomForestClassifier& forest);
void saveForest(std::ostream& os, const RandomForestRegressor& forest);

RandomForestClassifier loadForestClassifier(std::istream& is);
RandomForestRegressor loadForestRegressor(std::istream& is);

/// A regressor forest inside a file of another format (TevotModel's),
/// written to or read from that file's own writer or reader. The
/// loader leaves `in` after the forest and checks the trees against
/// `n_features`: kInvalidArgument for trees that are sound but split on
/// a feature index >= n_features, kParseError for anything else.
void saveForest(util::TextWriter& out, const RandomForestRegressor& forest);
RandomForestRegressor loadForestRegressor(util::TextReader& in,
                                          std::size_t n_features);

/// Single CART tree (either task; the task is not recorded).
void saveTree(std::ostream& os, const DecisionTree& tree);
DecisionTree loadTree(std::istream& is);

/// k-NN: persists k, the fitted scaler, and the standardized training
/// set — inference state is exactly reproduced.
void saveKnn(std::ostream& os, const KnnClassifier& knn);
KnnClassifier loadKnn(std::istream& is);

/// Linear classifiers share one format, discriminated by a kind tag.
void saveLinear(std::ostream& os, const LogisticRegression& model);
void saveLinear(std::ostream& os, const LinearSvm& model);
LogisticRegression loadLogistic(std::istream& is);
LinearSvm loadSvm(std::istream& is);

void saveForestFile(const std::string& path,
                    const RandomForestClassifier& forest);
void saveForestFile(const std::string& path,
                    const RandomForestRegressor& forest);
RandomForestClassifier loadForestClassifierFile(const std::string& path);
RandomForestRegressor loadForestRegressorFile(const std::string& path);

}  // namespace tevot::ml
