// Model serialization.
//
// The paper promises to "open-source the pre-trained models"; this is
// the corresponding facility: a plain-text format for every learner in
// the library (random forests for both tasks, single CART trees, k-NN,
// and the linear classifiers), so trained models can be saved and
// reloaded without retraining. All loaders reject malformed input with
// std::runtime_error (bad magic, version skew, truncation, task or
// kind mismatch, trees failing validateTreeShape). Counts in a header
// never size an allocation beyond what the remaining input can hold.
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
// All floats are printed with round-trip precision, so
// save -> load -> save is byte-identical (the model round-trip oracle
// in src/check/ relies on this).
#pragma once

#include <iosfwd>
#include <string>

#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/random_forest.hpp"

namespace tevot::ml {

void saveForest(std::ostream& os, const RandomForestClassifier& forest);
void saveForest(std::ostream& os, const RandomForestRegressor& forest);

/// Throws std::runtime_error on malformed input or task mismatch.
RandomForestClassifier loadForestClassifier(std::istream& is);
RandomForestRegressor loadForestRegressor(std::istream& is);

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
