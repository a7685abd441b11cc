// Random forests — the learner the paper selects for TEVoT.
//
// Bagged CART trees with majority vote (classification) or averaging
// (regression). Defaults mirror the paper's stated sklearn
// configuration: 10 trees, all features considered at every split,
// bootstrap sampling.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "ml/decision_tree.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace tevot::ml {

struct ForestParams {
  int n_trees = 10;       ///< sklearn 0.x default, as used in the paper
  TreeParams tree;        ///< per-tree parameters (all-features default)
  bool bootstrap = true;  ///< sample rows with replacement per tree
};

class RandomForestClassifier {
 public:
  /// Fits the ensemble. `rng` is split into one deterministic seed
  /// per tree before any fitting starts, so the result is
  /// bit-identical with or without a `pool` (of any size).
  void fit(const Dataset& data, const ForestParams& params, util::Rng& rng,
           util::ThreadPool* pool = nullptr);

  /// Majority-vote class (binary 0/1).
  float predict(std::span<const float> features) const;
  /// Fraction of trees voting class 1.
  double predictProbability(std::span<const float> features) const;
  std::vector<float> predictBatch(const Matrix& x) const;

  bool fitted() const { return !trees_.empty(); }
  std::span<const DecisionTree> trees() const { return trees_; }

 private:
  std::vector<DecisionTree> trees_;
};

class RandomForestRegressor {
 public:
  /// Fits the ensemble; see RandomForestClassifier::fit for the
  /// seed-splitting determinism guarantee.
  void fit(const Dataset& data, const ForestParams& params, util::Rng& rng,
           util::ThreadPool* pool = nullptr);

  /// Out-of-bag predictions, one per training row: the mean of the
  /// trees whose bootstrap sample left the row out, or NaN for a row
  /// every sample drew.
  using OutOfBag = std::span<const float>;

  /// Fits like fit(), but grows every tree down `ladder`, a strictly
  /// falling list of min_samples_split sizes (params.tree's own is
  /// unused). After each step past the first, `finer_pays` gets the
  /// out-of-bag predictions at the previous step and at this one; the
  /// forest takes the step if it answers true, else keeps the previous
  /// step and stops. Growth also stops once no tree has a node left to
  /// split. Returns the kept step's size. With a one-step ladder {s}
  /// the forest equals fit() at min_samples_split s. Needs bootstrap
  /// and max_features < 0 (std::invalid_argument otherwise).
  int fitLadder(const Dataset& data, const ForestParams& params,
                std::span<const int> ladder,
                const std::function<bool(OutOfBag coarse, OutOfBag fine)>&
                    finer_pays,
                util::Rng& rng, util::ThreadPool* pool = nullptr);

  /// Mean of per-tree predictions.
  float predict(std::span<const float> features) const;
  std::vector<float> predictBatch(const Matrix& x) const;

  bool fitted() const { return !trees_.empty(); }
  std::span<const DecisionTree> trees() const { return trees_; }
  void setTrees(std::vector<DecisionTree> trees) {
    trees_ = std::move(trees);
  }

 private:
  std::vector<DecisionTree> trees_;
};

/// Forest-level feature importance: mean of the per-tree normalized
/// impurity decreases, renormalized to sum to 1 — the interpretability
/// facility the paper credits random forests with ("it can interpret
/// the significance disparity between different features").
std::vector<double> forestFeatureImportance(
    std::span<const DecisionTree> trees, std::size_t n_features);

/// Tree shape check, the rule FlatForest::compile relies on: the node
/// list is non-empty, every split's children are in range, every
/// non-root node has exactly one parent, and every node is reachable
/// from node 0. A cyclic or shared child would send the tree walk
/// round forever; the serialize.hpp loader rejects such trees.
util::Status validateTreeShape(std::span<const DecisionTree::Node> nodes);

/// Structural validation for model hot-reload: every tree passes
/// validateTreeShape, every split's feature index < n_features, and
/// every threshold/leaf value is finite. The serialize.hpp loader
/// enforces the shape on the way in; this re-checks an in-memory
/// forest right before a serving swap, so a model built any other way
/// (or corrupted in memory) can never be published to workers.
util::Status validateForestStructure(std::span<const DecisionTree> trees,
                                     std::size_t n_features);

}  // namespace tevot::ml
