// CART decision trees (classification and regression).
//
// Greedy recursive binary splitting: Gini impurity for (binary)
// classification, variance reduction for regression. Columns that are
// {0,1} over the whole dataset — the bulk of TEVoT's feature space —
// are bit-packed once (BinaryColumns), and each node fills every such
// column's left/right label sums in one vectorized pass over its rows.
// Every other column keeps the per-node scan: an O(n) pass when it is
// {0,1} on the node's rows, else sort-and-scan over the midpoints
// between distinct values.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace tevot::ml {

enum class TreeTask { kClassification, kRegression };

struct TreeParams {
  int max_depth = -1;          ///< -1 = unlimited
  int min_samples_split = 2;   ///< do not split smaller nodes
  int min_samples_leaf = 1;    ///< reject splits creating smaller leaves
  int max_features = -1;       ///< -1 = consider all features per split
                               ///< (the sklearn default the paper uses)
};

/// The columns of a Dataset that hold only 0 and 1 on every row
/// (-0.0 counts as 0), bit-packed row by row: packed column k is bit
/// k % 64 of word k / 64 of its row.
struct BinaryColumns {
  std::vector<std::int32_t> slot;  ///< per feature: packed index or -1
  std::size_t columns = 0;         ///< packed column count
  std::size_t words_per_row = 0;
  std::vector<std::uint64_t> words;  ///< rows * words_per_row

  static BinaryColumns pack(const Dataset& data);
};

class DecisionTree {
 public:
  /// Fits on the rows of `data` selected by `indices` (all rows when
  /// empty). `rng` drives feature subsampling when max_features >= 0.
  void fit(const Dataset& data, TreeTask task, const TreeParams& params,
           util::Rng& rng, std::span<const std::size_t> indices = {});
  /// The same fit over `binary`, which must be BinaryColumns::pack(data):
  /// a forest packs once and shares the result across its trees.
  void fit(const Dataset& data, const BinaryColumns& binary, TreeTask task,
           const TreeParams& params, util::Rng& rng,
           std::span<const std::size_t> indices = {});

  /// Predicted class (0/1) or regression value for one feature row.
  float predict(std::span<const float> features) const;

  /// Impurity-decrease feature importance (sklearn-style): for each
  /// feature, the total weighted impurity reduction of the splits
  /// using it, normalized to sum to 1 (all zeros for a single-leaf
  /// tree). Computed during fit(); empty for a deserialized tree.
  /// `n_features` sizes the result for features the tree never used.
  std::vector<double> featureImportance(std::size_t n_features) const;

  bool fitted() const { return !nodes_.empty(); }
  std::size_t nodeCount() const { return nodes_.size(); }
  int depth() const;

  /// Serialization hooks (see serialize.hpp for the file format).
  struct Node {
    std::int32_t feature = -1;  ///< -1 marks a leaf
    float threshold = 0.0f;     ///< go left when x[feature] <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    float value = 0.0f;         ///< leaf prediction
  };
  std::span<const Node> nodes() const { return nodes_; }
  void setNodes(std::vector<Node> nodes) { nodes_ = std::move(nodes); }

 private:
  std::vector<Node> nodes_;
  /// Raw (unnormalized) impurity decrease per feature, from fit().
  std::vector<double> importance_raw_;
};

}  // namespace tevot::ml
