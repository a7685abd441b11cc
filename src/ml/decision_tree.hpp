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
//
// A TreeGrower runs the one fit loop in steps down a falling
// min_samples_split ladder: a node's split never depends on
// min_samples_split, so the nodes a step leaves unsplit for being too
// small wait, with their rows, for the next step (DESIGN "Right-sized
// forests").
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
  friend class TreeGrower;

  std::vector<Node> nodes_;
  /// Raw (unnormalized) impurity decrease per feature, from fit().
  std::vector<double> importance_raw_;
};

/// Grows one tree down a falling min_samples_split ladder. A step's
/// tree is exactly a one-shot fit at that step's size: tree() lays it
/// out in fit()'s node order with fit()'s importance, so its nodes
/// compare byte-equal. DecisionTree::fit is one growTo step.
class TreeGrower {
 public:
  /// Starts a tree on the rows of `data` selected by `indices` (all
  /// rows when empty); `binary` must be BinaryColumns::pack(data).
  /// `data` and `binary` must outlive the grower. params'
  /// min_samples_split is unused: each growTo names its own. `rng`
  /// drives feature subsampling when params.max_features >= 0; such a
  /// tree grows in one step only, and a null `rng` is rejected for it.
  /// Throws std::invalid_argument on bad data or parameters.
  TreeGrower(const Dataset& data, const BinaryColumns& binary,
             TreeTask task, const TreeParams& params, util::Rng* rng,
             std::span<const std::size_t> indices = {});

  /// Grows until every node left unsplit has fewer than
  /// `min_samples_split` rows, is pure, is at max_depth or has no
  /// valid split. Each call's size must not exceed the last one's.
  void growTo(int min_samples_split);

  /// The tree grown so far, as fit() with the last growTo size would
  /// have built it. Feature importance counts only its splits.
  DecisionTree tree() const;

  /// True when no node waits for a smaller size: finer steps would
  /// grow nothing.
  bool complete() const { return waiting_.empty(); }

 private:
  struct WorkItem {
    std::int32_t node;
    std::size_t begin;  ///< row range in working_
    std::size_t end;
    int depth;
  };
  /// The fit loop over `stack`; too-small nodes go to waiting_.
  void grow(std::vector<WorkItem> stack, std::size_t min_rows);

  const Dataset& data_;
  const BinaryColumns& binary_;
  TreeTask task_;
  TreeParams params_;
  util::Rng* rng_;
  int last_split_ = -1;  ///< -1 until the first growTo

  std::vector<std::size_t> working_;  ///< rows, partitioned per node
  std::vector<DecisionTree::Node> nodes_;  ///< in growth order
  std::vector<double> gain_;  ///< per node: its split's impurity decrease
  std::vector<WorkItem> waiting_;
  std::vector<int> feature_pool_;
};

}  // namespace tevot::ml
