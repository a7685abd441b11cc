// Flat, batched, branchless forest inference.
//
// A FlatForest is a trained RandomForestRegressor compiled into an
// immutable, contiguous node array holding every node of every tree
// (plus per-tree root indices and depths). Traversal is iterative and
// branchless — no virtual calls, no per-tree vector indirection, no
// heap chasing — and the batch kernel steps a whole block of rows down
// a tree in lock-step, so the dependent node loads of different rows
// overlap in the pipeline instead of serializing (the dominant
// single-row cost).
//
// Layout tricks the kernels rely on:
//  * Sibling adjacency: compilation re-lays each tree out so a node's
//    right child always sits at left + 1. The descent step needs no
//    select between two loaded children — it is
//    next = left + (x > threshold), which compiles to compare+setcc,
//    never a data-dependent branch (the unpredictable-branch cost that
//    makes a naive lock-step kernel slower than the scalar walk).
//  * Leaves self-loop with threshold = +inf: left points at the leaf
//    itself, and x > +inf is false for every finite x, so a settled
//    row keeps stepping onto its own leaf. The block loop therefore
//    needs no per-row "done" mask — it runs to the tree depth with an
//    any-row-moved early exit.
//  * Leaf feature stays -1 (the tree-walk convention, and what
//    distinguishes a leaf); the batch kernel clamps it to 0
//    branchlessly (f & ~(f >> 31)) so the feature load is always in
//    bounds.
//  * One 12-byte packed record per node (threshold, feature, left):
//    a visit touches one cache line instead of one line per SoA
//    field. Leaf values live in a parallel array read once per
//    (row, tree) at the end of the descent.
//
// Bit-identity contract (enforced by check::checkFlatForestBitIdentity
// and the ml flat-forest tests): predict() and predictBatch() return
// results bit-identical — memcmp on the doubles — to the scalar
// RandomForestRegressor tree-walk. The accumulation order (double sum
// of per-tree float leaf values, in tree order, divided by tree count,
// truncated to float) is exactly the scalar path's, so no tolerance is
// ever needed. predictBatch additionally requires finite feature
// values (everything the FeatureEncoder or the serve parser lets
// through): a NaN feature sends the scalar comparison right but the
// branchless step left, so only predict() matches the tree-walk on
// NaN rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/random_forest.hpp"

namespace tevot::ml {

class FlatForest {
 public:
  FlatForest() = default;

  /// Compiles a fitted tree ensemble. Throws std::invalid_argument on
  /// an empty ensemble or a tree failing validateTreeShape (child index
  /// out of range, node unreachable from the root, or a shared/cyclic
  /// child).
  static FlatForest compile(std::span<const DecisionTree> trees);
  static FlatForest fromRegressor(const RandomForestRegressor& forest) {
    return compile(forest.trees());
  }

  bool compiled() const { return !roots_.empty(); }
  std::size_t treeCount() const { return roots_.size(); }
  std::size_t nodeCount() const { return nodes_.size(); }

  /// Single-row prediction, bit-identical to
  /// RandomForestRegressor::predict on the source ensemble (including
  /// NaN features, which descend rightward exactly like the walk).
  float predict(std::span<const float> features) const;

  /// Batched prediction over `n_rows` feature rows laid out
  /// contiguously (`row_stride` floats apart; the stride is the
  /// feature count for a dense matrix). out[i] receives the double
  /// widening of the float ensemble mean — bit-identical to
  /// static_cast<double>(predict(row_i)) for finite features.
  void predictBatch(const float* rows, std::size_t n_rows,
                    std::size_t row_stride, double* out) const;

  /// Matrix convenience with RandomForestRegressor::predictBatch's
  /// shape (and bit-identical values).
  std::vector<float> predictBatch(const Matrix& x) const;

  /// Packed traversal record; one per node, all trees concatenated.
  /// Internal: split threshold, feature index, absolute left-child
  /// index (right child at left + 1 by layout). Leaf: threshold +inf,
  /// feature -1, left pointing at the node itself.
  struct Node {
    float threshold = 0.0f;
    std::int32_t feature = -1;
    std::int32_t left = 0;
  };

  /// Read-only views of the compiled layout, for static analysis over
  /// the forest (verify's interval engine walks these directly so its
  /// bounds apply to exactly what inference executes).
  std::span<const Node> nodes() const { return nodes_; }
  std::span<const float> leafValues() const { return value_; }
  std::span<const std::int32_t> roots() const { return roots_; }

 private:
  std::vector<Node> nodes_;
  std::vector<float> value_;          ///< leaf value (0 at internals)
  std::vector<std::int32_t> roots_;   ///< root node index per tree
  std::vector<std::int32_t> depths_;  ///< max root-to-leaf edges per tree
};

}  // namespace tevot::ml
