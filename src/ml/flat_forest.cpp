#include "ml/flat_forest.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace tevot::ml {

FlatForest FlatForest::compile(std::span<const DecisionTree> trees) {
  if (trees.empty()) {
    throw std::invalid_argument("FlatForest::compile: empty ensemble");
  }
  FlatForest flat;
  std::size_t total_nodes = 0;
  for (const DecisionTree& tree : trees) total_nodes += tree.nodeCount();
  flat.nodes_.reserve(total_nodes);
  flat.value_.reserve(total_nodes);
  flat.roots_.reserve(trees.size());
  flat.depths_.reserve(trees.size());

  for (const DecisionTree& tree : trees) {
    const auto nodes = tree.nodes();
    const util::Status shape = validateTreeShape(nodes);
    if (!shape.ok()) {
      throw std::invalid_argument("FlatForest::compile: " + shape.message);
    }
    const auto base = static_cast<std::int32_t>(flat.nodes_.size());
    flat.roots_.push_back(base);

    // BFS re-layout with sibling adjacency: slots are handed out in
    // visit order and a split's two children always get consecutive
    // ones, so the kernels can address the right child as left + 1.
    // `order[k]` is the source index of the node in packed slot k;
    // `depth_at[k]` its root distance in edges. validateTreeShape has
    // already proven every node is visited exactly once.
    std::vector<std::int32_t> slot_of(nodes.size(), -1);
    std::vector<std::int32_t> order;
    std::vector<int> depth_at;
    order.reserve(nodes.size());
    depth_at.reserve(nodes.size());
    slot_of[0] = 0;
    order.push_back(0);
    depth_at.push_back(0);
    int depth = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const DecisionTree::Node& node =
          nodes[static_cast<std::size_t>(order[k])];
      if (node.feature < 0) continue;
      const int child_depth = depth_at[k] + 1;
      if (child_depth > depth) depth = child_depth;
      slot_of[static_cast<std::size_t>(node.left)] =
          static_cast<std::int32_t>(order.size());
      order.push_back(node.left);
      depth_at.push_back(child_depth);
      slot_of[static_cast<std::size_t>(node.right)] =
          static_cast<std::int32_t>(order.size());
      order.push_back(node.right);
      depth_at.push_back(child_depth);
    }
    flat.depths_.push_back(depth);
    for (const std::int32_t source : order) {
      const DecisionTree::Node& node =
          nodes[static_cast<std::size_t>(source)];
      Node packed;
      if (node.feature < 0) {
        packed.threshold = std::numeric_limits<float>::infinity();
        packed.feature = -1;
        packed.left = static_cast<std::int32_t>(flat.nodes_.size());
        flat.value_.push_back(node.value);
      } else {
        packed.threshold = node.threshold;
        packed.feature = node.feature;
        packed.left =
            base + slot_of[static_cast<std::size_t>(node.left)];
        flat.value_.push_back(0.0f);
      }
      flat.nodes_.push_back(packed);
    }
  }
  return flat;
}

float FlatForest::predict(std::span<const float> features) const {
  if (!compiled()) {
    throw std::logic_error("FlatForest::predict: not compiled");
  }
  const Node* nodes = nodes_.data();
  double total = 0.0;
  for (const std::int32_t root : roots_) {
    std::int32_t at = root;
    std::int32_t f = nodes[at].feature;
    while (f >= 0) {
      // Same comparison sense as DecisionTree::predict: x <= threshold
      // goes left, anything else (including NaN) goes right.
      at = features[static_cast<std::size_t>(f)] <= nodes[at].threshold
               ? nodes[at].left
               : nodes[at].left + 1;
      f = nodes[at].feature;
    }
    total += value_[static_cast<std::size_t>(at)];
  }
  return static_cast<float>(total / static_cast<double>(roots_.size()));
}

void FlatForest::predictBatch(const float* rows, std::size_t n_rows,
                              std::size_t row_stride, double* out) const {
  if (!compiled()) {
    throw std::logic_error("FlatForest::predictBatch: not compiled");
  }
  if (n_rows == 0) return;
  // Per-row double accumulators; each row sums its per-tree leaf
  // values in tree order, exactly like the scalar walk.
  std::vector<double> acc(n_rows, 0.0);
  constexpr std::size_t kBlock = 16;
  const Node* nodes = nodes_.data();
  const float* value = value_.data();
  std::int32_t idx[kBlock];
  const float* row_ptr[kBlock];

  // Lock-step descent over one block: every row takes one edge per
  // iteration, with no data-dependent branch — the comparison lands
  // in an index increment, and rows already at a leaf self-loop
  // (threshold +inf). `moved` exits early once the whole block has
  // settled. `block` is a template parameter so the full-width
  // (kBlock) instantiation unrolls with a constant trip count; the
  // final partial block runs the generic width.
  const auto descend = [&]<std::size_t kWidth>(
                           std::integral_constant<std::size_t, kWidth>,
                           std::size_t block, std::int32_t root,
                           int depth) {
    for (std::size_t j = 0; j < (kWidth != 0 ? kWidth : block); ++j) {
      idx[j] = root;
    }
    for (int step = 0; step < depth; ++step) {
      std::int32_t moved = 0;
      for (std::size_t j = 0; j < (kWidth != 0 ? kWidth : block); ++j) {
        const std::int32_t at = idx[j];
        const Node node = nodes[at];
        std::int32_t f = node.feature;
        f &= ~(f >> 31);  // leaf (-1) -> 0, keeps the load in bounds
        const float x = row_ptr[j][static_cast<std::size_t>(f)];
        const std::int32_t next =
            node.left + static_cast<std::int32_t>(x > node.threshold);
        moved |= next ^ at;
        idx[j] = next;
      }
      if (moved == 0) break;
    }
  };

  for (std::size_t b = 0; b < n_rows; b += kBlock) {
    const std::size_t block = std::min(kBlock, n_rows - b);
    for (std::size_t j = 0; j < block; ++j) {
      row_ptr[j] = rows + (b + j) * row_stride;
    }
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      if (block == kBlock) {
        descend(std::integral_constant<std::size_t, kBlock>{}, block,
                roots_[t], depths_[t]);
      } else {
        descend(std::integral_constant<std::size_t, 0>{}, block,
                roots_[t], depths_[t]);
      }
      for (std::size_t j = 0; j < block; ++j) {
        acc[b + j] += value[idx[j]];
      }
    }
  }
  const double count = static_cast<double>(roots_.size());
  for (std::size_t i = 0; i < n_rows; ++i) {
    // Same truncation as the scalar path: double sum / tree count,
    // narrowed to float, then widened for the caller.
    out[i] = static_cast<double>(static_cast<float>(acc[i] / count));
  }
}

std::vector<float> FlatForest::predictBatch(const Matrix& x) const {
  std::vector<double> wide(x.rows());
  if (x.rows() > 0) {
    predictBatch(x.data().data(), x.rows(), x.cols(), wide.data());
  }
  std::vector<float> out;
  out.reserve(wide.size());
  for (const double v : wide) out.push_back(static_cast<float>(v));
  return out;
}

}  // namespace tevot::ml
