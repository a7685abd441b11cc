#include "ml/decision_tree.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace tevot::ml {
namespace {

/// Node-impurity bookkeeping shared by both tasks. For classification
/// (binary labels) `sum` counts positives and the score is the Gini
/// impurity times count; for regression the score is the sum of
/// squared deviations (both are "total impurity" measures that a
/// split should minimize, summed over children).
struct LabelStats {
  double count = 0.0;
  double sum = 0.0;
  double sumsq = 0.0;

  void add(float y) {
    count += 1.0;
    sum += y;
    sumsq += static_cast<double>(y) * y;
  }
  void remove(float y) {
    count -= 1.0;
    sum -= y;
    sumsq -= static_cast<double>(y) * y;
  }

  double impurity(TreeTask task) const {
    if (count <= 0.0) return 0.0;
    if (task == TreeTask::kClassification) {
      const double p = sum / count;
      return count * 2.0 * p * (1.0 - p);  // count * Gini (binary)
    }
    return sumsq - sum * sum / count;  // total squared deviation
  }

  float leafValue(TreeTask task) const {
    if (count <= 0.0) return 0.0f;
    const double mean = sum / count;
    if (task == TreeTask::kClassification) {
      return mean >= 0.5 ? 1.0f : 0.0f;
    }
    return static_cast<float>(mean);
  }
};

struct BestSplit {
  int feature = -1;
  float threshold = 0.0f;
  double score = std::numeric_limits<double>::infinity();
};

// Packed binary columns are scanned four at a time, one SIMD lane per
// column, as two halves of the two-lane vectors SSE2 has (GCC/Clang
// vector extensions; no -march needed).
constexpr std::size_t kLanes = 4;
using F64x2 = double __attribute__((vector_size(16)));
using U64x2 = std::uint64_t __attribute__((vector_size(16)));

// Lane j of entry n is all ones when bit j of the nibble n is set.
constexpr auto kNibbleMasks = [] {
  std::array<std::array<std::uint64_t, kLanes>, 16> masks{};
  for (std::size_t nibble = 0; nibble < 16; ++nibble) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      masks[nibble][lane] = (nibble >> lane & 1U) != 0 ? ~0ULL : 0ULL;
    }
  }
  return masks;
}();

/// A node's rows, gathered contiguously for the packed scan: each
/// label as a double and the row's packed words.
struct NodeRows {
  std::vector<double> y;
  std::vector<std::uint64_t> words;
};

/// Two columns' running left (bit clear) and right (bit set) sums.
struct LanePair {
  F64x2 sum_left{}, sum_right{}, sumsq_left{}, sumsq_right{};
  U64x2 ones{};  ///< rows with the bit set (a set lane's mask is -1)

  // C-style casts between same-size vector types reinterpret bits.
  void add(U64x2 mask, U64x2 y, U64x2 ysq) {
    sum_left += (F64x2)(y & ~mask);
    sum_right += (F64x2)(y & mask);
    sumsq_left += (F64x2)(ysq & ~mask);
    sumsq_right += (F64x2)(ysq & mask);
    ones -= mask;
  }

  void store(std::size_t n, LabelStats* left, LabelStats* right) const {
    for (std::size_t lane = 0; lane < 2; ++lane) {
      const auto set = static_cast<double>(ones[lane]);
      left[lane] = {static_cast<double>(n) - set, sum_left[lane],
                    sumsq_left[lane]};
      right[lane] = {set, sum_right[lane], sumsq_right[lane]};
    }
  }
};

/// Left and right LabelStats of packed columns 4*block .. 4*block+3
/// over the gathered rows. Each lane adds every row in order, the
/// label where the row goes its way and +0.0 where it does not. A sum
/// that starts at +0.0 never becomes -0.0, so the +0.0 terms leave it
/// unchanged: every sum is the same double the per-column scan adds
/// up, in the same order.
void scanBlock(const NodeRows& rows, std::size_t words_per_row,
               std::size_t block, LabelStats* left, LabelStats* right) {
  const std::size_t n = rows.y.size();
  const std::uint64_t* words = rows.words.data() + block / 16;
  const std::size_t shift = 4 * (block % 16);
  LanePair lo, hi;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* mask =
        kNibbleMasks[words[i * words_per_row] >> shift & 15U].data();
    const F64x2 label{rows.y[i], rows.y[i]};
    const auto y = (U64x2)label;
    const auto ysq = (U64x2)(label * label);
    lo.add(U64x2{mask[0], mask[1]}, y, ysq);
    hi.add(U64x2{mask[2], mask[3]}, y, ysq);
  }
  lo.store(n, left, right);
  hi.store(n, left + 2, right + 2);
}

}  // namespace

BinaryColumns BinaryColumns::pack(const Dataset& data) {
  const std::size_t n_features = data.features();
  std::vector<char> binary(n_features, 1);
  for (std::size_t r = 0; r < data.size(); ++r) {
    const std::span<const float> row = data.x.row(r);
    for (std::size_t f = 0; f < n_features; ++f) {
      binary[f] &= static_cast<char>(row[f] == 0.0f || row[f] == 1.0f);
    }
  }
  BinaryColumns packed;
  packed.slot.assign(n_features, -1);
  std::vector<std::size_t> packed_features;
  for (std::size_t f = 0; f < n_features; ++f) {
    if (binary[f] != 0) {
      packed.slot[f] = static_cast<std::int32_t>(packed_features.size());
      packed_features.push_back(f);
    }
  }
  packed.columns = packed_features.size();
  packed.words_per_row = (packed.columns + 63) / 64;
  packed.words.assign(data.size() * packed.words_per_row, 0);
  for (std::size_t r = 0; r < data.size(); ++r) {
    const std::span<const float> row = data.x.row(r);
    std::uint64_t* words = packed.words.data() + r * packed.words_per_row;
    for (std::size_t k = 0; k < packed.columns; ++k) {
      if (row[packed_features[k]] == 1.0f) words[k / 64] |= 1ULL << (k % 64);
    }
  }
  return packed;
}

void DecisionTree::fit(const Dataset& data, TreeTask task,
                       const TreeParams& params, util::Rng& rng,
                       std::span<const std::size_t> indices) {
  fit(data, BinaryColumns::pack(data), task, params, rng, indices);
}

void DecisionTree::fit(const Dataset& data, const BinaryColumns& binary,
                       TreeTask task, const TreeParams& params,
                       util::Rng& rng, std::span<const std::size_t> indices) {
  TreeGrower grower(data, binary, task, params, &rng, indices);
  grower.growTo(params.min_samples_split);
  *this = grower.tree();
}

TreeGrower::TreeGrower(const Dataset& data, const BinaryColumns& binary,
                       TreeTask task, const TreeParams& params,
                       util::Rng* rng, std::span<const std::size_t> indices)
    : data_(data), binary_(binary), task_(task), params_(params), rng_(rng) {
  if (data.size() == 0) {
    throw std::invalid_argument("DecisionTree::fit: empty dataset");
  }
  if (binary.slot.size() != data.features() ||
      binary.words.size() != data.size() * binary.words_per_row) {
    throw std::invalid_argument(
        "DecisionTree::fit: binary columns were packed from other data");
  }
  if (params.max_features >= 0 && rng == nullptr) {
    throw std::invalid_argument(
        "TreeGrower: feature subsampling (max_features >= 0) needs an rng");
  }
  if (task == TreeTask::kClassification) {
    for (const float label : data.y) {
      if (label != 0.0f && label != 1.0f) {
        throw std::invalid_argument(
            "DecisionTree::fit: classification labels must be 0/1");
      }
    }
  }
  if (indices.empty()) {
    working_.resize(data.size());
    std::iota(working_.begin(), working_.end(), 0);
  } else {
    working_.assign(indices.begin(), indices.end());
  }
  feature_pool_.resize(data.features());
  std::iota(feature_pool_.begin(), feature_pool_.end(), 0);
}

void TreeGrower::growTo(int min_samples_split) {
  std::vector<WorkItem> stack;
  if (last_split_ == -1) {
    nodes_.emplace_back();
    gain_.push_back(0.0);
    stack.push_back({0, 0, working_.size(), 0});
  } else {
    if (params_.max_features >= 0) {
      throw std::invalid_argument(
          "TreeGrower: stepped growth needs max_features < 0");
    }
    if (min_samples_split > last_split_) {
      throw std::invalid_argument(
          "TreeGrower: min_samples_split must not grow between steps");
    }
  }
  last_split_ = std::max(min_samples_split, 0);
  // A negative size, cast, admits no node: every node stays a leaf.
  const auto min_rows = static_cast<std::size_t>(min_samples_split);
  std::erase_if(waiting_, [&](const WorkItem& item) {
    if (item.end - item.begin < min_rows) return false;
    stack.push_back(item);
    return true;
  });
  grow(std::move(stack), min_rows);
}

void TreeGrower::grow(std::vector<WorkItem> stack, std::size_t min_rows) {
  const Dataset& data = data_;
  const BinaryColumns& binary = binary_;
  const TreeTask task = task_;
  const TreeParams& params = params_;
  const std::size_t n_features = data.features();
  std::vector<int>& feature_pool = feature_pool_;
  std::vector<std::size_t>& working = working_;

  std::vector<std::pair<float, float>> scratch;  // (feature value, label)

  // Packed-column stats of the current node, filled a block at a time
  // on first use: block b is current when block_node[b] == item.node.
  const std::size_t wpr = binary.words_per_row;
  NodeRows gathered;
  std::vector<LabelStats> packed_left(binary.columns + kLanes);
  std::vector<LabelStats> packed_right(binary.columns + kLanes);
  std::vector<std::int32_t> block_node((binary.columns + kLanes - 1) / kLanes,
                                       -1);

  while (!stack.empty()) {
    const WorkItem item = stack.back();
    stack.pop_back();
    const std::size_t n = item.end - item.begin;
    const std::span<std::size_t> rows{working.data() + item.begin, n};

    LabelStats node_stats;
    for (const std::size_t row : rows) node_stats.add(data.y[row]);
    const double node_impurity = node_stats.impurity(task);

    nodes_[static_cast<std::size_t>(item.node)].value =
        node_stats.leafValue(task);

    const bool depth_ok =
        params.max_depth < 0 || item.depth < params.max_depth;
    if (!depth_ok || node_impurity <= 1e-12) continue;  // leaf
    if (n < min_rows) {
      waiting_.push_back(item);  // a leaf until a smaller step
      continue;
    }

    // Candidate features: all, or a random subset per split.
    int n_candidates = static_cast<int>(n_features);
    if (params.max_features >= 0 &&
        params.max_features < n_candidates) {
      // Partial Fisher-Yates for the first max_features entries.
      for (int i = 0; i < params.max_features; ++i) {
        const auto j = static_cast<std::size_t>(
            rng_->nextInRange(i, static_cast<int>(n_features) - 1));
        std::swap(feature_pool[static_cast<std::size_t>(i)],
                  feature_pool[j]);
      }
      n_candidates = params.max_features;
    }

    BestSplit best;
    const auto min_leaf = static_cast<double>(params.min_samples_leaf);
    bool node_gathered = false;
    for (int c = 0; c < n_candidates; ++c) {
      const int feature = feature_pool[static_cast<std::size_t>(c)];
      const auto fcol = static_cast<std::size_t>(feature);

      // Packed binary column: stats from the node's block scan.
      if (const std::int32_t k = binary.slot[fcol]; k >= 0) {
        const auto slot = static_cast<std::size_t>(k);
        const std::size_t block = slot / kLanes;
        if (!node_gathered) {
          gathered.y.resize(n);
          gathered.words.resize(n * wpr);
          for (std::size_t i = 0; i < n; ++i) {
            gathered.y[i] = data.y[rows[i]];
            std::copy_n(binary.words.data() + rows[i] * wpr, wpr,
                        gathered.words.data() + i * wpr);
          }
          node_gathered = true;
        }
        if (block_node[block] != item.node) {
          scanBlock(gathered, wpr, block, &packed_left[block * kLanes],
                    &packed_right[block * kLanes]);
          block_node[block] = item.node;
        }
        const LabelStats& left = packed_left[slot];
        const LabelStats& right = packed_right[slot];
        if (left.count < min_leaf || right.count < min_leaf) continue;
        const double score = left.impurity(task) + right.impurity(task);
        if (score < best.score) {
          best = BestSplit{feature, 0.5f, score};
        }
        continue;
      }

      // Unpacked column: O(n) when it is {0,1} on this node's rows.
      bool is_binary = true;
      LabelStats left, right;
      for (const std::size_t row : rows) {
        const float v = data.x.at(row, fcol);
        if (v == 0.0f) {
          left.add(data.y[row]);
        } else if (v == 1.0f) {
          right.add(data.y[row]);
        } else {
          is_binary = false;
          break;
        }
      }
      if (is_binary) {
        if (left.count < min_leaf || right.count < min_leaf) continue;
        const double score = left.impurity(task) + right.impurity(task);
        if (score < best.score) {
          best = BestSplit{feature, 0.5f, score};
        }
        continue;
      }

      // General path: sort and scan between distinct values.
      scratch.clear();
      scratch.reserve(n);
      for (const std::size_t row : rows) {
        scratch.emplace_back(data.x.at(row, fcol), data.y[row]);
      }
      std::sort(scratch.begin(), scratch.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      LabelStats lo;
      LabelStats hi = node_stats;
      for (std::size_t i = 0; i + 1 < scratch.size(); ++i) {
        lo.add(scratch[i].second);
        hi.remove(scratch[i].second);
        if (scratch[i].first == scratch[i + 1].first) continue;
        if (lo.count < min_leaf || hi.count < min_leaf) continue;
        const double score = lo.impurity(task) + hi.impurity(task);
        if (score < best.score) {
          best.feature = feature;
          best.threshold =
              0.5f * (scratch[i].first + scratch[i + 1].first);
          best.score = score;
        }
      }
    }

    // Accept the best split even at zero impurity gain (as sklearn's
    // CART does): XOR-like interactions only pay off one level down,
    // so requiring strictly positive gain would leave them
    // unlearnable. Termination is still guaranteed because both
    // children are strictly smaller. Only strictly *worse* splits —
    // which the scan cannot produce — are rejected.
    if (best.feature < 0 || best.score > node_impurity + 1e-9) {
      continue;  // no valid split found
    }

    // Partition rows in place.
    const auto fcol = static_cast<std::size_t>(best.feature);
    auto mid_it = std::partition(
        working.begin() + static_cast<std::ptrdiff_t>(item.begin),
        working.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](std::size_t row) {
          return data.x.at(row, fcol) <= best.threshold;
        });
    const auto mid = static_cast<std::size_t>(
        mid_it - working.begin());
    if (mid == item.begin || mid == item.end) continue;  // degenerate

    gain_[static_cast<std::size_t>(item.node)] = node_impurity - best.score;

    const auto left_slot = static_cast<std::int32_t>(nodes_.size());
    nodes_.resize(nodes_.size() + 2);
    gain_.resize(nodes_.size(), 0.0);
    DecisionTree::Node& parent = nodes_[static_cast<std::size_t>(item.node)];
    parent.feature = best.feature;
    parent.threshold = best.threshold;
    parent.left = left_slot;
    parent.right = left_slot + 1;
    stack.push_back({left_slot, item.begin, mid, item.depth + 1});
    stack.push_back({left_slot + 1, mid, item.end, item.depth + 1});
  }
}

DecisionTree TreeGrower::tree() const {
  if (nodes_.empty()) {
    throw std::logic_error("TreeGrower::tree: nothing grown yet");
  }
  // Replays fit()'s work stack over the grown shape: a split's two
  // children take the next two slots when it is popped, right child
  // popped first. That is fit()'s node order and the order it sums
  // each feature's impurity decrease in.
  DecisionTree tree;
  tree.importance_raw_.assign(data_.features(), 0.0);
  tree.nodes_.reserve(nodes_.size());
  tree.nodes_.push_back(nodes_[0]);
  std::vector<std::pair<std::int32_t, std::int32_t>> stack = {{0, 0}};
  while (!stack.empty()) {
    const auto [from, to] = stack.back();
    stack.pop_back();
    const DecisionTree::Node& node = nodes_[static_cast<std::size_t>(from)];
    if (node.feature < 0) continue;
    tree.importance_raw_[static_cast<std::size_t>(node.feature)] +=
        gain_[static_cast<std::size_t>(from)];
    const auto left = static_cast<std::int32_t>(tree.nodes_.size());
    tree.nodes_.push_back(nodes_[static_cast<std::size_t>(node.left)]);
    tree.nodes_.push_back(nodes_[static_cast<std::size_t>(node.right)]);
    tree.nodes_[static_cast<std::size_t>(to)].left = left;
    tree.nodes_[static_cast<std::size_t>(to)].right = left + 1;
    stack.push_back({node.left, left});
    stack.push_back({node.right, left + 1});
  }
  return tree;
}

float DecisionTree::predict(std::span<const float> features) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::predict: not fitted");
  }
  std::size_t at = 0;
  for (;;) {
    const Node& node = nodes_[at];
    if (node.feature < 0) return node.value;
    const float v = features[static_cast<std::size_t>(node.feature)];
    at = static_cast<std::size_t>(v <= node.threshold ? node.left
                                                      : node.right);
  }
}

std::vector<double> DecisionTree::featureImportance(
    std::size_t n_features) const {
  std::vector<double> importance(n_features, 0.0);
  double total = 0.0;
  for (std::size_t f = 0; f < importance_raw_.size() && f < n_features;
       ++f) {
    importance[f] = importance_raw_[f];
    total += importance_raw_[f];
  }
  if (total > 0.0) {
    for (double& value : importance) value /= total;
  }
  return importance;
}

int DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  // Nodes are appended parent-first, so a forward scan can compute
  // depths in one pass.
  std::vector<int> depth_of(nodes_.size(), 1);
  int deepest = 1;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.feature < 0) continue;
    depth_of[static_cast<std::size_t>(node.left)] = depth_of[i] + 1;
    depth_of[static_cast<std::size_t>(node.right)] = depth_of[i] + 1;
    deepest = std::max(deepest, depth_of[i] + 1);
  }
  return deepest;
}

}  // namespace tevot::ml
