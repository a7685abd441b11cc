// CART decision-tree tests: exact fits on separable data, XOR (the
// interaction pattern linear models cannot express), regression on
// piecewise-constant targets, parameter limits and error paths, and
// node-for-node equality of the packed binary-column scan with the
// per-column scan it replaced, and of stepped growth with one-shot fits.
#include "ml/decision_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "ml/metrics.hpp"
#include "util/rng.hpp"

namespace tevot::ml {
namespace {

Dataset xorDataset(int copies) {
  Dataset data;
  for (int i = 0; i < copies; ++i) {
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        const float row[2] = {static_cast<float>(a),
                              static_cast<float>(b)};
        data.append({row, 2}, static_cast<float>(a ^ b));
      }
    }
  }
  return data;
}

TEST(DecisionTreeTest, LearnsXorExactly) {
  const Dataset data = xorDataset(8);
  DecisionTree tree;
  util::Rng rng(1);
  tree.fit(data, TreeTask::kClassification, TreeParams{}, rng);
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      const float row[2] = {static_cast<float>(a),
                            static_cast<float>(b)};
      EXPECT_EQ(tree.predict({row, 2}), static_cast<float>(a ^ b));
    }
  }
  EXPECT_GE(tree.depth(), 2);
}

TEST(DecisionTreeTest, ThresholdSplitOnRealFeature) {
  Dataset data;
  util::Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.nextDouble(0.0, 10.0));
    const float row[1] = {v};
    data.append({row, 1}, v > 6.25f ? 1.0f : 0.0f);
  }
  DecisionTree tree;
  tree.fit(data, TreeTask::kClassification, TreeParams{}, rng);
  const float lo[1] = {5.9f};
  const float hi[1] = {6.6f};
  EXPECT_EQ(tree.predict({lo, 1}), 0.0f);
  EXPECT_EQ(tree.predict({hi, 1}), 1.0f);
  // A single split suffices.
  EXPECT_EQ(tree.depth(), 2);
}

TEST(DecisionTreeTest, RegressionPiecewiseConstant) {
  Dataset data;
  util::Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const float v = static_cast<float>(rng.nextDouble(0.0, 3.0));
    const float row[1] = {v};
    data.append({row, 1}, v < 1.0f ? 10.0f : (v < 2.0f ? 20.0f : 30.0f));
  }
  DecisionTree tree;
  tree.fit(data, TreeTask::kRegression, TreeParams{}, rng);
  const float q0[1] = {0.5f}, q1[1] = {1.5f}, q2[1] = {2.5f};
  EXPECT_NEAR(tree.predict({q0, 1}), 10.0f, 1e-4);
  EXPECT_NEAR(tree.predict({q1, 1}), 20.0f, 1e-4);
  EXPECT_NEAR(tree.predict({q2, 1}), 30.0f, 1e-4);
}

TEST(DecisionTreeTest, MaxDepthLimitsTree) {
  const Dataset data = xorDataset(8);
  DecisionTree stump;
  util::Rng rng(4);
  TreeParams params;
  params.max_depth = 1;
  stump.fit(data, TreeTask::kClassification, params, rng);
  EXPECT_LE(stump.depth(), 2);
  EXPECT_LE(stump.nodeCount(), 3u);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  Dataset data;
  util::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    const float row[1] = {static_cast<float>(i)};
    data.append({row, 1}, static_cast<float>(i % 2));
  }
  DecisionTree tree;
  TreeParams params;
  params.min_samples_leaf = 16;
  tree.fit(data, TreeTask::kRegression, params, rng);
  // With 64 samples and >= 16 per leaf there can be at most 4 leaves
  // (7 nodes).
  EXPECT_LE(tree.nodeCount(), 7u);
}

TEST(DecisionTreeTest, PureNodeBecomesLeaf) {
  Dataset data;
  for (int i = 0; i < 10; ++i) {
    const float row[1] = {static_cast<float>(i)};
    data.append({row, 1}, 1.0f);
  }
  DecisionTree tree;
  util::Rng rng(6);
  tree.fit(data, TreeTask::kClassification, TreeParams{}, rng);
  EXPECT_EQ(tree.nodeCount(), 1u);
  const float q[1] = {3.0f};
  EXPECT_EQ(tree.predict({q, 1}), 1.0f);
}

TEST(DecisionTreeTest, ErrorPaths) {
  DecisionTree tree;
  util::Rng rng(7);
  Dataset empty;
  EXPECT_THROW(
      tree.fit(empty, TreeTask::kClassification, TreeParams{}, rng),
      std::invalid_argument);
  Dataset bad_labels;
  const float row[1] = {0.0f};
  bad_labels.append({row, 1}, 2.0f);
  EXPECT_THROW(
      tree.fit(bad_labels, TreeTask::kClassification, TreeParams{}, rng),
      std::invalid_argument);
  EXPECT_THROW(tree.predict({row, 1}), std::logic_error);
}

TEST(DecisionTreeTest, IndexSubsetTraining) {
  const Dataset data = xorDataset(4);
  // Train only on rows with label 1 -> constant tree.
  std::vector<std::size_t> ones;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.y[i] == 1.0f) ones.push_back(i);
  }
  DecisionTree tree;
  util::Rng rng(8);
  tree.fit(data, TreeTask::kClassification, TreeParams{}, rng, ones);
  const float q[2] = {0.0f, 0.0f};
  EXPECT_EQ(tree.predict({q, 2}), 1.0f);
}

TEST(DecisionTreeTest, MaxFeaturesSubsampling) {
  // With max_features=1 on XOR the root split is still found (both
  // features are equally uninformative at the root; the tree must
  // recurse rather than give up).
  const Dataset data = xorDataset(16);
  DecisionTree tree;
  util::Rng rng(9);
  TreeParams params;
  params.max_features = 1;
  tree.fit(data, TreeTask::kClassification, params, rng);
  int correct = 0;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      const float row[2] = {static_cast<float>(a),
                            static_cast<float>(b)};
      if (tree.predict({row, 2}) == static_cast<float>(a ^ b)) ++correct;
    }
  }
  // XOR with greedy axis splits and random 1-feature candidates can
  // fail to improve impurity at the root; accept either a full fit or
  // a majority leaf, but the tree must be well-formed.
  EXPECT_TRUE(tree.fitted());
  EXPECT_GE(correct, 2);
}

// The split search as it was before binary columns were packed: one
// pass over the node's rows per candidate column. Kept verbatim as
// the reference the packed scan must reproduce node for node.
struct RefStats {
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
      return count * 2.0 * p * (1.0 - p);
    }
    return sumsq - sum * sum / count;
  }
  float leafValue(TreeTask task) const {
    if (count <= 0.0) return 0.0f;
    const double mean = sum / count;
    if (task == TreeTask::kClassification) return mean >= 0.5 ? 1.0f : 0.0f;
    return static_cast<float>(mean);
  }
};

std::vector<DecisionTree::Node> referenceFit(
    const Dataset& data, TreeTask task, const TreeParams& params,
    util::Rng& rng, std::span<const std::size_t> indices) {
  using Node = DecisionTree::Node;
  std::vector<std::size_t> working(indices.begin(), indices.end());
  if (working.empty()) {
    working.resize(data.size());
    std::iota(working.begin(), working.end(), 0);
  }
  const std::size_t n_features = data.features();
  std::vector<int> feature_pool(n_features);
  std::iota(feature_pool.begin(), feature_pool.end(), 0);
  struct WorkItem {
    std::int32_t node;
    std::size_t begin;
    std::size_t end;
    int depth;
  };
  std::vector<Node> nodes(1);
  std::vector<WorkItem> stack = {{0, 0, working.size(), 0}};
  std::vector<std::pair<float, float>> scratch;
  while (!stack.empty()) {
    const WorkItem item = stack.back();
    stack.pop_back();
    const std::size_t n = item.end - item.begin;
    const std::span<std::size_t> rows{working.data() + item.begin, n};
    RefStats node_stats;
    for (const std::size_t row : rows) node_stats.add(data.y[row]);
    const double node_impurity = node_stats.impurity(task);
    nodes[static_cast<std::size_t>(item.node)].value =
        node_stats.leafValue(task);
    const bool depth_ok =
        params.max_depth < 0 || item.depth < params.max_depth;
    if (!depth_ok || n < static_cast<std::size_t>(params.min_samples_split) ||
        node_impurity <= 1e-12) {
      continue;
    }
    int n_candidates = static_cast<int>(n_features);
    if (params.max_features >= 0 && params.max_features < n_candidates) {
      for (int i = 0; i < params.max_features; ++i) {
        const auto j = static_cast<std::size_t>(
            rng.nextInRange(i, static_cast<int>(n_features) - 1));
        std::swap(feature_pool[static_cast<std::size_t>(i)],
                  feature_pool[j]);
      }
      n_candidates = params.max_features;
    }
    int best_feature = -1;
    float best_threshold = 0.0f;
    double best_score = std::numeric_limits<double>::infinity();
    const auto min_leaf = static_cast<double>(params.min_samples_leaf);
    for (int c = 0; c < n_candidates; ++c) {
      const int feature = feature_pool[static_cast<std::size_t>(c)];
      const auto fcol = static_cast<std::size_t>(feature);
      bool is_binary = true;
      RefStats left, right;
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
        if (score < best_score) {
          best_feature = feature;
          best_threshold = 0.5f;
          best_score = score;
        }
        continue;
      }
      scratch.clear();
      for (const std::size_t row : rows) {
        scratch.emplace_back(data.x.at(row, fcol), data.y[row]);
      }
      std::sort(scratch.begin(), scratch.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      RefStats lo;
      RefStats hi = node_stats;
      for (std::size_t i = 0; i + 1 < scratch.size(); ++i) {
        lo.add(scratch[i].second);
        hi.remove(scratch[i].second);
        if (scratch[i].first == scratch[i + 1].first) continue;
        if (lo.count < min_leaf || hi.count < min_leaf) continue;
        const double score = lo.impurity(task) + hi.impurity(task);
        if (score < best_score) {
          best_feature = feature;
          best_threshold = 0.5f * (scratch[i].first + scratch[i + 1].first);
          best_score = score;
        }
      }
    }
    if (best_feature < 0 || best_score > node_impurity + 1e-9) continue;
    const auto fcol = static_cast<std::size_t>(best_feature);
    auto mid_it = std::partition(
        working.begin() + static_cast<std::ptrdiff_t>(item.begin),
        working.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](std::size_t row) {
          return data.x.at(row, fcol) <= best_threshold;
        });
    const auto mid = static_cast<std::size_t>(mid_it - working.begin());
    if (mid == item.begin || mid == item.end) continue;
    const auto left_slot = static_cast<std::int32_t>(nodes.size());
    const auto right_slot = left_slot + 1;
    nodes.resize(nodes.size() + 2);
    Node& parent = nodes[static_cast<std::size_t>(item.node)];
    parent.feature = best_feature;
    parent.threshold = best_threshold;
    parent.left = left_slot;
    parent.right = right_slot;
    stack.push_back({left_slot, item.begin, mid, item.depth + 1});
    stack.push_back({right_slot, mid, item.end, item.depth + 1});
  }
  return nodes;
}

/// A random dataset mixing every column kind the packed scan must get
/// right: binary (zeros sometimes stored as -0.0), complements of the
/// binary column before them, constant 0, 1 and 3.5, few-valued and
/// continuous reals, and a column that is {0,1} except for 0.5 on
/// some rows, so it is binary at some nodes only. A complement pair
/// splits the same rows into swapped sides, so its two scores are
/// equal exactly when each side's sums are added in the same order.
Dataset randomMixedDataset(util::Rng& rng, std::size_t n_features,
                           std::size_t n_rows, TreeTask task) {
  enum Kind {
    kBinary,
    kComplement,
    kConst0,
    kConst1,
    kConst35,
    kFewReals,
    kReal,
    kMixed
  };
  std::vector<Kind> kinds(n_features);
  std::vector<double> p_one(n_features);
  for (std::size_t f = 0; f < n_features; ++f) {
    const auto pick = rng.nextBelow(20);
    kinds[f] = pick < 9    ? kBinary
               : pick < 12 ? (f > 0 && kinds[f - 1] == kBinary ? kComplement
                                                               : kBinary)
               : pick < 13 ? kConst0
               : pick < 14 ? kConst1
               : pick < 15 ? kConst35
               : pick < 17 ? kFewReals
               : pick < 18 ? kReal
                           : kMixed;
    p_one[f] = rng.nextDouble(0.05, 0.95);
  }
  // Few distinct label values make score ties, where only the
  // candidate order decides; spread values make summation order show.
  const bool discrete_labels = rng.nextBool();
  Dataset data;
  std::vector<float> row(n_features);
  for (std::size_t r = 0; r < n_rows; ++r) {
    for (std::size_t f = 0; f < n_features; ++f) {
      const bool one = rng.nextBool(p_one[f]);
      const float zero = rng.nextBool(0.2) ? -0.0f : 0.0f;
      switch (kinds[f]) {
        case kBinary:
          row[f] = one ? 1.0f : zero;
          break;
        case kComplement:
          row[f] = row[f - 1] == 1.0f ? zero : 1.0f;
          break;
        case kConst0:
          row[f] = 0.0f;
          break;
        case kConst1:
          row[f] = 1.0f;
          break;
        case kConst35:
          row[f] = 3.5f;
          break;
        case kFewReals:
          row[f] = 0.6f + 0.1f * static_cast<float>(rng.nextBelow(4));
          break;
        case kReal:
          row[f] = static_cast<float>(rng.nextDouble(-50.0, 50.0));
          break;
        case kMixed:
          row[f] = rng.nextBool(0.1) ? 0.5f : (one ? 1.0f : zero);
          break;
      }
    }
    float label = 0.0f;
    if (task == TreeTask::kClassification) {
      label = rng.nextBool() ? 1.0f : (rng.nextBool() ? -0.0f : 0.0f);
    } else if (discrete_labels) {
      const float values[] = {-0.0f, 0.0f, -2.0f, 3.0f, 7.5f};
      label = values[rng.nextBelow(5)];
    } else {
      // Magnitudes 20 decades apart, so the double sums round.
      const double scales[] = {1.0, 1.0, 1e-3, 1e-12, 1e8};
      label = rng.nextBool(0.05)
                  ? -0.0f
                  : static_cast<float>(rng.nextDouble(-400.0, 900.0) *
                                       scales[rng.nextBelow(5)]);
    }
    data.append(row, label);
  }
  return data;
}

/// One generated fit: a randomMixedDataset with random tree limits,
/// optionally a bootstrap sample, and the seed its fit draws from.
struct GeneratedFit {
  Dataset data;
  TreeTask task;
  TreeParams params;
  std::vector<std::size_t> indices;  ///< empty: every row
  std::uint64_t fit_seed;
};

GeneratedFit generatedFit(std::uint64_t seed) {
  const std::size_t feature_counts[] = {7, 66, 130};
  util::Rng gen(seed);
  GeneratedFit fit;
  const std::size_t n_features = feature_counts[seed % 3];
  fit.task = seed % 2 == 0 ? TreeTask::kClassification : TreeTask::kRegression;
  fit.data = randomMixedDataset(gen, n_features, 20 + gen.nextBelow(230),
                                fit.task);
  const int depths[] = {-1, -1, 2, 5};
  fit.params.max_depth = depths[gen.nextBelow(4)];
  fit.params.min_samples_leaf = gen.nextBool() ? 1 : 3;
  fit.params.min_samples_split = gen.nextBool(0.75) ? 2 : 6;
  if (gen.nextBool(0.3)) {
    fit.params.max_features = 1 + static_cast<int>(gen.nextBelow(n_features));
  }
  if (gen.nextBool(0.6)) {
    // A bootstrap sample, duplicates included.
    for (std::size_t i = 0; i < fit.data.size(); ++i) {
      fit.indices.push_back(gen.nextBelow(fit.data.size()));
    }
  }
  fit.fit_seed = gen.next();
  return fit;
}

bool sameNodes(std::span<const DecisionTree::Node> a,
               std::span<const DecisionTree::Node> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

TEST(DecisionTreeTest, PackedScanMatchesPerColumnScanNodeForNode) {
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const GeneratedFit fit = generatedFit(seed);
    util::Rng ref_rng(fit.fit_seed);
    const std::vector<DecisionTree::Node> expected = referenceFit(
        fit.data, fit.task, fit.params, ref_rng, fit.indices);

    DecisionTree tree;
    util::Rng rng(fit.fit_seed);
    if (seed % 4 < 2) {
      tree.fit(fit.data, fit.task, fit.params, rng, fit.indices);
    } else {
      const BinaryColumns binary = BinaryColumns::pack(fit.data);
      tree.fit(fit.data, binary, fit.task, fit.params, rng, fit.indices);
    }
    EXPECT_TRUE(sameNodes(tree.nodes(), expected));
    // Both fits drew the same feature subsamples.
    EXPECT_EQ(rng.next(), ref_rng.next());
  }
}

TEST(DecisionTreeTest, SteppedGrowthIsOneShotFitAtEveryStep) {
  const int ladder[] = {64, 32, 16, 8, 4, 2};
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GeneratedFit fit = generatedFit(seed);
    if (fit.params.max_features >= 0) continue;
    const BinaryColumns binary = BinaryColumns::pack(fit.data);
    TreeGrower grower(fit.data, binary, fit.task, fit.params, nullptr,
                      fit.indices);
    for (const int split : ladder) {
      SCOPED_TRACE("min_samples_split " + std::to_string(split));
      grower.growTo(split);
      const DecisionTree stepped = grower.tree();
      fit.params.min_samples_split = split;
      DecisionTree one_shot;
      util::Rng rng(fit.fit_seed);
      one_shot.fit(fit.data, binary, fit.task, fit.params, rng, fit.indices);
      EXPECT_TRUE(sameNodes(stepped.nodes(), one_shot.nodes()));
      // Importance sums the kept splits in the one-shot order.
      const std::vector<double> a =
          stepped.featureImportance(fit.data.features());
      const std::vector<double> b =
          one_shot.featureImportance(fit.data.features());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
                0);
      ++checked;
    }
  }
  EXPECT_GT(checked, 6 * 120);
}

TEST(DecisionTreeTest, SteppedGrowthErrorPaths) {
  const Dataset data = xorDataset(32);
  const BinaryColumns binary = BinaryColumns::pack(data);
  TreeParams subsampled;
  subsampled.max_features = 1;
  EXPECT_THROW(TreeGrower(data, binary, TreeTask::kClassification,
                          subsampled, nullptr),
               std::invalid_argument);
  util::Rng rng(3);
  TreeGrower one_step(data, binary, TreeTask::kClassification, subsampled,
                      &rng);
  one_step.growTo(64);
  EXPECT_THROW(one_step.growTo(2), std::invalid_argument);

  TreeGrower grower(data, binary, TreeTask::kClassification, TreeParams{},
                    nullptr);
  EXPECT_THROW(grower.tree(), std::logic_error);
  grower.growTo(16);
  EXPECT_THROW(grower.growTo(32), std::invalid_argument);
  grower.growTo(2);
  EXPECT_TRUE(grower.complete());
  EXPECT_EQ(grower.tree().nodeCount(), 7u);  // XOR: root, two, four leaves
}

TEST(DecisionTreeTest, BinaryColumnsPackOnlyAllZeroOneColumns) {
  Dataset data;
  const float r0[4] = {0.0f, 1.0f, 0.5f, -0.0f};
  const float r1[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  data.append({r0, 4}, 1.0f);
  data.append({r1, 4}, 2.0f);
  const BinaryColumns binary = BinaryColumns::pack(data);
  EXPECT_EQ(binary.slot, (std::vector<std::int32_t>{0, 1, -1, 2}));
  EXPECT_EQ(binary.columns, 3u);
  ASSERT_EQ(binary.words_per_row, 1u);
  EXPECT_EQ(binary.words, (std::vector<std::uint64_t>{0b010, 0b111}));

  DecisionTree tree;
  util::Rng rng(1);
  Dataset other = data;
  other.append({r0, 4}, 3.0f);
  EXPECT_THROW(tree.fit(other, binary, TreeTask::kRegression, TreeParams{},
                        rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace tevot::ml
