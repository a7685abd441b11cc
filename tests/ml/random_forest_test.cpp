// Random-forest tests: ensemble voting/averaging, determinism per
// seed, bootstrap behaviour, and generalization beating a single tree
// on a noisy task, and the split-size ladder fit.
#include "ml/random_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "ml/metrics.hpp"
#include "ml/serialize.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tevot::ml {
namespace {

/// Noisy threshold task: y = [x0 + x1 > 1] with 15% label flips.
Dataset noisyTask(int n, std::uint64_t seed) {
  Dataset data;
  util::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const float x0 = static_cast<float>(rng.nextDouble());
    const float x1 = static_cast<float>(rng.nextDouble());
    float label = (x0 + x1 > 1.0f) ? 1.0f : 0.0f;
    if (rng.nextBool(0.15)) label = 1.0f - label;
    const float row[2] = {x0, x1};
    data.append({row, 2}, label);
  }
  return data;
}

TEST(RandomForestTest, ClassifierBeatsSingleTreeOnNoise) {
  const Dataset train = noisyTask(1500, 1);
  // Clean test labels measure true generalization.
  Dataset test;
  util::Rng rng(2);
  for (int i = 0; i < 800; ++i) {
    const float x0 = static_cast<float>(rng.nextDouble());
    const float x1 = static_cast<float>(rng.nextDouble());
    const float row[2] = {x0, x1};
    test.append({row, 2}, (x0 + x1 > 1.0f) ? 1.0f : 0.0f);
  }

  DecisionTree tree;
  util::Rng tree_rng(3);
  tree.fit(train, TreeTask::kClassification, TreeParams{}, tree_rng);
  std::vector<float> tree_pred;
  for (std::size_t r = 0; r < test.size(); ++r) {
    tree_pred.push_back(tree.predict(test.x.row(r)));
  }

  RandomForestClassifier forest;
  util::Rng forest_rng(3);
  ForestParams params;
  params.n_trees = 25;
  forest.fit(train, params, forest_rng);
  const std::vector<float> forest_pred = forest.predictBatch(test.x);

  const double tree_acc = accuracy(tree_pred, test.y);
  const double forest_acc = accuracy(forest_pred, test.y);
  EXPECT_GT(forest_acc, tree_acc + 0.01);
  EXPECT_GT(forest_acc, 0.9);
}

TEST(RandomForestTest, DeterministicPerSeed) {
  const Dataset train = noisyTask(300, 5);
  RandomForestClassifier a, b;
  util::Rng rng_a(7), rng_b(7);
  a.fit(train, ForestParams{}, rng_a);
  b.fit(train, ForestParams{}, rng_b);
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_EQ(a.predict(train.x.row(r)), b.predict(train.x.row(r)));
    EXPECT_EQ(a.predictProbability(train.x.row(r)),
              b.predictProbability(train.x.row(r)));
  }
}

/// Every tree's nodes equal field by field, floats bit for bit.
::testing::AssertionResult sameTrees(std::span<const DecisionTree> a,
                                     std::span<const DecisionTree> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " vs " << b.size() << " trees";
  }
  for (std::size_t t = 0; t < a.size(); ++t) {
    const auto x = a[t].nodes();
    const auto y = b[t].nodes();
    if (x.size() != y.size()) {
      return ::testing::AssertionFailure() << "tree " << t << ": "
                                           << x.size() << " vs " << y.size()
                                           << " nodes";
    }
    for (std::size_t n = 0; n < x.size(); ++n) {
      if (x[n].feature != y[n].feature || x[n].left != y[n].left ||
          x[n].right != y[n].right ||
          std::bit_cast<std::uint32_t>(x[n].threshold) !=
              std::bit_cast<std::uint32_t>(y[n].threshold) ||
          std::bit_cast<std::uint32_t>(x[n].value) !=
              std::bit_cast<std::uint32_t>(y[n].value)) {
        return ::testing::AssertionFailure()
               << "tree " << t << " node " << n << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(RandomForestTest, ParallelFitIsBitIdenticalToSerial) {
  // Seed-splitting guarantee: the forest must hold the exact same
  // trees whether fitted serially or on a pool of any size.
  const Dataset train = noisyTask(400, 6);
  ForestParams params;
  params.n_trees = 12;

  RandomForestClassifier serial;
  util::Rng serial_rng(29);
  serial.fit(train, params, serial_rng);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    util::ThreadPool pool(threads);
    RandomForestClassifier parallel;
    util::Rng parallel_rng(29);
    parallel.fit(train, params, parallel_rng, &pool);
    EXPECT_TRUE(sameTrees(parallel.trees(), serial.trees()))
        << "with " << threads << " threads";
  }

  // The caller's rng must end in the same state either way (it is
  // consumed only for the up-front per-tree seed draw).
  util::Rng replay(29);
  for (int t = 0; t < params.n_trees; ++t) replay.next();
  EXPECT_EQ(serial_rng.next(), replay.next());
}

TEST(RandomForestTest, RegressorParallelFitIsBitIdentical) {
  Dataset data;
  util::Rng rng(31);
  for (int i = 0; i < 300; ++i) {
    const float v = static_cast<float>(rng.nextDouble(0.0, 1.0));
    const float row[1] = {v};
    data.append({row, 1}, 2.0f * v);
  }
  RandomForestRegressor serial, parallel;
  util::Rng rng_a(33), rng_b(33);
  serial.fit(data, ForestParams{}, rng_a);
  util::ThreadPool pool(6);
  parallel.fit(data, ForestParams{}, rng_b, &pool);
  std::ostringstream a, b;
  saveForest(a, serial);
  saveForest(b, parallel);
  EXPECT_EQ(a.str(), b.str());
}

TEST(RandomForestTest, PooledFitSharesPackedBinaryColumns) {
  // TEVoT's shape in small: operand bits plus two real operating-
  // condition columns. Every pool thread reads the one packed view of
  // the bit columns; the forest must still serialize to the serial
  // fit's bytes.
  Dataset data;
  util::Rng rng(41);
  for (int i = 0; i < 400; ++i) {
    float row[18];
    int ones = 0;
    for (int b = 0; b < 16; ++b) {
      row[b] = rng.nextBool() ? 1.0f : 0.0f;
      ones += row[b] != 0.0f ? 1 : 0;
    }
    row[16] = 0.8f + 0.1f * static_cast<float>(rng.nextBelow(3));
    row[17] = 25.0f * static_cast<float>(rng.nextBelow(5));
    data.append({row, 18},
                static_cast<float>(ones) * 10.0f / row[16] + row[17]);
  }
  RandomForestRegressor serial, pooled;
  util::Rng rng_a(43), rng_b(43);
  serial.fit(data, ForestParams{}, rng_a);
  util::ThreadPool pool(4);
  pooled.fit(data, ForestParams{}, rng_b, &pool);
  std::ostringstream a, b;
  saveForest(a, serial);
  saveForest(b, pooled);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_GT(serial.trees()[0].nodeCount(), 1u);
}

TEST(RandomForestTest, ProbabilityIsVoteFraction) {
  const Dataset train = noisyTask(300, 9);
  RandomForestClassifier forest;
  util::Rng rng(11);
  ForestParams params;
  params.n_trees = 10;
  forest.fit(train, params, rng);
  for (std::size_t r = 0; r < 20; ++r) {
    const double p = forest.predictProbability(train.x.row(r));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    // With 10 trees the probability is a multiple of 0.1.
    EXPECT_NEAR(p * 10.0, std::round(p * 10.0), 1e-9);
    EXPECT_EQ(forest.predict(train.x.row(r)), p >= 0.5 ? 1.0f : 0.0f);
  }
}

TEST(RandomForestTest, RegressorAveragesTrees) {
  Dataset data;
  util::Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const float v = static_cast<float>(rng.nextDouble(0.0, 1.0));
    const float row[1] = {v};
    data.append({row, 1}, 3.0f * v + 1.0f);
  }
  RandomForestRegressor forest;
  util::Rng forest_rng(13);
  forest.fit(data, ForestParams{}, forest_rng);
  const std::vector<float> predictions = forest.predictBatch(data.x);
  EXPECT_GT(r2Score(predictions, data.y), 0.95);
  const float mid[1] = {0.5f};
  EXPECT_NEAR(forest.predict({mid, 1}), 2.5f, 0.2f);
}

TEST(RandomForestTest, NoBootstrapUsesAllRows) {
  const Dataset train = noisyTask(200, 15);
  RandomForestClassifier forest;
  util::Rng rng(17);
  ForestParams params;
  params.n_trees = 3;
  params.bootstrap = false;
  forest.fit(train, params, rng);
  EXPECT_EQ(forest.trees().size(), 3u);
  // Without bootstrap and with all features, all trees are identical.
  for (std::size_t r = 0; r < 30; ++r) {
    const double p = forest.predictProbability(train.x.row(r));
    EXPECT_TRUE(p == 0.0 || p == 1.0);
  }
}

TEST(RandomForestTest, FeatureImportanceConcentrates) {
  // Feature 1 decides, feature 0 is noise: importance concentrates.
  Dataset data;
  util::Rng rng(21);
  for (int i = 0; i < 400; ++i) {
    const float x0 = static_cast<float>(rng.nextDouble());
    const float x1 = static_cast<float>(rng.nextDouble());
    const float row[2] = {x0, x1};
    data.append({row, 2}, x1 > 0.5f ? 1.0f : 0.0f);
  }
  RandomForestClassifier forest;
  util::Rng forest_rng(22);
  forest.fit(data, ForestParams{}, forest_rng);
  const std::vector<double> importance =
      forestFeatureImportance(forest.trees(), 2);
  EXPECT_GT(importance[1], 0.8);
  EXPECT_NEAR(importance[0] + importance[1], 1.0, 1e-9);
  // A wider request pads with zeros.
  const std::vector<double> padded =
      forestFeatureImportance(forest.trees(), 4);
  EXPECT_EQ(padded[2], 0.0);
  EXPECT_EQ(padded[3], 0.0);
}

TEST(RandomForestTest, SingleLeafTreeHasZeroImportance) {
  Dataset data;
  const float row[2] = {1.0f, 2.0f};
  for (int i = 0; i < 5; ++i) data.append({row, 2}, 1.0f);
  DecisionTree tree;
  util::Rng rng(23);
  tree.fit(data, TreeTask::kClassification, TreeParams{}, rng);
  const std::vector<double> importance = tree.featureImportance(2);
  EXPECT_EQ(importance[0], 0.0);
  EXPECT_EQ(importance[1], 0.0);
}

TEST(RandomForestTest, ErrorPaths) {
  RandomForestClassifier forest;
  const float row[1] = {0.0f};
  EXPECT_THROW(forest.predict({row, 1}), std::logic_error);
  util::Rng rng(19);
  Dataset data;
  data.append({row, 1}, 0.0f);
  ForestParams params;
  params.n_trees = 0;
  EXPECT_THROW(forest.fit(data, params, rng), std::invalid_argument);
}

/// A regression target on 8 binary columns: y is a random value per
/// combination of the first 6, so leaves pay down to a few rows.
Dataset lookupTask(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  float table[64];
  for (float& value : table) value = static_cast<float>(rng.nextDouble(0, 100));
  Dataset data;
  for (int i = 0; i < n; ++i) {
    float row[8];
    unsigned key = 0;
    for (int f = 0; f < 8; ++f) {
      const bool one = rng.nextBool();
      row[f] = one ? 1.0f : 0.0f;
      if (f < 6 && one) key |= 1U << f;
    }
    data.append({row, 8}, table[key]);
  }
  return data;
}

std::string savedBytes(const RandomForestRegressor& forest) {
  std::ostringstream os;
  saveForest(os, forest);
  return os.str();
}

TEST(RandomForestTest, LadderKeepsTheLastStepThatPays) {
  const Dataset data = lookupTask(400, 41);
  const int ladder[] = {64, 32, 16, 8, 4, 2};
  for (std::size_t stop = 0; stop < std::size(ladder); ++stop) {
    SCOPED_TRACE("steps taken " + std::to_string(stop));
    std::size_t calls = 0;
    RandomForestRegressor laddered;
    util::Rng rng_a(43);
    util::ThreadPool pool(3);
    const int chosen = laddered.fitLadder(
        data, ForestParams{}, ladder,
        [&](std::span<const float> coarse, std::span<const float> fine) {
          EXPECT_EQ(coarse.size(), data.size());
          EXPECT_EQ(fine.size(), data.size());
          return ++calls <= stop;
        },
        rng_a, &pool);
    EXPECT_EQ(chosen, ladder[stop]);
    EXPECT_EQ(calls, std::min(stop + 1, std::size(ladder) - 1));
    ForestParams one_shot;
    one_shot.tree.min_samples_split = chosen;
    RandomForestRegressor fitted;
    util::Rng rng_b(43);
    fitted.fit(data, one_shot, rng_b);
    EXPECT_EQ(savedBytes(laddered), savedBytes(fitted));
  }
}

TEST(RandomForestTest, LadderOutOfBagIsTheMeanOfTreesThatLeftTheRowOut) {
  const Dataset data = lookupTask(50, 47);
  ForestParams params;
  params.n_trees = 3;
  const int ladder[] = {8, 2};
  std::vector<float> oob;
  RandomForestRegressor forest;
  util::Rng rng(53);
  forest.fitLadder(data, params, ladder,
                   [&](std::span<const float>, std::span<const float> fine) {
                     oob.assign(fine.begin(), fine.end());
                     return true;
                   },
                   rng);
  ASSERT_EQ(oob.size(), data.size());
  // Redraw the bootstrap samples: one seed per tree, then n draws.
  util::Rng seeds(53);
  std::vector<std::vector<bool>> in_bag(3, std::vector<bool>(data.size()));
  for (std::size_t t = 0; t < 3; ++t) {
    util::Rng tree_rng(seeds.next());
    for (std::size_t i = 0; i < data.size(); ++i) {
      in_bag[t][tree_rng.nextBelow(data.size())] = true;
    }
  }
  std::size_t scored = 0;
  for (std::size_t r = 0; r < data.size(); ++r) {
    double total = 0.0;
    int voters = 0;
    for (std::size_t t = 0; t < 3; ++t) {
      if (in_bag[t][r]) continue;
      total += forest.trees()[t].predict(data.x.row(r));
      ++voters;
    }
    if (voters == 0) {
      EXPECT_TRUE(std::isnan(oob[r])) << r;
    } else {
      EXPECT_EQ(oob[r], static_cast<float>(total / voters)) << r;
      ++scored;
    }
  }
  EXPECT_GT(scored, data.size() / 2);
}

TEST(RandomForestTest, LadderErrorPaths) {
  const Dataset data = lookupTask(40, 59);
  const auto always = [](std::span<const float>, std::span<const float>) {
    return true;
  };
  RandomForestRegressor forest;
  util::Rng rng(61);
  const int rising[] = {2, 4};
  const int repeated[] = {8, 8};
  EXPECT_THROW(forest.fitLadder(data, ForestParams{}, {}, always, rng),
               std::invalid_argument);
  EXPECT_THROW(forest.fitLadder(data, ForestParams{}, rising, always, rng),
               std::invalid_argument);
  EXPECT_THROW(forest.fitLadder(data, ForestParams{}, repeated, always, rng),
               std::invalid_argument);
  const int ladder[] = {8, 2};
  ForestParams no_bootstrap;
  no_bootstrap.bootstrap = false;
  EXPECT_THROW(forest.fitLadder(data, no_bootstrap, ladder, always, rng),
               std::invalid_argument);
  ForestParams subsampled;
  subsampled.tree.max_features = 2;
  EXPECT_THROW(forest.fitLadder(data, subsampled, ladder, always, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace tevot::ml
