// Split-size selection in TevotModel::train: the forest descends the
// ladder while out-of-bag error keeps falling, stops at the top where
// finer splits only fit noise or have nothing left to split, and the
// kept (cut) forest still serves answers bit-identical to its CART walk.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "tevot/model.hpp"

namespace tevot::core {
namespace {

/// One trace at (0.90 V, 50 C) of `cycles` operands A = random bits
/// under `a_mask`, B and the previous operands 0, whose delay is `delay(a, rng)`. No toggles:
/// a cycle errs when its delay exceeds the clock.
std::vector<dta::DtaTrace> syntheticTraces(
    std::size_t cycles, std::uint64_t seed, std::uint32_t a_mask,
    const std::function<double(std::uint32_t, util::Rng&)>& delay) {
  util::Rng rng(seed);
  dta::DtaTrace trace;
  trace.corner = {0.90, 50.0};
  trace.workload_name = "synthetic";
  trace.samples.resize(cycles);
  for (dta::DtaSample& sample : trace.samples) {
    sample.a = rng.nextU32() & a_mask;
    sample.delay_ps = delay(sample.a, rng);
  }
  return {trace};
}

TevotModel trained(const std::vector<dta::DtaTrace>& traces) {
  TevotModel model;
  util::Rng rng(17);
  model.train(traces, rng);
  return model;
}

TEST(SplitLadderTest, DescendsToTwoWhileFinerStepsPay) {
  // A random delay per value of a 10-bit A: 1024 cells of about three
  // rows each. Any ten splits isolate a cell, but only nodes of a few
  // rows reach that deep, so every finer step resolves more cells.
  util::Rng table_rng(5);
  std::vector<double> table(1024);
  for (double& value : table) value = table_rng.nextDouble(100.0, 600.0);
  const TevotModel model =
      trained(syntheticTraces(3000, 7, 1023, [&](std::uint32_t a, util::Rng&) {
        return table[a];
      }));
  EXPECT_EQ(model.splitSize(), 2);
}

TEST(SplitLadderTest, NoiselessFewCellDelayStopsAtTheTop) {
  // Eight delays by bits 0-2 of A: every cell has hundreds of rows, so
  // the trees are pure before any node gets small.
  const TevotModel model = trained(syntheticTraces(
      2000, 11, ~0u, [](std::uint32_t a, util::Rng&) {
        return 100.0 + 50.0 * (a & 1) + 20.0 * (a >> 1 & 1) +
               10.0 * (a >> 2 & 1);
      }));
  EXPECT_EQ(model.splitSize(), kSplitLadder[0]);
}

TEST(SplitLadderTest, FinerStepsThatOnlyFitNoiseAreNotTaken) {
  const TevotModel model = trained(syntheticTraces(
      2000, 13, ~0u, [](std::uint32_t a, util::Rng& rng) {
        return 100.0 + 50.0 * (a & 1) + 20.0 * (a >> 1 & 1) +
               rng.nextDouble(-0.5, 0.5);
      }));
  EXPECT_EQ(model.splitSize(), kSplitLadder[0]);
}

TEST(SplitLadderTest, CutForestServesItsCartWalkBitForBit) {
  const TevotModel model = trained(syntheticTraces(
      2000, 19, ~0u, [](std::uint32_t a, util::Rng& rng) {
        return 100.0 + 50.0 * (a & 1) + rng.nextDouble(0.0, 30.0);
      }));
  ASSERT_GT(model.splitSize(), 2);  // the forest was cut, not grown out
  ASSERT_TRUE(model.validateForServing().ok());
  util::Rng rng(23);
  std::vector<DelayQuery> queries(256);
  for (DelayQuery& query : queries) {
    query = {rng.nextU32(), rng.nextU32(), rng.nextU32(), rng.nextU32(),
             {rng.nextDouble(0.81, 1.00), rng.nextDouble(0.0, 100.0)}};
  }
  std::vector<double> served(queries.size());
  model.predictDelayBatch(queries, served);
  std::vector<float> row(model.encoder().featureCount());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const DelayQuery& q = queries[i];
    model.encoder().encode(q.a, q.b, q.prev_a, q.prev_b, q.corner, row);
    const double walk = model.forest().predict(row);
    EXPECT_EQ(std::memcmp(&walk, &served[i], sizeof(double)), 0) << i;
    const double single =
        model.predictDelay(q.a, q.b, q.prev_a, q.prev_b, q.corner);
    EXPECT_EQ(std::memcmp(&single, &served[i], sizeof(double)), 0) << i;
  }
}

TEST(SplitLadderTest, RejectsForestsWithoutOutOfBagRowsOrWithSubsampling) {
  const auto traces = syntheticTraces(
      200, 29, ~0u, [](std::uint32_t a, util::Rng&) { return 100.0 + (a & 7); });
  TevotConfig no_bootstrap;
  no_bootstrap.forest.bootstrap = false;
  TevotConfig subsampled;
  subsampled.forest.tree.max_features = 8;
  for (const TevotConfig& config : {no_bootstrap, subsampled}) {
    TevotModel model(config);
    util::Rng rng(31);
    EXPECT_THROW(model.train(traces, rng), std::invalid_argument);
  }
}

}  // namespace
}  // namespace tevot::core
