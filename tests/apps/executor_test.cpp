// Instrumented-executor tests: exact execution, profiling capture,
// error injection mechanics (rates, history threading, value modes)
// and the simulation-backed ground-truth oracle.
#include "apps/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tevot/pipeline.hpp"

namespace tevot::apps {
namespace {

TEST(ExecutorTest, ExactMatchesGoldenModels) {
  ExactExecutor executor;
  EXPECT_EQ(executor.addI(3, 4), 7);
  EXPECT_EQ(executor.mulI(-3, 5), -15);
  EXPECT_FLOAT_EQ(executor.addF(1.5f, 2.25f), 3.75f);
  EXPECT_FLOAT_EQ(executor.mulF(-2.0f, 3.5f), -7.0f);
  EXPECT_EQ(executor.execute(circuits::FuKind::kIntMul, 7, 9), 63u);
}

TEST(ExecutorTest, ProfilingRecordsOperandsInOrder) {
  ExactExecutor exact;
  ProfilingExecutor profiler(exact);
  EXPECT_EQ(profiler.addI(1, 2), 3);
  EXPECT_EQ(profiler.addI(5, 6), 11);
  EXPECT_EQ(profiler.mulI(3, 4), 12);
  const dta::Workload adds =
      profiler.workload(circuits::FuKind::kIntAdd, "w");
  ASSERT_EQ(adds.ops.size(), 2u);
  EXPECT_EQ(adds.ops[0].a, 1u);
  EXPECT_EQ(adds.ops[1].b, 6u);
  EXPECT_EQ(adds.name, "w");
  EXPECT_EQ(profiler.opCount(circuits::FuKind::kIntMul), 1u);
  EXPECT_EQ(profiler.opCount(circuits::FuKind::kFpMul), 0u);
  EXPECT_TRUE(
      profiler.workload(circuits::FuKind::kFpAdd).ops.empty());
}

/// Scripted oracle for executor-mechanics tests.
class ScriptedOracle final : public ErrorOracle {
 public:
  explicit ScriptedOracle(std::vector<bool> script)
      : script_(std::move(script)) {}
  Outcome judge(std::uint32_t a, std::uint32_t b, std::uint32_t prev_a,
                std::uint32_t prev_b) override {
    seen_.push_back({a, b, prev_a, prev_b});
    Outcome outcome;
    outcome.error = script_.at(seen_.size() - 1);
    return outcome;
  }
  struct Seen {
    std::uint32_t a, b, prev_a, prev_b;
  };
  std::vector<Seen> seen_;

 private:
  std::vector<bool> script_;
};

TEST(ExecutorTest, InjectionThreadsHistoryPerFu) {
  ErrorInjectingExecutor executor(1);
  auto oracle = std::make_unique<ScriptedOracle>(
      std::vector<bool>{false, true, false});
  ScriptedOracle* raw = oracle.get();
  executor.setOracle(circuits::FuKind::kIntAdd, std::move(oracle));

  EXPECT_EQ(executor.addI(10, 20), 30);   // correct
  const std::int32_t corrupted = executor.addI(30, 40);
  EXPECT_NE(corrupted, 70);               // corrupted (random value)
  EXPECT_EQ(executor.addI(50, 60), 110);  // correct again
  // Mul has no oracle: always exact and not judged.
  EXPECT_EQ(executor.mulI(7, 8), 56);

  ASSERT_EQ(raw->seen_.size(), 3u);
  // First op: prev == current (no transition).
  EXPECT_EQ(raw->seen_[0].prev_a, 10u);
  // Later ops: previous operands threaded through, independent of
  // injected results.
  EXPECT_EQ(raw->seen_[1].prev_a, 10u);
  EXPECT_EQ(raw->seen_[1].a, 30u);
  EXPECT_EQ(raw->seen_[2].prev_b, 40u);
  EXPECT_EQ(executor.injectedErrors(), 1u);
  EXPECT_EQ(executor.totalOps(), 4u);
}

TEST(ExecutorTest, FpRandomValuesAreApplicationScale) {
  ErrorInjectingExecutor executor(2);
  executor.setOracle(
      circuits::FuKind::kFpAdd,
      std::make_unique<ScriptedOracle>(std::vector<bool>(64, true)));
  for (int i = 0; i < 64; ++i) {
    const float result = executor.addF(1.0f, 2.0f);
    EXPECT_TRUE(std::isfinite(result));
    EXPECT_LT(std::fabs(result), 1e6f);
    EXPECT_GT(std::fabs(result), 1e-8f);
  }
}

TEST(ExecutorTest, ModelOracleUsesErrorModel) {
  // A DelayBasedModel calibrated at one corner predicts errors for
  // every op below its max delay -> every op corrupted.
  core::FuContext context(circuits::FuKind::kIntAdd);
  const liberty::Corner corner{0.9, 50.0};
  util::Rng rng(3);
  const auto trace = context.characterize(
      corner, dta::randomWorkloadFor(circuits::FuKind::kIntAdd, 100, rng));
  core::DelayBasedModel delay_model;
  delay_model.calibrate({&trace, 1});

  ErrorInjectingExecutor executor(4);
  executor.setOracle(circuits::FuKind::kIntAdd,
                     std::make_unique<ModelOracle>(
                         delay_model, corner,
                         trace.maxDelayPs() * 0.5));
  for (int i = 0; i < 20; ++i) {
    executor.addI(i, i + 1);
  }
  EXPECT_EQ(executor.injectedErrors(), 20u);
}

TEST(ExecutorTest, SimOracleLatchedModeMatchesDta) {
  // The oracle stepped over a stream must flag exactly the cycles the
  // DTA trace flags, and in latched mode return the latched words.
  core::FuContext context(circuits::FuKind::kIntAdd);
  const liberty::Corner corner{0.81, 0.0};
  util::Rng rng(6);
  const auto workload =
      dta::randomWorkloadFor(circuits::FuKind::kIntAdd, 80, rng);
  const auto trace = context.characterize(corner, workload);
  const double tclk = dta::speedupClockPs(trace.baseClockPs(), 0.15);

  SimOracle oracle(context.netlist(), context.delaysAt(corner), tclk);
  // Prime with the first operand pair, then replay the stream.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    const auto& sample = trace.samples[i];
    const ErrorOracle::Outcome outcome =
        oracle.judge(sample.a, sample.b, sample.prev_a, sample.prev_b);
    if (outcome.error != sample.timingError(tclk)) ++mismatches;
    ASSERT_TRUE(outcome.has_value);
    if (outcome.value !=
        static_cast<std::uint32_t>(sample.latchedWord(tclk))) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ExecutorTest, UntouchedFusStayExact) {
  ErrorInjectingExecutor executor(7);
  // No oracles at all: everything exact, nothing injected.
  EXPECT_EQ(executor.addI(100, 200), 300);
  EXPECT_FLOAT_EQ(executor.mulF(3.0f, 4.0f), 12.0f);
  EXPECT_EQ(executor.injectedErrors(), 0u);
  EXPECT_EQ(executor.totalOps(), 2u);
}

}  // namespace
}  // namespace tevot::apps
