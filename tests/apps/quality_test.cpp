// End-to-end application-quality tests (the Table IV machinery at
// unit scale): exactness without oracles, full corruption under the
// always-error baseline, clean output under a never-error model, and
// ground-truth injection tracking the characterized error rate.
#include <gtest/gtest.h>

#include <memory>

#include "apps/filters.hpp"
#include "apps/profile.hpp"
#include "apps/synth_images.hpp"
#include "tevot/pipeline.hpp"

namespace tevot::apps {
namespace {

class NeverErrorModel final : public core::ErrorModel {
 public:
  bool predictError(const core::PredictionContext&) override {
    return false;
  }
  std::string_view name() const override { return "never"; }
};

TEST(QualityTest, DelayBasedOracleDestroysTheImage) {
  const Image input = synthImage(0x71);
  const Image reference = sobelReference(input, NumericMode::kInteger);

  core::FuContext context(circuits::FuKind::kIntAdd);
  const liberty::Corner corner{0.9, 50.0};
  util::Rng rng(0x72);
  const auto trace = context.characterize(
      corner, dta::randomWorkloadFor(circuits::FuKind::kIntAdd, 200, rng));
  core::DelayBasedModel delay_based;
  delay_based.calibrate({&trace, 1});

  ErrorInjectingExecutor executor(0x73);
  executor.setOracle(
      circuits::FuKind::kIntAdd,
      std::make_unique<ModelOracle>(
          delay_based, corner,
          dta::speedupClockPs(trace.baseClockPs(), 0.10)));
  const Image corrupted =
      sobelFilter(input, executor, NumericMode::kInteger);
  // Every INT ADD op was corrupted (INT MUL has no oracle here).
  EXPECT_GT(executor.injectedErrors(), executor.totalOps() / 2 - 1);
  EXPECT_FALSE(isAcceptable(reference, corrupted));
  EXPECT_LT(psnrDb(reference, corrupted), 20.0);
}

TEST(QualityTest, NeverErrorModelLeavesImageIntact) {
  const Image input = synthImage(0x75);
  const Image reference = gaussianReference(input, NumericMode::kInteger);
  NeverErrorModel never;
  ErrorInjectingExecutor executor(0x76);
  executor.setOracle(circuits::FuKind::kIntAdd,
                     std::make_unique<ModelOracle>(
                         never, liberty::Corner{0.9, 50.0}, 100.0));
  executor.setOracle(circuits::FuKind::kIntMul,
                     std::make_unique<ModelOracle>(
                         never, liberty::Corner{0.9, 50.0}, 100.0));
  const Image output =
      gaussianFilter(input, executor, NumericMode::kInteger);
  EXPECT_EQ(output.pixels(), reference.pixels());
  EXPECT_EQ(executor.injectedErrors(), 0u);
}

TEST(QualityTest, SimOracleAtSlowClockIsErrorFree) {
  // With the clock at the STA bound nothing can err, so ground-truth
  // injection reproduces the reference image exactly.
  const Image input = synthImage(0x79, SynthImageParams{24, 24, 2, 2});
  core::FuContext add_context(circuits::FuKind::kIntAdd);
  core::FuContext mul_context(circuits::FuKind::kIntMul);
  const liberty::Corner corner{0.85, 25.0};
  ErrorInjectingExecutor executor(0x7a);
  executor.setOracle(circuits::FuKind::kIntAdd,
                     std::make_unique<SimOracle>(
                         add_context.netlist(),
                         add_context.delaysAt(corner),
                         add_context.staCriticalPathPs(corner) + 1.0));
  executor.setOracle(circuits::FuKind::kIntMul,
                     std::make_unique<SimOracle>(
                         mul_context.netlist(),
                         mul_context.delaysAt(corner),
                         mul_context.staCriticalPathPs(corner) + 1.0));
  const Image output = sobelFilter(input, executor, NumericMode::kInteger);
  const Image reference = sobelReference(input, NumericMode::kInteger);
  EXPECT_EQ(output.pixels(), reference.pixels());
  EXPECT_EQ(executor.injectedErrors(), 0u);
}

TEST(QualityTest, GroundTruthInjectionTracksStreamTer) {
  // The number of errors the SimOracle injects while re-running the
  // app should be close to (stream TER x ops): feedback can cascade,
  // but at a moderate clock the counts stay the same order.
  const Image input = synthImage(0x7b, SynthImageParams{32, 32, 3, 2});
  const Image images[1] = {input};
  auto streams = profileAppWorkloads(AppKind::kSobel, {images, 1});
  core::FuContext context(circuits::FuKind::kIntAdd);
  const liberty::Corner corner{0.81, 0.0};
  const auto trace =
      context.characterize(corner, streams[circuits::FuKind::kIntAdd]);
  const double tclk = dta::speedupClockPs(trace.baseClockPs(), 0.30);
  const double stream_ter = trace.timingErrorRate(tclk);
  ASSERT_GT(stream_ter, 0.0);

  ErrorInjectingExecutor executor(0x7c);
  executor.setOracle(circuits::FuKind::kIntAdd,
                     std::make_unique<SimOracle>(
                         context.netlist(), context.delaysAt(corner),
                         tclk, SimOracle::ValueMode::kRandomValue));
  sobelFilter(input, executor, NumericMode::kInteger);
  const double injected_rate =
      static_cast<double>(executor.injectedErrors()) /
      static_cast<double>(trace.samples.size());
  EXPECT_GT(injected_rate, stream_ter * 0.2);
  EXPECT_LT(injected_rate, stream_ter * 20.0 + 0.05);
}

}  // namespace
}  // namespace tevot::apps
