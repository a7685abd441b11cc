// End-to-end integration test of the whole TEVoT pipeline at reduced
// scale: characterize -> train suite -> evaluate. Asserts the paper's
// headline orderings rather than exact numbers:
//   * TEVoT accuracy high (>= 90% on random INT ADD data);
//   * TEVoT at least matches every baseline;
//   * Delay-based accuracy equals the ground-truth TER (it predicts
//     an error whenever the clock beats its calibrated max);
//   * the SDF-file path and the in-memory path produce identical
//     characterization.
#include <gtest/gtest.h>

#include <sstream>

#include "sdf/sdf.hpp"
#include "tevot/evaluate.hpp"
#include "tevot/operating_grid.hpp"
#include "tevot/pipeline.hpp"

namespace tevot::core {
namespace {

TEST(EndToEndTest, PipelineReproducesHeadlineOrdering) {
  FuContext context(circuits::FuKind::kIntAdd);
  const auto corners = OperatingGrid::paper().subsampled(2, 2);
  util::Rng rng(91);

  std::vector<dta::DtaTrace> train, test;
  for (const liberty::Corner& corner : corners) {
    train.push_back(context.characterize(
        corner,
        dta::randomWorkloadFor(circuits::FuKind::kIntAdd, 700, rng)));
    test.push_back(context.characterize(
        corner,
        dta::randomWorkloadFor(circuits::FuKind::kIntAdd, 300, rng)));
  }
  const ModelSuite suite = trainModelSuite(train, rng);
  auto models = suite.errorModels();

  std::vector<EvalOutcome> per_model(models.size());
  for (std::size_t c = 0; c < test.size(); ++c) {
    for (const double speedup : dta::kClockSpeedups) {
      const double tclk =
          dta::speedupClockPs(train[c].baseClockPs(), speedup);
      for (std::size_t m = 0; m < models.size(); ++m) {
        const EvalOutcome outcome =
            evaluateOnTrace(*models[m], test[c], tclk);
        per_model[m] = mergeOutcomes(
            std::vector{per_model[m], outcome});
      }
    }
  }

  const double tevot = per_model[0].accuracy();
  const double delay_based = per_model[1].accuracy();
  const double ter_based = per_model[2].accuracy();
  const double tevot_nh = per_model[3].accuracy();

  EXPECT_GT(tevot, 0.90);
  EXPECT_GE(tevot + 1e-9, delay_based);
  EXPECT_GE(tevot + 0.02, ter_based);  // allow sampling noise
  EXPECT_GE(tevot + 0.02, tevot_nh);
  // Delay-based == ground-truth TER (always predicts error under
  // speedup).
  EXPECT_NEAR(delay_based, per_model[1].groundTruthTer(), 1e-12);
}

TEST(EndToEndTest, SdfFilePathMatchesInMemoryCharacterization) {
  // The flow with explicit SDF files (write at corner, parse back,
  // simulate) must give the same delays as the in-memory shortcut.
  FuContext context(circuits::FuKind::kIntAdd);
  const liberty::Corner corner{0.88, 75.0};
  const liberty::CornerDelays& direct = context.delaysAt(corner);

  std::ostringstream os;
  sdf::writeSdf(os, context.netlist(), direct);
  const liberty::CornerDelays parsed =
      sdf::parseSdfString(os.str(), context.netlist());

  util::Rng rng(92);
  const auto workload =
      dta::randomWorkloadFor(circuits::FuKind::kIntAdd, 120, rng);
  const dta::DtaTrace direct_trace =
      dta::characterize(context.netlist(), direct, workload);
  const dta::DtaTrace file_trace =
      dta::characterize(context.netlist(), parsed, workload);
  ASSERT_EQ(direct_trace.samples.size(), file_trace.samples.size());
  for (std::size_t i = 0; i < direct_trace.samples.size(); ++i) {
    EXPECT_EQ(direct_trace.samples[i].delay_ps,
              file_trace.samples[i].delay_ps);
    EXPECT_EQ(direct_trace.samples[i].settled_word,
              file_trace.samples[i].settled_word);
  }
}

TEST(EndToEndTest, FuContextCachesCorners) {
  FuContext context(circuits::FuKind::kIntAdd);
  const liberty::Corner corner{0.9, 50.0};
  const liberty::CornerDelays& first = context.delaysAt(corner);
  const liberty::CornerDelays& second = context.delaysAt(corner);
  EXPECT_EQ(&first, &second);  // memoized
  EXPECT_GT(context.staCriticalPathPs(corner), 0.0);
}

}  // namespace
}  // namespace tevot::core
