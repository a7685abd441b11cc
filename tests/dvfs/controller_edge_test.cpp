// Controller edge cases: empty stream, window larger than the
// stream, delay exactly equal to the chosen clock, guardband clamping
// at both grid extremes, and a missing/unusable certificate refusing
// adaptive mode (a typed report, never a crash).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/serve_oracle.hpp"
#include "dvfs/run.hpp"
#include "tevot/pipeline.hpp"
#include "dvfs_test_util.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace tevot::dvfs {
namespace {

TEST(ControllerEdgeTest, EmptyStreamProducesZeroedReport) {
  StreamOptions options;
  options.cycles = 1;  // one state-setting operand, zero transitions
  const WindowedStream stream = WindowedStream::generate(options);
  ASSERT_TRUE(stream.windows().empty());
  ScriptedBackend backend({{WindowOutcome::kOk, 100.0}});
  const verify::SafeTclkCertificate cert = testCertificate(1000.0);
  const DvfsReport report = runController(stream, backend, cert, {},
                                          constantGroundTruth(100.0));
  EXPECT_EQ(report.windows, 0u);
  EXPECT_EQ(report.adaptive_windows, 0u);
  EXPECT_EQ(report.fallback_windows, 0u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_TRUE(report.trace.empty());
  EXPECT_DOUBLE_EQ(report.baseline_ps, 0.0);
  EXPECT_DOUBLE_EQ(report.adaptive_ps, 0.0);
  EXPECT_DOUBLE_EQ(report.gain(), 0.0);  // defined, not a div-by-zero
}

TEST(ControllerEdgeTest, WindowLargerThanStreamRunsAsOneWindow) {
  StreamOptions options;
  options.cycles = 9;     // 8 transitions
  options.window = 4096;  // far larger than the stream
  const WindowedStream stream = WindowedStream::generate(options);
  ScriptedBackend backend({{WindowOutcome::kOk, 100.0}});
  const verify::SafeTclkCertificate cert = testCertificate(1000.0);
  const DvfsReport report = runController(stream, backend, cert, {},
                                          constantGroundTruth(100.0));
  EXPECT_EQ(report.windows, 1u);
  EXPECT_EQ(report.adaptive_windows, 1u);
  EXPECT_DOUBLE_EQ(report.baseline_ps, 8.0 * 1000.0);
}

TEST(ControllerEdgeTest, DelayExactlyAtClockIsNotAViolation) {
  // The timing-error predicate everywhere in this codebase is strict
  // (delay > tclk; equality latches correctly). With guardband 0 the
  // chosen clock equals the prediction, and a simulated delay exactly
  // at the clock must not count as a violation.
  StreamOptions stream_options;
  stream_options.cycles = 17;
  stream_options.window = 8;
  const WindowedStream stream = WindowedStream::generate(stream_options);
  ScriptedBackend backend({{WindowOutcome::kOk, 100.0}});
  const verify::SafeTclkCertificate cert = testCertificate(1000.0);
  ControllerOptions options;
  options.guardband = 0.0;
  const DvfsReport report = runController(stream, backend, cert, options,
                                          constantGroundTruth(100.0));
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.replays, 0u);
  EXPECT_DOUBLE_EQ(report.adaptive_ps, 16.0 * 100.0);
}

TEST(ControllerEdgeTest, ChosenClockClampsToCertAndFloor) {
  StreamOptions stream_options;
  stream_options.cycles = 17;
  stream_options.window = 8;  // 2 windows
  const WindowedStream stream = WindowedStream::generate(stream_options);
  // Window 0 predicts far beyond the certified clock; window 1
  // predicts zero. The chosen period must clamp to [kMinTclkPs,
  // cert.tclk_ps] at both ends (the speed-up to the floor is far
  // beyond the hysteresis deadband).
  ScriptedBackend backend({{WindowOutcome::kOk, 1.0e9},
                           {WindowOutcome::kOk, 0.0}});
  const verify::SafeTclkCertificate cert = testCertificate(1000.0);
  const DvfsReport report = runController(stream, backend, cert, {},
                                          constantGroundTruth(kMinTclkPs));
  // 8 cycles at the cert ceiling + 8 cycles at the floor.
  EXPECT_DOUBLE_EQ(report.adaptive_ps, 8.0 * 1000.0 + 8.0 * kMinTclkPs);
  EXPECT_EQ(report.violations, 0u);
}

TEST(ControllerEdgeTest, MissingCertificateRefusesAdaptiveModeNotCrash) {
  const check::OracleModel oracle = check::oracleModel();
  std::vector<FuSetup> fus(2);
  fus[0].kind = circuits::FuKind::kIntAdd;
  fus[0].model = &oracle.model;
  fus[0].cert = testCertificate(
      core::FuContext(circuits::FuKind::kIntAdd)
          .staCriticalPathPs({0.81, 100.0}) *
      1.1);
  fus[1].kind = circuits::FuKind::kIntAdd;
  fus[1].model = &oracle.model;
  fus[1].cert_status =
      util::Status::ioError("open certificate int_add.cert.json: ENOENT");

  RunOptions options;
  options.stream.cycles = 33;
  options.stream.window = 8;
  util::FaultInjector quiet;
  options.faults = &quiet;
  util::ThreadPool pool(2);
  const RunReport run = runDvfs(fus, options, pool);

  ASSERT_EQ(run.fus.size(), 2u);
  // FU 0 ran the closed loop; FU 1 was refused with the loader's
  // status and zero windows — not a crash, not a silent skip.
  EXPECT_TRUE(run.fus[0].status.ok()) << run.fus[0].status.message;
  EXPECT_EQ(run.fus[0].windows, 4u);
  EXPECT_FALSE(run.fus[1].status.ok());
  EXPECT_EQ(run.fus[1].windows, 0u);
  EXPECT_NE(run.fus[1].status.message.find("ENOENT"), std::string::npos);
  EXPECT_EQ(run.ranCount(), 1u);
}

TEST(ControllerEdgeTest, UncertifiedOrNonCoveringCertificateRefused) {
  const core::OperatingGrid grid;
  // MV004 counterexample: certified=false.
  verify::SafeTclkCertificate uncertified = testCertificate(1000.0);
  uncertified.certified = false;
  EXPECT_EQ(validateCertificateForGrid(uncertified, grid).code,
            util::StatusCode::kInvalidArgument);
  // Operating box narrower than the stream grid.
  verify::SafeTclkCertificate narrow = testCertificate(1000.0);
  narrow.v_lo = 0.90;
  EXPECT_EQ(validateCertificateForGrid(narrow, grid).code,
            util::StatusCode::kInvalidArgument);
  // Non-finite clock.
  verify::SafeTclkCertificate bad_clock = testCertificate(0.0);
  EXPECT_EQ(validateCertificateForGrid(bad_clock, grid).code,
            util::StatusCode::kInvalidArgument);
  // The happy path passes.
  EXPECT_TRUE(validateCertificateForGrid(testCertificate(1000.0), grid).ok());
}

}  // namespace
}  // namespace tevot::dvfs
