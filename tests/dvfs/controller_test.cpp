// runController decision/accounting semantics against a scripted
// backend and analytic ground truth: gain when predictions hold,
// Razor replay accounting when they don't, the fallback counter
// taxonomy, escape watchdog widening, hysteresis asymmetry, and
// byte-exact rerun reproducibility.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "dvfs/controller.hpp"
#include "dvfs_test_util.hpp"

namespace tevot::dvfs {
namespace {

WindowedStream fourWindowStream() {
  StreamOptions options;
  options.cycles = 33;  // 32 transitions
  options.window = 8;   // -> 4 windows of 8
  options.seed = 3;
  return WindowedStream::generate(options);
}

ControllerOptions plainOptions() {
  ControllerOptions options;
  options.guardband = 0.10;
  return options;
}

TEST(ControllerTest, PerfectPredictionYieldsGainWithoutViolations) {
  const WindowedStream stream = fourWindowStream();
  ScriptedBackend backend({{WindowOutcome::kOk, 100.0}});
  const verify::SafeTclkCertificate cert = testCertificate(1000.0);
  const DvfsReport report = runController(
      stream, backend, cert, plainOptions(), constantGroundTruth(100.0));

  EXPECT_EQ(report.windows, 4u);
  EXPECT_EQ(report.adaptive_windows, 4u);
  EXPECT_EQ(report.fallback_windows, 0u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.escapes, 0u);
  EXPECT_EQ(report.replays, 0u);
  EXPECT_EQ(report.clock_changes, 0u);  // constant prediction
  // Every window runs at 100 * 1.1 = 110 ps vs the 1000 ps baseline.
  EXPECT_DOUBLE_EQ(report.baseline_ps, 32.0 * 1000.0);
  EXPECT_DOUBLE_EQ(report.adaptive_ps, 32.0 * 110.0);
  EXPECT_GT(report.gain(), 9.0);
}

TEST(ControllerTest, FallbackTaxonomyCountsEveryDegradedWindowOnce) {
  StreamOptions stream_options;
  stream_options.cycles = 41;  // 40 transitions -> 5 windows of 8
  stream_options.window = 8;
  const WindowedStream stream = WindowedStream::generate(stream_options);
  ScriptedBackend backend({{WindowOutcome::kOk, 100.0},
                           {WindowOutcome::kShed, 0.0},
                           {WindowOutcome::kDeadline, 0.0},
                           {WindowOutcome::kError, 0.0},
                           {WindowOutcome::kDisconnect, 0.0}});
  const verify::SafeTclkCertificate cert = testCertificate(1000.0);
  const DvfsReport report = runController(
      stream, backend, cert, plainOptions(), constantGroundTruth(100.0));

  EXPECT_EQ(report.adaptive_windows, 1u);
  EXPECT_EQ(report.fallback_windows, 4u);
  EXPECT_EQ(report.fallback.shed, 1u);
  EXPECT_EQ(report.fallback.deadline, 1u);
  EXPECT_EQ(report.fallback.error, 1u);
  EXPECT_EQ(report.fallback.disconnect, 1u);
  EXPECT_EQ(report.fallback.total(), report.fallback_windows);
  // Fallback windows run at the certified clock; the adaptive one at
  // 110 ps. Sim delay 100 violates neither.
  EXPECT_EQ(report.violations, 0u);
  EXPECT_DOUBLE_EQ(report.adaptive_ps, 8.0 * 110.0 + 32.0 * 1000.0);
  // The trace labels each fallback window with its reason.
  EXPECT_NE(report.trace.find("src=fallback:shed"), std::string::npos);
  EXPECT_NE(report.trace.find("src=fallback:deadline"), std::string::npos);
  EXPECT_NE(report.trace.find("src=fallback:error"), std::string::npos);
  EXPECT_NE(report.trace.find("src=fallback:disconnect"),
            std::string::npos);
}

TEST(ControllerTest, ViolatingWindowsReplayAtCertifiedClock) {
  const WindowedStream stream = fourWindowStream();
  // Model badly underpredicts: 100 predicted, 200 simulated. Chosen
  // clock 110 < 200 -> every transition violates; the certified clock
  // 1000 absorbs them all on replay.
  ScriptedBackend backend({{WindowOutcome::kOk, 100.0}});
  const verify::SafeTclkCertificate cert = testCertificate(1000.0);
  const DvfsReport report = runController(
      stream, backend, cert, plainOptions(), constantGroundTruth(200.0));

  EXPECT_EQ(report.violations, 32u);
  EXPECT_EQ(report.escapes, 0u);
  EXPECT_EQ(report.recovered, 32u);  // every violation absorbed
  EXPECT_EQ(report.replays, 4u);     // each window replayed once
  // Adaptive time = optimistic run + full replay at the cert clock.
  EXPECT_DOUBLE_EQ(report.adaptive_ps, 32.0 * 110.0 + 32.0 * 1000.0);
  EXPECT_LT(report.gain(), 1.0);  // recovery is costly, never unsafe
}

TEST(ControllerTest, EscapesWidenGuardbandViaWatchdog) {
  const WindowedStream stream = fourWindowStream();
  ScriptedBackend backend({{WindowOutcome::kOk, 100.0}});
  // An artificially low certified clock (sim 200 > cert 150): replay
  // cannot absorb the violations, so they surface as escapes and the
  // watchdog must widen the guardband (kEscapeBudget 0: on the first
  // escape).
  const verify::SafeTclkCertificate cert = testCertificate(150.0);
  const ControllerOptions options = plainOptions();
  const DvfsReport report = runController(stream, backend, cert, options,
                                          constantGroundTruth(200.0));

  EXPECT_EQ(report.violations, 32u);
  EXPECT_EQ(report.escapes, 32u);    // nothing the cert clock can absorb
  EXPECT_EQ(report.recovered, 0u);
  EXPECT_GT(report.widenings, 0u);
  EXPECT_GT(report.guardband_final, options.guardband);
  EXPECT_LE(report.guardband_final, kGuardbandMax + 1e-12);
}

TEST(ControllerTest, HysteresisDampsSpeedupsNotSlowdowns) {
  StreamOptions stream_options;
  stream_options.cycles = 5;  // 4 transitions
  stream_options.window = 1;  // -> 4 single-transition windows
  const WindowedStream stream = WindowedStream::generate(stream_options);
  // Predictions per window: 100, then a 1% speed-up (damped), then a
  // 50% speed-up (adopted), then a slow-down (always adopted).
  ScriptedBackend backend({{WindowOutcome::kOk, 100.0},
                           {WindowOutcome::kOk, 99.0},
                           {WindowOutcome::kOk, 50.0},
                           {WindowOutcome::kOk, 120.0}});
  const verify::SafeTclkCertificate cert = testCertificate(1000.0);
  ControllerOptions options;
  options.guardband = 0.0;  // chosen == predicted, easier arithmetic
  const DvfsReport report = runController(stream, backend, cert, options,
                                          constantGroundTruth(10.0));

  // Window 0: 100. Window 1: target 99, within the 2% deadband ->
  // hold 100. Window 2: target 50 -> adopt. Window 3: 120 -> adopt
  // (slowing down is the safe direction, never damped).
  EXPECT_EQ(report.clock_changes, 2u);
  EXPECT_DOUBLE_EQ(report.adaptive_ps, 100.0 + 100.0 + 50.0 + 120.0);
}

TEST(ControllerTest, RerunIsByteIdentical) {
  const WindowedStream stream = fourWindowStream();
  const verify::SafeTclkCertificate cert = testCertificate(1000.0);
  ScriptedBackend a({{WindowOutcome::kOk, 100.0},
                     {WindowOutcome::kShed, 0.0},
                     {WindowOutcome::kOk, 90.0}});
  ScriptedBackend b({{WindowOutcome::kOk, 100.0},
                     {WindowOutcome::kShed, 0.0},
                     {WindowOutcome::kOk, 90.0}});
  const DvfsReport first = runController(stream, a, cert, plainOptions(),
                                         constantGroundTruth(95.0));
  const DvfsReport second = runController(stream, b, cert, plainOptions(),
                                          constantGroundTruth(95.0));
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.toJson(), second.toJson());
}

TEST(ControllerTest, GroundTruthSizeMismatchThrows) {
  const WindowedStream stream = fourWindowStream();
  ScriptedBackend backend({{WindowOutcome::kOk, 100.0}});
  const verify::SafeTclkCertificate cert = testCertificate(1000.0);
  const GroundTruth short_truth = [](const Window&) {
    return std::vector<double>{1.0};  // wrong size for an 8-cycle window
  };
  EXPECT_THROW(
      runController(stream, backend, cert, plainOptions(), short_truth),
      std::invalid_argument);
}

TEST(ControllerTest, UncertifiedCertificateIsACallerBug) {
  const WindowedStream stream = fourWindowStream();
  ScriptedBackend backend({{WindowOutcome::kOk, 100.0}});
  verify::SafeTclkCertificate cert = testCertificate(1000.0);
  cert.certified = false;
  EXPECT_THROW(runController(stream, backend, cert, plainOptions(),
                             constantGroundTruth(100.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace tevot::dvfs
