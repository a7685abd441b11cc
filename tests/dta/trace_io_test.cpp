// Checkpoint serialization tests: a real characterized trace
// round-trips bit-exactly through the text format, every malformed or
// truncated input is a typed kParseError (never a crash or a silently
// shorter trace), file I/O failures carry the path and errno text,
// and the atomic writer never leaves a temp file behind.
#include "dta/trace_io.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <filesystem>
#include <string>

#include "circuits/fu.hpp"
#include "tevot/pipeline.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace tevot::dta {
namespace {

using util::StatusCode;
using util::StatusError;

/// A small but real trace: toggles, non-trivial delays, hex-exact
/// doubles — the payload checkpoints actually carry.
DtaTrace sampleTrace() {
  core::FuContext context(circuits::FuKind::kIntAdd);
  util::Rng rng(17);
  const Workload workload =
      randomWorkloadFor(circuits::FuKind::kIntAdd, 10, rng);
  return context.characterize({0.85, 25.0}, workload);
}

StatusCode parseCodeOf(const std::string& text) {
  try {
    traceFromString(text);
  } catch (const StatusError& error) {
    return error.status().code;
  }
  return StatusCode::kOk;
}

TEST(TraceIoTest, RoundTripIsBitExact) {
  const DtaTrace trace = sampleTrace();
  ASSERT_FALSE(trace.samples.empty());
  const DtaTrace back = traceFromString(traceToString(trace));
  EXPECT_TRUE(tracesBitIdentical(trace, back));
}

TEST(TraceIoTest, BitIdenticalDetectsEveryFieldFlip) {
  const DtaTrace trace = sampleTrace();
  DtaTrace mutated = trace;
  mutated.corner.voltage += 1e-9;
  EXPECT_FALSE(tracesBitIdentical(trace, mutated));
  mutated = trace;
  mutated.samples[0].delay_ps =
      std::nextafter(mutated.samples[0].delay_ps, 1e9);
  EXPECT_FALSE(tracesBitIdentical(trace, mutated));
  mutated = trace;
  mutated.samples.pop_back();
  EXPECT_FALSE(tracesBitIdentical(trace, mutated));
}

TEST(TraceIoTest, TruncationIsAlwaysAParseError) {
  // Dropping any tail of the file — including just the "end" sentinel
  // — must be detected, never read back as a shorter trace.
  const std::string text = traceToString(sampleTrace());
  const std::string no_sentinel = text.substr(0, text.rfind("end"));
  EXPECT_EQ(parseCodeOf(no_sentinel), StatusCode::kParseError);
  EXPECT_EQ(parseCodeOf(text.substr(0, text.size() / 2)),
            StatusCode::kParseError);
  EXPECT_EQ(parseCodeOf(text.substr(0, 30)), StatusCode::kParseError);
}

TEST(TraceIoTest, GarbageAndNonFiniteAreParseErrors) {
  EXPECT_EQ(parseCodeOf(""), StatusCode::kParseError);
  EXPECT_EQ(parseCodeOf("not a trace at all"), StatusCode::kParseError);
  EXPECT_EQ(parseCodeOf("tevot-dtatrace v1\ncorner nan 25\n"),
            StatusCode::kParseError);
  EXPECT_EQ(parseCodeOf("tevot-dtatrace v1\ncorner 0x1p0 inf\n"),
            StatusCode::kParseError);
  // A corrupt sample count must not be trusted.
  EXPECT_EQ(parseCodeOf("tevot-dtatrace v1\ncorner 0x1p0 0x1p0\n"
                        "workload w\nsim_events 0\nsamples zzz\nend\n"),
            StatusCode::kParseError);
}

TEST(TraceIoTest, HugeCountsOnShortInputAreTruncationNotBadAlloc) {
  // 2^60 samples or toggles: reserving the count up front threw
  // bad_alloc instead of reporting the truncated file.
  const std::string header =
      "tevot-dtatrace v1\ncorner 0x1p0 0x1p0\nworkload w\nsim_events 0\n";
  EXPECT_EQ(parseCodeOf(header + "samples 1152921504606846976\n1 2 3 4\n"),
            StatusCode::kParseError);
  EXPECT_EQ(parseCodeOf(header + "samples 1\n1 2 3 4 0x1p0 0 0 "
                                 "1152921504606846976 0x1p0 0 1\nend\n"),
            StatusCode::kParseError);
}

TEST(TraceIoTest, MissingFileIsIoErrorWithPathAndErrno) {
  const std::string path = testing::TempDir() + "tevot_no_such.trace";
  try {
    readTraceFile(path);
    FAIL() << "readTraceFile did not throw";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.status().code, StatusCode::kIoError);
    EXPECT_NE(error.status().message.find(path), std::string::npos)
        << error.status().message;
    EXPECT_NE(error.status().message.find(util::errnoText(ENOENT)),
              std::string::npos)
        << error.status().message;
  }
}

TEST(TraceIoTest, AtomicWriteRoundTripsAndLeavesNoTemp) {
  const std::string dir = testing::TempDir() + "tevot_trace_io_atomic";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/job.trace";
  const DtaTrace trace = sampleTrace();
  writeTraceFileAtomic(path, trace);
  EXPECT_TRUE(tracesBitIdentical(trace, readTraceFile(path)));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(TraceIoTest, InjectedWriteFaultLeavesTargetUntouched) {
  const std::string dir = testing::TempDir() + "tevot_trace_io_fault";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/job.trace";
  const DtaTrace trace = sampleTrace();

  util::FaultPlan plan;
  plan.rate = 1.0;
  plan.points = {"io.write"};
  util::FaultInjector faults;
  faults.arm(plan);
  try {
    writeTraceFileAtomic(path, trace, &faults, "job0");
    FAIL() << "injected io.write fault did not throw";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.status().code, StatusCode::kIoError);
  }
  // Failed write: no target, no temp debris.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // The fault is transient (fail_attempts=1): the retry succeeds.
  writeTraceFileAtomic(path, trace, &faults, "job0");
  EXPECT_TRUE(tracesBitIdentical(trace, readTraceFile(path)));
  std::filesystem::remove_all(dir);
}

TEST(TraceIoTest, InjectedOpenFaultOnReadIsIoError) {
  const std::string dir = testing::TempDir() + "tevot_trace_io_open";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/job.trace";
  writeTraceFileAtomic(path, sampleTrace());

  util::FaultPlan plan;
  plan.rate = 1.0;
  plan.points = {"io.open"};
  util::FaultInjector faults;
  faults.arm(plan);
  try {
    readTraceFile(path, &faults, "job0");
    FAIL() << "injected io.open fault did not throw";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.status().code, StatusCode::kIoError);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tevot::dta
