// Checkpoint serialization tests: a real characterized trace
// round-trips bit-exactly through the text format, every malformed,
// out-of-range or truncated input is a typed kParseError (never a
// crash, a wrapped-around word or a silently shorter trace), file I/O
// failures carry the path and errno text, and the atomic writer never
// leaves a temp file behind.
#include "dta/trace_io.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "circuits/fu.hpp"
#include "text_mutations.hpp"
#include "tevot/pipeline.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace tevot::dta {
namespace {

using util::StatusCode;
using util::StatusError;

/// A small but real trace: toggles, non-trivial delays, hex-exact
/// doubles — the payload checkpoints actually carry.
DtaTrace sampleTrace(std::size_t cycles = 10) {
  core::FuContext context(circuits::FuKind::kIntAdd);
  util::Rng rng(17);
  const Workload workload =
      randomWorkloadFor(circuits::FuKind::kIntAdd, cycles, rng);
  return context.characterize({0.85, 25.0}, workload);
}

util::Status parseStatusOf(const std::string& text) {
  try {
    traceFromString(text);
  } catch (const StatusError& error) {
    return error.status();
  }
  return util::Status::okStatus();
}

StatusCode parseCodeOf(const std::string& text) {
  return parseStatusOf(text).code;
}

/// `text` with the `field`th whitespace-separated token of line `line`
/// replaced by `token`.
std::string withToken(const std::string& text, std::size_t line,
                      std::size_t field, const std::string& token) {
  std::size_t at = 0;
  for (std::size_t l = 0; l < line; ++l) at = text.find('\n', at) + 1;
  for (std::size_t f = 0; f < field; ++f) at = text.find(' ', at) + 1;
  const std::size_t end = text.find_first_of(" \n", at);
  return text.substr(0, at) + token + text.substr(end);
}

/// No `<path>.tmp*` sibling left behind (the atomic-write temp name is
/// `<path>.tmp.<pid>`).
bool tempFileLeaked(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().starts_with(prefix)) return true;
  }
  return false;
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
  EXPECT_EQ(parseCodeOf("tevot-dtatrace v1\ncorner 0x1p+0 inf\n"),
            StatusCode::kParseError);
  EXPECT_EQ(parseCodeOf("tevot-dtatrace v1\ncorner 0x1p+0 0x1p+1024\n"),
            StatusCode::kParseError);
  // A corrupt sample count must not be trusted.
  const util::Status count =
      parseStatusOf("tevot-dtatrace v1\ncorner 0x1p+0 0x1p+0\n"
                    "workload w\nsim_events 0\nsamples zzz\nend\n");
  EXPECT_EQ(count.code, StatusCode::kParseError);
  EXPECT_NE(count.message.find("sample count"), std::string::npos)
      << count.message;
}

TEST(TraceIoTest, HugeCountsOnShortInputAreTruncationNotBadAlloc) {
  // 2^60 samples or toggles: reserving the count up front threw
  // bad_alloc instead of reporting the truncated file.
  const std::string header =
      "tevot-dtatrace v1\ncorner 0x1p+0 0x1p+0\nworkload w\n"
      "sim_events 0\n";
  const util::Status samples =
      parseStatusOf(header + "samples 1152921504606846976\n1 2 3 4\n");
  EXPECT_EQ(samples.code, StatusCode::kParseError);
  EXPECT_NE(samples.message.find("truncated: expected delay_ps"),
            std::string::npos)
      << samples.message;
  const util::Status toggles =
      parseStatusOf(header + "samples 1\n1 2 3 4 0x1p+0 0 0 "
                             "1152921504606846976 0x1p+0 0 1\nend\n");
  EXPECT_EQ(toggles.code, StatusCode::kParseError);
  EXPECT_NE(toggles.message.find("toggle time"), std::string::npos)
      << toggles.message;
}

/// A one-sample trace with two toggles, field by field known: sample
/// line 5 holds a b prev_a prev_b delay start settled n_toggles, then
/// (time bit value) per toggle from field 8.
std::string twoToggleCheckpoint() {
  DtaTrace trace;
  trace.corner = {0.85, 25.0};
  trace.workload_name = "w";
  DtaSample& s = trace.samples.emplace_back();
  s.a = 7;
  s.b = 9;
  s.delay_ps = 20.25;
  s.settled_word = 2;
  s.toggles = {{10.5, 1, true}, {20.25, 0, false}};
  return traceToString(trace);
}

TEST(TraceIoTest, OutOfRangeFieldsAreParseErrors) {
  const std::string text = twoToggleCheckpoint();
  ASSERT_EQ(parseCodeOf(text), StatusCode::kOk);
  const struct {
    std::size_t field;
    const char* token;
  } mutations[] = {
      {0, "4294967297"},  // a past 32 bits (was read as 1)
      {1, "-1"},          // b negative (was read as 0xFFFFFFFF)
      {2, "18446744073709551616"},  // prev_a past 64 bits too
      {6, "-2"},                    // settled word negative
      {10, "7"},                    // toggle value (was read as 1)
      {10, "-1"},
      {8, "-0x1p+0"},   // toggle time before the cycle start
      {11, "0x1p+0"},   // second toggle before the first
      {0, "07"},        // not the writer's spelling of 7
      {4, "0x1.440p+4"},
  };
  for (const auto& mutation : mutations) {
    const std::string mutated =
        withToken(text, 5, mutation.field, mutation.token);
    ASSERT_NE(mutated, text);
    EXPECT_EQ(parseCodeOf(mutated), StatusCode::kParseError)
        << "field " << mutation.field << " '" << mutation.token << "'";
  }
  // Bytes after the end line, and an end line without its newline.
  for (const std::string& junk : {std::string("x"), std::string("0\n"),
                                  std::string("end\n")}) {
    EXPECT_EQ(parseCodeOf(text + junk), StatusCode::kParseError) << junk;
  }
  EXPECT_EQ(parseCodeOf(text.substr(0, text.size() - 1)),
            StatusCode::kParseError);
}

TEST(TraceIoTest, EveryTruncationAndMutationIsTypedErrorOrIdentical) {
  // Three cycles (~2.7 KB) keep the ~35 k parses quick under sanitizers.
  const std::string text = traceToString(sampleTrace(4));
  ASSERT_TRUE(text.ends_with("\nend\n"));
  test::forEachPrefix(text, [](const std::string& cut,
                               const std::string& label) {
    ASSERT_EQ(parseCodeOf(cut), StatusCode::kParseError) << label;
  });
  // A mutated checkpoint either fails as a typed parse error or reads
  // back as exactly the trace it spells: the reader accepts each value
  // in the writer's one spelling only, so the trace writes back the
  // mutated tokens.
  const std::size_t accepted = test::expectTypedErrorOrReadBack(
      text, [](const std::string& input) -> std::optional<std::string> {
        DtaTrace parsed;
        try {
          parsed = traceFromString(input);
        } catch (const StatusError& error) {
          EXPECT_EQ(error.status().code, StatusCode::kParseError);
          return std::nullopt;
        }
        const std::string rewritten = traceToString(parsed);
        EXPECT_TRUE(tracesBitIdentical(parsed, traceFromString(rewritten)));
        return rewritten;
      });
  EXPECT_GT(accepted, 0u);  // digit flips are valid, different traces
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
  EXPECT_FALSE(tempFileLeaked(path));
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
  EXPECT_FALSE(tempFileLeaked(path));
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
