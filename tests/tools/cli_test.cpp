// End-to-end subprocess tests for tevot_cli: the exit-code taxonomy
// (0 ok / 1 runtime / 2 usage / 3 check failure), path + errno text
// in I/O error messages, and the sweep command's checkpoint, resume,
// and fault-injection behavior as a user would drive them from a
// shell. The binary path is compiled in via TEVOT_CLI_BINARY.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <sys/wait.h>

#include "../verify/verify_test_util.hpp"
#include "util/status.hpp"
#include "verify/certificate_io.hpp"
#include "verify/model_rules.hpp"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Runs `tevot_cli <args>` with `env` prefixed (e.g. "TEVOT_FAULTS=...")
/// and captures combined output.
RunResult runCli(const std::string& args, const std::string& env = {}) {
  const std::string command =
      "env " + (env.empty() ? std::string() : env + " ") + "'" +
      TEVOT_CLI_BINARY + "' " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    result.output = "popen failed";
    return result;
  }
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string scratchDir(const std::string& name) {
  const std::string dir =
      testing::TempDir() + "tevot_cli_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::size_t countTraceFiles(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".trace") ++n;
  }
  return n;
}

TEST(CliTest, NoArgumentsIsUsageError) {
  const RunResult result = runCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
  EXPECT_NE(result.output.find("exit codes:"), std::string::npos);
}

TEST(CliTest, UnknownCommandIsUsageError) {
  EXPECT_EQ(runCli("frobnicate").exit_code, 2);
}

TEST(CliTest, BadFuNameIsUsageError) {
  EXPECT_EQ(runCli("sta bogus_fu 0.9 50").exit_code, 2);
  EXPECT_EQ(runCli("sweep bogus_fu 20").exit_code, 2);
}

TEST(CliTest, SweepFlagValidationIsUsageError) {
  EXPECT_EQ(runCli("sweep int_add 20 --grid nonsense").exit_code, 2);
  EXPECT_EQ(runCli("sweep int_add 20 --seed -3").exit_code, 2);
  const RunResult resume = runCli("sweep int_add 20 --resume");
  EXPECT_EQ(resume.exit_code, 2);
  EXPECT_NE(resume.output.find("--resume requires --out"),
            std::string::npos);
}

TEST(CliTest, MalformedJobsIsUsageErrorBeforeAnyThreadStarts) {
  // -1 would wrap to SIZE_MAX workers and 1e9 is past the cap: both
  // are refused while parsing, before the pool exists.
  for (const char* flag : {"--jobs abc", "--jobs -1", "--jobs 1e9",
                           "--jobs=2.5", "--jobs nan", "--jobs ''",
                           "--jobs 18446744073709551615"}) {
    const RunResult result = runCli(std::string(flag) + " fu-list");
    EXPECT_EQ(result.exit_code, 2) << flag;
    EXPECT_NE(result.output.find("--jobs must be"), std::string::npos)
        << flag << ": " << result.output;
  }
  for (const char* env : {"TEVOT_JOBS=abc", "TEVOT_JOBS=-1",
                          "TEVOT_JOBS=257"}) {
    const RunResult result = runCli("fu-list", env);
    EXPECT_EQ(result.exit_code, 2) << env;
    EXPECT_NE(result.output.find("TEVOT_JOBS must be"), std::string::npos)
        << env << ": " << result.output;
  }
  EXPECT_EQ(runCli("--jobs 2 fu-list").exit_code, 0);
  EXPECT_EQ(runCli("--jobs=0 fu-list").exit_code, 0);
  EXPECT_EQ(runCli("fu-list", "TEVOT_JOBS=3").exit_code, 0);
}

TEST(CliTest, MalformedNumericArgumentsAreUsageErrors) {
  const std::string model = testing::TempDir() + "no_such_model.bin";
  for (const std::string& args : {
           std::string("sta int_add nan 50"),
           std::string("sta int_add 0.9 50x"),
           std::string("sdf int_add 0.9 inf out.sdf"),
           std::string("characterize int_add 0.9 50 abc"),
           std::string("characterize int_add 0.9 50 -5"),
           std::string("train int_add model.bin 10.5"),
           "predict '" + model + "' 0.9 50 1 2 3 -4",
           "predict '" + model + "' 0.9 50 0x100000000 0 0 0",
           "predict '" + model + "' 0.9 50 1 2 3 4 nan",
           "predict '" + model + "' 0.9x 50 1 2 3 4",
           std::string("check abc"),
           std::string("check 0"),
           std::string("check 5 6"),
           std::string("check 1 --seed x"),
           std::string("sweep int_add 20x"),
           std::string("sweep int_add 20 --grid 3x3junk"),
           std::string("sweep int_add 20 --seed nan"),
           std::string("sweep int_add 20 --seed -1"),
           std::string("lint int_add --budget nan"),
           "verify-model '" + model + "' --tclk inf",
           "verify-model '" + model + "' --refine-budget 0",
           "serve-check 80x '" + model + "' int_add",
           "serve-check 70000 '" + model + "' int_add",
           "serve-check 80 '" + model + "' int_add --clients -1",
       }) {
    const RunResult result = runCli(args);
    EXPECT_EQ(result.exit_code, 2) << args << ": " << result.output;
    EXPECT_NE(result.output.find("usage:"), std::string::npos) << args;
  }
  // Well-formed numbers, hex operands included, get past parsing to
  // the missing model file: a runtime error.
  EXPECT_EQ(runCli("predict '" + model + "' 0.9 50 0xdeadbeef 0x1234 0 0 400")
                .exit_code,
            1);
}

TEST(CliTest, MissingModelFileIsRuntimeErrorWithPathAndErrno) {
  const std::string path = testing::TempDir() + "no_such_model.bin";
  const RunResult result =
      runCli("predict '" + path + "' 0.9 50 1 2 3 4");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find(path), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("No such file"), std::string::npos)
      << result.output;
}

TEST(CliTest, UnwritableOutputIsRuntimeError) {
  // /dev/null/x can never be created: runtime failure, not usage.
  const RunResult result = runCli("export-verilog int_add /dev/null/x.v");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("/dev/null/x.v"), std::string::npos);
}

TEST(CliTest, SweepWritesCheckpointsAndResumeRestores) {
  const std::string dir = scratchDir("resume");
  const std::string base =
      "sweep int_add 20 --grid 2x2 --seed 9 --out '" + dir + "'";
  const RunResult first = runCli(base);
  EXPECT_EQ(first.exit_code, 0) << first.output;
  EXPECT_EQ(countTraceFiles(dir), 4u);
  EXPECT_NE(first.output.find("4 ok, 0 restored"), std::string::npos)
      << first.output;

  const RunResult second = runCli(base + " --resume");
  EXPECT_EQ(second.exit_code, 0) << second.output;
  EXPECT_NE(second.output.find("0 ok, 4 restored"), std::string::npos)
      << second.output;
  EXPECT_EQ(countTraceFiles(dir), 4u);
  std::filesystem::remove_all(dir);
}

TEST(CliTest, FaultInjectedSweepRecoversOnResume) {
  // Every job fails its one execution (rate=1): the sweep reports the
  // failures and exits 1. A --resume run without faults recomputes
  // the four corners and exits 0.
  const std::string dir = scratchDir("faults");
  const std::string base =
      "sweep int_add 20 --grid 2x2 --out '" + dir + "'";
  const RunResult failed = runCli(
      base, "TEVOT_FAULTS='points=job.exception;rate=1.0;seed=5;attempts=1'");
  EXPECT_EQ(failed.exit_code, 1) << failed.output;
  EXPECT_NE(failed.output.find("faults armed:"), std::string::npos)
      << failed.output;
  EXPECT_NE(failed.output.find("4 failed"), std::string::npos)
      << failed.output;
  EXPECT_EQ(countTraceFiles(dir), 0u);

  const RunResult resumed = runCli(base + " --resume");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("4 ok"), std::string::npos)
      << resumed.output;
  EXPECT_EQ(countTraceFiles(dir), 4u);
  std::filesystem::remove_all(dir);
}

TEST(CliTest, PermanentFaultsFailTheSweepWithReport) {
  const std::string report = testing::TempDir() + "tevot_cli_report.txt";
  std::filesystem::remove(report);
  const RunResult result = runCli(
      "sweep int_add 20 --grid 2x2 --report '" + report + "'",
      "TEVOT_FAULTS='points=job.exception;rate=1.0;seed=5;attempts=99'");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("4 failed"), std::string::npos)
      << result.output;
  ASSERT_TRUE(std::filesystem::exists(report));
  std::filesystem::remove(report);
}

TEST(CliTest, SigintMidSweepCheckpointsAndExits130) {
  // A slow sweep (every job sleeps 400 ms via the job.slow fault
  // point, serial pool) is interrupted from the shell mid-run. The
  // CLI must flush the in-flight corner's checkpoint, report the
  // interruption, and exit 130; a --resume run then converges without
  // recomputing the completed corners.
  const std::string dir = scratchDir("sigint");
  const std::string script =
      "env TEVOT_FAULTS='points=job.slow;rate=1.0;seed=1;attempts=1;"
      "slow-ms=400' '" +
      std::string(TEVOT_CLI_BINARY) + "' --jobs=1 sweep int_add 20 "
      "--grid 3x3 --seed 4 --out '" + dir + "' 2>&1 & pid=$!; "
      "sleep 1; kill -INT $pid; wait $pid; echo EXIT=$?";
  RunResult result;
  FILE* pipe = popen(script.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  pclose(pipe);
  EXPECT_NE(result.output.find("EXIT=130"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("sweep interrupted by signal 2"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("rerun with --resume"), std::string::npos)
      << result.output;
  // The interrupted run checkpointed at least its in-flight corner,
  // and left nothing torn: resume completes the remaining 9.
  const std::size_t checkpointed = countTraceFiles(dir);
  EXPECT_GE(checkpointed, 1u) << result.output;
  EXPECT_LT(checkpointed, 9u) << result.output;

  const RunResult resumed = runCli(
      "--jobs=1 sweep int_add 20 --grid 3x3 --seed 4 --out '" + dir +
      "' --resume");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find(std::to_string(checkpointed) + " restored"),
            std::string::npos)
      << resumed.output;
  EXPECT_EQ(countTraceFiles(dir), 9u);
  std::filesystem::remove_all(dir);
}

TEST(CliTest, BadFaultSpecIsRuntimeError) {
  const RunResult result =
      runCli("sweep int_add 20", "TEVOT_FAULTS='bogus-key=1'");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("fault spec"), std::string::npos)
      << result.output;
}

std::string readFile(const std::string& path) {
  std::string text;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return text;
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), f)) > 0) {
    text.append(buffer.data(), n);
  }
  std::fclose(f);
  return text;
}

void writeFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

TEST(CliLintTest, UsageErrors) {
  EXPECT_EQ(runCli("lint").exit_code, 2);
  EXPECT_EQ(runCli("lint bogus_fu").exit_code, 2);
  EXPECT_EQ(runCli("lint int_add --grid nonsense").exit_code, 2);
  EXPECT_EQ(runCli("lint int_add --budget -5").exit_code, 2);
  const RunResult sdf_all = runCli("lint --all --sdf whatever.sdf");
  EXPECT_EQ(sdf_all.exit_code, 2);
  EXPECT_NE(sdf_all.output.find("--sdf"), std::string::npos)
      << sdf_all.output;
}

TEST(CliLintTest, CleanGeneratorExitsZero) {
  // int_add's discarded carry-out is a warning (waivable noise), not
  // an error, so the generator lints clean at the gating severity.
  const RunResult result = runCli("lint int_add");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("NL001"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("0 errors"), std::string::npos)
      << result.output;
}

TEST(CliLintTest, AllFusExitZero) {
  const RunResult result = runCli("lint --all --grid 2x2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // One report per FU.
  for (const char* fu : {"int_add", "int_mul", "fp_add", "fp_mul"}) {
    EXPECT_NE(result.output.find(fu), std::string::npos) << fu;
  }
}

TEST(CliLintTest, TightBudgetFailsWithSt002) {
  const RunResult result = runCli("lint int_add --budget 1 --grid 2x2");
  EXPECT_EQ(result.exit_code, 3) << result.output;
  EXPECT_NE(result.output.find("ST002"), std::string::npos)
      << result.output;
}

TEST(CliLintTest, WaiversRestoreCleanExit) {
  const std::string waivers = testing::TempDir() + "tevot_lint_waivers.txt";
  writeFile(waivers,
            "# all outputs miss a 1 ps budget by design\n"
            "ST002 net:*\n");
  const RunResult result = runCli("lint int_add --budget 1 --grid 2x2 "
                                  "--waivers '" + waivers + "'");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("waived"), std::string::npos)
      << result.output;
  std::filesystem::remove(waivers);
}

TEST(CliLintTest, UnusedWaiverIsReportedNotFatal) {
  const std::string waivers = testing::TempDir() + "tevot_lint_stale.txt";
  writeFile(waivers, "XA001 cell:NONEXISTENT\n");
  const RunResult result =
      runCli("lint int_add --waivers '" + waivers + "'");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("WV001"), std::string::npos)
      << result.output;
  std::filesystem::remove(waivers);
}

TEST(CliLintTest, MalformedWaiverFileIsRuntimeError) {
  const std::string waivers = testing::TempDir() + "tevot_lint_bad.txt";
  writeFile(waivers, "just-one-token\n");
  const RunResult result =
      runCli("lint int_add --waivers '" + waivers + "'");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("waiver line 1"), std::string::npos)
      << result.output;
  std::filesystem::remove(waivers);
}

TEST(CliLintTest, MissingWaiverFileIsRuntimeErrorWithPath) {
  const std::string path = testing::TempDir() + "no_such_waivers.txt";
  const RunResult result = runCli("lint int_add --waivers '" + path + "'");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find(path), std::string::npos) << result.output;
}

TEST(CliLintTest, JsonReportMatchesGolden) {
  // The committed golden pins the whole machine-readable surface:
  // rule ids, severities, locations, message wording, JSON shape.
  // Regenerate with:
  //   tevot_cli lint int_add --json tests/golden/lint_int_add.json
  const std::string out = testing::TempDir() + "tevot_lint_report.json";
  std::filesystem::remove(out);
  const RunResult result =
      runCli("lint int_add --json '" + out + "'");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const std::string golden =
      readFile(std::string(TEVOT_GOLDEN_DIR) + "/lint_int_add.json");
  ASSERT_FALSE(golden.empty())
      << "missing golden: tests/golden/lint_int_add.json";
  EXPECT_EQ(readFile(out), golden);
  std::filesystem::remove(out);
}

TEST(CliLintTest, JobsFlagIsBitIdentical) {
  // Parallel lint must be byte-identical to serial lint — terminal
  // text and JSON report both.
  const RunResult serial = runCli("--jobs 1 lint --all --grid 2x2");
  const RunResult parallel = runCli("--jobs 8 lint --all --grid 2x2");
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.output;
  EXPECT_EQ(serial.output, parallel.output);

  // The machine-readable report too (written to the same path, so the
  // "wrote ..." echo is identical as well).
  const std::string json = testing::TempDir() + "tevot_lint_jobs.json";
  ASSERT_EQ(
      runCli("--jobs 1 lint --all --grid 2x2 --json '" + json + "'")
          .exit_code,
      0);
  const std::string serial_json = readFile(json);
  ASSERT_EQ(
      runCli("--jobs 8 lint --all --grid 2x2 --json '" + json + "'")
          .exit_code,
      0);
  EXPECT_EQ(readFile(json), serial_json);
  EXPECT_FALSE(serial_json.empty());
  std::filesystem::remove(json);
}

TEST(CliVerifyModelTest, UsageErrors) {
  EXPECT_EQ(runCli("verify-model").exit_code, 2);
  EXPECT_EQ(runCli("verify-model m.model --grid nonsense").exit_code, 2);
  EXPECT_EQ(runCli("verify-model m.model --tclk -5").exit_code, 2);
  EXPECT_EQ(runCli("verify-model m.model --refine-budget 0").exit_code, 2);
  const RunResult cert_no_tclk =
      runCli("verify-model m.model --cert c.json");
  EXPECT_EQ(cert_no_tclk.exit_code, 2);
  EXPECT_NE(cert_no_tclk.output.find("--cert requires --tclk"),
            std::string::npos);
}

TEST(CliVerifyModelTest, MissingModelIsRuntimeErrorWithPath) {
  const std::string path = testing::TempDir() + "no_such.model";
  const RunResult result = runCli("verify-model '" + path + "'");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find(path), std::string::npos) << result.output;
}

TEST(CliVerifyModelTest, TrainedModelCertifiesWithCertificate) {
  const std::string model = testing::TempDir() + "cli_verify_int_add.model";
  const RunResult trained = runCli("train int_add '" + model + "' 20");
  ASSERT_EQ(trained.exit_code, 0) << trained.output;

  const std::string cert = testing::TempDir() + "cli_verify_cert.json";
  const std::string report = testing::TempDir() + "cli_verify_report.json";
  std::filesystem::remove(cert);
  const RunResult result = runCli(
      "verify-model '" + model + "' --grid 3x3 --tclk 100000 --cert '" +
      cert + "' --json '" + report + "'");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("safe-tclk 100000.000 ps: CERTIFIED"),
            std::string::npos)
      << result.output;
  const std::string cert_json = readFile(cert);
  EXPECT_NE(cert_json.find("tevot-safe-tclk-certificate-v1"),
            std::string::npos);
  EXPECT_NE(cert_json.find("\"certified\":true"), std::string::npos);
  EXPECT_NE(readFile(report).find("\"rules_run\""), std::string::npos);
  std::filesystem::remove(model);
  std::filesystem::remove(cert);
  std::filesystem::remove(report);
}

TEST(CliVerifyModelTest, CertificateRoundTripsThroughLoader) {
  // train -> verify-model --cert -> verify::loadCertificateFile: the
  // DVFS controller consumes certificates through this exact loader,
  // so the CLI's output must parse into a usable, re-serializable
  // struct (parse(write(c)) is a fixed point).
  const std::string model = testing::TempDir() + "cli_rt_int_add.model";
  const RunResult trained = runCli("train int_add '" + model + "' 20");
  ASSERT_EQ(trained.exit_code, 0) << trained.output;

  const std::string cert_path = testing::TempDir() + "cli_rt_cert.json";
  std::filesystem::remove(cert_path);
  const RunResult result = runCli("verify-model '" + model +
                                  "' --grid 3x3 --tclk 100000 --cert '" +
                                  cert_path + "'");
  ASSERT_EQ(result.exit_code, 0) << result.output;

  tevot::verify::SafeTclkCertificate cert;
  const tevot::util::Status status =
      tevot::verify::loadCertificateFile(cert_path, &cert);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_TRUE(cert.certified);
  EXPECT_DOUBLE_EQ(cert.tclk_ps, 100000.0);
  EXPECT_EQ(cert.model_path, model);
  EXPECT_GT(cert.tree_count, 0u);
  // Writer convention is the document plus a trailing newline; the
  // re-serialized struct reproduces the file byte for byte.
  EXPECT_EQ(cert.toJson() + "\n", readFile(cert_path));
  std::filesystem::remove(model);
  std::filesystem::remove(cert_path);
}

TEST(CliVerifyModelTest, CorruptedFixtureExitsCheckFailed) {
  // The canary-fooling negative-tail fixture: point validation would
  // serve it, interval verification refuses it with a concrete
  // finding.
  const std::string model = testing::TempDir() + "cli_verify_corrupt.model";
  (void)tevot::verify::modelFromTrees(tevot::verify::negativeTailTrees(),
                                      model);
  const RunResult result = runCli("verify-model '" + model + "'");
  EXPECT_EQ(result.exit_code, 3) << result.output;
  EXPECT_NE(result.output.find("MV004"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("negative"), std::string::npos)
      << result.output;
  std::filesystem::remove(model);
}

TEST(CliVerifyModelTest, TightTclkReportsCounterexample) {
  // A certifiably-monotone fixture with guaranteed bounds [200,
  // 253.33] ps: a 220 ps clock target must produce a violated
  // certificate with a machine-readable counterexample box.
  const std::string model = testing::TempDir() + "cli_verify_tight.model";
  (void)tevot::verify::modelFromTrees(tevot::verify::healthyTrees(),
                                      model);
  const std::string cert = testing::TempDir() + "cli_tight_cert.json";
  const RunResult result = runCli("verify-model '" + model +
                                  "' --tclk 220 --cert '" + cert + "'");
  EXPECT_EQ(result.exit_code, 3) << result.output;
  EXPECT_NE(result.output.find("safe-tclk 220.000 ps: NOT CERTIFIED"),
            std::string::npos)
      << result.output;
  const std::string cert_json = readFile(cert);
  EXPECT_NE(cert_json.find("\"certified\":false"), std::string::npos);
  EXPECT_NE(cert_json.find("\"counterexample\":{"), std::string::npos);
  std::filesystem::remove(model);
  std::filesystem::remove(cert);
}

TEST(CliTest, ForcedCheckFailureExitsWithCheckCode) {
  // TEVOT_CHECK_FORCE_FAIL plants an always-failing property, proving
  // end to end that oracle violations exit 3, not 1.
  const RunResult result =
      runCli("check 1", "TEVOT_CHECK_FORCE_FAIL=1");
  EXPECT_EQ(result.exit_code, 3) << result.output;
  EXPECT_NE(result.output.find("forced failure"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("reproduce:"), std::string::npos)
      << result.output;
}

}  // namespace
