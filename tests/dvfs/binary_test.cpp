// Subprocess tests for the tevot_dvfs binary: the exit-code taxonomy
// (0 clean / 1 no FU ran / 2 usage / 3 escapes), per-FU certificate
// refusals on stdout, the --json report payload, byte-identical
// --trace-dir output across reruns, and malformed numeric flags as
// usage errors. The binary path is compiled in
// via TEVOT_DVFS_BINARY.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "check/serve_oracle.hpp"
#include "tevot/pipeline.hpp"
#include "verify/model_rules.hpp"

namespace tevot::dvfs {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult runDvfsBinary(const std::string& args) {
  const std::string command =
      std::string("'") + TEVOT_DVFS_BINARY + "' " + args + " 2>&1";
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

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Writes <dir>/int_add.cert.json with the given certified clock.
std::string writeCertDir(const std::string& name, double tclk_ps) {
  const std::string dir = testing::TempDir() + "tevot_dvfs_certs_" + name;
  std::filesystem::create_directories(dir);
  verify::SafeTclkCertificate cert;
  cert.model_path = "int_add.model";
  cert.history = true;
  cert.feature_count = 1;
  cert.tree_count = 1;
  cert.v_lo = 0.81;
  cert.v_hi = 1.00;
  cert.t_lo = 0.0;
  cert.t_hi = 100.0;
  cert.tclk_ps = tclk_ps;
  cert.certified = true;
  std::ofstream os(dir + "/int_add.cert.json");
  os << cert.toJson() << "\n";
  return dir;
}

double soundTclkPs() {
  static const double tclk = [] {
    core::FuContext context(circuits::FuKind::kIntAdd);
    return context.staCriticalPathPs({0.81, 100.0}) * 1.1;
  }();
  return tclk;
}

TEST(DvfsBinaryTest, NoArgumentsIsUsageError) {
  const RunResult result = runDvfsBinary("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(DvfsBinaryTest, UnknownFuIsUsageError) {
  const std::string certs = writeCertDir("usage", soundTclkPs());
  const RunResult result = runDvfsBinary(
      "--cert-dir '" + certs + "' --serve-port 1 --fus not_an_fu");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(DvfsBinaryTest, MissingBackendChoiceIsUsageError) {
  const std::string certs = writeCertDir("nobackend", soundTclkPs());
  EXPECT_EQ(runDvfsBinary("--cert-dir '" + certs + "'").exit_code, 2);
}

TEST(DvfsBinaryTest, MalformedNumericFlagIsUsageError) {
  const std::string certs = writeCertDir("badflags", soundTclkPs());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--cycles", "1"},        {"--cycles", "nan"},
      {"--window", "0"},        {"--window", "8x"},
      {"--guardband", "-0.1"},  {"--guardband", "inf"},
      {"--seed", "abc"},        {"--seed", "1.5"},
      {"--serve-port", "70000"}, {"--jobs", "abc"},
      {"--jobs", "257"},
  };
  for (const auto& [flag, value] : cases) {
    const RunResult result =
        runDvfsBinary("--cert-dir '" + certs + "' --serve-port 1 " + flag +
                      " '" + value + "'");
    EXPECT_EQ(result.exit_code, 2) << flag << " '" << value << "'";
    EXPECT_NE(result.output.find("usage:"), std::string::npos)
        << flag << " '" << value << "'";
  }
}

TEST(DvfsBinaryTest, RemovedFlagsAreUnknownOptions) {
  // The hysteresis deadband and the escape budget are controller
  // constants, and served predicts carry no deadline: these are
  // unknown options even with a well-formed value. The certificate
  // directory is never read: a run that got past the flags would
  // refuse its FU and exit 1.
  const std::string certs = testing::TempDir() + "tevot_dvfs_certs_none";
  for (const std::string flag :
       {"--hysteresis", "--escape-budget", "--deadline-ms"}) {
    const RunResult result = runDvfsBinary(
        "--cert-dir '" + certs + "' --serve-port 1 " + flag + " 1");
    EXPECT_EQ(result.exit_code, 2) << flag;
    EXPECT_NE(result.output.find("unknown option " + flag),
              std::string::npos)
        << flag << ": " << result.output;
  }
}

TEST(DvfsBinaryTest, CleanRunExitsZeroWithJsonReport) {
  const check::OracleModel oracle = check::oracleModel();
  const std::string certs = writeCertDir("clean", soundTclkPs());
  const std::string json =
      testing::TempDir() + "tevot_dvfs_clean_report.json";
  const RunResult result = runDvfsBinary(
      "--cert-dir '" + certs + "' --model-dir '" + oracle.model_dir +
      "' --fus int_add --cycles 129 --window 16 --json '" + json + "'");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("gain"), std::string::npos);
  const std::string payload = slurp(json);
  EXPECT_NE(payload.find("\"bench\":\"dvfs_closed_loop\""),
            std::string::npos);
  EXPECT_NE(payload.find("\"escapes\":0"), std::string::npos);
}

TEST(DvfsBinaryTest, MissingCertificateRefusesAndExitsRuntime) {
  const check::OracleModel oracle = check::oracleModel();
  const std::string empty_certs =
      testing::TempDir() + "tevot_dvfs_certs_empty";
  std::filesystem::create_directories(empty_certs);
  const RunResult result = runDvfsBinary(
      "--cert-dir '" + empty_certs + "' --model-dir '" + oracle.model_dir +
      "' --fus int_add --cycles 33 --window 8");
  // The only FU is refused (no certificate): nothing ran adaptively.
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("refused adaptive mode"), std::string::npos);
  EXPECT_NE(result.output.find("no FU ran adaptively"), std::string::npos);
}

TEST(DvfsBinaryTest, EscapesExitThree) {
  const check::OracleModel oracle = check::oracleModel();
  // A certified-but-absurd 1 ps fallback clock: real delays exceed it,
  // so violations survive recovery and must surface as exit 3.
  const std::string certs = writeCertDir("low", 1.0);
  const RunResult result = runDvfsBinary(
      "--cert-dir '" + certs + "' --model-dir '" + oracle.model_dir +
      "' --fus int_add --cycles 33 --window 8");
  EXPECT_EQ(result.exit_code, 3) << result.output;
  EXPECT_NE(result.output.find("escaped recovery"), std::string::npos);
}

TEST(DvfsBinaryTest, TraceDirOutputIsByteIdenticalAcrossReruns) {
  const check::OracleModel oracle = check::oracleModel();
  const std::string certs = writeCertDir("trace", soundTclkPs());
  const std::string dir_a = testing::TempDir() + "tevot_dvfs_trace_a";
  const std::string dir_b = testing::TempDir() + "tevot_dvfs_trace_b";
  std::filesystem::create_directories(dir_a);
  std::filesystem::create_directories(dir_b);
  const std::string base =
      "--cert-dir '" + certs + "' --model-dir '" + oracle.model_dir +
      "' --fus int_add --cycles 65 --window 8 --seed 42 --trace-dir '";
  ASSERT_EQ(runDvfsBinary(base + dir_a + "'").exit_code, 0);
  ASSERT_EQ(runDvfsBinary(base + dir_b + "'").exit_code, 0);
  const std::string trace_a = slurp(dir_a + "/int_add.trace");
  const std::string trace_b = slurp(dir_b + "/int_add.trace");
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
  // One line per window: 64 transitions / window 8.
  std::size_t lines = 0;
  for (const char c : trace_a) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 8u);
}

}  // namespace
}  // namespace tevot::dvfs
