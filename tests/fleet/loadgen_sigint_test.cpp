// Cooperative-interrupt test for the tevot_loadgen binary: SIGTERM
// mid-storm must finish in-flight requests, print the partial
// classified summary, flush a valid --json payload marked
// "interrupted": 1, and exit 130 — a cut-short run leaves data, not
// wreckage. The server side runs in-process; only the loadgen is a
// child process (it is the one being signalled). Also: a peer that
// never answers cannot hold the stop hook past one receive timeout,
// and a numeric flag that is not a complete, finite, in-range number
// is a usage error.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/serve_oracle.hpp"
#include "fixture.hpp"
#include "fleet/loadgen.hpp"
#include "serve/server.hpp"
#include "util/fd.hpp"
#include "util/json.hpp"

namespace tevot::fleet {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// A number member of the flat JSON report; -1 when the report does
/// not parse or the member is missing or not a number.
double jsonNumber(const std::string& json, const std::string& key) {
  util::json::Value report;
  const util::Status status = util::json::parse(json, &report);
  EXPECT_TRUE(status.ok()) << status.message;
  const util::json::Value* member = report.find(key);
  if (member == nullptr || member->kind != util::json::Value::Kind::kNumber) {
    return -1.0;
  }
  return member->number;
}

TEST(LoadgenSigintTest, SigtermMidStormFlushesPartialJsonAndExits130) {
  const check::OracleModel oracle = check::oracleModel();
  serve::ServerOptions server_options;
  server_options.model_dir = oracle.model_dir;
  serve::Server server(server_options);
  ASSERT_TRUE(server.start().ok());

  const std::string json_path =
      testing::TempDir() + "tevot_loadgen_sigint.json";
  std::filesystem::remove(json_path);

  // A storm far longer than the test: only the signal ends it.
  fleet_test::Process loadgen = fleet_test::Process::spawn(
      TEVOT_LOADGEN_BINARY,
      {"--port", std::to_string(server.port()), "--duration-s", "60",
       "--rate-qps", "400", "--connections", "2", "--seed", "7",
       "--label", "sigint", "--json", json_path});
  ASSERT_GT(loadgen.pid(), 0);

  // Let it actually send traffic before cutting it short.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  ASSERT_TRUE(loadgen.alive());
  loadgen.signal(SIGTERM);

  // Cooperative stop: in-flight requests finish, the report is
  // flushed, exit code is 128 + SIGINT by shell convention. wait()
  // hanging here would mean the stop hook never fired — ctest's
  // timeout turns that into a failure rather than a silent pass.
  EXPECT_EQ(loadgen.wait(), 130);
  EXPECT_NE(loadgen.readStderr().find("interrupted by signal"),
            std::string::npos);

  const std::string json = slurp(json_path);
  ASSERT_FALSE(json.empty()) << "partial JSON was not flushed";
  EXPECT_EQ(jsonNumber(json, "interrupted"), 1.0);
  // The partial report carries real classified traffic: the storm ran
  // for ~0.7 s at 400 qps before the signal.
  EXPECT_GT(jsonNumber(json, "lines_sent"), 0.0);
  EXPECT_GT(jsonNumber(json, "ok"), 0.0);
  // Internally consistent: every expected response was classified
  // (the exactly-one-response contract survives the interrupt).
  const double expected = jsonNumber(json, "responses_expected");
  const double classified =
      jsonNumber(json, "ok") + jsonNumber(json, "shed") +
      jsonNumber(json, "deadline") + jsonNumber(json, "errors") +
      jsonNumber(json, "no_response") + jsonNumber(json, "unparseable");
  EXPECT_EQ(classified, expected);

  server.drainAndStop();
  std::filesystem::remove(json_path);
}

TEST(LoadgenSigintTest, UninterruptedRunReportsInterruptedZero) {
  const check::OracleModel oracle = check::oracleModel();
  serve::ServerOptions server_options;
  server_options.model_dir = oracle.model_dir;
  serve::Server server(server_options);
  ASSERT_TRUE(server.start().ok());

  const std::string json_path =
      testing::TempDir() + "tevot_loadgen_clean.json";
  std::filesystem::remove(json_path);
  fleet_test::Process loadgen = fleet_test::Process::spawn(
      TEVOT_LOADGEN_BINARY,
      {"--port", std::to_string(server.port()), "--duration-s", "0.3",
       "--rate-qps", "200", "--connections", "2", "--seed", "7",
       "--json", json_path});
  ASSERT_GT(loadgen.pid(), 0);
  EXPECT_EQ(loadgen.wait(), 0);
  const std::string json = slurp(json_path);
  EXPECT_EQ(jsonNumber(json, "interrupted"), 0.0);
  server.drainAndStop();
  std::filesystem::remove(json_path);
}

TEST(LoadgenStopTest, SilentPeerHoldsTheStopHookOneReceiveTimeoutAtMost) {
  // A listener that completes handshakes (the kernel backlog) but never
  // reads or answers: every request blocks in recv until the receive
  // timeout.
  util::UniqueFd listener(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(listener.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener.get(), 16), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);

  LoadgenOptions options;
  options.port = ntohs(addr.sin_port);
  options.duration_s = 60.0;
  options.rate_qps = 100.0;
  options.connections = 1;
  const auto begin = std::chrono::steady_clock::now();
  options.stop = [begin] {
    return std::chrono::steady_clock::now() - begin >
           std::chrono::milliseconds(200);
  };
  const LoadgenReport report = runLoadgen(options);
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - begin)
                               .count();
  EXPECT_TRUE(report.interrupted);
  EXPECT_GT(report.lines_sent, 0u);
  EXPECT_EQ(report.responsesReceived(), 0u);
  EXPECT_EQ(report.no_response, report.responses_expected);
  // The stop at 0.2 s waits out one 1 s receive timeout, not the
  // 60 s storm.
  EXPECT_LT(elapsed_s, 3.0);
}

TEST(LoadgenBinaryTest, MalformedNumericFlagIsUsageError) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--rate-qps", "nan"},          {"--rate-qps", "0"},
      {"--duration-s", "abc"},        {"--duration-s", "-1"},
      {"--connections", "0"},         {"--connections", "2.5"},
      {"--batch-fraction", "1.5"},    {"--batch-tuples", "0"},
      {"--batch-tuples", "257"},      {"--malformed-fraction", "-0.1"},
      {"--deadline-ms", "nan"},       {"--seed", "-1"},
      {"--port", "65536"},            {"--port", "80x"},
  };
  for (const auto& [flag, value] : cases) {
    // Nothing listens on port 1: an accepted value would run a short
    // storm that nothing answers and exit 1.
    fleet_test::Process loadgen = fleet_test::Process::spawn(
        TEVOT_LOADGEN_BINARY,
        {"--port", "1", "--duration-s", "0.05", flag, value});
    ASSERT_GT(loadgen.pid(), 0);
    EXPECT_EQ(loadgen.wait(), 2) << flag << " '" << value << "'";
    EXPECT_NE(loadgen.readStderr().find("usage:"), std::string::npos)
        << flag << " '" << value << "'";
  }
}

}  // namespace
}  // namespace tevot::fleet
