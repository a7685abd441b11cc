// Subprocess tests for the tevot_serve binary: the bound-port
// announcement, SIGHUP hot reload, SIGTERM graceful drain (exit 0
// with final stats on stderr), and the exit-code taxonomy. The binary
// path is compiled in via TEVOT_SERVE_BINARY.
#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "serve/client.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve_test_util.hpp"

namespace tevot::serve {
namespace {

using serve_test::serveTestModels;

struct ServeProcess {
  pid_t pid = -1;
  int port = -1;
  std::string stderr_path;  ///< removed with the ServeProcess

  ServeProcess() = default;
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;
  ServeProcess(ServeProcess&& other) noexcept
      : pid(other.pid),
        port(other.port),
        stderr_path(std::move(other.stderr_path)) {
    other.pid = -1;
    other.stderr_path.clear();
  }

  /// Blocks until the child exits; returns its exit code (-1 when
  /// killed by a signal).
  int wait() {
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string readStderr() const {
    std::string text;
    FILE* f = std::fopen(stderr_path.c_str(), "rb");
    if (f == nullptr) return text;
    char buffer[4096];
    std::size_t n;
    while ((n = fread(buffer, 1, sizeof(buffer), f)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(f);
    return text;
  }

  ~ServeProcess() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status;
      waitpid(pid, &status, 0);
    }
    if (!stderr_path.empty()) std::remove(stderr_path.c_str());
  }
};

/// fork/execs tevot_serve with `extra_args` appended and parses the
/// "listening on 127.0.0.1:<port>" line from its stdout. port stays -1
/// when the child exits before announcing (error-path tests).
ServeProcess spawnServe(const std::vector<std::string>& extra_args) {
  static int counter = 0;
  ServeProcess process;
  process.stderr_path = testing::TempDir() + "tevot_serve_stderr_" +
                        std::to_string(::getpid()) + "_" +
                        std::to_string(counter++);
  int out_pipe[2];
  if (pipe(out_pipe) != 0) return process;

  const pid_t pid = fork();
  if (pid == 0) {
    ::close(out_pipe[0]);
    dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[1]);
    FILE* err = std::fopen(process.stderr_path.c_str(), "wb");
    if (err != nullptr) dup2(fileno(err), STDERR_FILENO);
    std::vector<char*> argv;
    std::string binary = TEVOT_SERVE_BINARY;
    argv.push_back(binary.data());
    std::vector<std::string> args = extra_args;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(out_pipe[1]);
  process.pid = pid;

  // Read the child's stdout until the announcement (or EOF on early
  // exit).
  std::string out;
  char c;
  while (process.port < 0) {
    const ssize_t n = read(out_pipe[0], &c, 1);
    if (n <= 0) break;
    if (c != '\n') {
      out.push_back(c);
      continue;
    }
    const char* marker = "listening on 127.0.0.1:";
    const std::size_t pos = out.find(marker);
    if (pos != std::string::npos) {
      process.port = std::atoi(out.c_str() + pos + std::strlen(marker));
    }
    out.clear();
  }
  ::close(out_pipe[0]);
  return process;
}

Response request(LineClient& client, const std::string& line) {
  EXPECT_TRUE(client.sendLine(line));
  const std::optional<std::string> raw = client.readLine();
  EXPECT_TRUE(raw.has_value());
  Response response;
  EXPECT_TRUE(parseResponse(raw.value_or(""), &response));
  return response;
}

TEST(ServeBinaryTest, ServesPredictionsAndDrainsOnSigterm) {
  ServeProcess process = spawnServe({"--model-dir", serveTestModels().dir});
  ASSERT_GT(process.port, 0);

  LineClient client;
  ASSERT_TRUE(client.connectTo(process.port).ok());
  const Response ok =
      request(client, "predict int_add 0.9 25 300 1 2 3 4");
  EXPECT_EQ(ok.status, ResponseStatus::kOk);
  const Response bad = request(client, "predict int_add nan 25 300 1 2 3 4");
  EXPECT_EQ(bad.code, ErrorCode::kBadRequest);

  ASSERT_EQ(::kill(process.pid, SIGTERM), 0);
  EXPECT_EQ(process.wait(), 0);
  const std::string err = process.readStderr();
  EXPECT_NE(err.find("draining"), std::string::npos) << err;
  EXPECT_NE(err.find("final stats:"), std::string::npos) << err;
  EXPECT_NE(err.find("requests="), std::string::npos) << err;
  // The drained listener is really gone.
  LineClient late;
  EXPECT_FALSE(late.connectTo(process.port).ok());
}

TEST(ServeBinaryTest, SighupHotReloadsModels) {
  ServeProcess process = spawnServe({"--model-dir", serveTestModels().dir});
  ASSERT_GT(process.port, 0);
  LineClient client;
  ASSERT_TRUE(client.connectTo(process.port).ok());

  const Response before = request(client, "health");
  ASSERT_EQ(before.status, ResponseStatus::kOk);
  EXPECT_NE(before.detail.find("generation=1"), std::string::npos)
      << before.detail;

  ASSERT_EQ(::kill(process.pid, SIGHUP), 0);
  // The binary polls its reload flag every 50 ms; wait for the bump.
  bool reloaded = false;
  for (int i = 0; i < 100 && !reloaded; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const Response health = request(client, "health");
    reloaded =
        health.detail.find("generation=2") != std::string::npos;
  }
  EXPECT_TRUE(reloaded);
  ASSERT_EQ(::kill(process.pid, SIGTERM), 0);
  EXPECT_EQ(process.wait(), 0);
}

TEST(ServeBinaryTest, FailedSighupReloadIsReportedOnceOnStderr) {
  const std::string dir = testing::TempDir() + "tevot_serve_bad_reload_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  serveTestModels().model_a.save(dir + "/int_add.model");
  ServeProcess process = spawnServe({"--model-dir", dir});
  ASSERT_GT(process.port, 0);
  LineClient client;
  ASSERT_TRUE(client.connectTo(process.port).ok());

  std::ofstream(dir + "/int_add.model") << "not a model\n";
  ASSERT_EQ(::kill(process.pid, SIGHUP), 0);
  bool failed = false;
  for (int i = 0; i < 100 && !failed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    failed = request(client, "stats").detail.find("reload_failures=1") !=
             std::string::npos;
  }
  EXPECT_TRUE(failed);
  // The previous models keep serving.
  EXPECT_EQ(request(client, "predict int_add 0.9 25 300 1 2 3 4").status,
            ResponseStatus::kOk);
  ASSERT_EQ(::kill(process.pid, SIGTERM), 0);
  EXPECT_EQ(process.wait(), 0);

  const std::string err = process.readStderr();
  std::size_t reports = 0;
  for (std::size_t at = err.find("reload failed"); at != std::string::npos;
       at = err.find("reload failed", at + 1)) {
    ++reports;
  }
  EXPECT_EQ(reports, 1u) << err;
  EXPECT_EQ(err.find("[tevot WARN]"), std::string::npos) << err;
  std::filesystem::remove_all(dir);
}

TEST(ServeBinaryTest, FinalStatsLineIsMachineParseable) {
  // The drain summary on stderr is the fleet supervisor's only view
  // of a dead worker's counters, so it must round-trip through
  // parseMetricsLine and satisfy the accounting invariant.
  ServeProcess process = spawnServe({"--model-dir", serveTestModels().dir});
  ASSERT_GT(process.port, 0);

  LineClient client;
  ASSERT_TRUE(client.connectTo(process.port).ok());
  int expected_ok = 0, expected_errors = 0;
  for (int i = 0; i < 20; ++i) {
    const Response response =
        i % 5 == 4
            ? request(client, "definitely not a verb")
            : request(client, "predict int_add 0.9 25 300 " +
                                  std::to_string(i) + " 2 3 4");
    if (response.status == ResponseStatus::kOk) ++expected_ok;
    if (response.status == ResponseStatus::kError) ++expected_errors;
  }
  ASSERT_EQ(::kill(process.pid, SIGTERM), 0);
  ASSERT_EQ(process.wait(), 0);

  const std::string err = process.readStderr();
  std::string stats_line;
  std::size_t start = 0;
  while (start < err.size()) {
    std::size_t end = err.find('\n', start);
    if (end == std::string::npos) end = err.size();
    const std::string line = err.substr(start, end - start);
    if (line.find("final stats:") != std::string::npos) stats_line = line;
    start = end + 1;
  }
  ASSERT_FALSE(stats_line.empty()) << err;

  MetricsSnapshot parsed;
  ASSERT_TRUE(parseMetricsLine(stats_line, &parsed)) << stats_line;
  EXPECT_EQ(parsed.requests, 20u);
  EXPECT_EQ(parsed.ok, static_cast<std::uint64_t>(expected_ok));
  EXPECT_EQ(parsed.errors, static_cast<std::uint64_t>(expected_errors));
  EXPECT_EQ(parsed.requests,
            parsed.ok + parsed.shed + parsed.deadline + parsed.errors);
  // The latency histogram rode along: one sample per accepted predict.
  EXPECT_EQ(parsed.latency_count,
            static_cast<std::uint64_t>(expected_ok));
  EXPECT_GT(parsed.max_ms, 0.0);
}

TEST(ServeBinaryTest, SigintAlsoDrainsCleanly) {
  ServeProcess process = spawnServe({"--model-dir", serveTestModels().dir});
  ASSERT_GT(process.port, 0);
  ASSERT_EQ(::kill(process.pid, SIGINT), 0);
  EXPECT_EQ(process.wait(), 0);
  EXPECT_NE(process.readStderr().find("final stats:"), std::string::npos);
}

TEST(ServeBinaryTest, MissingModelDirIsRuntimeError) {
  ServeProcess process = spawnServe(
      {"--model-dir", testing::TempDir() + "tevot_no_such_models"});
  EXPECT_EQ(process.port, -1);  // never announced
  EXPECT_EQ(process.wait(), 1);
}

TEST(ServeBinaryTest, MissingArgumentsIsUsageError) {
  ServeProcess no_args = spawnServe({});
  EXPECT_EQ(no_args.wait(), 2);
  EXPECT_NE(no_args.readStderr().find("usage:"), std::string::npos);
  ServeProcess bad_flag = spawnServe({"--frobnicate"});
  EXPECT_EQ(bad_flag.wait(), 2);
}

TEST(ServeBinaryTest, MalformedNumericFlagIsUsageError) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--max-conns", "-1"}, {"--max-conns", "0"},
      {"--max-conns", "2.5"}, {"--max-conns", ""},
      {"--port", "65536"},    {"--port", "abc"},
  };
  for (const auto& [flag, value] : cases) {
    ServeProcess process =
        spawnServe({"--model-dir", serveTestModels().dir, flag, value});
    // An accepted value would serve until signalled.
    if (process.port > 0) ::kill(process.pid, SIGTERM);
    EXPECT_EQ(process.wait(), 2) << flag << " '" << value << "'";
    EXPECT_NE(process.readStderr().find("usage:"), std::string::npos)
        << flag << " '" << value << "'";
  }
}

TEST(ServeBinaryTest, RemovedFlagsAreUnknownOptions) {
  // The drain budget is a constant and a predict's only deadline is
  // its own: these are unknown options even with a well-formed value.
  for (const std::string flag : {"--deadline-ms", "--drain-ms"}) {
    ServeProcess process =
        spawnServe({"--model-dir", serveTestModels().dir, flag, "5"});
    if (process.port > 0) ::kill(process.pid, SIGTERM);
    EXPECT_EQ(process.wait(), 2) << flag;
    EXPECT_NE(process.readStderr().find("unknown option " + flag),
              std::string::npos)
        << flag;
  }
}

}  // namespace
}  // namespace tevot::serve
