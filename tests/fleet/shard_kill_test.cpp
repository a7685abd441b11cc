// Multi-process resilience storm: spawn the real tevot_router binary
// supervising real tevot_serve shards, storm it from concurrent
// clients, SIGKILL a shard at a random point mid-storm, and hold the
// fleet contract: every request gets exactly one well-formed typed
// response, every OK is bit-identical to the offline model, the
// supervisor respawns the victim, and SIGTERM drains cleanly with a
// parseable final-stats line satisfying the accounting invariant.
//
// The kill point and victim are drawn from TEVOT_STORM_SEED (env) so
// a CI failure reproduces exactly; the seed is always logged.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fixture.hpp"
#include "serve/client.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve_test_util.hpp"
#include "util/rng.hpp"

namespace tevot::fleet_test {
namespace {

using serve::LineClient;
using serve::Response;
using serve::ResponseStatus;
using serve_test::serveTestModels;

constexpr std::uint64_t kDefaultStormSeed = 20260808ull;

std::uint64_t stormSeed() {
  const char* env = std::getenv("TEVOT_STORM_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return kDefaultStormSeed;
}

/// Hexfloat rendering for bit-exact operand transport.
std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

struct ClientTally {
  int ok = 0;
  int typed_non_ok = 0;
  int violations = 0;  ///< silence, malformed line, or wrong OK bits
};

/// One storm client: `requests` predicts with deterministic operands,
/// every response must be typed; OK must match the offline model bit
/// for bit. The front connection is to the router, which must survive
/// shard death, so a dropped connection counts as a violation.
ClientTally stormClient(int port, int thread_id, int requests) {
  ClientTally tally;
  const double v = 0.9, t = 25.0;
  LineClient client;
  if (!client.connectTo(port, /*recv_timeout_ms=*/20000).ok()) {
    tally.violations = requests;
    return tally;
  }
  for (int i = 0; i < requests; ++i) {
    const int a = (thread_id * 131 + i * 7) % 256;
    const int b = (thread_id * 17 + i * 3) % 256;
    const std::string line = "predict int_add " + hex(v) + " " + hex(t) +
                             " 300 " + std::to_string(a) + " " +
                             std::to_string(b) + " 1 2";
    if (!client.sendLine(line)) {
      ++tally.violations;
      client.close();
      if (!client.connectTo(port, 20000).ok()) {
        tally.violations += requests - i - 1;
        return tally;
      }
      continue;
    }
    const std::optional<std::string> raw = client.readLine();
    if (!raw.has_value()) {
      ++tally.violations;
      client.close();
      if (!client.connectTo(port, 20000).ok()) {
        tally.violations += requests - i - 1;
        return tally;
      }
      continue;
    }
    Response response;
    if (!serve::parseResponse(*raw, &response)) {
      ++tally.violations;
      continue;
    }
    if (response.status == ResponseStatus::kOk) {
      const double expected =
          serveTestModels().model_a.predictDelay(a, b, 1, 2, {v, t});
      if (std::memcmp(&response.delay_ps, &expected, sizeof(double)) != 0) {
        ++tally.violations;
      } else {
        ++tally.ok;
      }
    } else {
      ++tally.typed_non_ok;  // SHED / DEADLINE / ERROR are all legal
    }
  }
  return tally;
}

TEST(ShardKillStormTest, KillAtRandomPointPreservesFleetContract) {
  const std::uint64_t seed = stormSeed();
  std::printf("ShardKillStormTest: reproduce with TEVOT_STORM_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  util::Rng rng(seed);

  Process router = Process::spawn(
      TEVOT_ROUTER_BINARY,
      {"--model-dir", serveTestModels().dir, "--serve-binary",
       TEVOT_SERVE_BINARY, "--shards", "3", "--health-interval-ms", "20"});
  ASSERT_TRUE(router.awaitReady()) << router.readStderr();
  ASSERT_GT(router.port(), 0);
  ASSERT_EQ(router.shards().size(), 3u) << "expected 3 shard announcements";

  // Pick the victim and the kill delay from the seed.
  const std::size_t victim = rng.nextBelow(3);
  const double kill_after_ms = 30.0 + rng.nextDouble(0.0, 250.0);
  const ShardInfo* victim_info = latestShard(router.shards(), victim);
  ASSERT_NE(victim_info, nullptr);
  const pid_t victim_pid = victim_info->pid;
  std::printf("ShardKillStormTest: killing shard %zu (pid %d) after %.0fms\n",
              victim, static_cast<int>(victim_pid), kill_after_ms);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 120;
  std::vector<ClientTally> tallies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&tallies, c, port = router.port()] {
      tallies[static_cast<std::size_t>(c)] =
          stormClient(port, c, kRequestsPerClient);
    });
  }

  // Kill mid-storm, then wait for the supervisor to respawn it while
  // the clients keep hammering the front port.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(kill_after_ms)));
  ASSERT_EQ(::kill(victim_pid, SIGKILL), 0);
  EXPECT_TRUE(router.awaitRespawn(victim, victim_pid))
      << "supervisor never respawned shard " << victim << "\n"
      << router.readStderr();
  const ShardInfo* respawned = latestShard(router.shards(), victim);
  ASSERT_NE(respawned, nullptr);
  EXPECT_NE(respawned->pid, victim_pid);
  EXPECT_GT(respawned->port, 0);

  for (std::thread& thread : clients) thread.join();
  int total_ok = 0, total_typed = 0, total_violations = 0;
  for (const ClientTally& tally : tallies) {
    total_ok += tally.ok;
    total_typed += tally.typed_non_ok;
    total_violations += tally.violations;
  }
  std::printf(
      "ShardKillStormTest: ok=%d typed_non_ok=%d violations=%d "
      "(seed %llu)\n",
      total_ok, total_typed, total_violations,
      static_cast<unsigned long long>(seed));
  EXPECT_EQ(total_violations, 0)
      << "every request must get exactly one well-formed response; "
         "reproduce with TEVOT_STORM_SEED="
      << seed;
  EXPECT_GT(total_ok, 0);
  EXPECT_EQ(total_ok + total_typed + total_violations,
            kClients * kRequestsPerClient);

  // Clean drain: SIGTERM → exit 0, machine-parseable final stats with
  // the accounting invariant intact.
  router.signal(SIGTERM);
  EXPECT_EQ(router.wait(), 0) << router.readStderr();
  const std::string err = router.readStderr();
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
  serve::MetricsSnapshot parsed;
  ASSERT_TRUE(serve::parseMetricsLine(stats_line, &parsed)) << stats_line;
  EXPECT_EQ(parsed.requests,
            parsed.ok + parsed.shed + parsed.deadline + parsed.errors)
      << stats_line;
  EXPECT_GE(parsed.requests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
}

TEST(ShardKillStormTest, RouterBinaryRejectsBadUsage) {
  Process no_args = Process::spawn(TEVOT_ROUTER_BINARY, {});
  EXPECT_EQ(no_args.wait(), 2);
  EXPECT_NE(no_args.readStderr().find("usage:"), std::string::npos);

  Process bad_policy = Process::spawn(
      TEVOT_ROUTER_BINARY,
      {"--model-dir", serveTestModels().dir, "--serve-binary",
       TEVOT_SERVE_BINARY, "--policy", "hash-ring"});
  EXPECT_EQ(bad_policy.wait(), 2);
}

TEST(ShardKillStormTest, RouterBinaryRejectsMalformedNumericFlags) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--health-interval-ms", "0"},   {"--health-interval-ms", "nan"},
      {"--shards", "0"},               {"--shards", "257"},
      {"--port", "70000"},
  };
  for (const auto& [flag, value] : cases) {
    Process router = Process::spawn(
        TEVOT_ROUTER_BINARY, {"--model-dir", serveTestModels().dir,
                              "--serve-binary", TEVOT_SERVE_BINARY,
                              "--shards", "1", flag, value});
    // An accepted value would start a fleet; drain it so no worker
    // outlives the test.
    if (router.awaitReady()) router.signal(SIGTERM);
    EXPECT_EQ(router.wait(), 2) << flag << " '" << value << "'";
    EXPECT_NE(router.readStderr().find("usage:"), std::string::npos)
        << flag << " '" << value << "'";
  }
}

TEST(ShardKillStormTest, RouterBinaryRejectsRemovedFlags) {
  // The shed fraction and the restart cap are constants, and a
  // predict's only deadline is its own: these are unknown options even
  // with a well-formed value.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--deadline-ms", "5"},
      {"--shed-queue-fraction", "0.5"},
      {"--max-restarts", "3"},
  };
  for (const auto& [flag, value] : cases) {
    Process router = Process::spawn(
        TEVOT_ROUTER_BINARY, {"--model-dir", serveTestModels().dir,
                              "--serve-binary", TEVOT_SERVE_BINARY,
                              "--shards", "1", flag, value});
    if (router.awaitReady()) router.signal(SIGTERM);
    EXPECT_EQ(router.wait(), 2) << flag;
    EXPECT_NE(router.readStderr().find("unknown option " + flag),
              std::string::npos)
        << flag;
  }
}

TEST(ShardKillStormTest, SighupRollsReloadAcrossFleet) {
  Process router = Process::spawn(
      TEVOT_ROUTER_BINARY,
      {"--model-dir", serveTestModels().dir, "--serve-binary",
       TEVOT_SERVE_BINARY, "--shards", "2", "--health-interval-ms", "20"});
  ASSERT_TRUE(router.awaitReady()) << router.readStderr();

  LineClient client;
  ASSERT_TRUE(client.connectTo(router.port(), 20000).ok());
  auto generationOf = [&client]() -> int {
    if (!client.sendLine("health")) return -1;
    const std::optional<std::string> raw = client.readLine();
    if (!raw.has_value()) return -1;
    const std::size_t pos = raw->find("generation=");
    if (pos == std::string::npos) return -1;
    return std::atoi(raw->c_str() + pos + std::strlen("generation="));
  };
  ASSERT_EQ(generationOf(), 1);

  router.signal(SIGHUP);
  bool bumped = false;
  for (int i = 0; i < 200 && !bumped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    bumped = generationOf() >= 2;
  }
  EXPECT_TRUE(bumped) << router.readStderr();

  router.signal(SIGTERM);
  EXPECT_EQ(router.wait(), 0) << router.readStderr();
}

}  // namespace
}  // namespace tevot::fleet_test
