// In-process Router tests: sharding policies, typed backpressure,
// shard eviction/re-admission, and cross-process stats aggregation —
// against real serve::Server shards on loopback, and against scripted
// shards that pass their health probe and then drop every forward.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fake_line_server.hpp"
#include "fleet/router.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "util/fault_injection.hpp"
#include "util/fd.hpp"

namespace tevot::fleet {
namespace {

using serve::ErrorCode;
using serve::LineClient;
using serve::Response;
using serve::ResponseStatus;
using serve_test::FakeLineServer;
using serve_test::serveTestModels;

std::unique_ptr<serve::Server> bootShard(serve::ServerOptions options = {}) {
  options.model_dir = serveTestModels().dir;
  auto server = std::make_unique<serve::Server>(options);
  EXPECT_TRUE(server->start().ok());
  return server;
}

RouterOptions fastRouterOptions() {
  RouterOptions options;
  options.health_interval_ms = 10.0;
  options.backend_timeout_ms = 2000.0;
  return options;
}

Response request(LineClient& client, const std::string& line) {
  EXPECT_TRUE(client.sendLine(line));
  const std::optional<std::string> raw = client.readLine();
  EXPECT_TRUE(raw.has_value());
  Response response;
  EXPECT_TRUE(serve::parseResponse(raw.value_or(""), &response));
  return response;
}

/// A loopback connection that sends bytes exactly as given (no
/// implied terminator) and reads responses one line at a time.
class RawConnection {
 public:
  explicit RawConnection(int port)
      : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    timeval timeout{5, 0};  // a missing response fails, never hangs
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = ::connect(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }

  bool connected() const { return connected_; }

  bool send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n =
          ::send(fd_.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  std::optional<std::string> readLine() {
    std::string line;
    char c = 0;
    while (::recv(fd_.get(), &c, 1, 0) == 1) {
      if (c == '\n') return line;
      line.push_back(c);
    }
    return std::nullopt;
  }

 private:
  util::UniqueFd fd_;
  bool connected_ = false;
};

/// A shard that answers the router's first health probe (an idle
/// worker's stats line) and then drops the first forward it gets,
/// counting the request lines that reach it.
class DroppingShard {
 public:
  DroppingShard()
      : server_({[](int fd) {
                   FakeLineServer::readLine(fd);
                   FakeLineServer::sendAll(
                       fd, "OK stats " + serve::MetricsSnapshot{}.toLine() +
                               "\n");
                 },
                 [this](int fd) {
                   if (!FakeLineServer::readLine(fd).empty()) ++forwards_;
                 }}) {}

  ~DroppingShard() {
    // A shard the router never forwarded to still waits in accept().
    if (forwards_ == 0) (void)LineClient().connectTo(port());
  }

  int port() const { return server_.port(); }
  int forwards() const { return forwards_; }

 private:
  std::atomic<int> forwards_{0};
  FakeLineServer server_;
};

bool awaitAllEligible(const Router& router, double timeout_ms = 5000.0) {
  for (int i = 0; i < static_cast<int>(timeout_ms / 10.0); ++i) {
    bool all = true;
    for (std::size_t s = 0; s < router.shardCount(); ++s) {
      if (!router.shardEligible(s)) all = false;
    }
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(RouterTest, ParsesPolicyNames) {
  ShardPolicy policy = ShardPolicy::kPerFu;
  EXPECT_TRUE(parseShardPolicy("replicated", &policy));
  EXPECT_EQ(policy, ShardPolicy::kReplicated);
  EXPECT_TRUE(parseShardPolicy("per-fu", &policy));
  EXPECT_EQ(policy, ShardPolicy::kPerFu);
  EXPECT_FALSE(parseShardPolicy("sharded", &policy));
  EXPECT_STREQ(shardPolicyName(ShardPolicy::kReplicated), "replicated");
  EXPECT_STREQ(shardPolicyName(ShardPolicy::kPerFu), "per-fu");
}

TEST(RouterTest, ReplicatedRelaysBitIdenticalResponses) {
  std::vector<std::unique_ptr<serve::Server>> shards;
  std::vector<ShardEndpoint> endpoints;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(bootShard());
    endpoints.push_back({shards.back()->port(), {}});
  }
  Router router(fastRouterOptions(), endpoints);
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(awaitAllEligible(router));

  // The same request through the router and straight to a shard must
  // produce byte-identical OK lines (hexfloat relay).
  const std::string line = "predict int_add 0x1.ccccccccccccdp-1 25 300 7 9 1 2";
  LineClient direct;
  ASSERT_TRUE(direct.connectTo(shards[0]->port()).ok());
  ASSERT_TRUE(direct.sendLine(line));
  const std::optional<std::string> direct_raw = direct.readLine();
  ASSERT_TRUE(direct_raw.has_value());

  LineClient via_router;
  ASSERT_TRUE(via_router.connectTo(router.port()).ok());
  for (int i = 0; i < 8; ++i) {  // hit both shards round-robin
    ASSERT_TRUE(via_router.sendLine(line));
    const std::optional<std::string> raw = via_router.readLine();
    ASSERT_TRUE(raw.has_value());
    EXPECT_EQ(*raw, *direct_raw);
  }

  // Batches: exactly n typed lines, bit-identical too.
  ASSERT_TRUE(via_router.sendLine(
      "predictN int_add 0x1.ccccccccccccdp-1 25 300 2 7 9 1 2 7 9 1 2"));
  for (int i = 0; i < 2; ++i) {
    const std::optional<std::string> raw = via_router.readLine();
    ASSERT_TRUE(raw.has_value());
    EXPECT_EQ(*raw, *direct_raw);
  }

  router.drainAndStop();
  for (auto& shard : shards) shard->drainAndStop();
}

TEST(RouterTest, WireAbuseGetsOneTypedLineAndConnectionSurvives) {
  std::vector<std::unique_ptr<serve::Server>> shards;
  shards.push_back(bootShard());
  Router router(fastRouterOptions(), {{shards[0]->port(), {}}});
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(awaitAllEligible(router));
  RawConnection conn(router.port());
  ASSERT_TRUE(conn.connected());
  const auto expectError = [&](ErrorCode code, const char* what) {
    const std::optional<std::string> raw = conn.readLine();
    ASSERT_TRUE(raw.has_value()) << what;
    Response response;
    ASSERT_TRUE(serve::parseResponse(*raw, &response)) << what << ": " << *raw;
    EXPECT_EQ(response.status, ResponseStatus::kError) << what;
    EXPECT_EQ(response.code, code) << what << ": " << *raw;
  };

  // Oversized with a terminator.
  ASSERT_TRUE(conn.send(std::string(serve::kMaxLineBytes + 100, 'x') + "\n"));
  expectError(ErrorCode::kOversized, "terminated oversized line");
  // Oversized without one: answered before the terminator arrives,
  // and the tail up to the next newline is swallowed.
  ASSERT_TRUE(conn.send(std::string(serve::kMaxLineBytes + 100, 'y')));
  expectError(ErrorCode::kOversized, "unterminated oversized line");
  ASSERT_TRUE(conn.send("tail of the oversized line\n"));

  // Blank lines get no response at all, so the next response line
  // belongs to the next non-blank request.
  ASSERT_TRUE(conn.send("\n \t\n\r\n  \r\n"));
  ASSERT_TRUE(conn.send("predict int_add 0.9 25\r\n"));
  expectError(ErrorCode::kParse, "CRLF truncated predict");
  ASSERT_TRUE(conn.send("frobnicate int_add 0.9 25 300 1 2 3 4\n"));
  expectError(ErrorCode::kParse, "garbage verb");
  ASSERT_TRUE(conn.send("predict int_add nan 25 300 1 2 3 4\n"));
  expectError(ErrorCode::kBadRequest, "NaN operand");

  // The same connection answers a valid CRLF predict bit-identically
  // to the in-process model.
  const double v = 0.9, t = 25.0, tclk = 300.0;
  char line[160];
  std::snprintf(line, sizeof(line), "predict int_add %a %a %a 7 9 1 2\r\n",
                v, t, tclk);
  ASSERT_TRUE(conn.send(line));
  const std::optional<std::string> raw = conn.readLine();
  ASSERT_TRUE(raw.has_value());
  Response ok;
  ASSERT_TRUE(serve::parseResponse(*raw, &ok)) << *raw;
  ASSERT_EQ(ok.status, ResponseStatus::kOk) << *raw;
  const double expected =
      serveTestModels().model_a.predictDelay(7, 9, 1, 2, {v, t});
  EXPECT_EQ(std::memcmp(&ok.delay_ps, &expected, sizeof(double)), 0);

  const serve::MetricsSnapshot stats = router.drainAndStop();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.errors, 5u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.requests,
            stats.ok + stats.shed + stats.deadline + stats.errors);
  shards[0]->drainAndStop();
}

TEST(RouterTest, PerFuPolicyRoutesToOwnerOnly) {
  std::vector<std::unique_ptr<serve::Server>> shards;
  shards.push_back(bootShard());
  shards.push_back(bootShard());
  // Shard 0 owns int_add; shard 1 owns a FU nobody asks for.
  const std::vector<ShardEndpoint> endpoints = {
      {shards[0]->port(), {"int_add"}},
      {shards[1]->port(), {"int_mul"}},
  };
  RouterOptions options = fastRouterOptions();
  options.policy = ShardPolicy::kPerFu;
  Router router(options, endpoints);
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(awaitAllEligible(router));

  LineClient client;
  ASSERT_TRUE(client.connectTo(router.port()).ok());
  const Response ok = request(client, "predict int_add 0.9 25 300 1 2 3 4");
  EXPECT_EQ(ok.status, ResponseStatus::kOk);

  // A FU no shard owns is refused with the typed worker error.
  const Response unknown =
      request(client, "predict no_such_fu 0.9 25 300 1 2 3 4");
  EXPECT_EQ(unknown.status, ResponseStatus::kError);
  EXPECT_EQ(unknown.code, ErrorCode::kUnknownFu);

  // Only the owner saw the predict. Worker `ok` also counts the
  // router's in-band health probes, so the predict-only latency
  // counter is the discriminating surface.
  const serve::MetricsSnapshot s0 = shards[0]->stats();
  const serve::MetricsSnapshot s1 = shards[1]->stats();
  EXPECT_GE(s0.latency_count, 1u);
  EXPECT_EQ(s1.latency_count, 0u);

  router.drainAndStop();
  for (auto& shard : shards) shard->drainAndStop();
}

TEST(RouterTest, NoEligibleShardIsTypedShedNeverSilence) {
  std::vector<std::unique_ptr<serve::Server>> shards;
  shards.push_back(bootShard());
  // Only the first probe (at start) may run: a later one would re-admit
  // the live shard after markShardDown and turn SHED into OK.
  RouterOptions options = fastRouterOptions();
  options.health_interval_ms = 600'000.0;
  Router router(options, {{shards[0]->port(), {}}});
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(awaitAllEligible(router));

  LineClient client;
  ASSERT_TRUE(client.connectTo(router.port()).ok());
  EXPECT_EQ(request(client, "predict int_add 0.9 25 300 1 2 3 4").status,
            ResponseStatus::kOk);

  // Evict the only shard: every subsequent predict must still get a
  // typed response line (SHED), and a batch gets n of them.
  router.markShardDown(0);
  EXPECT_FALSE(router.shardEligible(0));
  const Response shed = request(client, "predict int_add 0.9 25 300 1 2 3 4");
  EXPECT_EQ(shed.status, ResponseStatus::kShed);
  ASSERT_TRUE(client.sendLine("predictN int_add 0.9 25 300 3 1 2 3 4 1 2 3 4 1 2 3 4"));
  for (int i = 0; i < 3; ++i) {
    const std::optional<std::string> raw = client.readLine();
    ASSERT_TRUE(raw.has_value());
    Response response;
    ASSERT_TRUE(serve::parseResponse(*raw, &response));
    EXPECT_EQ(response.status, ResponseStatus::kShed);
  }

  // Control surface keeps answering while the fleet is down.
  const Response health = request(client, "health");
  EXPECT_EQ(health.status, ResponseStatus::kOk);
  EXPECT_NE(health.detail.find("healthy=0"), std::string::npos)
      << health.detail;

  const serve::MetricsSnapshot stats = router.drainAndStop();
  EXPECT_EQ(stats.requests,
            stats.ok + stats.shed + stats.deadline + stats.errors);
  shards[0]->drainAndStop();
}

TEST(RouterTest, ShedsWhilePolledShardLoadReachesTheFraction) {
  // Slowed predicts hold the shard's connection threads; eighteen of
  // them are nine tenths of its twenty connections, the router's shed
  // fraction (the probe holds one more).
  util::FaultInjector faults;
  util::FaultPlan plan;
  plan.rate = 1.0;
  plan.points = {"serve.slow"};
  plan.fail_attempts = 1000;
  plan.slow_ms = 1000.0;
  faults.arm(plan);
  serve::ServerOptions shard_options;
  shard_options.max_connections = 20;
  shard_options.faults = &faults;
  const std::unique_ptr<serve::Server> shard = bootShard(shard_options);
  Router router(fastRouterOptions(), {{shard->port(), {}}});
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(awaitAllEligible(router));
  const auto awaitPolledInFlight = [&](std::size_t in_flight) {
    for (int i = 0; i < 5000; ++i) {
      if (router.stats().in_flight == in_flight) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };

  const std::string line = "predict int_add 0.9 25 300 1 2 3 4";
  LineClient slow[18];
  for (LineClient& client : slow) {
    ASSERT_TRUE(client.connectTo(router.port()).ok());
    ASSERT_TRUE(client.sendLine(line));
  }
  ASSERT_TRUE(awaitPolledInFlight(18));
  LineClient client;
  ASSERT_TRUE(client.connectTo(router.port()).ok());
  const Response shed = request(client, line);
  EXPECT_EQ(shed.status, ResponseStatus::kShed);
  EXPECT_EQ(shed.detail, "no eligible shard");

  // The slowed predicts still finish, and once a poll sees the shard
  // idle it is routed to again.
  faults.disarm();
  for (LineClient& done : slow) {
    Response response;
    ASSERT_TRUE(serve::parseResponse(done.readLine().value_or(""),
                                     &response));
    EXPECT_EQ(response.status, ResponseStatus::kOk) << response.detail;
  }
  ASSERT_TRUE(awaitPolledInFlight(0));
  EXPECT_EQ(request(slow[0], line).status, ResponseStatus::kOk);

  router.drainAndStop();
  shard->drainAndStop();
}

TEST(RouterTest, DeadShardIsEvictedAndReadmittedAfterRestart) {
  // Shard health is the last probe's result: a killed shard leaves
  // rotation on its first failed probe, and a restarted one comes back
  // on its first successful probe. Each round probes shard 0 before
  // shard 1, and shard 0 sees no other traffic meanwhile, so its
  // request count numbers the probe rounds.
  std::vector<std::unique_ptr<serve::Server>> shards;
  shards.push_back(bootShard());
  shards.push_back(bootShard());
  const std::vector<ShardEndpoint> endpoints = {
      {shards[0]->port(), {}}, {shards[1]->port(), {}}};
  RouterOptions options = fastRouterOptions();
  options.health_interval_ms = 200.0;
  Router router(options, endpoints);
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(awaitAllEligible(router));

  // Kill shard 1 without telling the router.
  shards[1]->drainAndStop();
  shards[1].reset();
  const std::uint64_t rounds_at_kill = shards[0]->stats().requests;
  bool evicted = false;
  for (int i = 0; i < 5000 && !evicted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    evicted = !router.shardEligible(1);
  }
  ASSERT_TRUE(evicted);
  // The round under way at the kill, or else the next one, evicted it.
  EXPECT_LE(shards[0]->stats().requests - rounds_at_kill, 1u);

  // Service continues on the sibling.
  LineClient client;
  ASSERT_TRUE(client.connectTo(router.port()).ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(request(client, "predict int_add 0.9 25 300 1 2 3 4").status,
              ResponseStatus::kOk);
  }

  // Restart on a fresh port (the supervisor path) and require
  // probe-driven re-admission.
  shards[1] = bootShard();
  router.setShardPort(1, shards[1]->port());
  bool readmitted = false;
  for (int i = 0; i < 5000 && !readmitted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    readmitted = router.shardEligible(1);
  }
  ASSERT_TRUE(readmitted);
  EXPECT_EQ(shards[1]->stats().requests, 1u);  // one probe answered

  router.drainAndStop();
  for (auto& shard : shards) {
    if (shard) shard->drainAndStop();
  }
}

TEST(RouterTest, ReplicatedTriesEachShardOnceAndDropsFailedShards) {
  // Four shards pass the start probe and then drop every forward. No
  // later probe runs, so only the forward rule acts: the request visits
  // each shard exactly once, each failed forward takes its shard out of
  // rotation at once, and the request ends in a typed SHED.
  std::vector<std::unique_ptr<DroppingShard>> shards;
  std::vector<ShardEndpoint> endpoints;
  for (int i = 0; i < 4; ++i) {
    shards.push_back(std::make_unique<DroppingShard>());
    endpoints.push_back({shards.back()->port(), {}});
  }
  RouterOptions options = fastRouterOptions();
  options.health_interval_ms = 600'000.0;
  Router router(options, endpoints);
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(awaitAllEligible(router));

  LineClient client;
  ASSERT_TRUE(client.connectTo(router.port()).ok());
  const Response shed = request(client, "predict int_add 0.9 25 300 1 2 3 4");
  EXPECT_EQ(shed.status, ResponseStatus::kShed);
  EXPECT_EQ(shed.detail, "no eligible shard");
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i]->forwards(), 1) << "shard " << i;
    EXPECT_FALSE(router.shardEligible(i)) << "shard " << i;
  }
  router.drainAndStop();
}

TEST(RouterTest, PerFuOwnerDownShedsEveryTupleOfABatch) {
  DroppingShard owner;
  RouterOptions options = fastRouterOptions();
  options.policy = ShardPolicy::kPerFu;
  options.health_interval_ms = 600'000.0;
  Router router(options, {{owner.port(), {"int_add"}}});
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(awaitAllEligible(router));

  const std::vector<serve::BatchOperand> tuples(64, {1, 2, 3, 4});
  LineClient client;
  ASSERT_TRUE(client.connectTo(router.port()).ok());
  ASSERT_TRUE(client.sendLine(
      serve::formatBatchRequest("int_add", 0.9, 25.0, 300.0, tuples)));
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    Response response;
    ASSERT_TRUE(serve::parseResponse(client.readLine().value_or(""),
                                     &response))
        << "line " << i;
    EXPECT_EQ(response.status, ResponseStatus::kShed) << "line " << i;
  }
  // Exactly 64: the next line answers the next request.
  const Response health = request(client, "health");
  EXPECT_NE(health.detail.find("healthy=0"), std::string::npos)
      << health.detail;
  EXPECT_EQ(owner.forwards(), 1);
  router.drainAndStop();
}

TEST(RouterTest, WorkerStatsAggregateExactly) {
  std::vector<std::unique_ptr<serve::Server>> shards;
  std::vector<ShardEndpoint> endpoints;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(bootShard());
    endpoints.push_back({shards.back()->port(), {}});
  }
  Router router(fastRouterOptions(), endpoints);
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(awaitAllEligible(router));

  LineClient client;
  ASSERT_TRUE(client.connectTo(router.port()).ok());
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(request(client, "predict int_add 0.9 25 300 " +
                                  std::to_string(i) + " 2 3 4")
                  .status,
              ResponseStatus::kOk);
  }
  // Let the health loop poll the final counters.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const serve::MetricsSnapshot aggregated = router.workerStats();
  serve::MetricsSnapshot direct;
  for (const auto& shard : shards) direct.mergeFrom(shard->stats());
  // The health probes keep issuing `stats` requests of their own, so
  // the raw ok/requests counters drift between the two snapshots;
  // the latency surface is predict-only and must match exactly: the
  // aggregate assembled from parsed wire lines carries the same 24
  // samples, bucket for bucket, as the in-process merge.
  EXPECT_EQ(aggregated.latency_count, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(direct.latency_count, static_cast<std::uint64_t>(kRequests));
  for (std::size_t b = 0; b < util::LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(aggregated.latency.bucketCount(b),
              direct.latency.bucketCount(b))
        << "bucket " << b;
  }
  const double agg_min = aggregated.latency.minMs();
  const double direct_min = direct.latency.minMs();
  EXPECT_EQ(std::memcmp(&agg_min, &direct_min, sizeof(double)), 0);
  const double agg_max = aggregated.latency.maxMs();
  const double direct_max = direct.latency.maxMs();
  EXPECT_EQ(std::memcmp(&agg_max, &direct_max, sizeof(double)), 0);
  EXPECT_DOUBLE_EQ(aggregated.p50_ms, direct.p50_ms);
  EXPECT_DOUBLE_EQ(aggregated.p99_ms, direct.p99_ms);
  EXPECT_EQ(aggregated.max_connections, direct.max_connections);

  router.drainAndStop();
  for (auto& shard : shards) shard->drainAndStop();
}

TEST(RouterTest, ShardStatsAreNeverTornByInFlightProbes) {
  // The router probes its shard with `stats` every millisecond, so a
  // probe line is nearly always in flight at the shard. Every snapshot
  // taken meanwhile must still balance requests against outcomes.
  const std::unique_ptr<serve::Server> shard = bootShard();
  RouterOptions options = fastRouterOptions();
  options.health_interval_ms = 1.0;
  Router router(options, {{shard->port(), {}}});
  ASSERT_TRUE(router.start().ok());
  constexpr std::uint64_t kMinCalls = 100000;
  constexpr std::uint64_t kMinProbes = 50;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
  std::uint64_t calls = 0;
  std::uint64_t torn = 0;
  serve::MetricsSnapshot last;
  while ((calls < kMinCalls || last.requests < kMinProbes) &&
         std::chrono::steady_clock::now() < give_up) {
    last = shard->stats();
    ++calls;
    if (last.requests != last.ok + last.shed + last.deadline + last.errors) {
      ++torn;
    }
  }
  router.drainAndStop();
  shard->drainAndStop();
  EXPECT_GE(calls, kMinCalls);
  EXPECT_GE(last.requests, kMinProbes);
  EXPECT_EQ(torn, 0u) << "of " << calls << " snapshots";
}

}  // namespace
}  // namespace tevot::fleet
