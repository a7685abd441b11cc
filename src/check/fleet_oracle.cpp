#include "check/fleet_oracle.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "check/property.hpp"
#include "check/serve_oracle.hpp"
#include "fleet/router.hpp"
#include "serve/server.hpp"

namespace tevot::check {

namespace {

constexpr std::size_t kShards = 3;

std::unique_ptr<serve::Server> bootShard(const std::string& model_dir) {
  serve::ServerOptions options;
  options.model_dir = model_dir;
  auto server = std::make_unique<serve::Server>(options);
  const util::Status started = server->start();
  expect(started.ok(), "shard failed to start: " + started.message);
  return server;
}

}  // namespace

void checkFleetResilience(std::uint64_t seed, util::Rng& rng) {
  (void)rng;  // all randomness is derived from `seed` by the driver
  const OracleModel fixture = oracleModel();

  std::vector<std::unique_ptr<serve::Server>> shards;
  std::vector<fleet::ShardEndpoint> endpoints;
  for (std::size_t i = 0; i < kShards; ++i) {
    shards.push_back(bootShard(fixture.model_dir));
    endpoints.push_back({shards.back()->port(), {}});
  }

  fleet::RouterOptions options;
  options.policy = fleet::ShardPolicy::kReplicated;
  options.health_interval_ms = 10.0;
  options.backend_timeout_ms = 2000.0;
  fleet::Router router(options, endpoints);
  const util::Status started = router.start();
  expect(started.ok(), "router failed to start: " + started.message);

  // The storm: the exact single-server contract driver, pointed at the
  // router's front port. A larger reconnect budget absorbs the window
  // where the victim's death surfaces as dropped relays.
  ServeDriveOptions drive;
  drive.requests_per_client = 40;
  drive.reconnect_budget = 12;
  std::exception_ptr storm_failure;
  std::thread storm([&] {
    try {
      driveAndVerifyServer(fixture.model, "int_add", router.port(), seed,
                           drive);
    } catch (...) {
      storm_failure = std::current_exception();
    }
  });

  // Mid-storm: kill one shard (deterministic per seed) and restart it
  // on a fresh port, exercising the supervisor hook path
  // markShardDown -> setShardPort -> probe re-admission.
  const std::size_t victim = static_cast<std::size_t>(seed) % kShards;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  router.markShardDown(victim);
  shards[victim]->drainAndStop();
  shards[victim].reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  shards[victim] = bootShard(fixture.model_dir);
  router.setShardPort(victim, shards[victim]->port());

  storm.join();
  if (storm_failure) std::rethrow_exception(storm_failure);

  // The restarted shard must be probed back into rotation.
  bool readmitted = false;
  for (int i = 0; i < 200; ++i) {
    if (router.shardEligible(victim)) {
      readmitted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  expect(readmitted, "restarted shard never re-entered rotation");

  const util::Status rolled = router.rollingReload();
  expect(rolled.ok(), "rolling reload failed: " + rolled.message);

  const serve::MetricsSnapshot worker_stats = router.workerStats();
  expect(worker_stats.requests > 0, "worker stats never aggregated");

  const serve::MetricsSnapshot final_stats = router.drainAndStop();
  expect(final_stats.requests == final_stats.ok + final_stats.shed +
                                     final_stats.deadline +
                                     final_stats.errors,
         "router accounting mismatch: " + final_stats.toLine());
  expect(final_stats.requests > 0, "driver sent no requests");
  for (std::unique_ptr<serve::Server>& shard : shards) {
    if (shard) shard->drainAndStop();
  }
}

}  // namespace tevot::check
