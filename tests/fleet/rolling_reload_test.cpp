// Rolling zero-downtime reload tests: the router rolls an in-band
// reload across live shards one at a time while a concurrent client
// keeps observing the exactly-one-typed-response contract; after the
// roll every shard serves the new model generation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/router.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace tevot::fleet {
namespace {

using serve::LineClient;
using serve::Response;
using serve::ResponseStatus;
using serve_test::serveTestModels;

/// A private model dir per test so swapping model files can't leak
/// into other suites sharing serveTestModels().dir.
struct PrivateModelDir : serve_test::ScratchDir {
  explicit PrivateModelDir(const std::string& tag)
      : ScratchDir("tevot_fleet_" + tag + "_" + std::to_string(::getpid())) {
    serveTestModels().model_a.save(path() + "/int_add.model");
  }
};

std::unique_ptr<serve::Server> bootShard(const std::string& model_dir) {
  serve::ServerOptions options;
  options.model_dir = model_dir;
  auto server = std::make_unique<serve::Server>(options);
  EXPECT_TRUE(server->start().ok());
  return server;
}

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

TEST(RollingReloadTest, RollSwapsModelsWithoutDowntime) {
  const PrivateModelDir model_dir("roll");
  std::vector<std::unique_ptr<serve::Server>> shards;
  std::vector<ShardEndpoint> endpoints;
  for (int i = 0; i < 3; ++i) {
    shards.push_back(bootShard(model_dir.path()));
    endpoints.push_back({shards.back()->port(), {}});
  }
  RouterOptions options;
  options.health_interval_ms = 10.0;
  options.backend_timeout_ms = 2000.0;
  Router router(options, endpoints);
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(awaitAllEligible(router));

  // Offline references for both model versions.
  const double v = 0.9, t = 25.0;
  const double before_expected =
      serveTestModels().model_a.predictDelay(7, 9, 1, 2, {v, t});
  const double after_expected =
      serveTestModels().model_b.predictDelay(7, 9, 1, 2, {v, t});
  ASSERT_NE(before_expected, after_expected)
      << "fixture models must differ for the swap to be observable";

  // Concurrent traffic throughout the roll: every line must get one
  // well-formed response whose delay matches model A or model B —
  // never silence, never a third value.
  std::atomic<bool> stop{false};
  std::atomic<int> well_formed{0}, violations{0};
  std::thread storm([&] {
    LineClient client;
    if (!client.connectTo(router.port()).ok()) {
      ++violations;
      return;
    }
    while (!stop.load()) {
      if (!client.sendLine("predict int_add 0x1.ccccccccccccdp-1 0x1.9p+4 "
                           "300 7 9 1 2")) {
        client.close();
        if (!client.connectTo(router.port()).ok()) break;
        continue;
      }
      const std::optional<std::string> raw = client.readLine();
      if (!raw.has_value()) {
        client.close();
        if (!client.connectTo(router.port()).ok()) break;
        continue;
      }
      Response response;
      if (!serve::parseResponse(*raw, &response)) {
        ++violations;
        continue;
      }
      if (response.status == ResponseStatus::kOk) {
        const bool is_a = std::memcmp(&response.delay_ps, &before_expected,
                                      sizeof(double)) == 0;
        const bool is_b = std::memcmp(&response.delay_ps, &after_expected,
                                      sizeof(double)) == 0;
        if (!is_a && !is_b) {
          ++violations;
          continue;
        }
      }
      ++well_formed;
    }
  });

  // Swap the on-disk model and roll.
  serveTestModels().model_b.save(model_dir.path() + "/int_add.model");
  const util::Status rolled = router.rollingReload();
  EXPECT_TRUE(rolled.ok()) << rolled.message;

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  storm.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(well_formed.load(), 0);

  // Every shard now serves model B, generation 2.
  for (const auto& shard : shards) {
    EXPECT_EQ(shard->stats().generation, 2u);
    LineClient direct;
    ASSERT_TRUE(direct.connectTo(shard->port()).ok());
    ASSERT_TRUE(direct.sendLine(
        "predict int_add 0x1.ccccccccccccdp-1 0x1.9p+4 300 7 9 1 2"));
    const std::optional<std::string> raw = direct.readLine();
    ASSERT_TRUE(raw.has_value());
    Response response;
    ASSERT_TRUE(serve::parseResponse(*raw, &response));
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(std::memcmp(&response.delay_ps, &after_expected,
                          sizeof(double)),
              0);
  }

  router.drainAndStop();
  for (auto& shard : shards) shard->drainAndStop();
}

TEST(RollingReloadTest, FailingShardAbortsRollAndKeepsServing) {
  const PrivateModelDir model_dir("roll_abort");
  std::vector<std::unique_ptr<serve::Server>> shards;
  std::vector<ShardEndpoint> endpoints;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(bootShard(model_dir.path()));
    endpoints.push_back({shards.back()->port(), {}});
  }
  RouterOptions options;
  options.health_interval_ms = 10.0;
  Router router(options, endpoints);
  ASSERT_TRUE(router.start().ok());
  ASSERT_TRUE(awaitAllEligible(router));

  // Corrupt the model file: every worker reload now fails validation
  // and must keep its previous models serving.
  {
    std::FILE* f =
        std::fopen((model_dir.path() + "/int_add.model").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a model", f);
    std::fclose(f);
  }
  const util::Status rolled = router.rollingReload();
  EXPECT_FALSE(rolled.ok());

  // The fleet still serves model A answers.
  const double expected =
      serveTestModels().model_a.predictDelay(3, 4, 5, 6, {0.9, 25.0});
  LineClient client;
  ASSERT_TRUE(client.connectTo(router.port()).ok());
  ASSERT_TRUE(client.sendLine(
      "predict int_add 0x1.ccccccccccccdp-1 0x1.9p+4 300 3 4 5 6"));
  const std::optional<std::string> raw = client.readLine();
  ASSERT_TRUE(raw.has_value());
  Response response;
  ASSERT_TRUE(serve::parseResponse(*raw, &response));
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(std::memcmp(&response.delay_ps, &expected, sizeof(double)), 0);
  for (const auto& shard : shards) {
    EXPECT_EQ(shard->stats().generation, 1u);
    EXPECT_GE(shard->stats().reload_failures, 0u);
  }

  router.drainAndStop();
  for (auto& shard : shards) shard->drainAndStop();
}

}  // namespace
}  // namespace tevot::fleet
