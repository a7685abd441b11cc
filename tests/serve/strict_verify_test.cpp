// --strict-verify admission tests: with strict verification on, a
// model that passes the point-canary validation but fails interval
// certification (negative delay reachable somewhere in the feature
// domain) is refused at load/reload while the previous generation
// keeps serving — and the same file is accepted when strict
// verification is off, which is exactly the gap being closed.
#include <gtest/gtest.h>

#include <string>

#include "../verify/verify_test_util.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "verify/model_rules.hpp"

namespace tevot::serve {
namespace {

using serve_test::serveTestModels;

/// Writes the canary-fooling negative-tail fixture as int_add.model.
void writeCorruptModel(const std::string& dir) {
  const core::TevotModel corrupt = verify::modelFromTrees(
      verify::negativeTailTrees(), dir + "/int_add.model");
  // Preconditions of the scenario: serving's point validation is
  // fooled, interval certification is not.
  ASSERT_TRUE(corrupt.validateForServing().ok());
  ASSERT_FALSE(verify::certifyModelForServing(corrupt).ok());
}

TEST(StrictVerifyTest, StrictRegistryAcceptsTrainedModel) {
  ModelRegistry registry(serveTestModels().dir, /*strict_verify=*/true);
  ASSERT_TRUE(registry.load().ok());
  EXPECT_EQ(registry.generation(), 1u);
}

TEST(StrictVerifyTest, StrictRegistryRefusesUncertifiableLoad) {
  const serve_test::ScratchDir scratch("tevot_strict_verify_load");
  const std::string& dir = scratch.path();
  writeCorruptModel(dir);

  // Without strict verification the canary-fooling model sails in.
  ModelRegistry lax(dir);
  EXPECT_TRUE(lax.load().ok());

  ModelRegistry strict(dir, /*strict_verify=*/true);
  const util::Status status = strict.load();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message.find("strict verification"),
            std::string::npos);
  EXPECT_NE(status.message.find("MV004"), std::string::npos);
  EXPECT_EQ(strict.snapshot(), nullptr);
}

TEST(StrictVerifyTest, FailedStrictReloadKeepsPreviousGeneration) {
  const serve_test::ScratchDir scratch("tevot_strict_verify_reload");
  const std::string& dir = scratch.path();
  serveTestModels().model_a.save(dir + "/int_add.model");
  ModelRegistry registry(dir, /*strict_verify=*/true);
  ASSERT_TRUE(registry.load().ok());
  const std::shared_ptr<const ModelSet> before = registry.snapshot();
  ASSERT_NE(before, nullptr);

  writeCorruptModel(dir);
  EXPECT_FALSE(registry.reload(nullptr).ok());
  // Validate-then-swap: generation and snapshot are untouched.
  EXPECT_EQ(registry.generation(), 1u);
  EXPECT_EQ(registry.snapshot(), before);
  EXPECT_NE(registry.snapshot()->find("int_add"), nullptr);
}

TEST(StrictVerifyTest, ServerReloadRefusesCorruptModelAndKeepsServing) {
  const serve_test::ScratchDir scratch("tevot_strict_verify_server");
  const std::string& dir = scratch.path();
  serveTestModels().model_a.save(dir + "/int_add.model");

  ServerOptions options;
  options.model_dir = dir;
  options.strict_verify = true;
  Server server(options);
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(server.stats().generation, 1u);

  writeCorruptModel(dir);
  EXPECT_FALSE(server.reload().ok());
  // The previous generation keeps serving.
  EXPECT_TRUE(server.running());
  EXPECT_EQ(server.stats().generation, 1u);
  server.drainAndStop();
}

}  // namespace
}  // namespace tevot::serve
