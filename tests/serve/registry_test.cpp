// Model-registry hot-reload tests: validate-then-swap semantics — a
// failing reload (bad file, injected fault) must leave the previous
// generation serving, and snapshots taken before a reload must stay
// alive and unchanged.
#include "serve/registry.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "serve_test_util.hpp"
#include "util/fault_injection.hpp"

namespace tevot::serve {
namespace {

using serve_test::serveTestModels;

TEST(RegistryTest, EmptyDirectoryFailsToLoad) {
  const serve_test::ScratchDir dir("tevot_registry_empty");
  ModelRegistry registry(dir.path());
  const util::Status status = registry.load();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(registry.snapshot(), nullptr);
  EXPECT_EQ(registry.generation(), 0u);
}

TEST(RegistryTest, MissingDirectoryFailsToLoad) {
  ModelRegistry registry(testing::TempDir() + "tevot_registry_nowhere");
  EXPECT_FALSE(registry.load().ok());
}

TEST(RegistryTest, LoadsAndBumpsGenerationOnReload) {
  ModelRegistry registry(serveTestModels().dir);
  ASSERT_TRUE(registry.load().ok());
  EXPECT_EQ(registry.generation(), 1u);
  const std::shared_ptr<const ModelSet> first = registry.snapshot();
  ASSERT_NE(first, nullptr);
  EXPECT_NE(first->find("int_add"), nullptr);
  EXPECT_EQ(first->find("fp_mul"), nullptr);  // no fp_mul.model on disk

  ASSERT_TRUE(registry.reload(nullptr).ok());
  EXPECT_EQ(registry.generation(), 2u);
  // The old snapshot survives the swap untouched (in-flight requests
  // keep serving from it).
  EXPECT_EQ(first->generation, 1u);
  EXPECT_NE(first->find("int_add"), nullptr);
}

TEST(RegistryTest, InvalidModelFileKeepsPreviousGeneration) {
  const serve_test::ScratchDir scratch("tevot_registry_invalid");
  const std::string& dir = scratch.path();
  serveTestModels().model_a.save(dir + "/int_add.model");
  ModelRegistry registry(dir);
  ASSERT_TRUE(registry.load().ok());
  const std::shared_ptr<const ModelSet> before = registry.snapshot();

  {
    std::ofstream os(dir + "/int_mul.model");
    os << "this is not a tevot model\n";
  }
  const util::Status status = registry.reload(nullptr);
  EXPECT_FALSE(status.ok());
  // Validate-then-swap: the failed candidate was discarded whole.
  EXPECT_EQ(registry.snapshot(), before);
  EXPECT_EQ(registry.generation(), 1u);
}

TEST(RegistryTest, InjectedReloadFaultKeepsPreviousGeneration) {
  ModelRegistry registry(serveTestModels().dir);
  ASSERT_TRUE(registry.load().ok());
  const std::shared_ptr<const ModelSet> before = registry.snapshot();

  util::FaultInjector faults;
  util::FaultPlan plan;
  plan.seed = 3;
  plan.rate = 1.0;
  plan.points = {"serve.reload"};
  faults.arm(plan);

  const util::Status status = registry.reload(&faults);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code, util::StatusCode::kFaultInjected);
  EXPECT_EQ(registry.snapshot(), before);

  // Once the fault clears, reload succeeds again.
  ASSERT_TRUE(registry.reload(nullptr).ok());
  EXPECT_EQ(registry.generation(), 2u);
}

}  // namespace
}  // namespace tevot::serve
