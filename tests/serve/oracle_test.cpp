// Tests of the serving resilience oracle itself: it must pass on a
// healthy server, pass under injected serve.* faults across seeds,
// and — crucially — FAIL when the server really does serve wrong
// numbers (negative control: drive with the wrong reference model).
#include "check/serve_oracle.hpp"

#include <gtest/gtest.h>

#include "check/property.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "util/fault_injection.hpp"

namespace tevot::check {
namespace {

using serve_test::serveTestModels;

TEST(ServeOracleTest, CleanServerPassesDrive) {
  static util::FaultInjector quiet;
  serve::ServerOptions options;
  options.model_dir = serveTestModels().dir;
  options.faults = &quiet;
  serve::Server server(options);
  ASSERT_TRUE(server.start().ok());
  ServeDriveOptions drive;
  drive.clients = 3;
  drive.requests_per_client = 20;
  EXPECT_NO_THROW(driveAndVerifyServer(serveTestModels().model_a, "int_add",
                                       server.port(), 7, drive));
}

TEST(ServeOracleTest, WrongReferenceModelIsDetected) {
  // Negative control: if the server served model B while the oracle
  // expects model A, bit-identity must be violated. This is what
  // guards against the oracle silently accepting wrong answers.
  static util::FaultInjector quiet;
  serve::ServerOptions options;
  options.model_dir = serveTestModels().dir;  // serves model_a
  options.faults = &quiet;
  serve::Server server(options);
  ASSERT_TRUE(server.start().ok());
  ServeDriveOptions drive;
  drive.clients = 1;
  drive.requests_per_client = 10;
  EXPECT_THROW(driveAndVerifyServer(serveTestModels().model_b, "int_add",
                                    server.port(), 7, drive),
               PropertyViolation);
}

TEST(ServeOracleTest, ResilienceHoldsAcrossSeeds) {
  const PropertyResult result = forAllSeeds(3, checkServeResilience);
  EXPECT_TRUE(result.ok) << result.report("serve/resilience");
  EXPECT_EQ(result.seeds_checked, 3);
}

}  // namespace
}  // namespace tevot::check
