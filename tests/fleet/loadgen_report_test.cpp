// LoadgenReport::toJson: the BENCH_fleet_loadgen.json payload is valid
// JSON whatever the label holds, and every counter and the seed are
// written exactly (no %g rounding).
#include <gtest/gtest.h>

#include <string>

#include "fleet/loadgen.hpp"
#include "util/json.hpp"

namespace tevot::fleet {
namespace {

TEST(LoadgenReportTest, JsonRoundTripsLabelSeedAndCountersExactly) {
  LoadgenOptions options;
  options.seed = 12345678;
  LoadgenReport report;
  report.lines_sent = 1234567;
  report.interrupted = true;
  const std::string label = "a\"b\n";

  util::json::Value root;
  const util::Status status =
      util::json::parse(report.toJson(label, options), &root);
  ASSERT_TRUE(status.ok()) << status.message;
  const util::json::Value* scenario = root.find("scenario");
  const util::json::Value* seed = root.find("seed");
  const util::json::Value* lines_sent = root.find("lines_sent");
  const util::json::Value* interrupted = root.find("interrupted");
  ASSERT_NE(scenario, nullptr);
  ASSERT_NE(seed, nullptr);
  ASSERT_NE(lines_sent, nullptr);
  ASSERT_NE(interrupted, nullptr);
  EXPECT_EQ(scenario->text, label);
  EXPECT_EQ(seed->raw, "12345678");
  EXPECT_EQ(seed->number, 12345678.0);
  EXPECT_EQ(lines_sent->raw, "1234567");
  EXPECT_EQ(lines_sent->number, 1234567.0);
  EXPECT_EQ(interrupted->number, 1.0);
}

}  // namespace
}  // namespace tevot::fleet
