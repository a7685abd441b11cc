// The benches' shared `--jobs` / TEVOT_JOBS parser: the same whole
// number in [0, 256] tevot_cli takes, and a bad value is rejected as a
// string, before any thread could start. The scale overrides
// (TEVOT_TRAIN_CYCLES, ...) take whole numbers in their ranges only.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace tevot::bench {
namespace {

bool parse(std::vector<std::string> args, const char* env,
           std::size_t* jobs) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return BenchScale::parseJobs(static_cast<int>(argv.size()), argv.data(),
                               env, jobs);
}

TEST(BenchJobsTest, WholeNumbersUpToTheCapAreAccepted) {
  std::size_t jobs = 1;
  EXPECT_TRUE(parse({}, nullptr, &jobs));
  EXPECT_EQ(jobs, 1u);
  EXPECT_TRUE(parse({}, "", &jobs));  // empty = unset
  EXPECT_EQ(jobs, 1u);
  EXPECT_TRUE(parse({}, "3", &jobs));
  EXPECT_EQ(jobs, 3u);
  EXPECT_TRUE(parse({"--jobs", "256"}, "3", &jobs));  // the flag wins
  EXPECT_EQ(jobs, 256u);
  EXPECT_TRUE(parse({"--jobs=0"}, nullptr, &jobs));
  EXPECT_EQ(jobs, 0u);
}

TEST(BenchJobsTest, BadValuesAreRejected) {
  for (const char* bad : {"abc", "-1", "257", "1.5", "", "nan", "inf", "4x",
                          "18446744073709551615", "-0.5"}) {
    std::size_t jobs = 1;
    EXPECT_FALSE(parse({"--jobs", bad}, nullptr, &jobs)) << "'" << bad << "'";
    EXPECT_FALSE(parse({std::string("--jobs=") + bad}, nullptr, &jobs))
        << "'" << bad << "'";
    if (*bad != '\0') {
      EXPECT_FALSE(parse({}, bad, &jobs)) << "TEVOT_JOBS '" << bad << "'";
    }
    EXPECT_EQ(jobs, 1u) << "'" << bad << "'";
  }
}

/// The scale after applying `vars` as the environment.
bool applyVars(const std::map<std::string, std::string>& vars,
               BenchScale* scale, std::string* bad) {
  return scale->applyOverrides(
      [&vars](const char* name) -> const char* {
        const auto found = vars.find(name);
        return found == vars.end() ? nullptr : found->second.c_str();
      },
      bad);
}

BenchScale defaultScale() {
  BenchScale scale{};
  scale.train_cycles_per_corner = 1500;
  scale.test_cycles_per_corner = 700;
  scale.app_train_cycles = 700;
  scale.app_test_cycles = 700;
  scale.image_count = 6;
  scale.image_size = 48;
  return scale;
}

TEST(BenchScaleTest, WellFormedOverridesApply) {
  BenchScale scale = defaultScale();
  std::string bad;
  ASSERT_TRUE(applyVars({{"TEVOT_TRAIN_CYCLES", "120"},
                         {"TEVOT_TEST_CYCLES", "80"},
                         {"TEVOT_APP_TRAIN_CYCLES", "81"},
                         {"TEVOT_APP_TEST_CYCLES", "82"},
                         {"TEVOT_IMAGES", "3"},
                         {"TEVOT_IMAGE_SIZE", "24"},
                         {"TEVOT_GRID_V", "2"},
                         {"TEVOT_GRID_T", "3"}},
                        &scale, &bad))
      << bad;
  EXPECT_EQ(scale.train_cycles_per_corner, 120u);
  EXPECT_EQ(scale.test_cycles_per_corner, 80u);
  EXPECT_EQ(scale.app_train_cycles, 81u);
  EXPECT_EQ(scale.app_test_cycles, 82u);
  EXPECT_EQ(scale.image_count, 3u);
  EXPECT_EQ(scale.image_size, 24);
  EXPECT_EQ(scale.corners.size(), 6u);
}

TEST(BenchScaleTest, UnsetOrEmptyKnobsKeepTheDefaults) {
  BenchScale scale = defaultScale();
  std::string bad;
  ASSERT_TRUE(applyVars({{"TEVOT_TRAIN_CYCLES", ""}, {"TEVOT_GRID_V", "2"}},
                        &scale, &bad))
      << bad;
  EXPECT_EQ(scale.train_cycles_per_corner, 1500u);
  EXPECT_EQ(scale.image_size, 48);
  EXPECT_TRUE(scale.corners.empty());  // one grid count alone is ignored
}

TEST(BenchScaleTest, BadValuesAreRejectedNamingTheKnob) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"TEVOT_TRAIN_CYCLES", "-1"},     {"TEVOT_TRAIN_CYCLES", "15OO"},
      {"TEVOT_TEST_CYCLES", "0"},       {"TEVOT_TEST_CYCLES", "1e9"},
      {"TEVOT_APP_TRAIN_CYCLES", "nan"}, {"TEVOT_APP_TEST_CYCLES", "2.5"},
      {"TEVOT_IMAGES", "-3"},           {"TEVOT_IMAGES", "1001"},
      {"TEVOT_IMAGE_SIZE", "0"},        {"TEVOT_IMAGE_SIZE", "24px"},
      {"TEVOT_GRID_V", "0"},            {"TEVOT_GRID_V", "21"},
      {"TEVOT_GRID_T", "6"},            {"TEVOT_GRID_T", "-2"},
      {"TEVOT_TRAIN_CYCLES", "18446744073709551615"},
  };
  for (const auto& [name, value] : cases) {
    BenchScale scale = defaultScale();
    std::string bad;
    EXPECT_FALSE(applyVars({{name, value}}, &scale, &bad))
        << name << "='" << value << "'";
    EXPECT_NE(bad.find(name), std::string::npos) << bad;
    EXPECT_NE(bad.find("'" + value + "'"), std::string::npos) << bad;
    EXPECT_EQ(scale.train_cycles_per_corner, 1500u) << name;
    EXPECT_EQ(scale.image_count, 6u) << name;
  }
}

}  // namespace
}  // namespace tevot::bench
