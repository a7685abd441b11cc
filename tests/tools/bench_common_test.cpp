// The benches' shared `--jobs` / TEVOT_JOBS parser: the same whole
// number in [0, 256] tevot_cli takes, and a bad value is rejected as a
// string, before any thread could start.
#include "bench_common.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace tevot::bench
