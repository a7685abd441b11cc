// FaultInjector tests: site selection is a pure function of
// (seed, point, key), faulty sites fail exactly fail_attempts times,
// the TEVOT_FAULTS spec round-trips, and malformed specs are rejected
// with std::invalid_argument.
#include "util/fault_injection.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>

#include "util/status.hpp"

namespace tevot::util {
namespace {

FaultPlan allFaulty(const std::string& point) {
  FaultPlan plan;
  plan.rate = 1.0;
  plan.points = {point};
  plan.seed = 11;
  return plan;
}

TEST(FaultInjectorTest, DisarmedInjectsNothing) {
  FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(injector.siteIsFaulty("job.exception", "k"));
  EXPECT_FALSE(injector.shouldFail("job.exception", "k"));
  EXPECT_NO_THROW(injector.maybeThrow("job.exception", "k"));
  EXPECT_FALSE(injector.maybeDelay("job.slow", "k"));
}

TEST(FaultInjectorTest, SiteSelectionIsDeterministic) {
  FaultPlan plan;
  plan.rate = 0.3;
  plan.seed = 42;
  plan.points = {"job.exception"};
  FaultInjector a, b;
  a.arm(plan);
  b.arm(plan);
  int faulty = 0;
  for (int k = 0; k < 200; ++k) {
    const std::string key = "job" + std::to_string(k);
    const bool fa = a.siteIsFaulty("job.exception", key);
    // Two injectors with the same plan agree on every site, and
    // repeated queries agree with themselves (no hidden state).
    EXPECT_EQ(fa, b.siteIsFaulty("job.exception", key)) << key;
    EXPECT_EQ(fa, a.siteIsFaulty("job.exception", key)) << key;
    if (fa) ++faulty;
  }
  // rate=0.3 over 200 sites: a wide band around 60 catches a broken
  // hash (all-faulty or none-faulty) without flaking.
  EXPECT_GT(faulty, 20);
  EXPECT_LT(faulty, 120);
}

TEST(FaultInjectorTest, DifferentSeedsPickDifferentSites) {
  FaultPlan plan;
  plan.rate = 0.5;
  plan.points = {"job.exception"};
  plan.seed = 1;
  FaultInjector a;
  a.arm(plan);
  plan.seed = 2;
  FaultInjector b;
  b.arm(plan);
  int differ = 0;
  for (int k = 0; k < 100; ++k) {
    const std::string key = "job" + std::to_string(k);
    if (a.siteIsFaulty("job.exception", key) !=
        b.siteIsFaulty("job.exception", key)) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultInjectorTest, UnarmedPointNeverFires) {
  FaultInjector injector;
  injector.arm(allFaulty("job.exception"));
  EXPECT_TRUE(injector.pointArmed("job.exception"));
  EXPECT_FALSE(injector.pointArmed("io.open"));
  EXPECT_FALSE(injector.siteIsFaulty("io.open", "k"));
  EXPECT_FALSE(injector.shouldFail("io.open", "k"));
}

TEST(FaultInjectorTest, FaultySiteFailsExactlyFailAttemptsTimes) {
  FaultPlan plan = allFaulty("job.exception");
  plan.fail_attempts = 2;
  FaultInjector injector;
  injector.arm(plan);
  EXPECT_TRUE(injector.shouldFail("job.exception", "k"));   // attempt 1
  EXPECT_TRUE(injector.shouldFail("job.exception", "k"));   // attempt 2
  EXPECT_FALSE(injector.shouldFail("job.exception", "k"));  // recovered
  EXPECT_FALSE(injector.shouldFail("job.exception", "k"));
  EXPECT_EQ(injector.attemptCount("job.exception", "k"), 4);
  // Counters are per site: a fresh key starts failing again.
  EXPECT_TRUE(injector.shouldFail("job.exception", "other"));
  // resetCounters models a new run: the transient fault fires again.
  injector.resetCounters();
  EXPECT_TRUE(injector.shouldFail("job.exception", "k"));
  EXPECT_EQ(injector.attemptCount("job.exception", "k"), 1);
}

TEST(FaultInjectorTest, MaybeThrowRaisesFaultInjectedStatus) {
  FaultInjector injector;
  injector.arm(allFaulty("job.exception"));
  try {
    injector.maybeThrow("job.exception", "job3");
    FAIL() << "maybeThrow did not throw";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.status().code, StatusCode::kFaultInjected);
    EXPECT_NE(error.status().message.find("job.exception"),
              std::string::npos);
    EXPECT_NE(error.status().message.find("job3"), std::string::npos);
  }
  // Second attempt of a transient site: no throw.
  EXPECT_NO_THROW(injector.maybeThrow("job.exception", "job3"));
}

TEST(FaultInjectorTest, MaybeDelaySleepsRoughlySlowMs) {
  FaultPlan plan = allFaulty("job.slow");
  plan.slow_ms = 20.0;
  FaultInjector injector;
  injector.arm(plan);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(injector.maybeDelay("job.slow", "k"));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 15.0);  // sleep_for may not undershoot much
  EXPECT_FALSE(injector.maybeDelay("job.slow", "k"));  // transient
}

TEST(FaultInjectorTest, SpecRoundTrips) {
  const FaultPlan parsed = FaultInjector::planFromSpec(
      "points=job.exception|io.write;rate=0.3;seed=7;attempts=2;"
      "slow-ms=12.5");
  EXPECT_EQ(parsed.seed, 7u);
  EXPECT_DOUBLE_EQ(parsed.rate, 0.3);
  EXPECT_EQ(parsed.points,
            (std::vector<std::string>{"job.exception", "io.write"}));
  EXPECT_EQ(parsed.fail_attempts, 2);
  EXPECT_DOUBLE_EQ(parsed.slow_ms, 12.5);
  EXPECT_TRUE(parsed.enabled());
  const FaultPlan again = FaultInjector::planFromSpec(parsed.spec());
  EXPECT_EQ(again.seed, parsed.seed);
  EXPECT_DOUBLE_EQ(again.rate, parsed.rate);
  EXPECT_EQ(again.points, parsed.points);
  EXPECT_EQ(again.fail_attempts, parsed.fail_attempts);
  EXPECT_DOUBLE_EQ(again.slow_ms, parsed.slow_ms);
}

TEST(FaultInjectorTest, SpecAcceptsCommaSeparators) {
  const FaultPlan plan =
      FaultInjector::planFromSpec("points=io.open,rate=1.0,seed=3");
  EXPECT_EQ(plan.points, (std::vector<std::string>{"io.open"}));
  EXPECT_DOUBLE_EQ(plan.rate, 1.0);
  EXPECT_EQ(plan.seed, 3u);
}

TEST(FaultInjectorTest, MalformedSpecsAreRejected) {
  EXPECT_THROW(FaultInjector::planFromSpec("bogus-key=1"),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector::planFromSpec("rate=not-a-number"),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector::planFromSpec("rate=1.5"),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector::planFromSpec("rate=-0.1"),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector::planFromSpec("attempts=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector::planFromSpec("points="),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector::planFromSpec("rate"),
               std::invalid_argument);
  // Each value is one whole number in one spelling: no sign on the
  // seed, no octal (strtoull read "010" as 8), no underflow to 0.
  for (const char* bad :
       {"seed=-1", "seed=010", "seed=+7", "seed=7x", "seed= 7",
        "rate=1e-400", "rate=0.5x", "rate=nan", "attempts=02",
        "attempts=1.5", "slow-ms=inf", "slow-ms=1e999"}) {
    EXPECT_THROW(FaultInjector::planFromSpec(bad), std::invalid_argument)
        << bad;
  }
}

TEST(FaultInjectorTest, ArmResetsCountersAndDisarmStops) {
  FaultInjector injector;
  injector.arm(allFaulty("io.write"));
  EXPECT_TRUE(injector.shouldFail("io.write", "k"));
  injector.arm(allFaulty("io.write"));  // re-arm: counters cleared
  EXPECT_EQ(injector.attemptCount("io.write", "k"), 0);
  injector.disarm();
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(injector.shouldFail("io.write", "k"));
}

}  // namespace
}  // namespace tevot::util
