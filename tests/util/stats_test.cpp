// RunningStats (Welford) and LatencyHistogram tests,
// including the merge identities used when accumulating per-corner or
// per-thread statistics in parallel.
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace tevot::util {
namespace {

TEST(RunningStatsTest, EmptyIsZeroed) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(v);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all, left, right;
  for (int i = 0; i < 100; ++i) {
    const double v = std::sin(i * 0.7) * 10.0 + i * 0.1;
    all.add(v);
    (i < 37 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats stats, empty;
  stats.add(1.0);
  stats.add(3.0);
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(LatencyHistogramTest, EmptyIsZeroed) {
  LatencyHistogram histogram;
  EXPECT_TRUE(histogram.empty());
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.minMs(), 0.0);
  EXPECT_EQ(histogram.maxMs(), 0.0);
  EXPECT_EQ(histogram.p50(), 0.0);
  EXPECT_EQ(histogram.p99(), 0.0);
}

TEST(LatencyHistogramTest, BucketEdgesAreGeometric) {
  // 8 buckets per decade: low(i+8) == 10 * low(i).
  for (std::size_t i = 0; i + 8 < LatencyHistogram::kBuckets; ++i) {
    EXPECT_NEAR(LatencyHistogram::bucketLowMs(i + 8),
                10.0 * LatencyHistogram::bucketLowMs(i),
                1e-9 * LatencyHistogram::bucketLowMs(i + 8));
    EXPECT_DOUBLE_EQ(LatencyHistogram::bucketHighMs(i),
                     LatencyHistogram::bucketLowMs(i + 1));
  }
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucketLowMs(0),
                   LatencyHistogram::kMinMs);
  // Values land in the bucket whose [low, high) range covers them,
  // with out-of-range values clamped to the first/last bucket.
  EXPECT_EQ(LatencyHistogram::bucketIndex(LatencyHistogram::kMinMs / 10),
            0u);
  EXPECT_EQ(LatencyHistogram::bucketIndex(1e12),
            LatencyHistogram::kBuckets - 1);
  const std::size_t bucket = LatencyHistogram::bucketIndex(3.7);
  EXPECT_LE(LatencyHistogram::bucketLowMs(bucket), 3.7);
  EXPECT_GT(LatencyHistogram::bucketHighMs(bucket), 3.7);
}

TEST(LatencyHistogramTest, QuantileWithinBucketResolution) {
  LatencyHistogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.add(i * 0.1);  // 0.1..100 ms
  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_DOUBLE_EQ(histogram.minMs(), 0.1);  // min/max are exact
  EXPECT_DOUBLE_EQ(histogram.maxMs(), 100.0);
  // A geometric bucket spans a 10^(1/8) ≈ 1.334 ratio; the midpoint
  // estimate is within one bucket of the true quantile.
  const double bucket_ratio = std::pow(10.0, 1.0 / 8.0);
  EXPECT_GT(histogram.p50(), 50.0 / bucket_ratio);
  EXPECT_LT(histogram.p50(), 50.0 * bucket_ratio);
  EXPECT_GT(histogram.p95(), 95.0 / bucket_ratio);
  EXPECT_LT(histogram.p95(), 95.0 * bucket_ratio);
  EXPECT_GT(histogram.p99(), 99.0 / bucket_ratio);
  EXPECT_LT(histogram.p99(), 99.0 * bucket_ratio);
  // Quantile estimates never escape the observed extremes.
  EXPECT_GE(histogram.quantile(0.0), 0.1);
  EXPECT_LT(histogram.quantile(0.0), 0.1 * bucket_ratio * bucket_ratio);
  EXPECT_LE(histogram.quantile(1.0), 100.0);
  EXPECT_GT(histogram.quantile(1.0), 100.0 / bucket_ratio);
}

TEST(LatencyHistogramTest, MergeEqualsCombinedExactly) {
  LatencyHistogram all, left, right;
  for (int i = 0; i < 500; ++i) {
    const double ms = 0.01 * std::pow(1.02, i % 300);
    all.add(ms);
    (i % 2 == 0 ? left : right).add(ms);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_EQ(left.minMs(), all.minMs());
  EXPECT_EQ(left.maxMs(), all.maxMs());
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(left.bucketCount(b), all.bucketCount(b)) << b;
  }
  EXPECT_EQ(left.p50(), all.p50());
  EXPECT_EQ(left.p95(), all.p95());
  EXPECT_EQ(left.p99(), all.p99());
}

TEST(LatencyHistogramTest, MergeWithEmpty) {
  LatencyHistogram stats, empty;
  stats.add(5.0);
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_EQ(stats.minMs(), 5.0);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.maxMs(), 5.0);
}

TEST(LatencyHistogramTest, PerThreadAccumulateThenMerge) {
  // The intended concurrent usage: one histogram per thread, merged
  // after join — the result must equal a sequential accumulation.
  constexpr int kThreads = 4;
  constexpr int kSamples = 1000;
  std::vector<LatencyHistogram> parts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&parts, t] {
      for (int i = 0; i < kSamples; ++i) {
        parts[t].add(0.05 + 0.001 * ((t * kSamples + i) % 997));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LatencyHistogram merged;
  for (const LatencyHistogram& part : parts) merged.merge(part);

  LatencyHistogram sequential;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kSamples; ++i) {
      sequential.add(0.05 + 0.001 * ((t * kSamples + i) % 997));
    }
  }
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_EQ(merged.minMs(), sequential.minMs());
  EXPECT_EQ(merged.maxMs(), sequential.maxMs());
  EXPECT_EQ(merged.p50(), sequential.p50());
  EXPECT_EQ(merged.p99(), sequential.p99());
}

}  // namespace
}  // namespace tevot::util
