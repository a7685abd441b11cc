// Exactness tests for the fleet metrics aggregation path: latency
// percentile merges must be exact across threads (bucket-wise
// histogram adds) AND across processes (toLine -> parseMetricsLine ->
// mergeFrom on the wire rendering), pinned against hand-computed
// fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/metrics.hpp"
#include "util/stats.hpp"

namespace tevot::serve {
namespace {

using util::LatencyHistogram;

bool histogramsIdentical(const LatencyHistogram& a,
                         const LatencyHistogram& b) {
  if (a.count() != b.count()) return false;
  // min/max must match to the bit: quantiles clamp against them.
  double a_min = a.minMs(), b_min = b.minMs();
  double a_max = a.maxMs(), b_max = b.maxMs();
  if (std::memcmp(&a_min, &b_min, sizeof(double)) != 0) return false;
  if (std::memcmp(&a_max, &b_max, sizeof(double)) != 0) return false;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (a.bucketCount(i) != b.bucketCount(i)) return false;
  }
  return true;
}

// --- Hand-computed fixture ---------------------------------------------
//
// Buckets are geometric with 8 per decade from 1 µs: bucketLowMs(i) =
// 1e-3 * 10^(i/8). The samples below are chosen so their bucket
// indices are unambiguous (far from edges):
//
//   0.002 ms  -> bucket 2   (edges ~0.00178 .. 0.00316)
//   0.5  ms   -> bucket 21  (edges ~0.4217 .. 0.5623)
//   0.5  ms   -> bucket 21
//   6.0  ms   -> bucket 30  (edges ~5.623 .. 7.499)
//  80.0  ms   -> bucket 39  (edges ~74.99 .. 100.0)
//
// quantile(q) targets rank floor(q*(count-1)) and walks cumulative
// counts until seen > target, returning the covering bucket's
// geometric midpoint clamped to [min, max] = [0.002, 80]. With 5
// samples: p50 targets rank 2 (cumulative 1,3 -> bucket 21), p99
// targets rank 3 (cumulative 1,3,4 -> bucket 30).
constexpr double kSamples[] = {0.002, 0.5, 0.5, 6.0, 80.0};
constexpr std::size_t kExpectedBuckets[] = {2, 21, 21, 30, 39};

TEST(LatencyHistogramTest, HandComputedBucketPlacement) {
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(LatencyHistogram::bucketIndex(kSamples[i]),
              kExpectedBuckets[i])
        << "sample " << kSamples[i];
  }
}

TEST(LatencyHistogramTest, HandComputedQuantiles) {
  LatencyHistogram h;
  for (const double s : kSamples) h.add(s);
  ASSERT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.minMs(), 0.002);
  EXPECT_DOUBLE_EQ(h.maxMs(), 80.0);
  // p50 covers bucket 21: geometric midpoint ~0.487 ms, inside
  // [min, max] so the clamp is a no-op.
  const double p50_expected = std::sqrt(
      LatencyHistogram::bucketLowMs(21) * LatencyHistogram::bucketHighMs(21));
  EXPECT_DOUBLE_EQ(h.p50(), p50_expected);
  // p99 covers bucket 30: midpoint ~6.49 ms.
  const double p99_expected = std::sqrt(
      LatencyHistogram::bucketLowMs(30) * LatencyHistogram::bucketHighMs(30));
  EXPECT_DOUBLE_EQ(h.p99(), p99_expected);
  // p100 walks off the table and returns the exact observed max.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 80.0);
}

TEST(LatencyHistogramTest, MergeMatchesSingleHistogram) {
  // Across-thread exactness: per-thread histograms merged must be
  // indistinguishable from one histogram fed every sample.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<LatencyHistogram> parts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&parts, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Deterministic spread over ~5 decades, different per thread.
        const double ms =
            1e-3 * std::pow(10.0, ((i * 7 + t * 13) % 4000) / 800.0);
        parts[static_cast<std::size_t>(t)].add(ms);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  LatencyHistogram merged;
  for (const LatencyHistogram& part : parts) merged.merge(part);

  LatencyHistogram single;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const double ms =
          1e-3 * std::pow(10.0, ((i * 7 + t * 13) % 4000) / 800.0);
      single.add(ms);
    }
  }
  EXPECT_TRUE(histogramsIdentical(merged, single));
  EXPECT_DOUBLE_EQ(merged.p50(), single.p50());
  EXPECT_DOUBLE_EQ(merged.p95(), single.p95());
  EXPECT_DOUBLE_EQ(merged.p99(), single.p99());
}

MetricsSnapshot wireRoundTrip(const MetricsSnapshot& snap) {
  MetricsSnapshot parsed;
  const std::string line = snap.toLine();
  EXPECT_TRUE(parseMetricsLine(line, &parsed)) << line;
  return parsed;
}

TEST(MetricsWireTest, ToLineParsesBackExactly) {
  MetricsSnapshot snap;
  snap.connections = 7;
  snap.connections_dropped = 1;
  snap.requests = 1000;
  snap.ok = 900;
  snap.shed = 50;
  snap.deadline = 25;
  snap.errors = 25;
  snap.reloads = 3;
  snap.reload_failures = 1;
  snap.in_flight = 5;
  snap.max_connections = 64;
  snap.generation = 4;
  for (const double s : kSamples) snap.latency.add(s);
  snap.refreshLatencyFields();

  const MetricsSnapshot parsed = wireRoundTrip(snap);
  EXPECT_EQ(parsed.connections, snap.connections);
  EXPECT_EQ(parsed.connections_dropped, snap.connections_dropped);
  EXPECT_EQ(parsed.requests, snap.requests);
  EXPECT_EQ(parsed.ok, snap.ok);
  EXPECT_EQ(parsed.shed, snap.shed);
  EXPECT_EQ(parsed.deadline, snap.deadline);
  EXPECT_EQ(parsed.errors, snap.errors);
  EXPECT_EQ(parsed.reloads, snap.reloads);
  EXPECT_EQ(parsed.reload_failures, snap.reload_failures);
  EXPECT_EQ(parsed.in_flight, snap.in_flight);
  EXPECT_EQ(parsed.max_connections, snap.max_connections);
  EXPECT_EQ(parsed.generation, snap.generation);
  EXPECT_EQ(parsed.latency_count, snap.latency_count);
  EXPECT_TRUE(histogramsIdentical(parsed.latency, snap.latency));
  EXPECT_DOUBLE_EQ(parsed.p50_ms, snap.p50_ms);
  EXPECT_DOUBLE_EQ(parsed.p95_ms, snap.p95_ms);
  EXPECT_DOUBLE_EQ(parsed.p99_ms, snap.p99_ms);
  EXPECT_DOUBLE_EQ(parsed.max_ms, snap.max_ms);
}

TEST(MetricsWireTest, EmptyHistogramRoundTrips) {
  MetricsSnapshot snap;
  snap.requests = 1;
  snap.errors = 1;
  const MetricsSnapshot parsed = wireRoundTrip(snap);
  EXPECT_EQ(parsed.latency_count, 0u);
  EXPECT_TRUE(parsed.latency.empty());
  EXPECT_DOUBLE_EQ(parsed.p50_ms, 0.0);
}

TEST(MetricsWireTest, FinalStatsPrefixIsTolerated) {
  // The drain summary on stderr is "tevot_serve: final stats: <line>";
  // the parser must accept the tagged form (leading non-k=v tokens).
  MetricsSnapshot snap;
  snap.requests = 10;
  snap.ok = 10;
  snap.latency.add(0.5);
  snap.refreshLatencyFields();
  const std::string tagged =
      "tevot_serve: final stats: " + snap.toLine();
  MetricsSnapshot parsed;
  ASSERT_TRUE(parseMetricsLine(tagged, &parsed));
  EXPECT_EQ(parsed.requests, 10u);
  EXPECT_EQ(parsed.ok, 10u);
  EXPECT_TRUE(histogramsIdentical(parsed.latency, snap.latency));
}

TEST(MetricsWireTest, NonMetricsLinesAreRejected) {
  MetricsSnapshot parsed;
  EXPECT_FALSE(parseMetricsLine("", &parsed));
  EXPECT_FALSE(parseMetricsLine("OK delay=0x1p+8 err=0", &parsed));
  EXPECT_FALSE(parseMetricsLine("tevot_serve: signal 15, draining",
                                &parsed));
}

/// `line` with the value of its `key`=... token replaced by `value`.
std::string withValue(const std::string& line, const std::string& key,
                      const std::string& value) {
  const std::size_t at = line.find(" " + key + "=") + key.size() + 2;
  const std::size_t end = std::min(line.find(' ', at), line.size());
  return line.substr(0, at) + value + line.substr(end);
}

TEST(MetricsWireTest, AcceptsOnlyWhatToLineWrites) {
  MetricsSnapshot snap;
  snap.requests = 12;
  snap.ok = 12;
  snap.in_flight = 3;
  snap.max_connections = 4;
  for (const double s : kSamples) snap.latency.add(s);
  snap.refreshLatencyFields();
  const std::string line = "stats " + snap.toLine();
  MetricsSnapshot parsed;
  ASSERT_TRUE(parseMetricsLine(line, &parsed)) << line;
  // Each of these was read as something (12, 2^64-1, 1.5, a dropped
  // bucket, min > max, NaN, the last of two values) by the strtoull /
  // strtod reader.
  const std::string bad[] = {
      withValue(line, "requests", "12junk"),
      withValue(line, "requests", "-1"),
      withValue(line, "requests", "+12"),
      withValue(line, "requests", "012"),
      withValue(line, "p50_ms", "1.5zz"),
      withValue(line, "p50_ms", "1.5"),  // not the histogram's p50
      withValue(line, "in_flight", "3/4x"),
      withValue(line, "in_flight", "3"),
      withValue(line, "lat_hist", "1:2x,3:4"),
      withValue(line, "lat_hist", "999999:1"),
      withValue(line, "lat_hist", "2:1,21:2,39:1,30:1"),  // unsorted
      withValue(withValue(line, "lat_min", "0x1.4p+2"), "lat_max",
                "0x1p+0"),
      withValue(line, "lat_min", "nan"),
      withValue(line, "lat_min", "0x1.0p-1"),  // not the %a spelling
      withValue(line, "shed", "0 ok=5 shed=0"),  // repeated key
      withValue(line, "generation", "0 extra=1"),  // unknown key
      line + " ",
      line + "\n",
  };
  for (const std::string& text : bad) {
    EXPECT_NE(text, line);
    EXPECT_FALSE(parseMetricsLine(text, &parsed)) << text;
  }
}

TEST(MetricsWireTest, CrossProcessMergeIsExact) {
  // The router path: N workers each render their stats to a line; the
  // router parses and merges. The result must match merging the
  // original in-process snapshots directly — same counters, same
  // bit-exact histogram, same percentiles.
  constexpr int kWorkers = 3;
  std::vector<MetricsSnapshot> workers(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    MetricsSnapshot& snap = workers[static_cast<std::size_t>(w)];
    snap.requests = 100u * static_cast<std::uint64_t>(w + 1);
    snap.ok = snap.requests - 5;
    snap.errors = 5;
    snap.in_flight = static_cast<std::size_t>(w);
    snap.max_connections = 64;
    snap.generation = static_cast<std::uint64_t>(w + 2);
    for (int i = 0; i < 500; ++i) {
      snap.latency.add(1e-3 *
                       std::pow(10.0, ((i * 11 + w * 29) % 3200) / 640.0));
    }
    snap.refreshLatencyFields();
  }

  MetricsSnapshot direct;
  for (const MetricsSnapshot& snap : workers) direct.mergeFrom(snap);

  MetricsSnapshot via_wire;
  for (const MetricsSnapshot& snap : workers) {
    via_wire.mergeFrom(wireRoundTrip(snap));
  }

  EXPECT_EQ(via_wire.requests, direct.requests);
  EXPECT_EQ(via_wire.ok, direct.ok);
  EXPECT_EQ(via_wire.errors, direct.errors);
  EXPECT_EQ(via_wire.in_flight, direct.in_flight);
  EXPECT_EQ(via_wire.max_connections, direct.max_connections);
  // min-generation semantics: the oldest model set wins.
  EXPECT_EQ(direct.generation, 2u);
  EXPECT_EQ(via_wire.generation, 2u);
  EXPECT_TRUE(histogramsIdentical(via_wire.latency, direct.latency));
  EXPECT_DOUBLE_EQ(via_wire.p50_ms, direct.p50_ms);
  EXPECT_DOUBLE_EQ(via_wire.p95_ms, direct.p95_ms);
  EXPECT_DOUBLE_EQ(via_wire.p99_ms, direct.p99_ms);
  EXPECT_DOUBLE_EQ(via_wire.max_ms, direct.max_ms);
  EXPECT_EQ(via_wire.latency_count, direct.latency_count);
}

}  // namespace
}  // namespace tevot::serve
