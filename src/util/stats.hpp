// Streaming statistics used to summarize delay distributions and
// benchmark results without storing full sample vectors.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tevot::util {

/// Welford-style streaming accumulator for mean/variance/min/max.
class RunningStats {
 public:
  void add(double x);

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Streaming latency percentiles (p50/p95/p99) from a fixed set of
/// geometric buckets — 8 buckets per decade from 1 µs to ~10⁴ s — so
/// recording is O(1), memory is constant, and per-thread histograms
/// merge exactly (bucket-wise adds). Quantiles come back as the
/// geometric midpoint of the covering bucket (≤ ~15% relative error),
/// clamped to the exact observed min/max. Not internally synchronized:
/// accumulate per thread and merge, or guard with a caller mutex.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 96;
  /// Lower edge of bucket 0 [ms]; values at or below land in bucket 0.
  static constexpr double kMinMs = 1e-3;

  void add(double ms);
  void merge(const LatencyHistogram& other);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double minMs() const { return count_ ? min_ : 0.0; }
  double maxMs() const { return count_ ? max_ : 0.0; }

  /// Approximate quantile, q in [0,1]; 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  std::size_t bucketCount(std::size_t bucket) const {
    return counts_.at(bucket);
  }
  /// Geometric bucket edges: bucketLowMs(i) = kMinMs * 10^(i/8).
  static double bucketLowMs(std::size_t bucket);
  static double bucketHighMs(std::size_t bucket);
  /// The bucket a value lands in (clamped to the first/last bucket).
  static std::size_t bucketIndex(double ms);

  /// Reconstructs a histogram from externally serialized state —
  /// (bucket, count) pairs plus the exact observed min/max — so a
  /// histogram shipped over a wire (the serve stats surface) merges
  /// exactly, as if every add() had happened locally. Out-of-range
  /// bucket indices and zero counts are ignored; an empty pair set
  /// yields an empty histogram regardless of min/max.
  static LatencyHistogram fromBuckets(
      const std::vector<std::pair<std::size_t, std::size_t>>& buckets,
      double min_ms, double max_ms);

 private:
  std::array<std::size_t, kBuckets> counts_{};
  std::size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace tevot::util
