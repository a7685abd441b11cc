#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace tevot::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::size_t LatencyHistogram::bucketIndex(double ms) {
  if (!(ms > kMinMs)) return 0;
  const double decades = std::log10(ms / kMinMs);
  const auto bucket = static_cast<std::size_t>(decades * 8.0);
  return bucket >= kBuckets ? kBuckets - 1 : bucket;
}

double LatencyHistogram::bucketLowMs(std::size_t bucket) {
  return kMinMs * std::pow(10.0, static_cast<double>(bucket) / 8.0);
}

double LatencyHistogram::bucketHighMs(std::size_t bucket) {
  return bucketLowMs(bucket + 1);
}

void LatencyHistogram::add(double ms) {
  if (std::isnan(ms)) return;
  if (ms < 0.0) ms = 0.0;
  if (count_ == 0) {
    min_ = max_ = ms;
  } else {
    min_ = std::min(min_, ms);
    max_ = std::max(max_, ms);
  }
  ++counts_[bucketIndex(ms)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

LatencyHistogram LatencyHistogram::fromBuckets(
    const std::vector<std::pair<std::size_t, std::size_t>>& buckets,
    double min_ms, double max_ms) {
  LatencyHistogram histogram;
  for (const auto& [bucket, count] : buckets) {
    if (bucket >= kBuckets || count == 0) continue;
    histogram.counts_[bucket] += count;
    histogram.count_ += count;
  }
  if (histogram.count_ > 0) {
    histogram.min_ = min_ms;
    histogram.max_ = max_ms;
  }
  return histogram;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::size_t>(q * static_cast<double>(count_ - 1));
  std::size_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen > target) {
      const double mid = std::sqrt(bucketLowMs(b) * bucketHighMs(b));
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;
}

}  // namespace tevot::util
