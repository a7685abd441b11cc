// Serving counters and latency percentiles behind /health and /stats.
//
// Connection and reload counters are relaxed atomics (monotonic,
// per-event increments from many threads). Request and outcome counts
// share the latency histogram's mutex, and each answered line adds
// both in one step, so no snapshot holds a request without its
// outcomes. snapshot() is the one read surface — the control
// responses, the drain-time summary, the bench JSON and the fleet
// router's cross-process aggregation all render from the same struct.
//
// toLine()/parseMetricsLine() are exact inverses: counters and gauges
// round-trip as integers, and the latency distribution rides along as
// raw histogram buckets plus hexfloat min/max, so a router merging
// parsed worker lines computes the same percentiles as one process
// holding every sample. The field list is one table in metrics.cpp
// that toLine, mergeFrom and parseMetricsLine all read.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "util/stats.hpp"

namespace tevot::serve {

struct MetricsSnapshot {
  std::uint64_t connections = 0;
  std::uint64_t connections_dropped = 0;  ///< accept faults/conn limit
  std::uint64_t requests = 0;             ///< complete request lines
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t errors = 0;
  std::uint64_t reloads = 0;
  std::uint64_t reload_failures = 0;
  std::uint64_t in_flight = 0;        ///< predicts being computed now
  std::uint64_t max_connections = 0;  ///< in_flight's capacity
  std::uint64_t generation = 0;  ///< model-set generation
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t latency_count = 0;
  /// Full latency distribution; the percentile fields above are
  /// derived from it. Serialized bucket-exactly by toLine().
  util::LatencyHistogram latency;

  /// "k=v k=v …" line used by the stats response and final summary.
  /// Includes lat_min/lat_max (hexfloat) and sparse lat_hist buckets
  /// so parseMetricsLine() reconstructs the histogram exactly.
  std::string toLine() const;

  /// Fleet aggregation: sums counters and gauges, merges the latency
  /// histogram bucket-exactly, recomputes the percentile fields, and
  /// keeps the *minimum* generation (the oldest model set still
  /// serving anywhere in the fleet).
  void mergeFrom(const MetricsSnapshot& other);

  /// Re-derives p50/p95/p99/max_ms/latency_count from `latency`.
  void refreshLatencyFields();
};

/// Parses a toLine() rendering back into an exact snapshot: integers
/// round-trip, the histogram is rebuilt from lat_hist/lat_min/lat_max,
/// and percentiles are recomputed from it. Leading words without '='
/// are a tag and skipped ("stats ", "tevot_serve: final stats: ");
/// after them the line must be exactly what toLine writes for the
/// snapshot it parses to, so every other line (a malformed or repeated
/// field, a number in another spelling, a min/max outside the first or
/// last bucket) is rejected with false.
bool parseMetricsLine(std::string_view line, MetricsSnapshot* out);

/// What one request line adds to the counters: its requests (one per
/// line where it arrives, plus a predictN's further tuples) and one
/// outcome per response line, indexed in ResponseStatus order (ok,
/// shed, deadline, error).
struct LineTally {
  std::uint64_t requests = 0;
  std::array<std::uint64_t, 4> outcomes{};
};

class ServeMetrics {
 public:
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> connections_dropped{0};
  std::atomic<std::uint64_t> reloads{0};
  std::atomic<std::uint64_t> reload_failures{0};

  /// Adds one answered line's requests and outcomes in one step, under
  /// the lock snapshot() reads them under: a snapshot never holds a
  /// line's request without its outcomes, so requests ==
  /// ok+shed+deadline+errors whenever every line got its replies.
  void publish(const LineTally& line);

  void recordLatencyMs(double ms) {
    const std::lock_guard<std::mutex> lock(mutex_);
    latency_.add(ms);
  }

  /// Counter + latency part of the snapshot; the owner fills in the
  /// in-flight/generation gauges.
  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;  ///< guards totals_ and latency_
  LineTally totals_;
  util::LatencyHistogram latency_;
};

}  // namespace tevot::serve
