#include "serve/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "util/text_io.hpp"

namespace tevot::serve {
namespace {

using M = MetricsSnapshot;

/// How mergeFrom combines a field: add it, keep the smallest nonzero
/// (the oldest model set), or recompute it from the merged histogram.
enum class Merge { kSum, kOldest, kDerived };

/// One field of the metrics line: the text toLine writes ahead of the
/// value, then `count` as a decimal integer or `ms` as "%.3f".
struct Field {
  std::string_view before;
  std::uint64_t M::*count;
  double M::*ms;
  Merge merge;
};

/// The metrics line, field by field in the order toLine writes them;
/// toLine, mergeFrom and parseMetricsLine all read this one table.
constexpr Field kFields[] = {
    {"requests=", &M::requests, nullptr, Merge::kSum},
    {" ok=", &M::ok, nullptr, Merge::kSum},
    {" shed=", &M::shed, nullptr, Merge::kSum},
    {" deadline=", &M::deadline, nullptr, Merge::kSum},
    {" errors=", &M::errors, nullptr, Merge::kSum},
    {" connections=", &M::connections, nullptr, Merge::kSum},
    {" dropped=", &M::connections_dropped, nullptr, Merge::kSum},
    {" in_flight=", &M::in_flight, nullptr, Merge::kSum},
    {"/", &M::max_connections, nullptr, Merge::kSum},
    {" reloads=", &M::reloads, nullptr, Merge::kSum},
    {" reload_failures=", &M::reload_failures, nullptr, Merge::kSum},
    {" generation=", &M::generation, nullptr, Merge::kOldest},
    {" p50_ms=", nullptr, &M::p50_ms, Merge::kDerived},
    {" p95_ms=", nullptr, &M::p95_ms, Merge::kDerived},
    {" p99_ms=", nullptr, &M::p99_ms, Merge::kDerived},
    {" max_ms=", nullptr, &M::max_ms, Merge::kDerived},
    {" latency_count=", &M::latency_count, nullptr, Merge::kDerived},
};

/// The (bucket, count) pairs of a lat_hist value ("-" when empty).
bool parseBuckets(std::string_view text,
                  std::vector<std::pair<std::size_t, std::size_t>>* out) {
  if (text == "-") return true;
  for (std::size_t at = 0; at <= text.size();) {
    const std::size_t comma = std::min(text.find(',', at), text.size());
    const std::string_view entry = text.substr(at, comma - at);
    const std::size_t colon = entry.find(':');
    auto& [bucket, count] = out->emplace_back();
    if (colon == std::string_view::npos ||
        !util::parseInteger(entry.substr(0, colon), &bucket) ||
        !util::parseInteger(entry.substr(colon + 1), &count)) {
      return false;
    }
    at = comma + 1;
  }
  return true;
}

}  // namespace

std::string MetricsSnapshot::toLine() const {
  std::string line;
  char buf[96];  // the longest piece: " lat_min=%a lat_max=%a lat_hist="
  for (const Field& field : kFields) {
    line += field.before;
    if (field.count != nullptr) {
      line += std::to_string(this->*field.count);
    } else {
      std::snprintf(buf, sizeof(buf), "%.3f", this->*field.ms);
      line += buf;
    }
  }
  // Exact-distribution tail: hexfloat min/max plus the non-empty
  // buckets, so a parse on the far side of a pipe or socket rebuilds
  // the histogram bit-for-bit. "-" marks an empty histogram.
  std::snprintf(buf, sizeof(buf), " lat_min=%a lat_max=%a lat_hist=",
                latency.minMs(), latency.maxMs());
  line += buf;
  bool any = false;
  for (std::size_t b = 0; b < util::LatencyHistogram::kBuckets; ++b) {
    const std::size_t count = latency.bucketCount(b);
    if (count == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s%zu:%zu", any ? "," : "", b, count);
    line += buf;
    any = true;
  }
  if (!any) line += "-";
  return line;
}

void MetricsSnapshot::mergeFrom(const MetricsSnapshot& other) {
  for (const Field& field : kFields) {
    if (field.merge == Merge::kSum) {
      this->*field.count += other.*field.count;
    } else if (field.merge == Merge::kOldest) {
      std::uint64_t& mine = this->*field.count;
      const std::uint64_t theirs = other.*field.count;
      if (mine == 0 || (theirs != 0 && theirs < mine)) mine = theirs;
    }
  }
  latency.merge(other.latency);
  refreshLatencyFields();
}

void MetricsSnapshot::refreshLatencyFields() {
  p50_ms = latency.p50();
  p95_ms = latency.p95();
  p99_ms = latency.p99();
  max_ms = latency.maxMs();
  latency_count = latency.count();
}

bool parseMetricsLine(std::string_view line, MetricsSnapshot* out) {
  // Skip the leading tag ("stats", "tevot_serve: final stats:"): the
  // words before the first k=v token.
  util::TextReader in(line);
  std::string_view word = in.word();
  while (!word.empty() && word.find('=') == std::string_view::npos) {
    word = in.word();
  }
  if (word.empty()) return false;
  const std::string_view body =
      line.substr(static_cast<std::size_t>(word.data() - line.data()));

  // Each field is its literal `before`, then a value up to the next
  // ' ' or '/'.
  std::size_t pos = 0;
  std::string_view value;
  const auto next = [&](std::string_view before) {
    if (!body.substr(pos).starts_with(before)) return false;
    pos += before.size();
    const std::size_t end = std::min(body.find_first_of(" /", pos),
                                     body.size());
    value = body.substr(pos, end - pos);
    pos = end;
    return true;
  };
  MetricsSnapshot snap;
  for (const Field& field : kFields) {
    if (!next(field.before) ||
        (field.merge != Merge::kDerived &&
         !util::parseInteger(value, &(snap.*field.count)))) {
      return false;
    }
  }
  // The derived fields are recomputed from the histogram below, and the
  // final comparison checks the line spelled them that way.
  double lat_min = 0.0;
  double lat_max = 0.0;
  std::vector<std::pair<std::size_t, std::size_t>> buckets;
  if (!next(" lat_min=") || !util::parseHexDouble(value, &lat_min) ||
      !next(" lat_max=") || !util::parseHexDouble(value, &lat_max) ||
      !next(" lat_hist=") || !parseBuckets(value, &buckets)) {
    return false;
  }
  // min and max are samples of the first and last non-empty buckets.
  if (!buckets.empty() &&
      (!(0.0 <= lat_min && lat_min <= lat_max) ||
       util::LatencyHistogram::bucketIndex(lat_min) != buckets.front().first ||
       util::LatencyHistogram::bucketIndex(lat_max) != buckets.back().first)) {
    return false;
  }
  snap.latency = util::LatencyHistogram::fromBuckets(buckets, lat_min, lat_max);
  snap.refreshLatencyFields();
  // Only toLine's own spelling of this snapshot is a metrics line:
  // leading zeros, repeated or reordered keys, unsorted or empty
  // buckets and percentiles the histogram does not give all differ.
  if (snap.toLine() != body) return false;
  *out = snap;
  return true;
}

void ServeMetrics::publish(const LineTally& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_.requests += line.requests;
  for (std::size_t i = 0; i < totals_.outcomes.size(); ++i) {
    totals_.outcomes[i] += line.outcomes[i];
  }
}

MetricsSnapshot ServeMetrics::snapshot() const {
  MetricsSnapshot snap;
  snap.connections = connections.load(std::memory_order_relaxed);
  snap.connections_dropped =
      connections_dropped.load(std::memory_order_relaxed);
  snap.reloads = reloads.load(std::memory_order_relaxed);
  snap.reload_failures = reload_failures.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snap.requests = totals_.requests;
    snap.ok = totals_.outcomes[0];
    snap.shed = totals_.outcomes[1];
    snap.deadline = totals_.outcomes[2];
    snap.errors = totals_.outcomes[3];
    snap.latency = latency_;
  }
  snap.refreshLatencyFields();
  return snap;
}

}  // namespace tevot::serve
