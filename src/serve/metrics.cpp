#include "serve/metrics.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

namespace tevot::serve {

std::string MetricsSnapshot::toLine() const {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "requests=%llu ok=%llu shed=%llu deadline=%llu errors=%llu "
      "connections=%llu dropped=%llu in_flight=%zu/%zu breakers_open=%zu "
      "breaker_opens=%llu reloads=%llu reload_failures=%llu "
      "generation=%llu p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f max_ms=%.3f "
      "latency_count=%llu",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(deadline),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(connections),
      static_cast<unsigned long long>(connections_dropped), in_flight,
      max_connections, breakers_open,
      static_cast<unsigned long long>(breaker_opens),
      static_cast<unsigned long long>(reloads),
      static_cast<unsigned long long>(reload_failures),
      static_cast<unsigned long long>(generation), p50_ms, p95_ms, p99_ms,
      max_ms, static_cast<unsigned long long>(latency_count));
  std::string line = buf;
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
  connections += other.connections;
  connections_dropped += other.connections_dropped;
  requests += other.requests;
  ok += other.ok;
  shed += other.shed;
  deadline += other.deadline;
  errors += other.errors;
  reloads += other.reloads;
  reload_failures += other.reload_failures;
  breaker_opens += other.breaker_opens;
  in_flight += other.in_flight;
  max_connections += other.max_connections;
  breakers_open += other.breakers_open;
  generation = generation == 0
                   ? other.generation
                   : (other.generation == 0
                          ? generation
                          : std::min(generation, other.generation));
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

namespace {

bool parseU64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool parseDouble(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text) return false;
  *out = value;
  return true;
}

}  // namespace

bool parseMetricsLine(std::string_view line, MetricsSnapshot* out) {
  MetricsSnapshot snap;
  bool saw_requests = false;
  double lat_min = 0.0;
  double lat_max = 0.0;
  std::vector<std::pair<std::size_t, std::size_t>> buckets;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    const std::string_view token = line.substr(start, pos - start);
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      // A leading tag ("stats", "tevot_serve:", …) is tolerated, but
      // only before any k=v token — junk between pairs is malformed.
      if (saw_requests || !buckets.empty()) return false;
      continue;
    }
    const std::string key(token.substr(0, eq));
    const std::string value(token.substr(eq + 1));
    std::uint64_t u64 = 0;
    if (key == "requests") {
      if (!parseU64(value.c_str(), &snap.requests)) return false;
      saw_requests = true;
    } else if (key == "ok") {
      if (!parseU64(value.c_str(), &snap.ok)) return false;
    } else if (key == "shed") {
      if (!parseU64(value.c_str(), &snap.shed)) return false;
    } else if (key == "deadline") {
      if (!parseU64(value.c_str(), &snap.deadline)) return false;
    } else if (key == "errors") {
      if (!parseU64(value.c_str(), &snap.errors)) return false;
    } else if (key == "connections") {
      if (!parseU64(value.c_str(), &snap.connections)) return false;
    } else if (key == "dropped") {
      if (!parseU64(value.c_str(), &snap.connections_dropped)) return false;
    } else if (key == "in_flight") {
      const std::size_t slash = value.find('/');
      if (slash == std::string::npos) return false;
      std::uint64_t in_flight = 0;
      std::uint64_t capacity = 0;
      if (!parseU64(value.substr(0, slash).c_str(), &in_flight) ||
          !parseU64(value.substr(slash + 1).c_str(), &capacity)) {
        return false;
      }
      snap.in_flight = static_cast<std::size_t>(in_flight);
      snap.max_connections = static_cast<std::size_t>(capacity);
    } else if (key == "breakers_open") {
      if (!parseU64(value.c_str(), &u64)) return false;
      snap.breakers_open = static_cast<std::size_t>(u64);
    } else if (key == "breaker_opens") {
      if (!parseU64(value.c_str(), &snap.breaker_opens)) return false;
    } else if (key == "reloads") {
      if (!parseU64(value.c_str(), &snap.reloads)) return false;
    } else if (key == "reload_failures") {
      if (!parseU64(value.c_str(), &snap.reload_failures)) return false;
    } else if (key == "generation") {
      if (!parseU64(value.c_str(), &snap.generation)) return false;
    } else if (key == "p50_ms") {
      if (!parseDouble(value.c_str(), &snap.p50_ms)) return false;
    } else if (key == "p95_ms") {
      if (!parseDouble(value.c_str(), &snap.p95_ms)) return false;
    } else if (key == "p99_ms") {
      if (!parseDouble(value.c_str(), &snap.p99_ms)) return false;
    } else if (key == "max_ms") {
      if (!parseDouble(value.c_str(), &snap.max_ms)) return false;
    } else if (key == "latency_count") {
      if (!parseU64(value.c_str(), &snap.latency_count)) return false;
    } else if (key == "lat_min") {
      if (!parseDouble(value.c_str(), &lat_min)) return false;
    } else if (key == "lat_max") {
      if (!parseDouble(value.c_str(), &lat_max)) return false;
    } else if (key == "lat_hist") {
      if (value == "-") continue;
      std::size_t offset = 0;
      while (offset < value.size()) {
        std::size_t comma = value.find(',', offset);
        if (comma == std::string::npos) comma = value.size();
        const std::string entry = value.substr(offset, comma - offset);
        const std::size_t colon = entry.find(':');
        if (colon == std::string::npos) return false;
        std::uint64_t bucket = 0;
        std::uint64_t count = 0;
        if (!parseU64(entry.substr(0, colon).c_str(), &bucket) ||
            !parseU64(entry.substr(colon + 1).c_str(), &count)) {
          return false;
        }
        buckets.emplace_back(static_cast<std::size_t>(bucket),
                             static_cast<std::size_t>(count));
        offset = comma + 1;
      }
    }
    // Unknown keys are skipped (forward compatibility).
  }
  if (!saw_requests) return false;
  if (!buckets.empty()) {
    snap.latency =
        util::LatencyHistogram::fromBuckets(buckets, lat_min, lat_max);
    snap.refreshLatencyFields();
  }
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
