// Open-loop load generator for tevot_serve / tevot_router.
//
// Heavy-traffic replay: `connections` client threads each follow an
// open-loop arrival schedule — the next send time is drawn from the
// arrival process up front, independent of response latency, so a
// slowing server faces mounting pressure instead of a politely
// backing-off closed loop. (Within one connection the newline
// protocol is strictly request→response; when a response is still
// outstanding at the next arrival the send happens as soon as the
// response lands and the arrival is counted as late. Aggregate
// open-loop behavior comes from the connection count.)
//
// Arrival processes (per connection, at rate_qps / connections):
//   kPoisson  exponential inter-arrival gaps
//   kUniform  fixed gaps
//   kBursty   on/off modulation: kBurstOnFraction of each
//             kBurstCycleMs cycle fires Poisson arrivals at
//             1/kBurstOnFraction times the average rate, the rest is
//             silence — same average rate, much nastier peaks
//
// Traffic mix: plain predict, predictN batches (batch_fraction,
// batch_tuples each) and malformed lines (malformed_fraction) that
// must come back non-OK. Every expected response line is awaited and
// classified; a line the server never produces is a no_response —
// the exactly-one-response contract makes that count a finding, not
// noise. All randomness derives from options.seed, so a run is
// exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/stats.hpp"

namespace tevot::fleet {

enum class Arrival { kPoisson, kUniform, kBursty };

const char* arrivalName(Arrival arrival);  ///< "poisson"/"uniform"/"bursty"
bool parseArrival(std::string_view text, Arrival* out);

struct LoadgenOptions {
  int port = 0;                ///< router or single server, 127.0.0.1
  std::string fu = "int_add";
  double duration_s = 2.0;
  double rate_qps = 2000.0;    ///< aggregate target arrival rate
  Arrival arrival = Arrival::kPoisson;
  int connections = 8;
  double batch_fraction = 0.2;     ///< predictN probability
  std::size_t batch_tuples = 16;   ///< tuples per predictN
  double malformed_fraction = 0.02;
  double deadline_ms = 0.0;        ///< per-request deadline; 0 = none
  std::uint64_t seed = 1;
  /// Cooperative-stop hook, polled between arrivals and during
  /// inter-arrival sleeps (sleeps are sliced so a stop is honored
  /// within ~50 ms). When it returns true every connection finishes
  /// its in-flight request — the exactly-one-response classification
  /// stays intact — and the partial report is still valid and marked
  /// interrupted. An answer line waits at most one second (then it
  /// counts as no_response), so a peer that never answers delays the
  /// stop by at most that long. Null = run to duration_s.
  /// tevot_loadgen wires SIGINT/SIGTERM through this.
  std::function<bool()> stop;
};

struct LoadgenReport {
  std::uint64_t lines_sent = 0;          ///< request lines
  std::uint64_t responses_expected = 0;  ///< response lines due back
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t errors = 0;
  std::uint64_t malformed_sent = 0;
  std::uint64_t malformed_ok = 0;   ///< garbage answered OK (violation)
  std::uint64_t no_response = 0;    ///< expected lines never received
  std::uint64_t unparseable = 0;    ///< response outside the taxonomy
  std::uint64_t reconnects = 0;
  std::uint64_t late_arrivals = 0;  ///< sends behind the open-loop plan
  /// The storm was cut short by the stop hook; counters cover the
  /// portion that ran and are internally consistent.
  bool interrupted = false;
  double wall_s = 0.0;
  double offered_qps = 0.0;   ///< responses_expected / wall
  double achieved_qps = 0.0;  ///< classified responses / wall
  util::LatencyHistogram latency;  ///< request send -> last line

  std::uint64_t responsesReceived() const {
    return ok + shed + deadline + errors;
  }

  /// Merges a per-connection partial report (histograms bucket-exact).
  void mergeFrom(const LoadgenReport& other);

  std::string summaryLine() const;

  /// The BENCH_fleet_loadgen.json payload: one flat compact JSON
  /// object, counters exact, no trailing newline. `label` tags the
  /// scenario ("burst", "steady", …).
  std::string toJson(const std::string& label,
                     const LoadgenOptions& options) const;
};

/// Runs the storm and blocks until duration_s elapsed and every
/// outstanding response was awaited.
LoadgenReport runLoadgen(const LoadgenOptions& options);

}  // namespace tevot::fleet
