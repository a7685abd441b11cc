#include "fleet/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/line_server.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace tevot::fleet {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kBurstCycleMs = 500.0;
constexpr double kBurstOnFraction = 0.2;
/// SO_RCVTIMEO on every connection: an answer line that does not
/// arrive within this long counts as missing and the connection is
/// redialed, so a peer that never answers holds a connection (and its
/// stop hook) for at most this long.
constexpr double kRecvTimeoutMs = 1000.0;

using serve::msSince;

/// Next inter-arrival gap [ms] at `rate_per_ms`; exponential for the
/// Poisson processes, fixed for uniform.
double nextGapMs(Arrival arrival, double rate_per_ms, util::Rng& rng) {
  switch (arrival) {
    case Arrival::kUniform:
      return 1.0 / rate_per_ms;
    case Arrival::kPoisson:
      return -std::log(1.0 - rng.nextDouble()) / rate_per_ms;
    case Arrival::kBursty:
      // Handled by the caller via burst gating; within a burst the
      // process is Poisson at the boosted rate.
      return -std::log(1.0 - rng.nextDouble()) /
             (rate_per_ms / kBurstOnFraction);
  }
  return 1.0 / rate_per_ms;
}

/// For kBursty: advances `at_ms` to the start of the next on-window
/// if it falls into an off-window. Cycle phase is offset per
/// connection so bursts are not fleet-synchronized.
double gateIntoBurst(double at_ms, double phase_ms) {
  const double cycle_pos =
      std::fmod(at_ms + phase_ms, kBurstCycleMs);
  const double on_ms = kBurstCycleMs * kBurstOnFraction;
  if (cycle_pos < on_ms) return at_ms;
  return at_ms + (kBurstCycleMs - cycle_pos);
}

std::string malformedLine(const std::string& fu, util::Rng& rng) {
  switch (rng.nextBelow(5)) {
    case 0: return "bogus verb here";
    case 1: return "predict " + fu + " nan 25 100 1 2 3 4";
    case 2: return "predict " + fu;
    case 3: return "predictN " + fu + " 0.9 25 100 0";
    default: return "predict " + fu + " 0.9 25 0 1 2 3 4";
  }
}

void connectionRoutine(const LoadgenOptions& options, int index,
                       Clock::time_point start, LoadgenReport* out) {
  util::Rng rng(options.seed ^
                (0x9e3779b97f4a7c15ull *
                 static_cast<std::uint64_t>(index + 1)));
  LoadgenReport report;
  serve::LineClient client;
  const double per_conn_rate_ms =
      options.rate_qps /
      std::max(1, options.connections) / 1000.0;
  const double phase_ms =
      kBurstCycleMs * static_cast<double>(index) /
      std::max(1, options.connections);
  const double end_ms = options.duration_s * 1000.0;
  std::vector<serve::BatchOperand> tuples(options.batch_tuples);

  const auto stopped = [&options] {
    return options.stop && options.stop();
  };

  // The next scheduled arrival after `from_ms`.
  const auto arrival_after = [&](double from_ms) {
    const double at_ms =
        from_ms + nextGapMs(options.arrival, per_conn_rate_ms, rng);
    return options.arrival == Arrival::kBursty
               ? gateIntoBurst(at_ms, phase_ms)
               : at_ms;
  };
  for (double next_ms = arrival_after(0.0); next_ms < end_ms;
       next_ms = arrival_after(next_ms)) {
    if (stopped()) {
      report.interrupted = true;
      break;
    }
    // Open loop: sleep to the scheduled arrival; a behind-schedule
    // send goes out immediately and is counted as late. Sleeps are
    // sliced so the stop hook is honored promptly even with sparse
    // arrivals.
    constexpr double kSleepSliceMs = 50.0;
    double now_ms = msSince(start);
    if (now_ms >= next_ms) {
      ++report.late_arrivals;
    } else {
      bool stop_during_sleep = false;
      while (now_ms < next_ms) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(
                std::min(next_ms - now_ms, kSleepSliceMs)));
        if (stopped()) {
          stop_during_sleep = true;
          break;
        }
        now_ms = msSince(start);
      }
      if (stop_during_sleep) {
        report.interrupted = true;
        break;
      }
    }

    std::string line;
    std::size_t expected = 1;
    bool malformed = false;
    const double mix = rng.nextDouble();
    if (mix < options.malformed_fraction) {
      line = malformedLine(options.fu, rng);
      malformed = true;
      ++report.malformed_sent;
    } else {
      const double v = rng.nextDouble(0.81, 1.00);
      const double t = rng.nextDouble(0.0, 100.0);
      const double tclk = rng.nextDouble(50.0, 2000.0);
      if (mix < options.malformed_fraction + options.batch_fraction &&
          options.batch_tuples > 0) {
        for (serve::BatchOperand& tuple : tuples) {
          tuple = {rng.nextU32(), rng.nextU32(), rng.nextU32(),
                   rng.nextU32()};
        }
        line = serve::formatBatchRequest(options.fu, v, t, tclk, tuples,
                                         options.deadline_ms);
        expected = tuples.size();
      } else {
        line = serve::formatPredictRequest(
            options.fu, v, t, tclk,
            {rng.nextU32(), rng.nextU32(), rng.nextU32(), rng.nextU32()},
            options.deadline_ms);
      }
    }

    report.lines_sent += 1;
    report.responses_expected += expected;
    if (!client.connected() &&
        client.connectTo(options.port, kRecvTimeoutMs).ok()) {
      ++report.reconnects;
    }
    const Clock::time_point sent_at = Clock::now();
    std::size_t received = 0;
    if (client.sendLine(line)) {  // false while not connected
      for (; received < expected; ++received) {
        const std::optional<std::string> raw = client.readLine();
        if (!raw.has_value()) break;
        serve::Response response;
        if (!serve::parseResponse(*raw, &response)) {
          ++report.unparseable;
          continue;
        }
        switch (response.status) {
          case serve::ResponseStatus::kOk:
            ++report.ok;
            if (malformed) ++report.malformed_ok;
            break;
          case serve::ResponseStatus::kShed: ++report.shed; break;
          case serve::ResponseStatus::kDeadline:
            ++report.deadline;
            break;
          case serve::ResponseStatus::kError: ++report.errors; break;
        }
      }
    }
    report.no_response += expected - received;
    if (received == expected) {
      report.latency.add(msSince(sent_at));
    } else {
      client.close();
    }
  }
  out->mergeFrom(report);
}

}  // namespace

const char* arrivalName(Arrival arrival) {
  switch (arrival) {
    case Arrival::kPoisson: return "poisson";
    case Arrival::kUniform: return "uniform";
    case Arrival::kBursty: return "bursty";
  }
  return "?";
}

bool parseArrival(std::string_view text, Arrival* out) {
  if (text == "poisson") {
    *out = Arrival::kPoisson;
    return true;
  }
  if (text == "uniform") {
    *out = Arrival::kUniform;
    return true;
  }
  if (text == "bursty") {
    *out = Arrival::kBursty;
    return true;
  }
  return false;
}

void LoadgenReport::mergeFrom(const LoadgenReport& other) {
  lines_sent += other.lines_sent;
  responses_expected += other.responses_expected;
  ok += other.ok;
  shed += other.shed;
  deadline += other.deadline;
  errors += other.errors;
  malformed_sent += other.malformed_sent;
  malformed_ok += other.malformed_ok;
  no_response += other.no_response;
  unparseable += other.unparseable;
  reconnects += other.reconnects;
  late_arrivals += other.late_arrivals;
  interrupted = interrupted || other.interrupted;
  latency.merge(other.latency);
}

std::string LoadgenReport::summaryLine() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "sent=%llu expected=%llu ok=%llu shed=%llu deadline=%llu "
      "errors=%llu no_response=%llu unparseable=%llu malformed_ok=%llu "
      "achieved_qps=%.0f p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f",
      static_cast<unsigned long long>(lines_sent),
      static_cast<unsigned long long>(responses_expected),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(deadline),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(no_response),
      static_cast<unsigned long long>(unparseable),
      static_cast<unsigned long long>(malformed_ok), achieved_qps,
      latency.p50(), latency.p95(), latency.p99());
  return buf;
}

std::string LoadgenReport::toJson(const std::string& label,
                                  const LoadgenOptions& options) const {
  util::json::Writer json;
  json.beginObject().field("bench", "fleet_loadgen").field("scenario", label);
  json.field("arrival", arrivalName(options.arrival));
  json.field("rate_qps", options.rate_qps);
  json.field("duration_s", options.duration_s);
  json.field("connections", options.connections).field("seed", options.seed);
  json.field("wall_s", wall_s).field("offered_qps", offered_qps);
  json.field("achieved_qps", achieved_qps).field("lines_sent", lines_sent);
  json.field("responses_expected", responses_expected).field("ok", ok);
  json.field("shed", shed).field("deadline", deadline);
  json.field("errors", errors).field("no_response", no_response);
  json.field("unparseable", unparseable);
  json.field("malformed_sent", malformed_sent);
  json.field("malformed_ok", malformed_ok).field("reconnects", reconnects);
  json.field("late_arrivals", late_arrivals);
  json.field("interrupted", interrupted ? 1 : 0);
  json.field("p50_ms", latency.p50()).field("p95_ms", latency.p95());
  json.field("p99_ms", latency.p99()).field("max_ms", latency.maxMs());
  return json.endObject().str();
}

LoadgenReport runLoadgen(const LoadgenOptions& options) {
  LoadgenReport report;
  std::mutex merge_mutex;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  const int connections = std::max(1, options.connections);
  threads.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadgenReport partial;
      connectionRoutine(options, c, start, &partial);
      const std::lock_guard<std::mutex> lock(merge_mutex);
      report.mergeFrom(partial);
    });
  }
  for (std::thread& thread : threads) thread.join();
  report.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (report.wall_s > 0.0) {
    report.offered_qps =
        static_cast<double>(report.responses_expected) / report.wall_s;
    report.achieved_qps =
        static_cast<double>(report.responsesReceived()) / report.wall_s;
  }
  return report;
}

}  // namespace tevot::fleet
