#include "dvfs/controller.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace tevot::dvfs {

namespace {

std::string hexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

std::string DvfsReport::toJson() const {
  util::json::Writer json;
  json.beginObject().field("fu", fu).field("backend", backend);
  json.field("status", status.ok() ? "ok" : status.message);
  json.field("windows", windows).field("adaptive_windows", adaptive_windows);
  json.field("fallback_windows", fallback_windows).key("fallback");
  json.beginObject().field("shed", fallback.shed);
  json.field("deadline", fallback.deadline).field("error", fallback.error);
  json.field("disconnect", fallback.disconnect).endObject();
  json.field("violations", violations).field("recovered", recovered);
  json.field("escapes", escapes).field("replays", replays);
  json.field("widenings", widenings).field("clock_changes", clock_changes);
  json.field("certified_tclk_ps", certified_tclk_ps);
  json.field("guardband_final", guardband_final);
  json.field("baseline_ps", baseline_ps).field("adaptive_ps", adaptive_ps);
  return json.field("gain", gain()).endObject().str();
}

DvfsReport runController(const WindowedStream& stream, DelayBackend& backend,
                         const verify::SafeTclkCertificate& cert,
                         const ControllerOptions& options,
                         const GroundTruth& ground_truth) {
  if (!cert.certified || cert.tclk_ps <= 0.0) {
    throw std::invalid_argument(
        "runController: certificate is not a certified safe-tclk "
        "certificate (callers must refuse adaptive mode instead)");
  }
  DvfsReport report;
  report.fu = std::string(circuits::fuSlug(stream.options().kind));
  report.backend = backend.name();
  report.certified_tclk_ps = cert.tclk_ps;

  double guardband = options.guardband;
  std::uint64_t escapes_since_widen = 0;
  double last_chosen = 0.0;
  bool has_last = false;
  std::ostringstream trace;

  std::size_t index = 0;
  for (const Window& w : stream.windows()) {
    const WindowPrediction pred = backend.predictWindow(stream, w);
    const bool adaptive = pred.outcome == WindowOutcome::kOk;

    double pred_max = 0.0;
    double chosen = cert.tclk_ps;
    if (adaptive) {
      ++report.adaptive_windows;
      for (const double d : pred.delays_ps) pred_max = std::max(pred_max, d);
      double target = std::clamp(pred_max * (1.0 + guardband), kMinTclkPs,
                                 cert.tclk_ps);
      if (!has_last || target >= last_chosen) {
        chosen = target;  // slowing down (or first window): act now
      } else if (last_chosen - target >= kHysteresis * last_chosen) {
        chosen = target;  // speed-up beyond the deadband
      } else {
        chosen = last_chosen;  // damped: hold the current clock
      }
    } else {
      ++report.fallback_windows;
      switch (pred.outcome) {
        case WindowOutcome::kShed: ++report.fallback.shed; break;
        case WindowOutcome::kDeadline: ++report.fallback.deadline; break;
        case WindowOutcome::kError: ++report.fallback.error; break;
        case WindowOutcome::kDisconnect: ++report.fallback.disconnect; break;
        case WindowOutcome::kOk: break;  // unreachable
      }
    }
    if (has_last && chosen != last_chosen) ++report.clock_changes;
    last_chosen = chosen;
    has_last = true;

    // Ground truth: the chosen clock meets the window, or it does not.
    const std::vector<double> sim = ground_truth(w);
    if (sim.size() != w.cycles()) {
      throw std::invalid_argument(
          "runController: ground truth returned " +
          std::to_string(sim.size()) + " delays for a window of " +
          std::to_string(w.cycles()));
    }
    std::uint64_t window_violations = 0;
    std::uint64_t window_escapes = 0;
    for (const double d : sim) {
      if (d > chosen) ++window_violations;      // strict: d == tclk latches
      if (d > cert.tclk_ps) ++window_escapes;   // beyond even the cert clock
    }
    report.violations += window_violations;
    report.escapes += window_escapes;

    const double cycles = static_cast<double>(w.cycles());
    report.baseline_ps += cycles * cert.tclk_ps;
    report.adaptive_ps += cycles * chosen;
    if (window_violations > 0 && adaptive) {
      // Razor recovery: replay the whole window at the certified
      // clock. That absorbs every violation the certificate covers;
      // what remains escapes the recovery path too.
      ++report.replays;
      report.adaptive_ps += cycles * cert.tclk_ps;
      report.recovered += window_violations - window_escapes;
    }
    // A fallback window already runs at the certified clock, so its
    // violations ARE escapes — there is no slower clock to replay at.

    escapes_since_widen += window_escapes;
    if (escapes_since_widen > kEscapeBudget && guardband < kGuardbandMax) {
      guardband = std::min(guardband + kGuardbandStep, kGuardbandMax);
      ++report.widenings;
      escapes_since_widen = 0;
    }

    trace << "w=" << index << " v=" << hexFloat(w.corner.voltage)
          << " t=" << hexFloat(w.corner.temperature) << " src=";
    if (adaptive) {
      trace << "adaptive pred=" << hexFloat(pred_max);
    } else {
      trace << "fallback:" << windowOutcomeName(pred.outcome) << " pred=-";
    }
    trace << " chosen=" << hexFloat(chosen) << " viol=" << window_violations
          << " esc=" << window_escapes << " g=" << hexFloat(guardband)
          << "\n";
    ++index;
  }

  report.windows = index;
  report.guardband_final = guardband;
  report.trace = trace.str();
  return report;
}

}  // namespace tevot::dvfs
