// Closed-loop adaptive-clocking controller (DESIGN.md §5i).
//
// Per decision window the controller (1) asks a DelayBackend for the
// predicted dynamic delay of every transition, (2) picks the clock
// period max_pred * (1 + guardband) — hysteresis damps speed-ups,
// never slow-downs — clamped into [min clock, certified safe clock],
// (3) ground-truths the window against the event simulator, and
// (4) accounts the result: Razor-style detect-and-recover replays a
// violating adaptive window at the certified clock; violations the
// certified clock itself cannot absorb are *escapes*, and an
// escape-rate watchdog widens the guardband once escapes exceed
// budget. Any degraded backend answer drops the window onto the
// fallback ladder: it simply runs at the certified safe clock from
// the PR 8 certificate — slower, never less safe.
//
// Everything here is deterministic: one clock decision per window, no
// wall clock in any decision or trace line, doubles printed as
// hexfloats, so reruns with the same stream and backend answers are
// byte-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dvfs/backend.hpp"
#include "dvfs/stream.hpp"
#include "util/status.hpp"
#include "verify/model_rules.hpp"

namespace tevot::dvfs {

/// Watchdog widening: guardband += kGuardbandStep once escapes exceed
/// kEscapeBudget, saturating at kGuardbandMax.
inline constexpr double kGuardbandStep = 0.05;
inline constexpr double kGuardbandMax = 0.50;
/// Unrecovered violations (escapes) tolerated before the watchdog
/// widens the guardband: 0 widens on the first escape.
inline constexpr std::uint64_t kEscapeBudget = 0;
/// Speed-up deadband: a faster target clock is adopted only when it
/// undercuts the current clock by this relative fraction. Slowing down
/// (raising the period) is never damped — that is the safe direction
/// and must act immediately.
inline constexpr double kHysteresis = 0.02;
/// Floor on the chosen period [ps]; keeps a quiet window (all
/// predicted delays ~0) from requesting an unphysical clock.
inline constexpr double kMinTclkPs = 1.0;

struct ControllerOptions {
  /// Safety margin over the predicted worst delay of the window.
  double guardband = 0.10;
};

/// Why a window left the adaptive path. Mirrors WindowOutcome minus
/// kOk; the counters below must exactly account for every degraded
/// backend response (checkDvfsSafety enforces the identity).
struct FallbackCounters {
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t error = 0;
  std::uint64_t disconnect = 0;

  std::uint64_t total() const { return shed + deadline + error + disconnect; }
};

/// Per-FU outcome of one closed-loop run.
struct DvfsReport {
  std::string fu;
  std::string backend;  ///< "in-process" / "serve" / "" when refused
  /// ok() when the controller ran; otherwise why adaptive mode was
  /// refused (e.g. missing or uncertified certificate) — refusal is a
  /// report, never a crash.
  util::Status status = util::Status::okStatus();

  std::size_t windows = 0;
  std::size_t adaptive_windows = 0;  ///< model-driven clock decision
  std::size_t fallback_windows = 0;  ///< degraded -> certified clock
  FallbackCounters fallback;

  std::uint64_t violations = 0;  ///< transitions with sim delay > chosen
  std::uint64_t recovered = 0;   ///< absorbed by replay at the cert clock
  std::uint64_t escapes = 0;     ///< sim delay > certified clock
  std::uint64_t replays = 0;     ///< windows re-executed at the cert clock
  std::uint64_t widenings = 0;   ///< watchdog guardband bumps
  std::uint64_t clock_changes = 0;

  double certified_tclk_ps = 0.0;
  double guardband_final = 0.0;
  /// Wall time of the workload at the worst-case (certified) clock vs
  /// the adaptive schedule including replay penalties.
  double baseline_ps = 0.0;
  double adaptive_ps = 0.0;
  double gain() const {
    return adaptive_ps > 0.0 ? baseline_ps / adaptive_ps : 0.0;
  }

  /// One line per window ("w=... src=... chosen=..."), hexfloat
  /// doubles; byte-identical across reruns with the same seed and
  /// backend answers.
  std::string trace;

  /// Compact JSON object (no trailing newline).
  std::string toJson() const;
};

/// Simulated per-transition delays [ps] for a window — the ground
/// truth the controller checks its clock choices against. Must return
/// exactly w.cycles() values.
using GroundTruth = std::function<std::vector<double>(const Window&)>;

/// Runs the closed loop over every window of `stream`. `cert` must be
/// a certified safe-tclk certificate; the caller is responsible for
/// refusing adaptive mode on a missing/invalid certificate (see
/// runDvfs), so this function requires cert.certified and
/// cert.tclk_ps > 0 (throws std::invalid_argument otherwise).
DvfsReport runController(const WindowedStream& stream, DelayBackend& backend,
                         const verify::SafeTclkCertificate& cert,
                         const ControllerOptions& options,
                         const GroundTruth& ground_truth);

}  // namespace tevot::dvfs
