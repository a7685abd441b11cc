// Deterministic, seed-driven fault injection.
//
// Every failure path of the sweep engine (induced job exceptions,
// injected slowness, checkpoint open/write failures) is guarded by a
// named fault point compiled into the library. A FaultInjector armed
// with a FaultPlan decides per (point, key) site — purely from the
// plan seed, never from wall clock or thread timing — whether that
// site is faulty, so a failing run reproduces exactly from its
// TEVOT_FAULTS spec. Sites fail their first `fail_attempts` attempts
// and then succeed, which models transient faults. A sweep runs each
// job once, so a faulty site fails its job; a resume pass through the
// same injector gets past a transient fault, and a large
// fail_attempts makes the fault effectively permanent. (A new process
// arms a fresh injector from TEVOT_FAULTS, so its counts start over.)
//
// Fault points currently wired in:
//   job.exception  dta::runSweep: throw before running a job
//   job.slow       dta::runSweep: sleep slow_ms before running a job
//   io.open        util::writeFileAtomic (checkpoints, models) and
//                  dta::readTraceFile: fail opening the file
//   io.write       util::writeFileAtomic: fail after writing, before
//                  the rename
//   serve.accept   Server: drop a just-accepted connection
//   serve.parse    Server: fail one request line with FAULT_INJECTED
//   serve.predict  Server: throw inside the model-backend call
//   serve.slow     Server: sleep slow_ms inside the backend call
//   serve.reload   ModelRegistry: fail a model hot-reload attempt
//
// The process-wide injector (FaultInjector::global()) arms itself once
// from the TEVOT_FAULTS environment spec, e.g.
//   TEVOT_FAULTS="points=job.exception|io.write;rate=0.3;seed=7"
// Spec keys: points (|-separated), rate [0,1], seed, attempts
// (fail_attempts), slow-ms. Pairs separated by ';' or ','.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tevot::util {

struct FaultPlan {
  std::uint64_t seed = 1;
  double rate = 0.0;                ///< probability a site is faulty
  std::vector<std::string> points;  ///< armed fault points
  int fail_attempts = 1;            ///< faulty sites fail this many times
  double slow_ms = 25.0;            ///< injected latency of *.slow points

  bool enabled() const { return rate > 0.0 && !points.empty(); }
  /// Round-trippable spec string ("points=a|b;rate=0.3;seed=7;...").
  std::string spec() const;
};

class FaultInjector {
 public:
  FaultInjector() = default;

  /// Installs `plan` and resets all attempt counters.
  void arm(const FaultPlan& plan);
  void disarm();
  bool armed() const;
  FaultPlan plan() const;

  /// Whether `point` is in the armed plan's point list.
  bool pointArmed(std::string_view point) const;

  /// Deterministic site selection: depends only on (seed, point, key),
  /// never on call order or thread. False when the injector is
  /// disarmed or the point is not in the plan.
  bool siteIsFaulty(std::string_view point, std::string_view key) const;

  /// Records one attempt at the site and reports whether this attempt
  /// must fail (the first `fail_attempts` attempts of a faulty site).
  bool shouldFail(std::string_view point, std::string_view key);

  /// shouldFail + throw StatusError(kFaultInjected) naming the site.
  void maybeThrow(std::string_view point, std::string_view key);

  /// For slow points: shouldFail + sleep plan.slow_ms. Returns whether
  /// a delay was injected.
  bool maybeDelay(std::string_view point, std::string_view key);

  /// Attempts recorded so far at a site (for tests and reports).
  int attemptCount(std::string_view point, std::string_view key) const;

  /// Forgets all attempt counts, keeping the plan (a "new run").
  void resetCounters();

  /// Parses a TEVOT_FAULTS-style spec; each value is read by the number
  /// rule (util::parseInteger / parseDecimal, so "seed=010" and
  /// "rate=1e-400" are errors). Throws std::invalid_argument on unknown
  /// keys or malformed values.
  static FaultPlan planFromSpec(const std::string& spec);

  /// Process-wide injector, armed once from the TEVOT_FAULTS
  /// environment variable (disarmed when unset or empty).
  static FaultInjector& global();

 private:
  mutable std::mutex mutex_;
  bool armed_ = false;
  FaultPlan plan_;
  std::map<std::string, int, std::less<>> attempts_;
};

}  // namespace tevot::util
