// Serving resilience oracle (the "robustness differential").
//
// Contract being checked, under deterministic fault injection at
// serve.accept / serve.parse / serve.predict / serve.reload:
//
//   1. Every request line receives exactly its answer count (n for a
//      predictN of n tuples, else one) of well-formed responses from
//      the documented taxonomy — faults degrade answers into typed
//      SHED/DEADLINE/ERROR lines, never into silence, a short answer,
//      a hung connection, or a dead worker.
//   2. Every ACCEPTED answer is still correct: an OK response's delay
//      is bit-identical (hexfloat round-trip) to offline
//      TevotModel::predictDelayBatch on the same operands, and its err
//      bit equals delay > tclk. Degraded mode may refuse work, it may
//      never serve wrong numbers.
//   3. Malformed input (garbage verbs, NaN operands, oversized lines)
//      always yields a non-OK response.
//
// driveAndVerifyServer is the reusable client-side driver: the
// in-process property, the serve tests and `tevot_cli serve-check`
// (the CI smoke job) all run the same verification. Each client mixes
// single predicts, predictN batches of 2-16 tuples, control verbs
// (every tenth request) and malformed lines.
#pragma once

#include <cstdint>
#include <string>

#include "tevot/model.hpp"
#include "util/rng.hpp"

namespace tevot::check {

/// Probability that a client's next line is a malformed one.
inline constexpr double kGarbageFraction = 0.1;

struct ServeDriveOptions {
  int clients = 4;              ///< concurrent client threads
  int requests_per_client = 30;
  /// Reconnect-and-resend budget per request; injected accept faults
  /// drop whole connections, so clients redial (LineClient::
  /// reconnect()) and resend. Exhausting the budget is a violation.
  int reconnect_budget = 8;
};

/// Drives a tevot_serve endpoint on 127.0.0.1:`port` serving `fu`
/// with `reference` (the offline copy of the same trained model) and
/// throws PropertyViolation on any contract breach.
void driveAndVerifyServer(const core::TevotModel& reference,
                          const std::string& fu, int port,
                          std::uint64_t seed,
                          const ServeDriveOptions& options = {});

/// Property for check::forAllSeeds: boots an in-process server on a
/// cached tiny int_add model with all serve.* fault points armed at
/// 10% (deterministic per seed), drives it, then drains and checks
/// the response-accounting invariant requests == ok+shed+deadline+
/// errors.
void checkServeResilience(std::uint64_t seed, util::Rng& rng);

/// The shared per-process oracle fixture: a tiny trained int_add model
/// (the offline bit-identity reference) plus the temp model directory
/// it was saved to, which in-process servers and fleet shards load
/// from. Trained lazily on first use; the references stay valid for
/// the process lifetime. Reused by the fleet oracle so the single-
/// server and fleet properties pin against the same weights.
struct OracleModel {
  const core::TevotModel& model;
  const std::string& model_dir;
};
OracleModel oracleModel();

}  // namespace tevot::check
