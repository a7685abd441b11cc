// Interval-certification soundness oracle.
//
// Contracts being checked (the tentpole invariants of src/verify/):
//
//   1. Containment — for ANY fitted forest and ANY feature box, the
//      certified interval verify::forestBounds returns contains the
//      empirical min/max of >= 1000 points sampled inside the box
//      (predictions via the CART tree walk, the reference the served
//      flat engine is bit-identical to).
//   2. Counterexample truth — when a certifier returns kViolated, the
//      counterexample box is not a heuristic: EVERY sampled point of
//      it reproduces a concrete violation (delay above the limit, or
//      an inverted monotone pair).
//   3. Verdict agreement — forests constructed monotone certify, and
//      forests constructed with a monotonicity defect are reported
//      kViolated, never kCertified.
//
// Everything (forest shape, boxes, sample points, injected defects)
// derives from the per-seed Rng, so any failure reproduces from
// `tevot_cli check 1 --seed N`.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace tevot::check {

/// Independent (forest, box) containment cases per seed; a 25-seed run
/// covers >= 100 cases of >= 1000 samples each.
inline constexpr int kVerifyBoxesPerSeed = 4;
/// Sample points per containment case.
inline constexpr int kVerifySamplesPerBox = 1000;

/// Property 1 for check::forAllSeeds.
void checkVerifyBoundsContainment(std::uint64_t seed, util::Rng& rng);

/// Properties 2 and 3 for check::forAllSeeds.
void checkVerifyCertification(std::uint64_t seed, util::Rng& rng);

}  // namespace tevot::check
