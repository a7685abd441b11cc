// Flat-forest bit-identity oracle.
//
// Contract being checked (the invariant of the one inference engine,
// ml::FlatForest, against its reference, the CART tree walk): for ANY
// fitted forest and ANY batch of rows,
//
//   1. ml::FlatForest::predict(row) is bit-identical (float memcmp)
//      to ml::RandomForestRegressor::predict(row), and
//   2. ml::FlatForest::predictBatch out[i] is bit-identical (double
//      memcmp) to double(RandomForestRegressor::predict(row_i)) —
//      i.e. the batch kernel replicates the walk's exact accumulation
//      order (per-tree double sum, float narrowing, double widening),
//      and
//   3. core::TevotModel::predictDelayBatch and predictDelay both
//      match double(model.forest().predict(encoded query))
//      element-for-element over random operand/corner batches across
//      the full Liberty grid envelope.
//
// The property draws everything (forest shape, rows, operands,
// corners, batch sizes) from its Rng, so any divergence reproduces
// from `tevot_cli check 1 --seed N`. Each seed exercises
// kBatchesPerSeed independent batches; CI's 200-seed run therefore
// covers 200 * kBatchesPerSeed >= 1000 batches.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace tevot::check {

/// Independent batches (forest-level + model-level) per seed.
inline constexpr int kBatchesPerSeed = 8;

/// Property for check::forAllSeeds; throws PropertyViolation on any
/// flat-vs-walk divergence.
void checkFlatForestBitIdentity(std::uint64_t seed, util::Rng& rng);

}  // namespace tevot::check
