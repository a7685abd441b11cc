// Differential oracle for the fault-tolerant sweep engine.
//
// The property that makes dta::runSweep trustworthy: whatever faults
// are injected, every surviving trace is bit-identical to the trace a
// clean serial characterizeAll produces for the same job, the
// SweepReport accounts for every failure with its typed status, and a
// --resume pass recomputes exactly the failed jobs. The oracle arms a
// LOCAL FaultInjector (seeded from the property seed,
// ~30% of jobs faulty) so it composes with — and never disturbs — the
// process-global TEVOT_FAULTS injector.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace tevot::check {

/// Phase 1: transient faults (one failing execution per faulty site)
/// into a temp checkpoint directory — faulty jobs must fail with
/// FAULT_INJECTED while their siblings survive bit-identically; a
/// --resume pass must then restore every sibling, recompute every
/// faulty job, and match the clean serial run on every trace.
/// Phase 2: permanent faults without checkpoints — faulty jobs must be
/// reported failed while their siblings survive bit-identically.
/// Throws PropertyViolation on any mismatch.
void checkSweepFaultTolerance(std::uint64_t seed, util::Rng& rng);

}  // namespace tevot::check
