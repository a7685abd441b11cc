// Golden-trace regression store.
//
// A golden trace pins down the full DTA characterization of one FU at
// one corner under a fixed random workload: per cycle the operand
// transition, the dynamic delay D[t] (printed with round-trip
// precision), and the settled output word. Any change to the timing
// library, the VT scaling model, the simulator's event semantics, or
// the workload generator shifts at least one number and fails the
// comparison — e.g. flipping a delay constant in
// liberty/vt_model.cpp by 10% is caught on every spec.
//
// The committed goldens live in tests/golden/*.trace;
// tools/tevot_goldens regenerates them (and, with --check, acts as the
// strict comparator CI runs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/fu.hpp"
#include "liberty/corner.hpp"
#include "tevot/pipeline.hpp"

namespace tevot::check {

/// One pinned characterization run.
struct GoldenSpec {
  circuits::FuKind kind = circuits::FuKind::kIntAdd;
  liberty::Corner corner{0.90, 50.0};
  std::uint64_t workload_seed = 2026;
  int cycles = 48;
};

/// The committed set: all four FUs at the nominal 0.90 V / 50 C corner.
std::vector<GoldenSpec> defaultGoldenSpecs();

/// File name of a spec's trace within the golden directory, e.g.
/// "int_add_0v90_50c.trace".
std::string goldenFileName(const GoldenSpec& spec);

/// Renders the trace text for `spec` through `context` (which must be
/// for spec.kind). Deterministic: same spec, same bytes.
std::string renderGoldenTrace(core::FuContext& context,
                              const GoldenSpec& spec);

/// Convenience that builds a fresh default-library FuContext.
std::string renderGoldenTrace(const GoldenSpec& spec);

/// First-divergence comparison. `match` when the texts are identical;
/// otherwise `description` names the first differing line (1-based)
/// and shows both versions.
struct GoldenDiff {
  bool match = true;
  std::string description;
};
GoldenDiff compareGoldenTrace(const std::string& expected,
                              const std::string& actual);

}  // namespace tevot::check
