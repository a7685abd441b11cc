// The three differential oracles that keep the DTA ground truth
// honest (see DESIGN.md "Verification strategy"):
//
//  1. sim-vs-STA: on any netlist, corner, and input sequence, every
//     output toggle the event-driven simulator records happens no
//     later than the STA arrival of that output net (the critical
//     path bounds the dynamic delay) — and on a chain constructed to
//     sensitize its own critical path, the last toggle EQUALS the STA
//     critical path. A model trained on delays violating this bound
//     would be meaningless against the paper's Fig. 2 flow.
//  2. sim-vs-reference: the settled FU outputs match the pure
//     word-level references (circuits::fuReference) bit for bit, and
//     a register bank clocked generously past the critical path
//     latches exactly the settled word.
//  3. model round-trip: serialize -> deserialize -> serialize of a
//     forest regressor (the format TevotModel files carry) is
//     byte-identical and the reloaded forest predicts bit-identically;
//     serial vs pooled forest training stays bit-identical.
//
// Every oracle draws all randomness from the Rng handed to it, so it
// plugs directly into check::forAllSeeds and any violation reproduces
// from its seed.
#pragma once

#include <cstdint>

#include "circuits/fu.hpp"
#include "liberty/corner.hpp"
#include "netlist/netlist.hpp"
#include "tevot/pipeline.hpp"
#include "util/rng.hpp"

namespace tevot::check {

// -- random structures the oracles draw -----------------------------

struct RandomNetlistOptions {
  int min_inputs = 3;
  int max_inputs = 12;
  int min_gates = 10;
  int max_gates = 130;
  int min_outputs = 1;
  int max_outputs = 5;
  /// Probability that one primary input is additionally marked as a
  /// primary output — the zero-delay arc both analyses must seed the
  /// same way (STA: arrival 0; sim: output toggle at the clock edge).
  double input_as_output_p = 0.5;
};

/// Random feed-forward DAG over the full combinational cell mix.
netlist::Netlist randomNetlist(util::Rng& rng,
                               const RandomNetlistOptions& options = {});

/// Independent uniform rise/fall delays in [min_ps, max_ps] per gate.
liberty::CornerDelays randomDelays(util::Rng& rng,
                                   const netlist::Netlist& nl,
                                   double min_ps = 1.0,
                                   double max_ps = 80.0);

/// A chain whose STA critical path is sensitized by toggling the head
/// input: every gate passes the chain signal (side inputs tied to
/// non-controlling constants), rise == fall per gate, and the
/// zero-fanin constant cells get zero delay so STA seeds their
/// arrival at 0. Toggling the head makes the last output toggle equal
/// the STA critical path exactly.
struct SensitizableChain {
  netlist::Netlist nl;
  liberty::CornerDelays delays;
};
SensitizableChain sensitizableChain(util::Rng& rng, int min_length = 2,
                                    int max_length = 40);

/// Random corner from the paper's Fig. 3 3x3 (V,T) subset. Bounded to
/// nine values so FuContext's per-corner delay cache stays small when
/// an oracle runs for hundreds of seeds.
liberty::Corner randomCorner(util::Rng& rng);

// -- oracle 1: sim vs STA -------------------------------------------

/// Random netlist, delays, and workload: per-bit toggle times bounded
/// by STA arrivals, dynamic delay bounded by the critical path,
/// latched word at the critical path equal to the settled word, and
/// settled state equal to the functional evaluation.
void checkSimVsStaOnRandomNetlist(std::uint64_t seed, util::Rng& rng);

/// Tightness: on a sensitizable chain the bound is met with equality
/// for both the rising and the falling head transition.
void checkSimMeetsStaOnChain(std::uint64_t seed, util::Rng& rng);

/// Oracle 1 on a real FU at a random grid corner, through the same
/// dta::characterize path the benches use.
void checkSimVsStaOnFu(core::FuContext& context, std::uint64_t seed,
                       util::Rng& rng, int cycles = 12);

// -- oracle 2: sim vs functional reference --------------------------

/// Settled FU outputs equal circuits::fuReference for every cycle of
/// a random workload; a generous clock latches the settled word.
void checkSimVsReferenceOnFu(core::FuContext& context, std::uint64_t seed,
                             util::Rng& rng, int cycles = 12);

// -- oracle 3: model round-trip -------------------------------------

/// Round-trips a forest regressor (the model format TevotModel files
/// carry) on a small random task and checks serial-vs-pooled forest
/// training bit-identity.
void checkModelRoundTrip(std::uint64_t seed, util::Rng& rng);

}  // namespace tevot::check
