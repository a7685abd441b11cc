// Seeded synthetic operand streams for the closed-loop DVFS scenario.
//
// The Fouman Ajirlou line of work (PAPERS.md) drives dynamic frequency
// scaling from exactly TEVoT's model class: per input *window*, pick
// the fastest clock the predicted delays allow instead of the
// worst-case clock. A WindowedStream is the workload side of that
// loop: an ordered operand stream for one FU (the same distributions
// DTA trains from) chopped into fixed-size decision windows, each
// window annotated with the (V, T) operating corner it executes at.
//
// The corner follows a seeded random walk over the paper's Table I
// grid — "dynamic voltage and temperature variations" from the title,
// quantized to grid steps so per-corner delay annotation stays
// memoizable (core::FuContext::delaysAt) and every run is exactly
// reproducible from its seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuits/fu.hpp"
#include "dta/workload.hpp"
#include "liberty/corner.hpp"
#include "tevot/operating_grid.hpp"
#include "util/rng.hpp"

namespace tevot::dvfs {

/// Largest per-window move of the corner walk along each grid axis,
/// in grid steps.
inline constexpr int kMaxCornerStep = 2;

struct StreamOptions {
  circuits::FuKind kind = circuits::FuKind::kIntAdd;
  /// Total operands drawn; the first only initializes circuit state,
  /// so the stream carries cycles - 1 clocked transitions.
  std::size_t cycles = 2048;
  /// Transitions per clock decision. A window larger than the stream
  /// degenerates to one window holding every transition.
  std::size_t window = 32;
  std::uint64_t seed = 1;
  /// Grid the corner walk is quantized to.
  core::OperatingGrid grid;
};

/// One decision window: `ops[first..last)` of the stream run at
/// `corner`, with ops[first - 1] as the state-setting previous
/// operand (transition t consumes ops[t-1] -> ops[t]).
struct Window {
  std::size_t first = 0;  ///< first transition index (>= 1)
  std::size_t last = 0;   ///< one past the final transition index
  liberty::Corner corner;

  std::size_t cycles() const { return last - first; }
};

class WindowedStream {
 public:
  /// Draws the operand stream and the corner walk. Every random
  /// choice derives from options.seed.
  static WindowedStream generate(const StreamOptions& options);

  const StreamOptions& options() const { return options_; }
  const dta::Workload& workload() const { return workload_; }
  std::span<const Window> windows() const { return windows_; }

  /// Transition t as a model query: operands (a, b) after the edge,
  /// (prev_a, prev_b) before it. Valid for t in [1, cycles).
  dta::OperandPair operandAt(std::size_t t) const {
    return workload_.ops[t];
  }
  dta::OperandPair previousOperandAt(std::size_t t) const {
    return workload_.ops[t - 1];
  }

  /// Sub-workload reproducing window `w` for ground-truth simulation:
  /// the previous operand followed by the window's operands, so
  /// dta::characterize returns exactly w.cycles() samples whose
  /// transitions match the model queries.
  dta::Workload windowWorkload(const Window& w) const;

 private:
  StreamOptions options_;
  dta::Workload workload_;
  std::vector<Window> windows_;
};

}  // namespace tevot::dvfs
