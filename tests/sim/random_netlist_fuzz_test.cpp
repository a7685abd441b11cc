// Fuzz-style property test: on randomly generated combinational DAGs
// (arbitrary cell mix, fanout, and depth), the event-driven timing
// simulator's settled state must always equal the zero-delay
// functional evaluation, for every cycle of a random workload, under
// random per-gate delay annotations. This is the strongest
// correctness property the simulator has: no input pattern, topology
// or delay assignment may produce a wrong settled value.
#include <gtest/gtest.h>

#include "netlist/netlist.hpp"
#include "sim/timing_sim.hpp"
#include "sim_test_util.hpp"
#include "util/rng.hpp"

namespace tevot::sim {
namespace {

using netlist::Netlist;
using testutil::randomNetlist;

liberty::CornerDelays randomDelays(util::Rng& rng, const Netlist& nl) {
  liberty::CornerDelays delays;
  delays.corner = {0.9, 50.0};
  for (std::size_t g = 0; g < nl.gateCount(); ++g) {
    delays.rise_ps.push_back(rng.nextDouble(1.0, 80.0));
    delays.fall_ps.push_back(rng.nextDouble(1.0, 80.0));
  }
  return delays;
}

class RandomNetlistFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetlistFuzz, SettledStateMatchesFunctionalEval) {
  util::Rng rng(0xf022 + static_cast<unsigned>(GetParam()));
  const int n_inputs = 3 + static_cast<int>(rng.nextBelow(10));
  const int n_gates = 10 + static_cast<int>(rng.nextBelow(120));
  const int n_outputs = 1 + static_cast<int>(rng.nextBelow(5));
  const Netlist nl = randomNetlist(rng, n_inputs, n_gates, n_outputs);
  nl.validate();
  const liberty::CornerDelays delays = randomDelays(rng, nl);

  TimingSimulator simulator(nl, delays);
  std::vector<std::uint8_t> inputs(
      static_cast<std::size_t>(n_inputs));
  for (auto& bit : inputs) bit = rng.nextBool() ? 1 : 0;
  simulator.reset(inputs);

  for (int cycle = 0; cycle < 40; ++cycle) {
    // Flip a random subset of inputs (including none / all).
    for (auto& bit : inputs) {
      if (rng.nextBool(0.4)) bit ^= 1;
    }
    const CycleRecord record = simulator.step(inputs);
    const std::uint64_t expected = nl.evalOutputsWord(inputs);
    ASSERT_EQ(record.settled_word, expected)
        << "seed " << GetParam() << " cycle " << cycle;
    // Latching after the last toggle always captures the settled word.
    ASSERT_EQ(record.latchedWord(record.dynamic_delay_ps + 1e-9),
              expected);
    // Dynamic delay is bounded by (depth x max gate delay).
    ASSERT_LE(record.dynamic_delay_ps, nl.depth() * 80.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistFuzz,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace tevot::sim
