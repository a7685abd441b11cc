// Event-driven timing simulator tests:
//  * settled values always equal the zero-delay functional reference
//    (checked over random workloads on real FUs);
//  * dynamic delays match hand-computed sensitized paths on toy
//    circuits (the paper's Fig. 1 scenario);
//  * inertial cancellation swallows sub-delay pulses;
//  * latched-word reconstruction gives the exact stale value at any
//    clock period and is consistent with the delay criterion.
#include "sim/timing_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "circuits/fu.hpp"
#include "util/rng.hpp"

namespace tevot::sim {
namespace {

liberty::CornerDelays uniformDelays(const netlist::Netlist& nl,
                                    double delay_ps) {
  liberty::CornerDelays delays;
  delays.corner = {1.0, 25.0};
  delays.rise_ps.assign(nl.gateCount(), delay_ps);
  delays.fall_ps.assign(nl.gateCount(), delay_ps);
  return delays;
}

TEST(TimingSimTest, Fig1InputDependentDelay) {
  // buf_x (1000) and buf_y (500) into xor (1000): x-edge -> 2000 ps,
  // y-edge afterwards -> 1500 ps.
  netlist::Netlist nl("fig1");
  const auto x = nl.addInput("x");
  const auto y = nl.addInput("y");
  const auto bx = nl.addGate1(netlist::CellKind::kBuf, x);
  const auto by = nl.addGate1(netlist::CellKind::kBuf, y);
  const auto o = nl.addGate2(netlist::CellKind::kXor2, bx, by);
  nl.markOutput(o);
  liberty::CornerDelays delays;
  delays.corner = {1.0, 25.0};
  delays.rise_ps = {1000.0, 500.0, 1000.0};
  delays.fall_ps = {1000.0, 500.0, 1000.0};

  TimingSimulator simulator(nl, delays);
  const std::uint8_t init[2] = {0, 0};
  simulator.reset({init, 2});
  const std::uint8_t first[2] = {1, 0};
  const CycleRecord rec1 = simulator.step({first, 2});
  EXPECT_DOUBLE_EQ(rec1.dynamic_delay_ps, 2000.0);
  EXPECT_EQ(rec1.settled_word, 1u);
  const std::uint8_t second[2] = {1, 1};
  const CycleRecord rec2 = simulator.step({second, 2});
  EXPECT_DOUBLE_EQ(rec2.dynamic_delay_ps, 1500.0);
  EXPECT_EQ(rec2.settled_word, 0u);
}

TEST(TimingSimTest, NoInputChangeNoEvents) {
  netlist::Netlist nl("idle");
  const auto a = nl.addInput("a");
  nl.markOutput(nl.addGate1(netlist::CellKind::kInv, a));
  const auto delays = uniformDelays(nl, 10.0);
  TimingSimulator simulator(nl, delays);
  const std::uint8_t in[1] = {1};
  simulator.reset({in, 1});
  const CycleRecord record = simulator.step({in, 1});
  EXPECT_EQ(record.events_processed, 0u);
  EXPECT_DOUBLE_EQ(record.dynamic_delay_ps, 0.0);
  EXPECT_EQ(record.start_word, record.settled_word);
}

TEST(TimingSimTest, InertialCancellationSwallowsShortPulse) {
  // A 2-input AND fed by a fast inverter chain and a direct input:
  // in -> inv(10) -> n
  // and(n, in) with delay 100: the static hazard pulse on the AND
  // output (10 ps wide at its input) is narrower than the gate delay
  // and must not appear at the output.
  netlist::Netlist nl("hazard");
  const auto in = nl.addInput("in");
  const auto n = nl.addGate1(netlist::CellKind::kInv, in);
  const auto o = nl.addGate2(netlist::CellKind::kAnd2, n, in);
  nl.markOutput(o);
  liberty::CornerDelays delays;
  delays.corner = {1.0, 25.0};
  delays.rise_ps = {10.0, 100.0};
  delays.fall_ps = {10.0, 100.0};

  TimingSimulator simulator(nl, delays);
  const std::uint8_t zero[1] = {0};
  simulator.reset({zero, 1});  // in=0: n=1, o=0
  const std::uint8_t one[1] = {1};
  const CycleRecord record = simulator.step({one, 1});
  // in 0->1 makes AND see (1,1) for 10 ps, then (0,1). The 10 ps
  // pulse is filtered; the output never toggles.
  EXPECT_EQ(record.settled_word, 0u);
  EXPECT_TRUE(record.output_toggles.empty());
  EXPECT_DOUBLE_EQ(record.dynamic_delay_ps, 0.0);
}

TEST(TimingSimTest, GlitchWiderThanDelayPropagates) {
  // Same topology but the inverter is slower than the AND gate: the
  // hazard pulse (80 ps) is wider than the AND delay (20 ps) and
  // appears at the output as a 0->1->0 pulse.
  netlist::Netlist nl("glitch");
  const auto in = nl.addInput("in");
  const auto n = nl.addGate1(netlist::CellKind::kInv, in);
  const auto o = nl.addGate2(netlist::CellKind::kAnd2, n, in);
  nl.markOutput(o);
  liberty::CornerDelays delays;
  delays.corner = {1.0, 25.0};
  delays.rise_ps = {80.0, 20.0};
  delays.fall_ps = {80.0, 20.0};

  TimingSimulator simulator(nl, delays);
  const std::uint8_t zero[1] = {0};
  simulator.reset({zero, 1});
  const std::uint8_t one[1] = {1};
  const CycleRecord record = simulator.step({one, 1});
  ASSERT_EQ(record.output_toggles.size(), 2u);
  EXPECT_DOUBLE_EQ(record.output_toggles[0].time_ps, 20.0);   // rise
  EXPECT_TRUE(record.output_toggles[0].value);
  EXPECT_DOUBLE_EQ(record.output_toggles[1].time_ps, 100.0);  // fall
  EXPECT_FALSE(record.output_toggles[1].value);
  EXPECT_EQ(record.settled_word, 0u);
  EXPECT_DOUBLE_EQ(record.dynamic_delay_ps, 100.0);
}

TEST(TimingSimTest, LatchedWordReconstruction) {
  netlist::Netlist nl("latch");
  const auto a = nl.addInput("a");
  const auto slow = nl.addGate1(netlist::CellKind::kBuf, a);   // 100 ps
  const auto fast = nl.addGate1(netlist::CellKind::kInv, a);   // 10 ps
  nl.markOutput(fast);  // bit 0
  nl.markOutput(slow);  // bit 1
  liberty::CornerDelays delays;
  delays.corner = {1.0, 25.0};
  delays.rise_ps = {100.0, 10.0};
  delays.fall_ps = {100.0, 10.0};

  TimingSimulator simulator(nl, delays);
  const std::uint8_t zero[1] = {0};
  simulator.reset({zero, 1});  // fast=1, slow=0 -> word 0b01
  const std::uint8_t one[1] = {1};
  const CycleRecord record = simulator.step({one, 1});
  EXPECT_EQ(record.start_word, 0b01u);
  EXPECT_EQ(record.settled_word, 0b10u);
  // Before the fast gate settles: stale word.
  EXPECT_EQ(record.latchedWord(5.0), 0b01u);
  // After fast (10 ps), before slow (100 ps).
  EXPECT_EQ(record.latchedWord(50.0), 0b00u);
  // After everything.
  EXPECT_EQ(record.latchedWord(150.0), 0b10u);
  EXPECT_TRUE(record.timingError(50.0));
  EXPECT_FALSE(record.timingError(150.0));
}

TEST(LatchWordTest, AppliesTogglesUpToClockPeriod) {
  const ToggleEvent toggles[] = {
      {10.0, 0, false},  // bit 0 falls at 10 ps
      {50.0, 1, true},   // bit 1 rises at 50 ps
      {90.0, 0, true},   // bit 0 rises again at 90 ps
  };
  EXPECT_EQ(latchWord(0b01u, toggles, 5.0), 0b01u);
  EXPECT_EQ(latchWord(0b01u, toggles, 10.0), 0b00u);  // edge inclusive
  EXPECT_EQ(latchWord(0b01u, toggles, 60.0), 0b10u);
  EXPECT_EQ(latchWord(0b01u, toggles, 100.0), 0b11u);
}

TEST(LatchWordTest, IgnoresOutputBitsBeyondWordWidth) {
  // Toggles on bits >= kOutputWordBits (from FUs with more than 64
  // primary outputs) must be skipped, not shifted into UB.
  const ToggleEvent toggles[] = {
      {10.0, kOutputWordBits, true},       // no word slot
      {20.0, kOutputWordBits + 13, true},  // no word slot
      {30.0, 63, true},                    // highest representable bit
  };
  EXPECT_EQ(latchWord(0u, toggles, 25.0), 0u);
  EXPECT_EQ(latchWord(0u, toggles, 35.0), 1ull << 63);
}

class FuEquivalenceTest : public ::testing::TestWithParam<circuits::FuKind> {
};

TEST_P(FuEquivalenceTest, SettledValuesMatchFunctionalReference) {
  const circuits::FuKind kind = GetParam();
  const netlist::Netlist nl = circuits::buildFu(kind);
  const auto delays = liberty::annotateCorner(
      nl, liberty::CellLibrary::defaultLibrary(), liberty::VtModel(),
      {0.85, 75.0});
  TimingSimulator simulator(nl, delays);
  util::Rng rng(314 + static_cast<unsigned>(kind));
  std::vector<std::uint8_t> bits(64);
  std::uint32_t a = rng.nextU32(), b = rng.nextU32();
  circuits::encodeOperandsInto(a, b, bits);
  simulator.reset(bits);
  for (int cycle = 0; cycle < 150; ++cycle) {
    a = rng.nextU32();
    b = rng.nextU32();
    circuits::encodeOperandsInto(a, b, bits);
    const CycleRecord record = simulator.step(bits);
    EXPECT_EQ(record.settled_word, circuits::fuReference(kind, a, b))
        << circuits::fuName(kind) << " cycle " << cycle;
    EXPECT_GE(record.dynamic_delay_ps, 0.0);
    // Latching after the dynamic delay always captures the settled
    // word.
    EXPECT_EQ(record.latchedWord(record.dynamic_delay_ps + 0.001),
              record.settled_word);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFus, FuEquivalenceTest,
                         ::testing::ValuesIn(circuits::kAllFus));

TEST(TimingSimTest, StepBeforeResetThrows) {
  netlist::Netlist nl("x");
  const auto a = nl.addInput("a");
  nl.markOutput(nl.addGate1(netlist::CellKind::kInv, a));
  const auto delays = uniformDelays(nl, 10.0);
  TimingSimulator simulator(nl, delays);
  const std::uint8_t in[1] = {0};
  EXPECT_THROW(simulator.step({in, 1}), std::logic_error);
}

TEST(TimingSimTest, DelayAnnotationMismatchThrows) {
  netlist::Netlist nl("x");
  const auto a = nl.addInput("a");
  nl.markOutput(nl.addGate1(netlist::CellKind::kInv, a));
  liberty::CornerDelays delays;  // wrong size
  EXPECT_THROW(TimingSimulator(nl, delays), std::invalid_argument);
  delays = uniformDelays(nl, 10.0);
  delays.fall_ps.clear();  // rise matches, fall does not
  EXPECT_THROW(TimingSimulator(nl, delays), std::invalid_argument);
}

/// in -> buf -> inv -> out, for delay validation.
netlist::Netlist twoGateChain() {
  netlist::Netlist nl("chain");
  const auto a = nl.addInput("a");
  const auto b = nl.addGate1(netlist::CellKind::kBuf, a);
  nl.markOutput(nl.addGate1(netlist::CellKind::kInv, b));
  return nl;
}

TEST(TimingSimTest, UnusableDelaysThrowNamingTheGate) {
  const netlist::Netlist nl = twoGateChain();
  const double kBad[] = {std::nan(""),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), -1.0,
                         -0.5e-9};
  for (const double bad : kBad) {
    for (const bool rise : {true, false}) {
      liberty::CornerDelays delays = uniformDelays(nl, 10.0);
      (rise ? delays.rise_ps : delays.fall_ps)[1] = bad;
      try {
        const TimingSimulator simulator(nl, delays);
        ADD_FAILURE() << "delay " << bad << " accepted";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("gate 1 (INV)"), std::string::npos) << what;
        EXPECT_NE(what.find(rise ? "rise" : "fall"), std::string::npos)
            << what;
      }
    }
  }
}

TEST(TimingSimTest, DelaysSummingPastDoubleRangeThrow) {
  const netlist::Netlist nl = twoGateChain();
  const auto delays =
      uniformDelays(nl, std::numeric_limits<double>::max() / 2);
  EXPECT_THROW(TimingSimulator(nl, delays), std::invalid_argument);
}

TEST(TimingSimTest, ConstantGateDelaysAreNotValidated) {
  // A constant is never scheduled, so its annotation is irrelevant.
  netlist::Netlist nl("const");
  const auto a = nl.addInput("a");
  const auto one = nl.addConst(true);
  nl.markOutput(nl.addGate2(netlist::CellKind::kAnd2, a, one));
  liberty::CornerDelays delays = uniformDelays(nl, 10.0);
  delays.rise_ps[0] = std::nan("");
  delays.fall_ps[0] = -1.0;
  TimingSimulator simulator(nl, delays);
  const std::uint8_t zero[1] = {0};
  const std::uint8_t one_in[1] = {1};
  simulator.reset({zero, 1});
  EXPECT_DOUBLE_EQ(simulator.step({one_in, 1}).dynamic_delay_ps, 10.0);
}

TEST(TimingSimTest, ZeroDelaysAreLegalAndExact) {
  // in -> buf(0) -> inv(5) -> out, and a zero-delay inverter of `in`
  // straight to a second output: toggles at exactly 0 and 5 ps.
  netlist::Netlist nl("zero");
  const auto in = nl.addInput("in");
  const auto b = nl.addGate1(netlist::CellKind::kBuf, in);
  nl.markOutput(nl.addGate1(netlist::CellKind::kInv, b));
  nl.markOutput(nl.addGate1(netlist::CellKind::kInv, in));
  liberty::CornerDelays delays;
  delays.rise_ps = {0.0, 5.0, 0.0};
  delays.fall_ps = {0.0, 5.0, 0.0};
  TimingSimulator simulator(nl, delays);
  const std::uint8_t zero[1] = {0};
  const std::uint8_t one[1] = {1};
  simulator.reset({zero, 1});
  const CycleRecord record = simulator.step({one, 1});
  ASSERT_EQ(record.output_toggles.size(), 2u);
  EXPECT_EQ(record.output_toggles[0].time_ps, 0.0);
  EXPECT_EQ(record.output_toggles[0].output_bit, 1u);
  EXPECT_EQ(record.output_toggles[1].time_ps, 5.0);
  EXPECT_EQ(record.output_toggles[1].output_bit, 0u);
  EXPECT_EQ(record.settled_word, 0u);
  EXPECT_EQ(record.dynamic_delay_ps, 5.0);

  // Every delay zero: the whole cycle happens at t = 0.
  TimingSimulator instant(nl, uniformDelays(nl, 0.0));
  instant.reset({zero, 1});
  const CycleRecord flat = instant.step({one, 1});
  EXPECT_EQ(flat.settled_word, 0u);
  EXPECT_EQ(flat.dynamic_delay_ps, 0.0);
  ASSERT_EQ(flat.output_toggles.size(), 2u);
  EXPECT_EQ(flat.output_toggles[1].time_ps, 0.0);
}

TEST(TimingSimTest, QueueBucketsCappedAtAnyDelayRatio) {
  const netlist::Netlist nl = twoGateChain();
  for (const double ratio : {1.0, 10.0, 4e3, 1e8, 1e15}) {
    liberty::CornerDelays delays = uniformDelays(nl, 2.0);
    delays.fall_ps[1] = 2.0 * ratio;
    const TimingSimulator simulator(nl, delays);
    EXPECT_LE(simulator.queueBucketCount(),
              TimingSimulator::kMaxQueueBuckets)
        << ratio;
    if (ratio >= 1e8) {
      EXPECT_EQ(simulator.queueBucketCount(),
                TimingSimulator::kMaxQueueBuckets);
    }
  }
}

}  // namespace
}  // namespace tevot::sim
