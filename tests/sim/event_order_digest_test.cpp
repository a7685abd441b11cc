// Pins the simulator's exact event order on seeded random netlists
// under delay annotations that stress the event queue: mass ties,
// small integer delays, zero-delay gates and a 1e-3 .. 1e5 ps delay
// ratio. Each case hashes (FNV-1a) every output toggle (time bits,
// bit, value), every cycle's events_processed and dynamic_delay_ps,
// and, on odd seeds, every net toggle seen by the toggle observer.
//
// The constants were recorded from the binary-heap simulator that the
// bucketed queue replaced; any change to tie-breaking, inertial
// cancellation or time arithmetic changes them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>

#include "sim/timing_sim.hpp"
#include "sim_test_util.hpp"
#include "util/rng.hpp"

namespace tevot::sim {
namespace {

enum class DelayRegime { kAllEqual, kSmallInteger, kZeroDelay, kExtremeRatio };

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  void u8(std::uint8_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
};

double regimeDelay(DelayRegime regime, util::Rng& rng) {
  switch (regime) {
    case DelayRegime::kAllEqual:
      return 7.0;
    case DelayRegime::kSmallInteger:
      return static_cast<double>(1 + rng.nextBelow(4));
    case DelayRegime::kZeroDelay:
      if (rng.nextBool(0.3)) return 0.0;
      return rng.nextBool() ? static_cast<double>(1 + rng.nextBelow(5))
                            : rng.nextDouble(0.5, 20.0);
    case DelayRegime::kExtremeRatio: {
      // Log-spread without libm: a decade times a mantissa in [1, 10).
      static constexpr double kDecades[] = {1e-3, 1e-2, 1e-1, 1.0,
                                            1e1,  1e2,  1e3,  1e4};
      return kDecades[rng.nextBelow(8)] * rng.nextDouble(1.0, 10.0);
    }
  }
  return 0.0;
}

liberty::CornerDelays regimeDelays(DelayRegime regime, util::Rng& rng,
                                   const netlist::Netlist& nl) {
  liberty::CornerDelays delays;
  delays.corner = {0.9, 50.0};
  for (std::size_t g = 0; g < nl.gateCount(); ++g) {
    delays.rise_ps.push_back(regimeDelay(regime, rng));
    delays.fall_ps.push_back(regimeDelay(regime, rng));
  }
  if (regime == DelayRegime::kExtremeRatio) {
    // Both ends of the ratio, exactly.
    delays.rise_ps[0] = 1e-3;
    delays.fall_ps[nl.gateCount() - 1] = 1e5;
  }
  return delays;
}

/// Digest of `seeds` random netlists simulated under `regime`.
std::uint64_t regimeDigest(DelayRegime regime, int seeds) {
  Fnv fnv;
  for (int seed = 0; seed < seeds; ++seed) {
    util::Rng rng(0xd16e57 + 1000 * static_cast<unsigned>(regime) +
                  static_cast<unsigned>(seed));
    const int n_inputs = 3 + static_cast<int>(rng.nextBelow(10));
    const int n_gates = 10 + static_cast<int>(rng.nextBelow(190));
    const int n_outputs = 1 + static_cast<int>(rng.nextBelow(8));
    const netlist::Netlist nl =
        testutil::randomNetlist(rng, n_inputs, n_gates, n_outputs);
    const liberty::CornerDelays delays = regimeDelays(regime, rng, nl);

    TimingSimulator simulator(nl, delays);
    // The 1e8 ratio widens the buckets; it must not add any.
    if (regime == DelayRegime::kExtremeRatio) {
      EXPECT_EQ(simulator.queueBucketCount(),
                TimingSimulator::kMaxQueueBuckets);
    }
    if (seed % 2 == 1) {
      simulator.setToggleObserver(
          [&fnv](double time_ps, netlist::NetId net, bool value) {
            fnv.f64(time_ps);
            fnv.u32(net);
            fnv.u8(value ? 1 : 0);
          },
          1000.0);
    }
    std::vector<std::uint8_t> inputs(static_cast<std::size_t>(n_inputs));
    for (auto& bit : inputs) bit = rng.nextBool() ? 1 : 0;
    simulator.reset(inputs);
    for (int cycle = 0; cycle < 60; ++cycle) {
      for (auto& bit : inputs) {
        if (rng.nextBool(0.4)) bit ^= 1;
      }
      const CycleRecord record = simulator.step(inputs);
      for (const ToggleEvent& toggle : record.output_toggles) {
        fnv.f64(toggle.time_ps);
        fnv.u32(toggle.output_bit);
        fnv.u8(toggle.value ? 1 : 0);
      }
      fnv.u64(record.events_processed);
      fnv.f64(record.dynamic_delay_ps);
    }
  }
  return fnv.h;
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

constexpr int kSeeds = 100;

TEST(EventOrderDigestTest, AllEqualDelays) {
  const std::uint64_t digest = regimeDigest(DelayRegime::kAllEqual, kSeeds);
  EXPECT_EQ(digest, 0xc233b41042ed715eULL) << hex(digest);
}

TEST(EventOrderDigestTest, SmallIntegerDelays) {
  const std::uint64_t digest =
      regimeDigest(DelayRegime::kSmallInteger, kSeeds);
  EXPECT_EQ(digest, 0xa1b5f09f23f35b10ULL) << hex(digest);
}

TEST(EventOrderDigestTest, ZeroDelayGates) {
  const std::uint64_t digest = regimeDigest(DelayRegime::kZeroDelay, kSeeds);
  EXPECT_EQ(digest, 0x36bd10b4486bdbdeULL) << hex(digest);
}

TEST(EventOrderDigestTest, ExtremeDelayRatio) {
  const std::uint64_t digest =
      regimeDigest(DelayRegime::kExtremeRatio, kSeeds);
  EXPECT_EQ(digest, 0x95daa5a27c5f8a0cULL) << hex(digest);
}

}  // namespace
}  // namespace tevot::sim
