// WindowedStream: seeded reproducibility, exact window partition of
// the transition range, corner walk staying on the operating grid
// with bounded per-window steps, and windowWorkload reproducing the
// model's queries for ground-truth simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "dvfs/stream.hpp"

namespace tevot::dvfs {
namespace {

StreamOptions smallOptions() {
  StreamOptions options;
  options.kind = circuits::FuKind::kIntAdd;
  options.cycles = 101;  // 100 transitions
  options.window = 16;
  options.seed = 7;
  return options;
}

TEST(WindowedStreamTest, SameSeedIsByteIdentical) {
  const WindowedStream a = WindowedStream::generate(smallOptions());
  const WindowedStream b = WindowedStream::generate(smallOptions());
  ASSERT_EQ(a.workload().ops.size(), b.workload().ops.size());
  for (std::size_t i = 0; i < a.workload().ops.size(); ++i) {
    EXPECT_EQ(a.workload().ops[i].a, b.workload().ops[i].a);
    EXPECT_EQ(a.workload().ops[i].b, b.workload().ops[i].b);
  }
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    EXPECT_EQ(a.windows()[i].first, b.windows()[i].first);
    EXPECT_EQ(a.windows()[i].last, b.windows()[i].last);
    EXPECT_EQ(a.windows()[i].corner.voltage, b.windows()[i].corner.voltage);
    EXPECT_EQ(a.windows()[i].corner.temperature,
              b.windows()[i].corner.temperature);
  }
}

TEST(WindowedStreamTest, DifferentSeedDiverges) {
  StreamOptions other = smallOptions();
  other.seed = 8;
  const WindowedStream a = WindowedStream::generate(smallOptions());
  const WindowedStream b = WindowedStream::generate(other);
  bool any_difference = false;
  for (std::size_t i = 0;
       i < a.workload().ops.size() && i < b.workload().ops.size(); ++i) {
    if (a.workload().ops[i].a != b.workload().ops[i].a ||
        a.workload().ops[i].b != b.workload().ops[i].b) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(WindowedStreamTest, WindowsPartitionEveryTransitionExactly) {
  const StreamOptions options = smallOptions();
  const WindowedStream stream = WindowedStream::generate(options);
  // 100 transitions / window 16 -> 7 windows, the last holding 4.
  ASSERT_EQ(stream.windows().size(), 7u);
  std::size_t expected_first = 1;
  for (const Window& w : stream.windows()) {
    EXPECT_EQ(w.first, expected_first);
    EXPECT_GT(w.last, w.first);
    EXPECT_LE(w.cycles(), options.window);
    expected_first = w.last;
  }
  EXPECT_EQ(expected_first, options.cycles);  // one past the final transition
}

TEST(WindowedStreamTest, CornerWalkStaysOnGridWithBoundedSteps) {
  StreamOptions options = smallOptions();
  options.cycles = 1025;
  options.window = 8;  // long walk: 128 windows
  const WindowedStream stream = WindowedStream::generate(options);
  const core::OperatingGrid& grid = options.grid;
  const Window* prev = nullptr;
  for (const Window& w : stream.windows()) {
    // On-grid: corner = start + k * step for integer k within range.
    const double v_k = (w.corner.voltage - grid.v_start) / grid.v_step;
    const double t_k = (w.corner.temperature - grid.t_start) / grid.t_step;
    EXPECT_NEAR(v_k, std::round(v_k), 1e-6);
    EXPECT_NEAR(t_k, std::round(t_k), 1e-6);
    EXPECT_GE(w.corner.voltage, grid.v_start - 1e-9);
    EXPECT_LE(w.corner.voltage, grid.v_end + 1e-9);
    EXPECT_GE(w.corner.temperature, grid.t_start - 1e-9);
    EXPECT_LE(w.corner.temperature, grid.t_end + 1e-9);
    if (prev != nullptr) {
      EXPECT_LE(std::abs(w.corner.voltage - prev->corner.voltage),
                kMaxCornerStep * grid.v_step + 1e-9);
      EXPECT_LE(std::abs(w.corner.temperature - prev->corner.temperature),
                kMaxCornerStep * grid.t_step + 1e-9);
    }
    prev = &w;
  }
  // The walk actually moves (a frozen corner would make the scenario
  // trivially static).
  bool moved = false;
  for (const Window& w : stream.windows()) {
    if (w.corner.voltage != stream.windows()[0].corner.voltage ||
        w.corner.temperature != stream.windows()[0].corner.temperature) {
      moved = true;
      break;
    }
  }
  EXPECT_TRUE(moved);
}

TEST(WindowedStreamTest, WindowWorkloadReproducesModelQueries) {
  const WindowedStream stream = WindowedStream::generate(smallOptions());
  const Window& w = stream.windows()[2];
  const dta::Workload sub = stream.windowWorkload(w);
  // Previous operand + the window's operands: cycles() transitions.
  ASSERT_EQ(sub.ops.size(), w.cycles() + 1);
  EXPECT_EQ(sub.ops[0].a, stream.previousOperandAt(w.first).a);
  EXPECT_EQ(sub.ops[0].b, stream.previousOperandAt(w.first).b);
  for (std::size_t t = w.first; t < w.last; ++t) {
    EXPECT_EQ(sub.ops[t - w.first + 1].a, stream.operandAt(t).a);
    EXPECT_EQ(sub.ops[t - w.first + 1].b, stream.operandAt(t).b);
  }
}

TEST(WindowedStreamTest, WindowLargerThanStreamDegeneratesToOne) {
  StreamOptions options = smallOptions();
  options.cycles = 9;  // 8 transitions
  options.window = 1000;
  const WindowedStream stream = WindowedStream::generate(options);
  ASSERT_EQ(stream.windows().size(), 1u);
  EXPECT_EQ(stream.windows()[0].first, 1u);
  EXPECT_EQ(stream.windows()[0].last, 9u);
  EXPECT_EQ(stream.windows()[0].cycles(), 8u);
}

TEST(WindowedStreamTest, SingleOperandStreamHasNoWindows) {
  StreamOptions options = smallOptions();
  options.cycles = 1;  // state-setting operand only: zero transitions
  const WindowedStream stream = WindowedStream::generate(options);
  EXPECT_TRUE(stream.windows().empty());
}

}  // namespace
}  // namespace tevot::dvfs
