// Unit tests for the gate-level datapath components: adders, shifters,
// compressors, comparators and leading-zero counters, checked against
// word-level arithmetic over random and edge-case operands.
#include "circuits/components.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <type_traits>

#include "netlist/wordbus.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace tevot::circuits {
namespace {

using netlist::Bus;
using netlist::Netlist;

/// Packs input operands into the flat input-value vector of a netlist
/// whose inputs were declared as consecutive buses.
std::vector<std::uint8_t> packInputs(
    std::initializer_list<std::pair<std::uint64_t, int>> operands) {
  std::vector<std::uint8_t> values;
  for (const auto& [word, width] : operands) {
    for (int i = 0; i < width; ++i) {
      values.push_back(static_cast<std::uint8_t>((word >> i) & 1ULL));
    }
  }
  return values;
}

TEST(HalfFullAdderTest, TruthTables) {
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      Netlist nl("ha");
      const auto ia = nl.addInput("a");
      const auto ib = nl.addInput("b");
      const SumCarry ha = halfAdder(nl, ia, ib);
      nl.markOutput(ha.sum);
      nl.markOutput(ha.carry);
      const std::uint8_t in[2] = {static_cast<std::uint8_t>(a),
                                  static_cast<std::uint8_t>(b)};
      const std::uint64_t out = nl.evalOutputsWord({in, 2});
      EXPECT_EQ(out & 1u, static_cast<unsigned>((a + b) & 1));
      EXPECT_EQ((out >> 1) & 1u, static_cast<unsigned>((a + b) >> 1));
    }
  }
  for (int bits = 0; bits < 8; ++bits) {
    Netlist nl("fa");
    const auto ia = nl.addInput("a");
    const auto ib = nl.addInput("b");
    const auto ic = nl.addInput("c");
    const SumCarry fa = fullAdder(nl, ia, ib, ic);
    nl.markOutput(fa.sum);
    nl.markOutput(fa.carry);
    const int a = bits & 1, b = (bits >> 1) & 1, c = (bits >> 2) & 1;
    const std::uint8_t in[3] = {static_cast<std::uint8_t>(a),
                                static_cast<std::uint8_t>(b),
                                static_cast<std::uint8_t>(c)};
    const std::uint64_t out = nl.evalOutputsWord({in, 3});
    EXPECT_EQ(out & 1u, static_cast<unsigned>((a + b + c) & 1));
    EXPECT_EQ((out >> 1) & 1u, static_cast<unsigned>((a + b + c) >> 1));
  }
}

// gtest names each instance after the bytes of its AdderCase, so the
// struct must have no padding: padding bytes are indeterminate and would
// give the same case a different test name from one run to the next.
struct AdderCase {
  std::int32_t width;
  std::int32_t kogge_stone;  // 0 = ripple carry, 1 = Kogge-Stone
};
static_assert(std::has_unique_object_representations_v<AdderCase>);

class AdderParamTest : public ::testing::TestWithParam<AdderCase> {};

TEST_P(AdderParamTest, MatchesWordAddition) {
  const AdderCase param = GetParam();
  Netlist nl("adder");
  const Bus a = netlist::addInputBus(nl, "a", param.width);
  const Bus b = netlist::addInputBus(nl, "b", param.width);
  const auto cin = nl.addInput("cin");
  const AdderResult result =
      param.kogge_stone ? koggeStoneAdder(nl, a, b, cin)
                        : rippleCarryAdder(nl, a, b, cin);
  netlist::markOutputBus(nl, result.sum, "s");
  nl.markOutput(result.carry, "cout");
  nl.validate();

  util::Rng rng(42 + static_cast<unsigned>(param.width));
  const std::uint64_t mask = param.width == 64
                                 ? ~0ULL
                                 : (1ULL << param.width) - 1;
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t x = rng.next() & mask;
    const std::uint64_t y = rng.next() & mask;
    const std::uint64_t c = trial & 1;
    auto in = packInputs({{x, param.width}, {y, param.width}, {c, 1}});
    const std::uint64_t out = nl.evalOutputsWord(in);
    const unsigned __int128 exact = static_cast<unsigned __int128>(x) + y + c;
    const std::uint64_t want_sum = static_cast<std::uint64_t>(exact) & mask;
    const std::uint64_t want_carry =
        static_cast<std::uint64_t>(exact >> param.width) & 1;
    EXPECT_EQ(out & mask, want_sum) << "x=" << x << " y=" << y;
    EXPECT_EQ((out >> param.width) & 1, want_carry);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, AdderParamTest,
    ::testing::Values(AdderCase{1, true}, AdderCase{2, true},
                      AdderCase{3, true}, AdderCase{8, true},
                      AdderCase{13, true}, AdderCase{32, true},
                      AdderCase{48, true}, AdderCase{1, false},
                      AdderCase{8, false}, AdderCase{32, false}));

TEST(SubtractorTest, DiffAndBorrow) {
  Netlist nl("sub");
  const Bus a = netlist::addInputBus(nl, "a", 16);
  const Bus b = netlist::addInputBus(nl, "b", 16);
  const SubResult result = subtractor(nl, a, b);
  netlist::markOutputBus(nl, result.diff, "d");
  nl.markOutput(result.borrow, "borrow");

  util::Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t x = rng.nextU32() & 0xffff;
    const std::uint32_t y = rng.nextU32() & 0xffff;
    auto in = packInputs({{x, 16}, {y, 16}});
    const std::uint64_t out = nl.evalOutputsWord(in);
    EXPECT_EQ(out & 0xffff, (x - y) & 0xffff);
    EXPECT_EQ((out >> 16) & 1, y > x ? 1u : 0u);
  }
}

TEST(AddSubTest, SelectsOperation) {
  Netlist nl("addsub");
  const Bus a = netlist::addInputBus(nl, "a", 12);
  const Bus b = netlist::addInputBus(nl, "b", 12);
  const auto sub = nl.addInput("sub");
  const AdderResult result = addSub(nl, a, b, sub);
  netlist::markOutputBus(nl, result.sum, "r");

  util::Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t x = rng.nextU32() & 0xfff;
    const std::uint32_t y = rng.nextU32() & 0xfff;
    const std::uint32_t do_sub = trial & 1;
    auto in = packInputs({{x, 12}, {y, 12}, {do_sub, 1}});
    const std::uint64_t out = nl.evalOutputsWord(in);
    const std::uint32_t want = do_sub ? (x - y) & 0xfff : (x + y) & 0xfff;
    EXPECT_EQ(out & 0xfff, want);
  }
}

TEST(ReductionTreeTest, OrAndNorOverWidths) {
  for (int width = 1; width <= 9; ++width) {
    for (std::uint32_t value = 0;
         value < (1u << width); ++value) {
      Netlist nl("tree");
      const Bus in = netlist::addInputBus(nl, "x", width);
      nl.markOutput(orTree(nl, in));
      nl.markOutput(andTree(nl, in));
      nl.markOutput(norTree(nl, in));
      auto bits = packInputs({{value, width}});
      const std::uint64_t out = nl.evalOutputsWord(bits);
      const bool any = value != 0;
      const bool all = value == (1u << width) - 1;
      EXPECT_EQ(out & 1, any ? 1u : 0u);
      EXPECT_EQ((out >> 1) & 1, all ? 1u : 0u);
      EXPECT_EQ((out >> 2) & 1, any ? 0u : 1u);
    }
  }
}

TEST(ReductionTreeTest, EmptyBusYieldsIdentity) {
  Netlist nl("tree0");
  // Keep one dummy input so evaluation has an input vector.
  nl.addInput("dummy");
  nl.markOutput(orTree(nl, {}));
  nl.markOutput(andTree(nl, {}));
  const std::uint8_t in[1] = {0};
  const std::uint64_t out = nl.evalOutputsWord({in, 1});
  EXPECT_EQ(out & 1, 0u);
  EXPECT_EQ((out >> 1) & 1, 1u);
}

TEST(ComparatorTest, EqualAndGreater) {
  Netlist nl("cmp");
  const Bus a = netlist::addInputBus(nl, "a", 10);
  const Bus b = netlist::addInputBus(nl, "b", 10);
  nl.markOutput(equalBus(nl, a, b));
  nl.markOutput(greaterThan(nl, a, b));

  util::Rng rng(13);
  for (int trial = 0; trial < 400; ++trial) {
    std::uint32_t x = rng.nextU32() & 0x3ff;
    std::uint32_t y = (trial % 5 == 0) ? x : rng.nextU32() & 0x3ff;
    auto in = packInputs({{x, 10}, {y, 10}});
    const std::uint64_t out = nl.evalOutputsWord(in);
    EXPECT_EQ(out & 1, x == y ? 1u : 0u);
    EXPECT_EQ((out >> 1) & 1, x > y ? 1u : 0u);
  }
}

TEST(ShifterTest, RightShiftWithSticky) {
  Netlist nl("shr");
  const Bus value = netlist::addInputBus(nl, "v", 27);
  const Bus shamt = netlist::addInputBus(nl, "s", 5);
  const ShiftResult result = shiftRightSticky(nl, value, shamt);
  netlist::markOutputBus(nl, result.value, "o");
  nl.markOutput(result.sticky, "sticky");

  util::Rng rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint32_t v = rng.nextU32() & ((1u << 27) - 1);
    const std::uint32_t s = rng.nextU32() & 31;
    auto in = packInputs({{v, 27}, {s, 5}});
    const std::uint64_t out = nl.evalOutputsWord(in);
    const std::uint32_t want = s >= 27 ? 0 : v >> s;
    const bool want_sticky =
        s > 0 && (v & ((s >= 32 ? ~0u : (1u << s) - 1))) != 0;
    EXPECT_EQ(out & ((1u << 27) - 1), want) << "v=" << v << " s=" << s;
    EXPECT_EQ((out >> 27) & 1, want_sticky ? 1u : 0u)
        << "v=" << v << " s=" << s;
  }
}

TEST(ShifterTest, LeftShift) {
  Netlist nl("shl");
  const Bus value = netlist::addInputBus(nl, "v", 27);
  const Bus shamt = netlist::addInputBus(nl, "s", 5);
  netlist::markOutputBus(nl, shiftLeft(nl, value, shamt), "o");

  util::Rng rng(19);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint32_t v = rng.nextU32() & ((1u << 27) - 1);
    const std::uint32_t s = rng.nextU32() & 31;
    auto in = packInputs({{v, 27}, {s, 5}});
    const std::uint64_t out = nl.evalOutputsWord(in);
    const std::uint32_t want =
        s >= 27 ? 0 : (v << s) & ((1u << 27) - 1);
    EXPECT_EQ(out, want) << "v=" << v << " s=" << s;
  }
}

class LzcParamTest : public ::testing::TestWithParam<int> {};

TEST_P(LzcParamTest, CountsLeadingZeros) {
  const int width = GetParam();
  Netlist nl("lzc");
  const Bus value = netlist::addInputBus(nl, "v", width);
  const LzcResult result = leadingZeroCount(nl, value);
  netlist::markOutputBus(nl, result.count, "c");
  nl.markOutput(result.all_zero, "z");
  const int count_bits = static_cast<int>(result.count.size());

  util::Rng rng(23 + static_cast<unsigned>(width));
  auto check = [&](std::uint64_t v) {
    auto in = packInputs({{v, width}});
    const std::uint64_t out = nl.evalOutputsWord(in);
    const bool all_zero = v == 0;
    EXPECT_EQ((out >> count_bits) & 1, all_zero ? 1u : 0u);
    if (!all_zero) {
      int lz = 0;
      for (int bit = width - 1; bit >= 0 && ((v >> bit) & 1) == 0; --bit) {
        ++lz;
      }
      EXPECT_EQ(out & ((1u << count_bits) - 1),
                static_cast<std::uint64_t>(lz))
          << "v=" << v << " width=" << width;
    }
  };
  check(0);
  for (int bit = 0; bit < width; ++bit) check(1ULL << bit);
  for (int trial = 0; trial < 200; ++trial) {
    check(rng.next() & ((width == 64 ? 0 : (1ULL << width)) - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LzcParamTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 27, 28, 48));

TEST(MultiplierTest, LowWordProduct) {
  for (const int width : {4, 8, 12}) {
    Netlist nl("mul");
    const Bus a = netlist::addInputBus(nl, "a", width);
    const Bus b = netlist::addInputBus(nl, "b", width);
    netlist::markOutputBus(nl, multiplyUnsigned(nl, a, b, width), "p");
    nl.validate();
    const std::uint32_t mask = (1u << width) - 1;
    util::Rng rng(29);
    for (int trial = 0; trial < 300; ++trial) {
      const std::uint32_t x = rng.nextU32() & mask;
      const std::uint32_t y = rng.nextU32() & mask;
      auto in = packInputs({{x, width}, {y, width}});
      EXPECT_EQ(nl.evalOutputsWord(in), (x * y) & mask);
    }
  }
}

TEST(MultiplierTest, FullWidthProduct) {
  Netlist nl("mulw");
  const Bus a = netlist::addInputBus(nl, "a", 12);
  const Bus b = netlist::addInputBus(nl, "b", 12);
  netlist::markOutputBus(nl, multiplyUnsigned(nl, a, b, 24), "p");
  util::Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t x = rng.nextU32() & 0xfff;
    const std::uint32_t y = rng.nextU32() & 0xfff;
    auto in = packInputs({{x, 12}, {y, 12}});
    EXPECT_EQ(nl.evalOutputsWord(in),
              static_cast<std::uint64_t>(x) * y);
  }
}

TEST(IncrementerTest, AddsSingleBit) {
  Netlist nl("inc");
  const Bus value = netlist::addInputBus(nl, "v", 10);
  const auto inc = nl.addInput("i");
  const AdderResult result = incrementer(nl, value, inc);
  netlist::markOutputBus(nl, result.sum, "o");
  nl.markOutput(result.carry, "c");
  for (const std::uint32_t v : {0u, 1u, 511u, 1022u, 1023u}) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      auto in = packInputs({{v, 10}, {i, 1}});
      const std::uint64_t out = nl.evalOutputsWord(in);
      EXPECT_EQ(out & 0x3ff, (v + i) & 0x3ff);
      EXPECT_EQ((out >> 10) & 1, (v + i) >> 10);
    }
  }
}

TEST(CompressColumnsTest, ReducesAddendMatrix) {
  // Sum five 6-bit numbers via column compression + final adder.
  Netlist nl("csa");
  std::vector<Bus> addends;
  for (int k = 0; k < 5; ++k) {
    // snprintf dodges a spurious GCC 12 -Wrestrict on the string
    // operator+ expansion at -O3.
    char buf[16];
    std::snprintf(buf, sizeof(buf), "x%d", k);
    addends.push_back(netlist::addInputBus(nl, buf, 6));
  }
  std::vector<std::vector<netlist::NetId>> columns(9);
  for (const Bus& addend : addends) {
    for (std::size_t i = 0; i < addend.size(); ++i) {
      columns[i].push_back(addend[i]);
    }
  }
  const TwoRows rows = compressColumns(nl, std::move(columns));
  const AdderResult sum =
      koggeStoneAdder(nl, rows.row_a, rows.row_b, nl.addConst(false));
  netlist::markOutputBus(nl, sum.sum, "s");
  nl.validate();

  util::Rng rng(37);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t expect = 0;
    std::vector<std::uint8_t> in;
    for (int k = 0; k < 5; ++k) {
      const std::uint32_t v = rng.nextU32() & 0x3f;
      expect += v;
      for (int i = 0; i < 6; ++i) {
        in.push_back(static_cast<std::uint8_t>((v >> i) & 1));
      }
    }
    EXPECT_EQ(nl.evalOutputsWord(in), expect & 0x1ff);
  }
}

}  // namespace
}  // namespace tevot::circuits
