// VCD writer/parser tests: declaration handling, time ordering,
// id-code round-trips past the single-character range, and error
// paths.
#include "vcd/vcd.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace tevot::vcd {
namespace {

TEST(VcdTest, WriteParseRoundTrip) {
  std::ostringstream os;
  VcdWriter writer(os, "dut");
  const SignalId s0 = writer.addSignal("alpha");
  const SignalId s1 = writer.addSignal("beta");
  writer.beginDump();
  writer.change(10, s0, true);
  writer.change(10, s1, true);
  writer.change(25, s1, false);
  writer.change(40, s0, false);
  writer.finish(100);

  const VcdData data = parseVcdString(os.str());
  EXPECT_EQ(data.timescale, "1ps");
  ASSERT_EQ(data.signal_names.size(), 2u);
  EXPECT_EQ(data.signal_names[0], "alpha");
  EXPECT_EQ(data.signal(std::string("beta")), 1u);
  // Initial-value records (two zeros) plus four changes.
  ASSERT_EQ(data.changes.size(), 6u);
  EXPECT_EQ(data.changes[2].time_ps, 10u);
  EXPECT_EQ(data.changes[2].signal, s0);
  EXPECT_TRUE(data.changes[2].value);
  EXPECT_EQ(data.changes[5].time_ps, 40u);
  EXPECT_FALSE(data.changes[5].value);
}

TEST(VcdTest, ManySignalsIdCodes) {
  // Force multi-character id codes (> 94 signals).
  std::ostringstream os;
  VcdWriter writer(os);
  std::vector<SignalId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(writer.addSignal("sig" + std::to_string(i)));
  }
  writer.beginDump();
  for (int i = 0; i < 200; ++i) {
    writer.change(static_cast<std::uint64_t>(i + 1),
                  ids[static_cast<std::size_t>(i)], true);
  }
  writer.finish(300);
  const VcdData data = parseVcdString(os.str());
  ASSERT_EQ(data.signal_names.size(), 200u);
  EXPECT_EQ(data.signal_names[199], "sig199");
  // Each signal got exactly one initial record plus one set.
  std::size_t sets = 0;
  for (const Change& change : data.changes) {
    if (change.value) {
      EXPECT_EQ(change.time_ps, change.signal + 1);
      ++sets;
    }
  }
  EXPECT_EQ(sets, 200u);
}

TEST(VcdTest, WriterEnforcesProtocol) {
  std::ostringstream os;
  VcdWriter writer(os);
  const SignalId s = writer.addSignal("x");
  EXPECT_THROW(writer.change(0, s, true), std::logic_error);  // no header
  writer.beginDump();
  EXPECT_THROW(writer.addSignal("late"), std::logic_error);
  EXPECT_THROW(writer.beginDump(), std::logic_error);
  writer.change(50, s, true);
  EXPECT_THROW(writer.change(40, s, false), std::logic_error);  // backwards
  EXPECT_THROW(writer.change(60, 99, true), std::out_of_range);
}

TEST(VcdTest, ParserRejectsGarbage) {
  EXPECT_THROW(parseVcdString("not a vcd"), std::runtime_error);
  EXPECT_THROW(parseVcdString("$var wire 2 ! bus $end"),
               std::runtime_error);  // vector signals unsupported
  EXPECT_THROW(parseVcdString("$enddefinitions $end\n1!"),
               std::runtime_error);  // change for unknown signal
}

TEST(VcdTest, ParserRejectsIdCodesAboveTheSignalCap) {
  // Five '~' decode to 94^5 - 1: sized by id, signal_names once asked
  // resize() for ~270 GB.
  EXPECT_THROW(parseVcdString("$var wire 1 ~~~~~ huge $end"),
               std::runtime_error);
  // Decodes to UINT64_MAX: id + 1 wrapped to resize(0), followed by an
  // out-of-bounds write.
  EXPECT_THROW(parseVcdString("$var wire 1 hQqj-&?33A wrap $end"),
               std::runtime_error);
  EXPECT_THROW(parseVcdString("$var wire 1 ! a $end\n$enddefinitions $end\n"
                              "1hQqj-&?33A"),
               std::runtime_error);
  try {
    parseVcdString("$var wire 1 ~~~~~ huge $end");
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("VCD parse error"),
              std::string::npos)
        << error.what();
  }
}

TEST(VcdTest, UnknownSignalLookupThrows) {
  const VcdData data = parseVcdString(
      "$timescale 1ps $end\n$var wire 1 ! a $end\n"
      "$enddefinitions $end\n");
  EXPECT_THROW(data.signal(std::string("missing")), std::out_of_range);
}

}  // namespace
}  // namespace tevot::vcd
