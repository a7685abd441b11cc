// Malformed-input tests for every text format the toolchain parses
// (SDF, Liberty, Verilog, VCD) and for the token cursor they share:
// empty input, truncation at every byte offset, non-finite numbers,
// trailing bytes and plain garbage must all raise util::StatusError
// with kParseError — never crash, never return a silently partial
// parse. Truncation sweeps cut a VALID document at every prefix
// length, which walks the parser into every mid-token state. The file
// writers are checked the same way from the other side: a write that
// fails is a kIoError and leaves the previous file in place.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "circuits/fu.hpp"
#include "liberty/lib_format.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "sdf/sdf.hpp"
#include "sim/vcd_dump.hpp"
#include "tevot/pipeline.hpp"
#include "util/status.hpp"
#include "util/text_io.hpp"
#include "vcd/vcd.hpp"

namespace tevot {
namespace {

/// Success when `parse` throws util::StatusError with kParseError.
testing::AssertionResult isParseError(const std::function<void()>& parse) {
  try {
    parse();
  } catch (const util::StatusError& error) {
    if (error.status().code == util::StatusCode::kParseError) {
      return testing::AssertionSuccess();
    }
    return testing::AssertionFailure() << "wrong code: " << error.what();
  } catch (const std::exception& error) {
    return testing::AssertionFailure() << "untyped error: " << error.what();
  }
  return testing::AssertionFailure() << "parsed";
}

/// Cuts `text` at every byte offset: each prefix but the one missing
/// only the final newline must be a kParseError, and that one and the
/// whole text must parse.
void expectEveryCutFails(const std::string& text,
                         const std::function<void(std::string_view)>& parse) {
  ASSERT_TRUE(text.ends_with('\n'));
  for (std::size_t cut = 0; cut + 1 < text.size(); ++cut) {
    EXPECT_TRUE(isParseError([&] { parse(text.substr(0, cut)); }))
        << "prefix of " << cut << " bytes";
  }
  EXPECT_NO_THROW(parse(text.substr(0, text.size() - 1)));
  EXPECT_NO_THROW(parse(text));
}

/// Replaces the first `from` in `text` with `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(TextTokenTest, SplitsPunctuationQuotesAndComments) {
  util::TextReader in(
      "(CELL // line )\n \"a b\"/* block ( */x:y)/**/\"\" \n");
  for (const char* want : {"(", "CELL", "\"a b\"", "x", ":", "y", ")",
                           "\"\""}) {
    EXPECT_EQ(in.token("():", "token"), want);
  }
  in.expectEnd("tokens");
  EXPECT_TRUE(isParseError([&] { in.token("():", "token"); }));
}

TEST(TextTokenTest, UnterminatedStringOrCommentIsAParseError) {
  for (const char* text : {"a \"open", "a /* open", "a /* open *"}) {
    util::TextReader in(text);
    EXPECT_EQ(in.token("", "word"), "a");
    try {
      in.token("", "word");
      ADD_FAILURE() << text;
    } catch (const util::StatusError& error) {
      EXPECT_NE(error.status().message.find("at byte 2"), std::string::npos)
          << error.what();
    }
  }
}

TEST(TextTokenTest, DecimalIsOneFiniteDecimalToken) {
  util::TextReader in("0.90000000000000002:-1.5e-3;50");
  EXPECT_EQ(in.decimal(":;", "number"), 0.9);
  in.token(":;", ":");
  EXPECT_EQ(in.decimal(":;", "number"), -1.5e-3);
  in.token(":;", ";");
  EXPECT_EQ(in.decimal(":;", "number"), 50.0);
  for (const char* bad :
       {"nan", "inf", "-inf", "1e400", "+1", "0x1p0", "1.5x", "\"1\"", ".",
        ":"}) {
    EXPECT_TRUE(isParseError(
        [&] { util::TextReader(bad).decimal(":", "number"); }))
        << bad;
  }
}

/// A real netlist + SDF pair to truncate and corrupt.
class MalformedSdfTest : public testing::Test {
 protected:
  MalformedSdfTest() : context_(circuits::FuKind::kIntAdd) {
    sdf_text_ = sdf::toSdfString(context_.netlist(),
                                 context_.delaysAt({0.9, 50.0}));
  }
  testing::AssertionResult parseFails(const std::string& text) const {
    return isParseError(
        [&] { sdf::parseSdfString(text, context_.netlist()); });
  }
  core::FuContext context_;
  std::string sdf_text_;
};

TEST_F(MalformedSdfTest, ValidTextRoundTrips) {
  EXPECT_NO_THROW(sdf::parseSdfString(sdf_text_, context_.netlist()));
}

TEST_F(MalformedSdfTest, EmptyAndGarbageAreTypedErrors) {
  EXPECT_TRUE(parseFails(""));
  EXPECT_TRUE(parseFails("hello world"));
  EXPECT_TRUE(parseFails("(DELAYFILE (BOGUS))"));
}

TEST_F(MalformedSdfTest, EveryTruncationIsATypedError) {
  expectEveryCutFails(sdf_text_, [&](std::string_view text) {
    sdf::parseSdfString(text, context_.netlist());
  });
}

TEST_F(MalformedSdfTest, BytesAfterTheClosingParenAreRejected) {
  EXPECT_TRUE(parseFails(sdf_text_ + "garbage ((("));
  EXPECT_TRUE(parseFails(sdf_text_ + sdf_text_));
}

TEST_F(MalformedSdfTest, HeaderTriplesAreThreeEqualFiniteNumbers) {
  const std::string voltage = "(VOLTAGE 0.90000000000000002:"
                              "0.90000000000000002:0.90000000000000002)";
  EXPECT_TRUE(parseFails(replaced(sdf_text_, voltage, "(VOLTAGE 0.9:zz:qq)")));
  EXPECT_TRUE(parseFails(replaced(sdf_text_, voltage, "(VOLTAGE 0.9)")));
  EXPECT_TRUE(
      parseFails(replaced(sdf_text_, voltage, "(VOLTAGE 0.9:0.9:1.0)")));
  EXPECT_TRUE(parseFails(replaced(sdf_text_, "(TEMPERATURE 50:50:50)",
                                  "(TEMPERATURE 50:50:51)")));
}

TEST_F(MalformedSdfTest, NonFiniteDelaysAreRejected) {
  EXPECT_TRUE(parseFails("(DELAYFILE (VOLTAGE nan:nan:nan))"));
  EXPECT_TRUE(parseFails("(DELAYFILE (TEMPERATURE inf:inf:inf))"));
  // A non-finite IOPATH delay inside an otherwise valid file.
  std::string mutated = sdf_text_;
  const std::size_t iopath = mutated.find("(IOPATH * ");
  ASSERT_NE(iopath, std::string::npos);
  const std::size_t open = mutated.find('(', iopath + 10);
  const std::size_t close = mutated.find(')', open);
  ASSERT_NE(close, std::string::npos);
  mutated.replace(open, close - open + 1, "(inf:inf:inf)");
  EXPECT_TRUE(parseFails(mutated));
}

TEST_F(MalformedSdfTest, BadInstanceNumbersAreRejected) {
  EXPECT_TRUE(parseFails(
      "(DELAYFILE (CELL (CELLTYPE \"nand2\") (INSTANCE gXYZ)))"));
  EXPECT_TRUE(parseFails(
      "(DELAYFILE (CELL (CELLTYPE \"nand2\") (INSTANCE g999999999)))"));
  // None of these is "g" and the plain digits of gate 5; a lenient
  // integer read took the first two for gate 5.
  for (const char* bad : {"g+5", "g05", "g5x", "G5", "g 5"}) {
    EXPECT_TRUE(parseFails(replaced(sdf_text_, "(INSTANCE g5)",
                                    std::string("(INSTANCE ") + bad + ")")))
        << bad;
  }
}

class MalformedLibertyTest : public testing::Test {
 protected:
  MalformedLibertyTest() {
    liberty::LibertyLibrary library;
    library.cells = liberty::CellLibrary::defaultLibrary();
    lib_text_ = liberty::toLibertyString(library);
  }
  static testing::AssertionResult parseFails(const std::string& text) {
    return isParseError([&] { liberty::parseLibertyString(text); });
  }
  std::string lib_text_;
};

TEST_F(MalformedLibertyTest, ValidTextRoundTrips) {
  EXPECT_NO_THROW(liberty::parseLibertyString(lib_text_));
}

TEST_F(MalformedLibertyTest, EmptyAndGarbageAreTypedErrors) {
  EXPECT_TRUE(parseFails(""));
  EXPECT_TRUE(parseFails("not a library"));
  EXPECT_TRUE(parseFails("library (x) { cell (zzz) {} }"));
}

TEST_F(MalformedLibertyTest, EveryTruncationIsATypedError) {
  expectEveryCutFails(lib_text_, [](std::string_view text) {
    liberty::parseLibertyString(text);
  });
}

TEST_F(MalformedLibertyTest, BytesAfterTheLibraryGroupAreRejected) {
  EXPECT_TRUE(parseFails(lib_text_ + "}}} nonsense"));
  EXPECT_TRUE(parseFails(lib_text_ + lib_text_));
}

TEST_F(MalformedLibertyTest, NonFiniteNumbersAreRejected) {
  EXPECT_TRUE(parseFails("library (x) { nom_voltage : nan ; }"));
  EXPECT_TRUE(parseFails("library (x) { nom_voltage : inf ; }"));
  EXPECT_TRUE(parseFails("library (x) { nom_voltage : 0.9abc ; }"));
}

class MalformedVerilogTest : public testing::Test {
 protected:
  MalformedVerilogTest()
      : verilog_text_(netlist::toVerilogString(
            circuits::buildFu(circuits::FuKind::kIntAdd))) {}
  static testing::AssertionResult parseFails(const std::string& text) {
    return isParseError([&] { netlist::parseVerilogString(text); });
  }
  std::string verilog_text_;
};

TEST_F(MalformedVerilogTest, EmptyGarbageAndBadModulesAreTypedErrors) {
  EXPECT_TRUE(parseFails(""));
  EXPECT_TRUE(parseFails("what even is this"));
  EXPECT_TRUE(parseFails("module m (); /* open comment endmodule"));
  EXPECT_TRUE(parseFails("module m (a, q); input [3:0] a; endmodule"));
  // Errors found once the whole module is read are typed too.
  EXPECT_TRUE(parseFails(
      "module m (a, q); input a; output q; wire w1; wire w2;\n"
      "INV g0 (.Y(w1), .A(w2)); INV g1 (.Y(w2), .A(w1));\n"
      "assign q = w1; endmodule"));
  EXPECT_TRUE(parseFails("module m (a, q); input a; output q; endmodule"));
}

TEST_F(MalformedVerilogTest, PortListIsExactlyTheInputsAndOutputs) {
  // Ports x and y were declared nowhere, and a and q were no ports.
  EXPECT_TRUE(parseFails(
      "module m (x, y); input a; output q; wire w;\n"
      "INV g0 (.Y(w), .A(a)); assign q = w; endmodule"));
  EXPECT_TRUE(parseFails(  // output q left out
      "module m (a); input a; output q; wire w;\n"
      "INV g0 (.Y(w), .A(a)); assign q = w; endmodule"));
  EXPECT_TRUE(parseFails(  // a wire is no port
      "module m (a, q, w); input a; output q; wire w;\n"
      "INV g0 (.Y(w), .A(a)); assign q = w; endmodule"));
  EXPECT_TRUE(parseFails(
      "module m (a, a, q); input a; output q; wire w;\n"
      "INV g0 (.Y(w), .A(a)); assign q = w; endmodule"));
  EXPECT_NO_THROW(netlist::parseVerilogString(
      "module m (q, a); input a; output q; wire w;\n"
      "INV g0 (.Y(w), .A(a)); assign q = w; endmodule"));
}

TEST_F(MalformedVerilogTest, AssignOntoAnInputIsRejected) {
  // It rebound input a to a constant driver.
  for (const char* rhs : {"1'b1", "w"}) {
    const std::string text =
        "module m (a, q); input a; output q; wire w;\n"
        "INV g0 (.Y(w), .A(a)); assign q = w; assign a = " +
        std::string(rhs) + "; endmodule";
    EXPECT_TRUE(parseFails(text)) << rhs;
  }
}

TEST_F(MalformedVerilogTest, EveryTruncationIsATypedError) {
  expectEveryCutFails(verilog_text_, [](std::string_view text) {
    netlist::parseVerilogString(text);
  });
}

TEST_F(MalformedVerilogTest, BytesAfterEndmoduleAreRejected) {
  EXPECT_TRUE(parseFails(verilog_text_ + "extra"));
  EXPECT_TRUE(parseFails(verilog_text_ + "// trailing comment\n"));
  EXPECT_TRUE(parseFails(verilog_text_ + verilog_text_));
}

TEST(MalformedVcdTest, EmptyAndGarbageAreTypedErrors) {
  const auto fails = [](const std::string& text) {
    return isParseError([&] { vcd::parseVcdString(text); });
  };
  EXPECT_TRUE(fails("what even is this"));
  EXPECT_TRUE(fails("$var wire 1 ! clk"));  // missing $end
  EXPECT_TRUE(fails("$var wire 32 ! bus $end"));
  EXPECT_TRUE(fails("$date tevot"));        // missing $end
  EXPECT_TRUE(fails("$end"));               // closes no section
}

TEST(MalformedVcdTest, BadTimestampsAreTypedErrors) {
  const std::string header =
      "$var wire 1 ! clk $end $enddefinitions $end ";
  const auto fails = [&](const std::string& body) {
    return isParseError([&] { vcd::parseVcdString(header + body); });
  };
  EXPECT_TRUE(fails("#12abc 1!"));
  EXPECT_TRUE(fails("# 1!"));
  EXPECT_TRUE(fails("#99999999999999999999999 1!"));
  EXPECT_TRUE(fails("#-1 1!"));
  EXPECT_NO_THROW(vcd::parseVcdString(header + "#5 1!"));
}

TEST(MalformedVcdTest, TimeGoingBackwardsIsAParseError) {
  // Changes are ordered by time; "#3" after "#5" gave a second change
  // earlier than the first.
  const std::string header =
      "$var wire 1 ! clk $end $enddefinitions $end ";
  try {
    vcd::parseVcdString(header + "#5 1! #3 0!");
    ADD_FAILURE() << "parsed";
  } catch (const util::StatusError& error) {
    EXPECT_EQ(error.status().code, util::StatusCode::kParseError);
    EXPECT_NE(error.status().message.find("at byte"), std::string::npos)
        << error.status().message;
  }
  EXPECT_EQ(vcd::parseVcdString(header + "#5 1! #5 0! #6 1!").changes.size(),
            3u);
}

TEST(MalformedVcdTest, ReusedIdCodeIsAParseError) {
  // The second $var renamed signal 0 to b and a was lost.
  try {
    vcd::parseVcdString(
        "$var wire 1 ! a $end $var wire 1 ! b $end $enddefinitions $end "
        "#0 1!");
    ADD_FAILURE() << "parsed";
  } catch (const util::StatusError& error) {
    EXPECT_EQ(error.status().code, util::StatusCode::kParseError);
    EXPECT_NE(error.status().message.find("at byte"), std::string::npos)
        << error.status().message;
  }
}

TEST(MalformedVcdTest, ChangesBeforeDefinitionsOrUnknownSignalsFail) {
  EXPECT_TRUE(isParseError([] { vcd::parseVcdString("1!"); }));
  EXPECT_TRUE(isParseError([] {
    vcd::parseVcdString("$var wire 1 ! clk $end $enddefinitions $end #0 1\"");
  }));
}

TEST(MalformedVcdTest, ChangeWithoutIdCodeFails) {
  // Read as a change of signal 0, a cut after "#6 0" gained a change.
  const std::string header =
      "$var wire 1 ! clk $end $enddefinitions $end ";
  EXPECT_TRUE(isParseError([&] { vcd::parseVcdString(header + "#5 1"); }));
  EXPECT_TRUE(
      isParseError([&] { vcd::parseVcdString(header + "#5 1!\n#6 0"); }));
}

TEST(MalformedVcdTest, EnddefinitionsNeedsItsEnd) {
  // Without the check, "#7" was taken for the $end and the change
  // landed at t=0.
  EXPECT_TRUE(isParseError([] {
    vcd::parseVcdString("$var wire 1 ! clk $end $enddefinitions #7 1!");
  }));
}

TEST(MalformedVcdTest, TruncationParsesOnlyAtRecordEnds) {
  // A real dump of four INT ADD cycles (33 output signals, one-byte
  // id codes, one record per line).
  const netlist::Netlist nl = circuits::buildFu(circuits::FuKind::kIntAdd);
  const liberty::CornerDelays delays = liberty::annotateCorner(
      nl, liberty::CellLibrary::defaultLibrary(), liberty::VtModel(),
      {0.9, 50.0});
  std::vector<std::vector<std::uint8_t>> vectors;
  for (std::uint32_t i = 0; i < 5; ++i) {
    vectors.push_back(
        circuits::encodeOperands(0x9e3779b9u * i, 0x7f4a7c15u ^ (i << 7)));
  }
  std::ostringstream os;
  sim::dumpWorkloadVcd(os, nl, delays, vectors);
  const std::string text = os.str();
  const vcd::VcdData whole = vcd::parseVcdString(text);
  ASSERT_GT(whole.changes.size(), 33u);

  // The time of the timestamp before each timestamp line.
  ASSERT_TRUE(text.ends_with('\n'));
  std::map<std::size_t, std::uint64_t> time_before;
  std::uint64_t last_time = 0;
  for (std::size_t at = 0; at < text.size(); at = text.find('\n', at) + 1) {
    if (text[at] != '#') continue;
    time_before[at] = last_time;
    ASSERT_TRUE(util::parseInteger(
        std::string_view(text).substr(at + 1, text.find('\n', at) - at - 1),
        &last_time));
  }

  // VCD has no end marker, so a cut parses exactly when it ends a line
  // (a whole record) or falls inside a timestamp's digits and leaves a
  // time no earlier than the one before; the parse then holds a prefix
  // of the changes. Every other cut — inside a section, a $var,
  // "$enddefinitions $end", a keyword or a value change, or a cut
  // timestamp that goes back in time — is a kParseError.
  std::size_t parsed = 0;
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::size_t line = cut == 0 ? 0 : text.rfind('\n', cut - 1) + 1;
    const bool record_end = cut == 0 || cut == text.size() ||
                            text[cut] == '\n' || text[cut - 1] == '\n';
    std::uint64_t cut_time = 0;
    const bool in_timestamp =
        text[line] == '#' && cut >= line + 2 &&
        util::parseInteger(
            std::string_view(text).substr(line + 1, cut - line - 1),
            &cut_time) &&
        cut_time >= time_before[line];
    const std::string prefix = text.substr(0, cut);
    if (record_end || in_timestamp) {
      const vcd::VcdData data = vcd::parseVcdString(prefix);
      ASSERT_LE(data.changes.size(), whole.changes.size()) << cut;
      for (std::size_t i = 0; i < data.changes.size(); ++i) {
        EXPECT_EQ(data.changes[i].time_ps, whole.changes[i].time_ps) << cut;
        EXPECT_EQ(data.changes[i].signal, whole.changes[i].signal) << cut;
        EXPECT_EQ(data.changes[i].value, whole.changes[i].value) << cut;
      }
      ++parsed;
    } else {
      EXPECT_TRUE(isParseError([&] { vcd::parseVcdString(prefix); }))
          << "prefix of " << cut << " bytes";
    }
  }
  EXPECT_LT(parsed, text.size() / 2);
}

/// Runs `write` in a child whose files may not grow past 1 KiB (with
/// SIGXFSZ ignored, so the write fails instead of killing it) and
/// returns the child's exit code: 0 when `write` threw kIoError, 1 when
/// it returned, 2 on any other error.
int writeUnderFileSizeLimit(const std::function<void()>& write) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{1024, 1024};
    ::setrlimit(RLIMIT_FSIZE, &limit);
    try {
      write();
    } catch (const util::StatusError& error) {
      ::_exit(error.status().code == util::StatusCode::kIoError ? 0 : 2);
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(1);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(FormatWriterTest, FailedWriteIsIoErrorAndKeepsTheOldFile) {
  const netlist::Netlist nl = circuits::buildFu(circuits::FuKind::kIntAdd);
  const liberty::CornerDelays delays = liberty::annotateCorner(
      nl, liberty::CellLibrary::defaultLibrary(), liberty::VtModel(),
      {0.9, 50.0});
  liberty::LibertyLibrary library;
  library.cells = liberty::CellLibrary::defaultLibrary();
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "tevot_writer_limit";
  const std::map<std::string, std::function<void(const std::string&)>>
      writers = {
          {"sdf", [&](const std::string& path) {
             sdf::writeSdfFile(path, nl, delays);
           }},
          {"lib", [&](const std::string& path) {
             liberty::writeLibertyFile(path, library);
           }},
          {"v", [&](const std::string& path) {
             netlist::writeVerilogFile(path, nl);
           }},
      };
  for (const auto& [name, write] : writers) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / ("out." + name)).string();
    util::writeFileAtomic(path, "test",
                          [](util::TextWriter& out) { out.text("old\n"); });
    EXPECT_EQ(writeUnderFileSizeLimit([&] { write(path); }), 0) << name;
    EXPECT_EQ(util::readFile(path, "test"), "old\n") << name;
    std::size_t files = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(dir)) {
      ++files;
    }
    EXPECT_EQ(files, 1u) << name << ": a temp file was left behind";
    // Without the limit the same call writes the whole file.
    write(path);
    EXPECT_GT(std::filesystem::file_size(path), 1024u) << name;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tevot
