// util::TextWriter / util::TextReader: the number rules every saved
// model and sweep checkpoint depends on. A written float must be
// exactly printf's "%.9g" and a written double exactly printf's "%a"
// (the bytes the files have always held), and both must parse back to
// the same bits; the reader must accept only whole, finite, in-range
// numbers and say where it stopped.
#include "util/text_io.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace tevot::util {
namespace {

std::string printfG9(float value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  return buf;
}

std::string printfA(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

std::uint64_t doubleBitsOf(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::uint32_t bitsOf(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

float floatOf(std::uint32_t bits) {
  float value = 0.0f;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Floats whose exact decimal value has ten significant digits ending
/// in 5: "%.9g" must round them half-to-even, like printf.
std::vector<float> roundingTies() {
  std::vector<float> ties;
  for (int e = 1; e <= 40; ++e) {
    for (int m = 1; m < 4096; m += 2) {
      const float value = std::ldexp(static_cast<float>(m), -e);
      char exact[80];
      std::snprintf(exact, sizeof(exact), "%.60e",
                    static_cast<double>(value));
      std::string digits(exact, std::strchr(exact, 'e'));
      digits.erase(1, 1);  // the decimal point
      digits.erase(digits.find_last_not_of('0') + 1);
      if (digits.size() == 10 && digits.back() == '5') {
        ties.push_back(value);
        ties.push_back(-value);
      }
    }
  }
  return ties;
}

/// Edge values, rounding ties and 10^5 random finite bit patterns.
std::vector<float> probeFloats() {
  std::vector<float> values = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      floatOf(0x007fffffu),  // largest denormal
      FLT_MIN,
      -FLT_MIN,
      FLT_MAX,
      -FLT_MAX,
      1.0f,
      0.1f,
      1e-5f,
      123456789.0f,
      std::nextafter(1.0f, 2.0f),
  };
  const std::vector<float> ties = roundingTies();
  values.insert(values.end(), ties.begin(), ties.end());
  Rng rng(0x7e5f10a7);
  while (values.size() < 100000 + ties.size()) {
    const float value = floatOf(rng.nextU32());
    if (std::isfinite(value)) values.push_back(value);
  }
  return values;
}

TEST(TextIoTest, RoundingTieSetIsNotEmpty) {
  // 5 / 2^13 = 0.0006103515625 is one; the probe set must hold many.
  EXPECT_GT(roundingTies().size(), 100u);
}

TEST(TextIoTest, FloatFormatIsPrintfG9AndParsesBackBitExact) {
  const std::vector<float> values = probeFloats();
  std::ostringstream os;
  {
    TextWriter out(os);
    for (const float value : values) out.number(value).text("\n");
  }
  const std::string text = os.str();
  // The whole buffer (far over one 64 KiB chunk) is the printf text.
  std::string expected;
  for (const float value : values) expected += printfG9(value) + "\n";
  ASSERT_EQ(text.size(), expected.size());
  std::size_t line_start = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t line_end = text.find('\n', line_start);
    ASSERT_NE(line_end, std::string::npos);
    ASSERT_EQ(text.substr(line_start, line_end - line_start),
              printfG9(values[i]))
        << "bits 0x" << std::hex << bitsOf(values[i]);
    line_start = line_end + 1;
  }

  TextReader in(text);
  for (const float value : values) {
    const float parsed = in.finiteFloat("value");
    ASSERT_EQ(bitsOf(parsed), bitsOf(value)) << printfG9(value);
  }
  in.expectEnd("values");

  // Doubles, the checkpoint number: exactly "%a" and back bit for bit
  // over the edges, the subnormals and 10^5 random finite patterns.
  std::vector<double> doubles = {
      0.0,     -0.0,     std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0),  // largest subnormal
      DBL_MIN, -DBL_MIN, DBL_MAX,  -DBL_MAX, 1.0, 0.1, 247.74050504268172};
  Rng rng(0x6e7a);
  while (doubles.size() < 100000) {
    double value = 0.0;
    const std::uint64_t bits = rng.next();
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) doubles.push_back(value);
  }
  std::ostringstream hex_os;
  {
    TextWriter out(hex_os);
    for (const double value : doubles) out.hexDouble(value).text(" ");
  }
  const std::string hex_text = hex_os.str();
  std::string hex_expected;
  for (const double value : doubles) hex_expected += printfA(value) + " ";
  ASSERT_EQ(hex_text, hex_expected);
  TextReader hex_in(hex_text);
  for (const double value : doubles) {
    ASSERT_EQ(doubleBitsOf(hex_in.hexDouble("value")), doubleBitsOf(value))
        << printfA(value);
  }
  hex_in.expectEnd("values");
}

TEST(TextIoTest, IntegersAndTextAreWrittenExactly) {
  std::ostringstream os;
  {
    TextWriter out(os);
    out.text("tree ").number(std::size_t{149002}).text(" ");
    out.number(std::int32_t{-1}).text(" ");
    out.number(std::numeric_limits<std::int64_t>::min()).text("\n");
    out.text(std::string(70000, 'x'));  // longer than one chunk
  }
  EXPECT_EQ(os.str(), "tree 149002 -1 -9223372036854775808\n" +
                          std::string(70000, 'x'));
}

Status readerFailure(const std::string& text,
                     void (*read)(TextReader& in)) {
  TextReader in(text);
  try {
    read(in);
  } catch (const StatusError& error) {
    return error.status();
  }
  return Status::okStatus();
}

TEST(TextIoTest, ReaderAcceptsOnlyWholeFiniteInRangeNumbers) {
  TextReader ok(" \t12\r\n-3  0.5\f\v-1e-5 tree\n");
  EXPECT_EQ(ok.integer<std::size_t>("count"), 12u);
  EXPECT_EQ(ok.integer<std::int32_t>("index"), -3);
  EXPECT_EQ(ok.finiteFloat("threshold"), 0.5f);
  EXPECT_EQ(ok.finiteFloat("value"), -1e-5f);
  ok.expect("tree");
  ok.expectEnd("the tree");

  const auto as_int32 = [](TextReader& in) {
    in.integer<std::int32_t>("feature");
  };
  const auto as_size = [](TextReader& in) {
    in.integer<std::size_t>("count");
  };
  const auto as_float = [](TextReader& in) { in.finiteFloat("value"); };
  for (const char* bad : {"+1", "1x", "1,", "2147483648", "-2147483649",
                          "0x10", "", "   ", "1.5", "abc"}) {
    const Status status = readerFailure(bad, as_int32);
    EXPECT_EQ(status.code, StatusCode::kParseError) << "'" << bad << "'";
  }
  EXPECT_EQ(readerFailure("-1", as_size).code, StatusCode::kParseError);
  // One spelling per integer: no leading zeros.
  for (const char* bad : {"007", "00", "-01"}) {
    EXPECT_EQ(readerFailure(bad, as_int32).code, StatusCode::kParseError)
        << "'" << bad << "'";
  }
  TextReader ranged("0 1 2");
  EXPECT_EQ(ranged.integer<int>("bit", 0, 1), 0);
  EXPECT_EQ(ranged.integer<int>("bit", 0, 1), 1);
  EXPECT_THROW(ranged.integer<int>("bit", 0, 1), StatusError);

  TextReader hex(" 0x1.8p+1 -0x0p+0 0x0.0000000000001p-1022 ");
  EXPECT_EQ(hex.hexDouble("delay"), 3.0);
  EXPECT_TRUE(std::signbit(hex.hexDouble("delay")));
  EXPECT_EQ(hex.hexDouble("delay"), std::numeric_limits<double>::denorm_min());
  hex.expectEnd("delays");
  const auto as_hex = [](TextReader& in) { in.hexDouble("delay"); };
  // Only the writer's spelling: other spellings of a value, other
  // number forms, non-finite and out-of-range values are all errors.
  for (const char* bad :
       {"0x1p0", "0X1p+0", "0x1P+0", "0x1.80p+1", "0x3p+0", "0x1.Ap+0",
        "0x0.8p+1", "1p+0", "1.5", "+0x1p+0", "--0x1p+0", "0x-1p+0", "0x",
        "-0x", "-", "0xinf", "inf", "nan", "-0xnan", "0x1p+1024",
        "0x1p-1080", "0x1.8p+1x", "0x1.8p+1,", ""}) {
    const Status status = readerFailure(bad, as_hex);
    EXPECT_EQ(status.code, StatusCode::kParseError) << "'" << bad << "'";
  }
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "infinity", "1e50",
                          "-1e50", "1e-50", "+0.5", "0.5x", "0.5.5", ".",
                          "", "e5"}) {
    const Status status = readerFailure(bad, as_float);
    EXPECT_EQ(status.code, StatusCode::kParseError) << "'" << bad << "'";
  }
}

TEST(TextIoTest, NumberRuleReadsOneWholeTokenInOneSpelling) {
  std::uint32_t word = 7;
  EXPECT_TRUE(parseInteger("4294967295", &word));
  EXPECT_EQ(word, 4294967295u);
  EXPECT_TRUE(parseIntegerOrHex("0xdeadBEEF", &word));
  EXPECT_EQ(word, 0xdeadbeefu);
  EXPECT_TRUE(parseIntegerOrHex("0x0", &word));
  EXPECT_EQ(word, 0u);
  for (const char* bad :
       {"", " 5", "5 ", "+5", "-1", "-0", "010", "00", "4294967296", "1e3",
        "5\n", "0x", "0x-1", "0x+1", "0x010", "0X10", "0x100000000"}) {
    EXPECT_FALSE(parseIntegerOrHex(bad, &word)) << "'" << bad << "'";
  }
  EXPECT_EQ(word, 0u);  // a rejected token leaves the output alone
  int signed_value = 0;
  EXPECT_TRUE(parseInteger("-12", &signed_value));
  EXPECT_EQ(signed_value, -12);
  EXPECT_FALSE(parseInteger("-012", &signed_value));

  double value = 0.0;
  EXPECT_TRUE(parseDecimal("-1.5e-3", &value));
  EXPECT_EQ(value, -1.5e-3);
  EXPECT_TRUE(parseReal("0x1.9p+4", &value));
  EXPECT_EQ(value, 25.0);
  EXPECT_TRUE(parseReal("25", &value));
  EXPECT_EQ(value, 25.0);
  for (const char* bad : {"", " 5", "5 ", "+5", "1e-400", "-1e-400",
                          "1e400", "nan", "inf", "-inf", "1.5zz", "0x19",
                          "0x1.90p+4", "0X1.9P+4", "0x1.9p+4 "}) {
    EXPECT_FALSE(parseReal(bad, &value)) << "'" << bad << "'";
  }
  EXPECT_EQ(value, 25.0);
}

TEST(TextIoTest, RestOfLineStopsAtTheNewline) {
  TextReader in("workload  two words\nnext\nlast");
  in.expect("workload");
  EXPECT_EQ(in.restOfLine(), "  two words");
  EXPECT_EQ(in.restOfLine(), "next");
  EXPECT_EQ(in.restOfLine(), "last");
  EXPECT_EQ(in.restOfLine(), "");
}

TEST(TextIoTest, ReaderErrorsNameWhatAndWhere) {
  const Status truncated = readerFailure(
      "1 ", [](TextReader& in) {
        in.integer<int>("a");
        in.integer<int>("b");
      });
  EXPECT_EQ(truncated.message, "truncated: expected b at byte 2");

  const Status glued = readerFailure(
      "7 0.25q", [](TextReader& in) {
        in.integer<int>("a");
        in.finiteFloat("threshold");
      });
  EXPECT_EQ(glued.message, "bad threshold at byte 2");

  const Status word = readerFailure(
      "tevot-tree", [](TextReader& in) { in.expect("tevot-forest"); });
  EXPECT_EQ(word.message, "expected 'tevot-forest' at byte 0");

  const Status trailing = readerFailure(
      "1\n junk", [](TextReader& in) {
        in.integer<int>("a");
        in.expectEnd("the model");
      });
  EXPECT_EQ(trailing.message,
            "trailing bytes after the model ('junk') at byte 3");
}

}  // namespace
}  // namespace tevot::util
