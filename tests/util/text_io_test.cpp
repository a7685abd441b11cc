// util::TextWriter / util::TextReader: the number rule every saved model
// depends on. A written float must be exactly printf's "%.9g" (the
// bytes the model files have always held) and must parse back to the
// same bits; the reader must accept only whole, finite, in-range
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
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "infinity", "1e50",
                          "-1e50", "1e-50", "+0.5", "0.5x", "0.5.5", ".",
                          "", "e5"}) {
    const Status status = readerFailure(bad, as_float);
    EXPECT_EQ(status.code, StatusCode::kParseError) << "'" << bad << "'";
  }
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
