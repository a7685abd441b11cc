// Environment-knob parsing, exercised through setenv.
#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace tevot::util {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetVar(const char* value) {
    ::setenv("TEVOT_TEST_VAR", value, 1);
  }
  void TearDown() override { ::unsetenv("TEVOT_TEST_VAR"); }
};

TEST_F(EnvTest, StringFallbacks) {
  ::unsetenv("TEVOT_TEST_VAR");
  EXPECT_EQ(envString("TEVOT_TEST_VAR", "dflt"), "dflt");
  SetVar("");
  EXPECT_EQ(envString("TEVOT_TEST_VAR", "dflt"), "dflt");
  SetVar("value");
  EXPECT_EQ(envString("TEVOT_TEST_VAR", "dflt"), "value");
}

TEST_F(EnvTest, FlagParsing) {
  ::unsetenv("TEVOT_TEST_VAR");
  EXPECT_FALSE(envFlag("TEVOT_TEST_VAR"));
  EXPECT_TRUE(envFlag("TEVOT_TEST_VAR", true));
  for (const char* yes : {"1", "true", "TRUE", "Yes", "on"}) {
    SetVar(yes);
    EXPECT_TRUE(envFlag("TEVOT_TEST_VAR")) << yes;
  }
  for (const char* no : {"0", "false", "off", "banana"}) {
    SetVar(no);
    EXPECT_FALSE(envFlag("TEVOT_TEST_VAR")) << no;
  }
}

TEST(ParseNumberTest, AcceptsOnlyCompleteFiniteInRangeValues) {
  double ms = -1.0;
  EXPECT_TRUE(parseNumber("2.5", 0, 10, &ms));
  EXPECT_EQ(ms, 2.5);
  EXPECT_TRUE(parseNumber("1e-12", 0, 10, &ms));
  EXPECT_EQ(ms, 1e-12);
  std::size_t conns = 0;
  EXPECT_TRUE(parseNumber("64", 1, 65535, &conns));
  EXPECT_EQ(conns, 64u);
  for (const char* bad : {"", " ", " 5", "5 ", "+5", "0x10", "abc", "nan",
                          "inf", "-inf", "5ms", "-1", "0", "65536", "1e300",
                          "2.5"}) {
    EXPECT_FALSE(parseNumber(bad, 1, 65535, &conns)) << "'" << bad << "'";
  }
  EXPECT_EQ(conns, 64u);  // a rejected value leaves the output alone
  EXPECT_FALSE(parseNumber("nan", 0, 10, &ms));
  EXPECT_EQ(ms, 1e-12);
}

}  // namespace
}  // namespace tevot::util
