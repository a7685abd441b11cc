// util::json: the one escape, number rule, compact writer and strict
// parser every report and certificate goes through.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace tevot::util::json {
namespace {

Value parseOk(const std::string& text) {
  Value value;
  const Status status = parse(text, &value);
  EXPECT_TRUE(status.ok()) << status.message << " in " << text;
  return value;
}

Status parseError(const std::string& text) {
  Value value;
  return parse(text, &value);
}

TEST(JsonTest, EscapesSpecialCharacters) {
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("a\\b"), "a\\\\b");
  EXPECT_EQ(escape("a\nb"), "a\\nb");
  EXPECT_EQ(escape(std::string_view("a\x01", 2)), "a\\u0001");
}

TEST(JsonTest, WriterIsCompactWithCommasPlacedForTheCaller) {
  Writer json;
  json.beginObject().field("s", "x").key("a").beginArray();
  json.value(1).beginObject().endObject().beginArray().endArray();
  json.null().endArray().field("b", false).endObject();
  EXPECT_EQ(json.str(), "{\"s\":\"x\",\"a\":[1,{},[],null],\"b\":false}");
}

TEST(JsonTest, NumberRuleIsExactForIntegersDoublesAndFloats) {
  Writer json;
  json.beginArray().value(std::uint64_t{18446744073709551615u});
  json.value(std::int64_t{-9007199254740993}).value(0.1).value(0.1f);
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::numeric_limits<float>::quiet_NaN()).endArray();
  EXPECT_EQ(json.str(),
            "[18446744073709551615,-9007199254740993,"
            "0.10000000000000001,0.100000001,null,null]");

  // %.17g / %.9g round-trip bit for bit through the parser.
  const double d = 2161.3456789012345;
  const float f = 123.456f;
  Writer pair;
  pair.beginArray().value(d).value(f).endArray();
  const Value parsed = parseOk(pair.str());
  ASSERT_EQ(parsed.array.size(), 2u);
  EXPECT_EQ(parsed.array[0].number, d);
  EXPECT_EQ(static_cast<float>(parsed.array[1].number), f);
}

TEST(JsonTest, StringsRoundTripThroughEscapeAndParse) {
  const std::string text = "quote\" back\\ nl\n tab\t cr\r ctl\x01 end";
  Writer json;
  json.value(text);
  const Value parsed = parseOk(json.str());
  EXPECT_EQ(parsed.kind, Value::Kind::kString);
  EXPECT_EQ(parsed.text, text);
}

TEST(JsonTest, ObjectsKeepSourceOrderAndRawSlices) {
  const Value root =
      parseOk(" {\"z\": 1, \"a\": {\"k\": [true, null]}, \"m\": \"s\"} ");
  ASSERT_EQ(root.kind, Value::Kind::kObject);
  ASSERT_EQ(root.object.size(), 3u);
  EXPECT_EQ(root.object[0].first, "z");
  EXPECT_EQ(root.object[1].first, "a");
  EXPECT_EQ(root.object[2].first, "m");
  const Value* a = root.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->raw, "{\"k\": [true, null]}");
  EXPECT_EQ(root.find("missing"), nullptr);
  EXPECT_EQ(root.find("z")->number, 1.0);
}

TEST(JsonTest, DuplicateKeyIsParseErrorNamingKeyAndOffset) {
  const Status status = parseError("{\"a\":1,\"b\":2,\"a\":3}");
  EXPECT_EQ(status.code, StatusCode::kParseError);
  EXPECT_EQ(status.message, "JSON: duplicate key 'a' at byte 13");
  // The same key in sibling objects is fine.
  parseOk("[{\"a\":1},{\"a\":2}]");
}

TEST(JsonTest, NestingIsBoundedByMaxDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  parseOk(nested(kMaxDepth));
  const Status status = parseError(nested(kMaxDepth + 1));
  EXPECT_EQ(status.code, StatusCode::kParseError);
  EXPECT_NE(status.message.find("nesting deeper than"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("at byte 64"), std::string::npos)
      << status.message;
  // Unclosed brackets far past the bound fail at the bound, without
  // recursing to the end of the input.
  for (const std::size_t depth : {10000u, 100000u}) {
    EXPECT_EQ(parseError(std::string(depth, '[')).code,
              StatusCode::kParseError)
        << depth;
    std::string objects;
    for (std::size_t i = 0; i < depth; ++i) objects += "{\"k\":";
    EXPECT_EQ(parseError(objects).code, StatusCode::kParseError) << depth;
  }
}

TEST(JsonTest, MalformedDocumentsAreParseErrors) {
  for (const char* bad :
       {"", "  ", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "{,}", "tru",
        "nul", "\"open", "\"bad \\q escape\"", "\"\\u0100\"",
        "\"\\u+0ff\"", "\"\\u00f\"", "1.2.3", "1e999", "[1] [2]",
        "{\"a\":1}x", "'single'"}) {
    const Status status = parseError(bad);
    EXPECT_EQ(status.code, StatusCode::kParseError) << bad;
    EXPECT_NE(status.message.find(" at byte "), std::string::npos)
        << status.message;
  }
  EXPECT_EQ(parseError("[1] [2]").message,
            "JSON: trailing bytes after the JSON document at byte 4");
}

TEST(JsonTest, FailedParseLeavesOutputUntouched) {
  Value value;
  value.kind = Value::Kind::kString;
  value.text = "kept";
  EXPECT_FALSE(parse("[1,", &value).ok());
  EXPECT_EQ(value.kind, Value::Kind::kString);
  EXPECT_EQ(value.text, "kept");
}

}  // namespace
}  // namespace tevot::util::json
