#include "scenario/json_reader.hpp"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "expect_rejects.hpp"

namespace vds::scenario {
namespace {

TEST(JsonReader, ParsesScalars) {
  EXPECT_EQ(parse_json("null").kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(parse_json("true").as_bool("x"));
  EXPECT_FALSE(parse_json("false").as_bool("x"));
  EXPECT_DOUBLE_EQ(parse_json("-2.5e3").as_double("x"), -2500.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string("x"), "hi");
}

TEST(JsonReader, ObjectLookupAndArrays) {
  const auto doc = parse_json(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(doc.is_object());
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[1].as_int("a[1]"), 2);
  const JsonValue* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->find("c"), nullptr);
  EXPECT_TRUE(b->find("c")->as_bool("c"));
  EXPECT_EQ(doc.find("missing"), nullptr);
}

// Integer fields must survive at full u64 precision: a double
// round-trip would corrupt seeds above 2^53.
TEST(JsonReader, U64FullPrecision) {
  const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
  const auto doc = parse_json("{\"seed\": 18446744073709551615}");
  EXPECT_EQ(doc.find("seed")->as_u64("seed"), big);
}

TEST(JsonReader, U64RejectsSignFractionExponentAndOverflow) {
  EXPECT_REJECTS(parse_json("-1").as_u64("x"), JsonError);
  EXPECT_REJECTS(parse_json("1.5").as_u64("x"), JsonError);
  EXPECT_REJECTS(parse_json("1e3").as_u64("x"), JsonError);
  EXPECT_REJECTS(parse_json("18446744073709551616").as_u64("x"), JsonError);
  EXPECT_EQ(parse_json("0").as_u64("x"), 0u);
}

TEST(JsonReader, TypeMismatchesThrow) {
  EXPECT_REJECTS(parse_json("3").as_string("x"), JsonError);
  EXPECT_REJECTS(parse_json("\"3\"").as_double("x"), JsonError);
  EXPECT_REJECTS(parse_json("true").as_int("x"), JsonError);
  EXPECT_REJECTS(parse_json("[1]").as_bool("x"), JsonError);
}

TEST(JsonReader, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\te")").as_string("x"),
            "a\"b\\c\nd\te");
  // \u escape decodes to UTF-8.
  EXPECT_EQ(parse_json("\"A\\u00e9\"").as_string("x"), "A\xc3\xa9");
}

TEST(JsonReader, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_json(""), JsonError);
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("[1,]"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": }"), JsonError);
  EXPECT_THROW(parse_json("{\"a\" 1}"), JsonError);
  EXPECT_THROW(parse_json("tru"), JsonError);
  EXPECT_THROW(parse_json("\"unterminated"), JsonError);
  // Trailing garbage after a complete document.
  EXPECT_THROW(parse_json("{} x"), JsonError);
  EXPECT_THROW(parse_json("1 2"), JsonError);
}

TEST(JsonReader, RejectsDuplicateKeys) {
  EXPECT_THROW(parse_json(R"({"a": 1, "a": 2})"), JsonError);
}

TEST(JsonReader, ErrorCarriesOffset) {
  try {
    const JsonValue doc = parse_json("{\"a\": bogus}");
    FAIL() << "expected JsonError, got " << ::testing::PrintToString(doc);
  } catch (const JsonError& error) {
    EXPECT_NE(std::string(error.what()).find("(at byte 6)"),
              std::string::npos);
  }
}

TEST(JsonReader, WhitespaceTolerant) {
  const auto doc = parse_json("  {\n\t\"a\" :\r 1 , \"b\" : [ ] }  ");
  EXPECT_EQ(doc.find("a")->as_int("a"), 1);
  EXPECT_EQ(doc.find("b")->items.size(), 0u);
}

}  // namespace
}  // namespace vds::scenario
