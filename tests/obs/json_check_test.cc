#include "src/obs/json_check.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace nestsim {
namespace {

TEST(JsonCheckTest, AcceptsValidDocuments) {
  for (const char* doc : {
           "{}",
           "[]",
           "null",
           "true",
           "-12.5e-3",
           "\"a string with \\\"escapes\\\" and \\u00e9\"",
           "{\"a\":[1,2.5,true,null,\"x\"],\"b\":{\"nested\":[]}}",
           "  [ 1 , 2 ]  ",
       }) {
    std::string error;
    EXPECT_TRUE(JsonValid(doc, &error)) << doc << ": " << error;
  }
}

TEST(JsonCheckTest, RejectsMalformedDocuments) {
  for (const char* doc : {
           "",
           "{",
           "[1,]",
           "{\"a\":}",
           "{\"a\" 1}",
           "{a:1}",
           "01",
           "1.",
           "1e",
           "\"unterminated",
           "\"bad \\x escape\"",
           "nul",
           "{} trailing",
           "[1] [2]",
       }) {
    EXPECT_FALSE(JsonValid(doc)) << "accepted: " << doc;
  }
}

TEST(JsonCheckTest, ErrorNamesTheOffset) {
  std::string error;
  ASSERT_FALSE(JsonValid("[1,]", &error));
  EXPECT_NE(error.find("byte"), std::string::npos);
}

TEST(JsonCheckTest, RejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(JsonValid(deep));
}

TEST(JsonParseTest, BuildsTheValueTree) {
  JsonValue v;
  ASSERT_TRUE(JsonParse("{\"a\":[1,2.5,true,null,\"x\"],\"b\":{\"nested\":[]}}", &v));
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members.size(), 2u);

  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 5u);
  EXPECT_TRUE(a->items[0].is_number());
  EXPECT_DOUBLE_EQ(a->items[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->items[1].number, 2.5);
  EXPECT_TRUE(a->items[2].is_bool());
  EXPECT_TRUE(a->items[2].boolean);
  EXPECT_TRUE(a->items[3].is_null());
  EXPECT_TRUE(a->items[4].is_string());
  EXPECT_EQ(a->items[4].string, "x");

  const JsonValue* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_object());
  EXPECT_NE(b->Find("nested"), nullptr);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParseTest, PreservesMemberOrderAndDuplicates) {
  JsonValue v;
  ASSERT_TRUE(JsonParse("{\"z\":1,\"a\":2,\"z\":3}", &v));
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "z");
  EXPECT_EQ(v.members[1].first, "a");
  // Find returns the first occurrence.
  EXPECT_DOUBLE_EQ(v.Find("z")->number, 1.0);
}

TEST(JsonParseTest, DecodesStringEscapes) {
  JsonValue v;
  ASSERT_TRUE(JsonParse("\"a\\\"b\\\\c\\/d\\n\\t\\u0041\\u00e9\"", &v));
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.string, "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(JsonParseTest, DecodesSurrogatePairs) {
  JsonValue v;
  ASSERT_TRUE(JsonParse("\"\\ud83d\\ude00\"", &v));  // U+1F600
  EXPECT_EQ(v.string, "\xf0\x9f\x98\x80");
  // A lone surrogate decodes to the replacement character instead of garbage.
  ASSERT_TRUE(JsonParse("\"\\ud83d!\"", &v));
  EXPECT_EQ(v.string, "\xef\xbf\xbd!");
}

TEST(JsonParseTest, ParsesScalarsAndNumbers) {
  JsonValue v;
  ASSERT_TRUE(JsonParse("-12.5e-3", &v));
  EXPECT_TRUE(v.is_number());
  EXPECT_DOUBLE_EQ(v.number, -0.0125);
  ASSERT_TRUE(JsonParse("false", &v));
  EXPECT_TRUE(v.is_bool());
  EXPECT_FALSE(v.boolean);
  ASSERT_TRUE(JsonParse("null", &v));
  EXPECT_TRUE(v.is_null());
}

TEST(JsonParseTest, RoundTripsSeventeenDigitDoubles) {
  JsonValue v;
  ASSERT_TRUE(JsonParse("6.9179590801107187", &v));
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v.number);
  EXPECT_STREQ(buf, "6.9179590801107187");
}

TEST(JsonParseTest, FailureResetsTheSinkAndNamesTheError) {
  JsonValue v;
  ASSERT_TRUE(JsonParse("[1,2]", &v));
  std::string error;
  ASSERT_FALSE(JsonParse("[1,", &v, &error));
  EXPECT_TRUE(v.is_null());  // no stale tree after a failed parse
  EXPECT_TRUE(v.items.empty());
  EXPECT_FALSE(error.empty());
}

TEST(JsonParseTest, TypeNamesAreStable) {
  EXPECT_STREQ(JsonTypeName(JsonValue::Type::kObject), "object");
  EXPECT_STREQ(JsonTypeName(JsonValue::Type::kArray), "array");
  EXPECT_STREQ(JsonTypeName(JsonValue::Type::kString), "string");
}

std::string Quoted(const std::string& s) {
  std::string out;
  JsonWriter(&out).String(s);
  return out;
}

TEST(JsonWriterTest, EscapesSpecials) {
  EXPECT_EQ(Quoted("plain"), "\"plain\"");
  EXPECT_EQ(Quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(Quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(Quoted("a\nb\tc\r"), "\"a\\nb\\tc\\r\"");
  EXPECT_EQ(Quoted("\b\f"), "\"\\b\\f\"");
  EXPECT_EQ(Quoted(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(Quoted("\x1f"), "\"\\u001f\"");
  EXPECT_EQ(Quoted("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // UTF-8 verbatim
}

TEST(JsonWriterTest, PlacesCommasAndNests) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("a").U64(18446744073709551615ull);
  w.Key("b").BeginArray().I64(-3).Bool(true).BeginObject().EndObject().BeginArray().EndArray();
  w.EndArray();
  w.Key("c").Raw("{\"x\":[1]}");
  w.Key("d").Double(0.5).Key("e").String("");
  w.EndObject();
  EXPECT_EQ(out, R"({"a":18446744073709551615,"b":[-3,true,{},[]],"c":{"x":[1]},"d":0.5,"e":""})");
  EXPECT_TRUE(JsonValid(out));
}

TEST(JsonWriterTest, AppendsToTheCallersString) {
  std::string out = "prefix ";
  JsonWriter(&out).BeginArray().U64(1).U64(2).EndArray();
  EXPECT_EQ(out, "prefix [1,2]");
}

// %.17g: every finite double round-trips bit-exactly through JsonDouble, which
// the writer, the decision CSV and the baseline problem messages share.
TEST(JsonWriterTest, DoubleRoundTrips) {
  const double values[] = {0.0,   1.0,   1.0 / 3.0, 0.1, 2.7062158723327507, 22.43671234567891,
                           1406274.123, 1e-300, 12345.678901234567, 5.0e15, -0.0, 1.7976931348623157e308};
  for (const double v : values) {
    const std::string text = JsonDouble(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    std::string out;
    JsonWriter(&out).Double(v);
    EXPECT_EQ(out, text);
  }
}

}  // namespace
}  // namespace nestsim
