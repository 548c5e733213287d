#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace stellar::util {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").isNull());
  EXPECT_EQ(Json::parse("true").asBool(), true);
  EXPECT_EQ(Json::parse("false").asBool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").asNumber(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-17").asNumber(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").asNumber(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const Json doc = Json::parse(R"({"rules": [{"Parameter": "lov.stripe_count",
      "Rule Description": "keep 1 for small files", "n": 2}], "v": true})");
  EXPECT_TRUE(doc.isObject());
  const auto& rules = doc.at("rules").asArray();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].at("Parameter").asString(), "lov.stripe_count");
  EXPECT_EQ(rules[0].at("n").asInt(), 2);
  EXPECT_TRUE(doc.at("v").asBool());
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json obj = Json::makeObject();
  obj.set("z", Json{1});
  obj.set("a", Json{2});
  obj.set("m", Json{3});
  const auto& members = obj.asObject();
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, SetReplacesExistingKey) {
  Json obj = Json::makeObject();
  obj.set("k", Json{1});
  obj.set("k", Json{2});
  EXPECT_EQ(obj.asObject().size(), 1u);
  EXPECT_EQ(obj.at("k").asInt(), 2);
}

TEST(Json, EscapesRoundTrip) {
  Json obj = Json::makeObject();
  obj.set("s", Json{"line1\nline2\t\"quoted\" \\slash"});
  const Json back = Json::parse(obj.dump());
  EXPECT_EQ(back.at("s").asString(), "line1\nline2\t\"quoted\" \\slash");
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(Json::parse(R"("A")").asString(), "A");
  EXPECT_EQ(Json::parse(R"("é")").asString(), "\xc3\xa9");  // é in UTF-8
}

TEST(Json, DumpCompactAndPretty) {
  Json arr = Json::makeArray();
  arr.push(Json{1});
  arr.push(Json{"two"});
  EXPECT_EQ(arr.dump(), "[1,\"two\"]");
  const std::string pretty = arr.dump(2);
  EXPECT_NE(pretty.find("\n  1"), std::string::npos);
}

TEST(Json, IntegersDumpWithoutDecimalPoint) {
  EXPECT_EQ(Json{42}.dump(), "42");
  EXPECT_EQ(Json{-3}.dump(), "-3");
  EXPECT_EQ(Json{2.5}.dump(), "2.5");
}

TEST(Json, NumberFormatIsPrintfs) {
  // The writer's number rule, stated with printf: integral values below
  // 9e15 in magnitude as "%lld", everything else as "%.12g".
  const auto printfFormat = [](double v) {
    char buf[64];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof buf, "%.12g", v);
    }
    return std::string{buf};
  };
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 9e15 - 1, 9e15, 9e15 + 1,
                                -9e15 + 1, -9e15, 1e-7, 0.1, 1.0 / 3, 2.5, 1e300,
                                -1e-300, 4.94e-324, 1.7976931348623157e308,
                                123456789012.5, 999999999999.5, 0.5e-4, 1e21,
                                std::nan(""), -std::nan(""), inf, -inf};
  // Random doubles over the whole bit range plus magnitudes near the
  // fixed/exponent switch, where "%g" rounding is easiest to get wrong.
  std::mt19937_64 rng{7};
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
    const int exponent = -static_cast<int>(rng() % 90);
    values.push_back(std::ldexp(static_cast<double>(rng() >> 11), exponent));
  }
  for (const double v : values) {
    std::string out;
    appendJsonNumber(out, v);
    ASSERT_EQ(out, printfFormat(v)) << "bits of " << v;
    ASSERT_EQ(Json{v}.dump(), out);
  }
}

TEST(Json, StringEscapesAreMinimal) {
  std::string out;
  appendJsonString(out, std::string{"a\"\\/\b\f\n\r\t"} + '\x01' + '\x1f' + ' ' + '\x7f' +
                            "\xc3\xa9" + std::string(1, '\0'));
  EXPECT_EQ(out, "\"a\\\"\\\\/\\b\\f\\n\\r\\t\\u0001\\u001f \x7f\xc3\xa9\\u0000\"");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW((void)Json::parse("{"), JsonError);
  EXPECT_THROW((void)Json::parse("[1,]"), JsonError);
  EXPECT_THROW((void)Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW((void)Json::parse("tru"), JsonError);
  EXPECT_THROW((void)Json::parse("1 2"), JsonError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonError);
}

TEST(Json, WrongTypeAccessThrows) {
  const Json n = Json::parse("5");
  EXPECT_THROW((void)n.asString(), JsonError);
  EXPECT_THROW((void)n.asArray(), JsonError);
  EXPECT_THROW((void)n.at("x"), JsonError);
}

TEST(Json, GettersWithFallbacks) {
  const Json doc = Json::parse(R"({"s": "v", "n": 2})");
  EXPECT_EQ(doc.getString("s"), "v");
  EXPECT_EQ(doc.getString("missing", "d"), "d");
  EXPECT_DOUBLE_EQ(doc.getNumber("n"), 2.0);
  EXPECT_DOUBLE_EQ(doc.getNumber("s", 9.0), 9.0);  // wrong type -> fallback
  EXPECT_TRUE(doc.getBool("missing", true));
}

TEST(Json, EqualityIsDeep) {
  const Json a = Json::parse(R"({"x": [1, {"y": 2}]})");
  const Json b = Json::parse(R"({"x": [1, {"y": 2}]})");
  const Json c = Json::parse(R"({"x": [1, {"y": 3}]})");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Json, RoundTripComplexDocument) {
  const std::string text =
      R"({"a":[1,2.5,null,true,"s"],"b":{"c":[],"d":{}},"e":-1e-3})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(Json::parse(doc.dump()), doc);
  EXPECT_EQ(Json::parse(doc.dump(4)), doc);
}

}  // namespace
}  // namespace stellar::util
