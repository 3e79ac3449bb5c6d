// util::parseJson: the repo's one JSON reader (traces, journals,
// structured run exports).
#include <gtest/gtest.h>

#include "src/util/json.h"

namespace manet::util {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(parseJson("null")->isNull());
  EXPECT_TRUE(parseJson("true")->asBool());
  EXPECT_FALSE(parseJson("false")->asBool(true));
  EXPECT_DOUBLE_EQ(parseJson("42")->asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(parseJson("-3.5e2")->asNumber(), -350.0);
  EXPECT_EQ(parseJson("\"hi\"")->asString(), "hi");
}

TEST(JsonTest, ParsesNestedDocument) {
  const char* doc =
      "{\"a\": [1, 2, {\"b\": \"x\"}], \"c\": {\"d\": true}, \"e\": null}";
  const auto v = parseJson(doc);
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->isObject());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->isArray());
  ASSERT_EQ(a->asArray().size(), 3u);
  EXPECT_DOUBLE_EQ(a->asArray()[1].asNumber(), 2.0);
  EXPECT_EQ(a->asArray()[2].stringAt("b"), "x");
  EXPECT_TRUE(v->find("c")->find("d")->asBool());
  EXPECT_TRUE(v->find("e")->isNull());
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonTest, StringEscapes) {
  const auto v = parseJson("\"a\\\"b\\\\c\\nd\\te\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->asString(), "a\"b\\c\nd\te");
}

TEST(JsonTest, ConvenienceAccessors) {
  const auto v = parseJson("{\"n\": 7, \"s\": \"str\"}");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->numberAt("n"), 7.0);
  EXPECT_DOUBLE_EQ(v->numberAt("missing", -1.0), -1.0);
  EXPECT_EQ(v->stringAt("s"), "str");
  EXPECT_EQ(v->stringAt("n", "fallback"), "fallback");  // wrong type
}

TEST(JsonTest, RejectsMalformedWithOffset) {
  std::string err;
  EXPECT_FALSE(parseJson("{\"a\": }", &err).has_value());
  EXPECT_NE(err.find("offset"), std::string::npos);
  err.clear();
  EXPECT_FALSE(parseJson("[1, 2", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parseJson("", &err).has_value());
  EXPECT_FALSE(parseJson("{} trailing", &err).has_value());
  EXPECT_FALSE(parseJson("{\"a\":1,}x", &err).has_value());
  EXPECT_FALSE(parseJson("\"unterminated", &err).has_value());
  EXPECT_FALSE(parseJson("nul", &err).has_value());
}

TEST(JsonTest, EmptyContainers) {
  EXPECT_TRUE(parseJson("[]")->asArray().empty());
  EXPECT_TRUE(parseJson("{}")->asObject().empty());
  EXPECT_TRUE(parseJson("  { }  ")->isObject());
}

TEST(JsonTest, WrongTypeAccessorsFallBack) {
  const auto v = parseJson("[1]");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->asObject().empty());
  EXPECT_EQ(v->asString(), "");
  EXPECT_DOUBLE_EQ(v->asNumber(9.0), 9.0);
  EXPECT_EQ(v->find("k"), nullptr);
}

TEST(JsonTest, NestingIsBoundedByMaxDepth) {
  const auto nested = [](int depth, char open, char close) {
    return std::string(static_cast<std::size_t>(depth), open) +
           std::string(static_cast<std::size_t>(depth), close);
  };
  EXPECT_TRUE(parseJson(nested(kMaxJsonDepth, '[', ']')).has_value());
  std::string err;
  EXPECT_FALSE(parseJson(nested(kMaxJsonDepth + 1, '[', ']'), &err));
  EXPECT_EQ(err.rfind("nesting deeper than 256 at offset 256", 0), 0u) << err;
  // Far past the limit (this depth overflowed the stack before the bound)
  // and through objects too: a clean error, not a crash.
  EXPECT_FALSE(parseJson(std::string(10000, '['), &err));
  EXPECT_NE(err.find("nesting deeper than 256"), std::string::npos) << err;
  std::string objects;
  for (int i = 0; i < 10000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(parseJson(objects, &err));
  EXPECT_NE(err.find("nesting deeper than 256"), std::string::npos) << err;
}

}  // namespace
}  // namespace manet::util
