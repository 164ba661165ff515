/**
 * @file
 * Tests for the server's JSON values: parsing (including the
 * hostile inputs a network-facing parser must survive), canonical
 * serialization, and the parse/dump round trip the result cache's
 * canonical keys depend on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "server/json.hh"
#include "util/number_text.hh"

namespace bwwall {
namespace {

JsonValue
parsed(const std::string &text)
{
    JsonValue value;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(text, &value, &error))
        << text << ": " << error;
    return value;
}

TEST(JsonTest, ParsesScalars)
{
    EXPECT_TRUE(parsed("null").isNull());
    EXPECT_TRUE(parsed("true").asBool());
    EXPECT_FALSE(parsed("false").asBool());
    EXPECT_DOUBLE_EQ(parsed("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parsed("-2.5e3").asNumber(), -2500.0);
    EXPECT_EQ(parsed("\"hi\"").asString(), "hi");
}

TEST(JsonTest, ParsesNestedStructures)
{
    const JsonValue value =
        parsed("{\"a\":[1,2,{\"b\":true}],\"c\":null}");
    ASSERT_TRUE(value.isObject());
    const JsonValue *a = value.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_DOUBLE_EQ(a->items()[0].asNumber(), 1.0);
    EXPECT_TRUE(a->items()[2].find("b")->asBool());
    EXPECT_TRUE(value.find("c")->isNull());
    EXPECT_EQ(value.find("absent"), nullptr);
}

TEST(JsonTest, ParsesEscapesAndUnicode)
{
    EXPECT_EQ(parsed("\"a\\n\\t\\\"b\\\\\"").asString(),
              "a\n\t\"b\\");
    EXPECT_EQ(parsed("\"\\u0041\"").asString(), "A");
    // Surrogate pair: U+1F600 -> 4-byte UTF-8.
    EXPECT_EQ(parsed("\"\\uD83D\\uDE00\"").asString(),
              "\xF0\x9F\x98\x80");
}

TEST(JsonTest, RejectsMalformedInputWithPositionedErrors)
{
    const char *bad[] = {
        "",           "{",       "[1,",      "{\"a\":}",
        "{\"a\" 1}",  "tru",     "01",       "1.",
        "\"unterminated", "{]",  "[1 2]",    "nullx",
        "{\"a\":1,}", "\"\\q\"", "\"\\uD83D\"",
    };
    for (const char *text : bad) {
        JsonValue value;
        std::string error;
        EXPECT_FALSE(JsonValue::parse(text, &value, &error))
            << "accepted: " << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(JsonTest, RejectsTrailingGarbage)
{
    JsonValue value;
    std::string error;
    EXPECT_FALSE(JsonValue::parse("{} {}", &value, &error));
    EXPECT_FALSE(JsonValue::parse("1 2", &value, &error));
}

TEST(JsonTest, RejectsPathologicalNesting)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += '[';
    for (int i = 0; i < 100; ++i)
        deep += ']';
    JsonValue value;
    std::string error;
    EXPECT_FALSE(JsonValue::parse(deep, &value, &error));
    EXPECT_NE(error.find("nest"), std::string::npos);
}

TEST(JsonTest, DumpIsCanonical)
{
    // Keys sort, whitespace dies, integer-valued doubles print
    // without an exponent or decimal point.
    const JsonValue value = parsed(
        "{ \"z\" : 2.0 , \"a\" : [ 1 , true , \"x\" ] }");
    EXPECT_EQ(value.dump(), "{\"a\":[1,true,\"x\"],\"z\":2}");
}

TEST(JsonTest, EquivalentRequestsDumpIdentically)
{
    const std::string a =
        "{\"cores\":16,\"alpha\":0.5,\"total_ceas\":32}";
    const std::string b =
        "{ \"total_ceas\": 32.0,\n  \"alpha\": 0.5, "
        "\"cores\": 16 }";
    EXPECT_EQ(parsed(a).dump(), parsed(b).dump());
}

TEST(JsonTest, RoundTripsThroughDump)
{
    const std::string text =
        "{\"a\":[1,2.5,null,true,\"s\\n\"],"
        "\"b\":{\"c\":-0.125}}";
    const JsonValue value = parsed(text);
    EXPECT_EQ(parsed(value.dump()).dump(), value.dump());
}

TEST(JsonTest, NumberTextFormatsIntegersAndDoubles)
{
    EXPECT_EQ(jsonNumberText(0.0), "0");
    EXPECT_EQ(jsonNumberText(42.0), "42");
    EXPECT_EQ(jsonNumberText(-3.0), "-3");
    EXPECT_EQ(jsonNumberText(0.5), "0.5");
    EXPECT_EQ(jsonNumberText(1.0 / 0.0), "null");
}

/**
 * The number formatter dump() used before std::to_chars: %.0f for
 * integers below 2^53, a precision-17 stream for everything else.
 * Cache keys and snapshot files hold its bytes, so the new one must
 * match it exactly.
 */
std::string
streamNumberText(double value)
{
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 9.007199254740992e15) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.0f", value);
        return buffer;
    }
    std::ostringstream oss;
    oss << std::setprecision(17) << value;
    const std::string text = oss.str();
    if (text.find("inf") != std::string::npos ||
        text.find("nan") != std::string::npos)
        return "null";
    return text;
}

/** The trace exporter's old counter formatter (0 for non-finite). */
std::string
traceNumberText(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[40];
    if (value == std::floor(value) && std::fabs(value) < 1e15)
        std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    else
        std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

TEST(JsonTest, NumberTextMatchesTheStreamFormatterOnRandomDoubles)
{
    std::mt19937_64 rng(20090620);
    std::uniform_int_distribution<int> exponent(-300, 300);
    std::uniform_real_distribution<double> mantissa(1.0, 10.0);
    std::uniform_int_distribution<std::int64_t> integer(
        -(std::int64_t{1} << 53), std::int64_t{1} << 53);
    std::uniform_int_distribution<std::uint64_t> subnormal(
        1, (std::uint64_t{1} << 52) - 1);
    std::uniform_int_distribution<int> alpha(1, 20000);

    std::vector<double> values = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        9007199254740992.0,  // 2^53
        -9007199254740992.0,
        9007199254740991.0,
        1e15,
        1e17,
        1e300,
        -1e300,
        1e-300,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    for (int i = 0; i < 50000; ++i) {
        // Raw bit patterns: every exponent, sign, and NaN payload.
        const std::uint64_t bits = rng();
        double raw = 0.0;
        std::memcpy(&raw, &bits, sizeof(raw));
        values.push_back(raw);
        // Decimal magnitudes from 1e-300 to 1e300, both signs.
        const double scaled =
            mantissa(rng) * std::pow(10.0, exponent(rng));
        values.push_back((i & 1) != 0 ? -scaled : scaled);
        // Integers up to 2^53, where the old code used %.0f.
        values.push_back(static_cast<double>(integer(rng)));
        // Subnormals.
        const std::uint64_t sub_bits =
            subnormal(rng) | (static_cast<std::uint64_t>(i & 1) << 63);
        double sub = 0.0;
        std::memcpy(&sub, &sub_bits, sizeof(sub));
        values.push_back(sub);
        // The alpha grid model queries use (1e-4 steps).
        values.push_back(alpha(rng) * 1e-4);
    }
    ASSERT_GE(values.size(), 200000u);

    std::size_t mismatches = 0;
    for (const double value : values) {
        const std::string expected = streamNumberText(value);
        const std::string json = jsonNumberText(value);
        std::string trace;
        appendDoubleText(trace, value, "0");
        if (json != expected || trace != traceNumberText(value)) {
            if (++mismatches <= 5)
                ADD_FAILURE() << std::hexfloat << value << ": json "
                              << json << " vs " << expected
                              << ", trace " << trace << " vs "
                              << traceNumberText(value);
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(JsonTest, DumpAppendsNumbersWithTheSharedFormatter)
{
    JsonValue array = JsonValue::makeArray();
    array.append(JsonValue(0.1));
    array.append(JsonValue(-0.0));
    array.append(JsonValue(1e21));
    array.append(JsonValue(std::numeric_limits<double>::infinity()));
    EXPECT_EQ(array.dump(),
              "[0.10000000000000001,-0,1e+21,null]");
}

TEST(JsonTest, EscapeTextCoversControlCharacters)
{
    EXPECT_EQ(jsonEscapeText("a\"b\\c\nd"),
              "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscapeText(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, BuildersProduceSortedObjects)
{
    JsonValue object = JsonValue::makeObject();
    object.set("zeta", JsonValue(1.0));
    object.set("alpha", JsonValue("first"));
    JsonValue list = JsonValue::makeArray();
    list.append(JsonValue(true));
    object.set("list", std::move(list));
    EXPECT_EQ(object.dump(),
              "{\"alpha\":\"first\",\"list\":[true],\"zeta\":1}");
}

} // namespace
} // namespace bwwall
