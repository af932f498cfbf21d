#include "util/string_util.h"

#include <gtest/gtest.h>

namespace adc::util {
namespace {

TEST(Trim, Basics) {
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("  abc"), "abc");
  EXPECT_EQ(trim("abc  "), "abc");
  EXPECT_EQ(trim("\t abc \n"), "abc");
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(SplitWhitespace, CollapsesRuns) {
  const auto fields = split_whitespace("  a \t b\n\nc  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitWhitespace, EmptyAndBlank) {
  EXPECT_TRUE(split_whitespace("").empty());
  EXPECT_TRUE(split_whitespace("   \t\n").empty());
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("http://x", "http://"));
  EXPECT_FALSE(starts_with("htt", "http://"));
  EXPECT_TRUE(ends_with("file.html", ".html"));
  EXPECT_FALSE(ends_with("html", ".html"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_TRUE(ends_with("abc", ""));
}

TEST(ParseInt, Valid) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int(" 42 "), 42);
  EXPECT_EQ(parse_int("9223372036854775807"), 9223372036854775807LL);
}

TEST(ParseInt, Invalid) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("abc").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("1 2").has_value());
  EXPECT_FALSE(parse_int("9223372036854775808").has_value());  // overflow
}

TEST(ParseUint, RejectsNegative) {
  EXPECT_EQ(parse_uint("7"), 7u);
  EXPECT_FALSE(parse_uint("-7").has_value());
  EXPECT_FALSE(parse_uint("").has_value());
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(*parse_double("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_double("-2e3"), -2000.0);
  EXPECT_DOUBLE_EQ(*parse_double(" 1 "), 1.0);
}

TEST(ParseDouble, Invalid) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("x").has_value());
  EXPECT_FALSE(parse_double("1.2.3").has_value());
}

TEST(ParseSize, Suffixes) {
  EXPECT_EQ(parse_size("20k"), 20000u);
  EXPECT_EQ(parse_size("20K"), 20000u);
  EXPECT_EQ(parse_size("3m"), 3000000u);
  EXPECT_EQ(parse_size("2G"), 2000000000u);
  EXPECT_EQ(parse_size("123"), 123u);
  EXPECT_EQ(parse_size(" 5k "), 5000u);
}

TEST(ParseSize, Invalid) {
  EXPECT_FALSE(parse_size("").has_value());
  EXPECT_FALSE(parse_size("k").has_value());
  EXPECT_FALSE(parse_size("1.5k").has_value());
  EXPECT_FALSE(parse_size("-1k").has_value());
}

TEST(WithThousands, Grouping) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
  EXPECT_EQ(with_thousands(3990000), "3,990,000");
}

}  // namespace
}  // namespace adc::util
