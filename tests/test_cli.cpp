#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace tpa::util {
namespace {

ArgParser make_parser() {
  ArgParser parser("tool", "test tool");
  parser.add_option("name", "a string option");
  parser.add_option("count", "an integer option", "3");
  parser.add_option("rate", "a float option");
  parser.add_flag("verbose", "a flag");
  return parser;
}

TEST(ArgParser, ParsesSpaceSeparatedValues) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--name", "alice", "--count", "7"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_string("name", ""), "alice");
  EXPECT_EQ(parser.get_int("count", 0), 7);
}

TEST(ArgParser, ParsesEqualsForm) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--name=bob", "--rate=2.5"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_string("name", ""), "bob");
  EXPECT_DOUBLE_EQ(parser.get_double("rate", 0.0), 2.5);
}

TEST(ArgParser, FlagsDefaultFalseAndSetTrue) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--verbose"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_TRUE(parser.get_bool("verbose"));

  auto parser2 = make_parser();
  const char* argv2[] = {"tool"};
  ASSERT_TRUE(parser2.parse(1, argv2));
  EXPECT_FALSE(parser2.get_bool("verbose"));
}

TEST(ArgParser, FallbacksApplyWhenAbsent) {
  auto parser = make_parser();
  const char* argv[] = {"tool"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get_string("name", "default"), "default");
  EXPECT_EQ(parser.get_int("count", 42), 42);
  EXPECT_DOUBLE_EQ(parser.get_double("rate", 1.5), 1.5);
}

TEST(ArgParser, UnknownOptionFailsParse) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--bogus", "1"};
  EXPECT_FALSE(parser.parse(3, argv));
}

TEST(ArgParser, MissingValueFailsParse) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--name"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, HelpReturnsFalse) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, PositionalArgumentsCollected) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "input.txt", "--count", "2", "output.txt"};
  ASSERT_TRUE(parser.parse(5, argv));
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "input.txt");
  EXPECT_EQ(parser.positional()[1], "output.txt");
}

TEST(ArgParser, LastOccurrenceWins) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--count", "1", "--count", "9"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_int("count", 0), 9);
}

// A value must parse whole: a readable prefix ("1e3" as 1, "0.1abc" as 0.1)
// or a silent fallback would run a configuration nobody asked for.
TEST(ArgParser, MalformedValuesAreRejected) {
  const auto parse_one = [](const char* option, const char* value) {
    auto parser = make_parser();
    const std::string arg = std::string(option) + "=" + value;
    const char* argv[] = {"tool", arg.c_str()};
    EXPECT_TRUE(parser.parse(2, argv));
    return parser;
  };
  for (const char* value :
       {"abc", "1e3", "4x", "", " 7", "7 ", "99999999999999999999"}) {
    const auto parser = parse_one("--count", value);
    EXPECT_THROW(parser.get_int("count", 5), std::invalid_argument) << value;
  }
  for (const char* value : {"xyz", "0.1abc", "", "1e999"}) {
    const auto parser = parse_one("--rate", value);
    EXPECT_THROW(parser.get_double("rate", 0.25), std::invalid_argument)
        << value;
  }
  for (const char* value : {"maybe", "2", "TRUE "}) {
    const auto parser = parse_one("--verbose", value);
    EXPECT_THROW(parser.get_bool("verbose"), std::invalid_argument) << value;
  }
  // Integers the requested type cannot hold are refused, never narrowed.
  for (const char* value : {"4294967297", "2147483648", "-2147483649"}) {
    const auto parser = parse_one("--count", value);
    EXPECT_THROW(parser.get_int<int>("count", 5), std::invalid_argument)
        << value;
  }
  for (const char* value : {"-1", "4294967296"}) {
    const auto parser = parse_one("--count", value);
    EXPECT_THROW(parser.get_int<std::uint32_t>("count", 5),
                 std::invalid_argument)
        << value;
  }
  EXPECT_THROW(parse_one("--count", "-1").get_int<std::uint64_t>("count", 5),
               std::invalid_argument);
  try {
    parse_one("--count", "1e3").get_int("count", 5);
    ADD_FAILURE() << "accepted 1e3";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "option --count: '1e3' is not an integer");
  }
  try {
    parse_one("--count", "4294967297").get_int<int>("count", 5);
    ADD_FAILURE() << "accepted 4294967297 as an int";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "option --count: '4294967297' is out of range");
  }
  EXPECT_EQ(parse_one("--count", "2147483647").get_int<int>("count", 5),
            2147483647);
  EXPECT_EQ(parse_one("--count", "4294967295")
                .get_int<std::uint32_t>("count", 5),
            4294967295U);
  EXPECT_EQ(parse_one("--count", "-12").get_int("count", 5), -12);
  EXPECT_DOUBLE_EQ(parse_one("--rate", "1e-3").get_double("rate", 0.0), 1e-3);
  // Non-finite numbers parse; callers refuse them by option name.
  EXPECT_TRUE(std::isnan(parse_one("--rate", "nan").get_double("rate", 0.0)));
  EXPECT_FALSE(parse_one("--verbose", "off").get_bool("verbose", true));
}

TEST(ArgParser, HasReportsPresence) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--name", "x"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_TRUE(parser.has("name"));
  EXPECT_FALSE(parser.has("count"));
}

TEST(ArgParser, UsageMentionsOptionsAndDefaults) {
  const auto parser = make_parser();
  const auto text = parser.usage();
  EXPECT_NE(text.find("--name"), std::string::npos);
  EXPECT_NE(text.find("--verbose"), std::string::npos);
  EXPECT_NE(text.find("default: 3"), std::string::npos);
  EXPECT_NE(text.find("--help"), std::string::npos);
}

TEST(ArgParser, BoolParsingVariants) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--verbose=yes"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_TRUE(parser.get_bool("verbose"));

  auto parser2 = make_parser();
  const char* argv2[] = {"tool", "--verbose=0"};
  ASSERT_TRUE(parser2.parse(2, argv2));
  EXPECT_FALSE(parser2.get_bool("verbose"));
}

}  // namespace
}  // namespace tpa::util
