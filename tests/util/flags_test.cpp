#include "util/flags.h"

#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <vector>

namespace shuffledef::util {
namespace {

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

TEST(Flags, ParsesAllTypes) {
  Flags flags("test", "test program");
  auto& i = flags.add_int("count", 1, "a count");
  auto& d = flags.add_double("rate", 0.5, "a rate");
  auto& b = flags.add_bool("full", false, "full mode");
  auto& s = flags.add_string("name", "x", "a name");

  std::vector<std::string> args = {"prog", "--count", "7", "--rate=2.25",
                                   "--full", "--name", "hello"};
  auto argv = argv_of(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(i, 7);
  EXPECT_DOUBLE_EQ(d, 2.25);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
}

TEST(Flags, DefaultsSurviveEmptyParse) {
  Flags flags("test", "t");
  auto& i = flags.add_int("n", 42, "n");
  std::vector<std::string> args = {"prog"};
  auto argv = argv_of(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(i, 42);
}

TEST(Flags, BoolExplicitValues) {
  Flags flags("test", "t");
  auto& b = flags.add_bool("flag", true, "b");
  std::vector<std::string> args = {"prog", "--flag=false"};
  auto argv = argv_of(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_FALSE(b);
}

// Bad command lines print the message and usage to stderr and exit 2.
void parse_args(Flags& flags, std::vector<std::string> args) {
  auto argv = argv_of(args);
  flags.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags("test", "t");
  flags.add_int("n", 0, "the n flag");
  EXPECT_EXIT(parse_args(flags, {"prog", "--nope", "1"}),
              ::testing::ExitedWithCode(2),
              "test: unknown flag --nope(.|\n)*Flags:(.|\n)*the n flag");
}

TEST(Flags, MalformedValueThrows) {
  Flags flags("test", "t");
  flags.add_int("n", 0, "n");
  flags.add_double("rate", 0.5, "r");
  flags.add_bool("on", false, "b");
  EXPECT_EXIT(parse_args(flags, {"prog", "--n", "abc"}),
              ::testing::ExitedWithCode(2), "invalid value for --n: 'abc'");
  // A value must parse in full: no silent truncation to a prefix.
  EXPECT_EXIT(parse_args(flags, {"prog", "--n=10x"}),
              ::testing::ExitedWithCode(2), "invalid value for --n: '10x'");
  EXPECT_EXIT(parse_args(flags, {"prog", "--n", "1e6"}),
              ::testing::ExitedWithCode(2), "invalid value for --n: '1e6'");
  EXPECT_EXIT(parse_args(flags, {"prog", "--n", "99999999999999999999"}),
              ::testing::ExitedWithCode(2), "invalid value for --n");
  EXPECT_EXIT(parse_args(flags, {"prog", "--rate", "0.5s"}),
              ::testing::ExitedWithCode(2), "invalid value for --rate");
  EXPECT_EXIT(parse_args(flags, {"prog", "--on=yes"}),
              ::testing::ExitedWithCode(2), "invalid value for --on: 'yes'");
}

TEST(Flags, MissingValueThrows) {
  Flags flags("test", "t");
  flags.add_int("n", 0, "n");
  EXPECT_EXIT(parse_args(flags, {"prog", "--n"}), ::testing::ExitedWithCode(2),
              "missing value for --n");
}

TEST(Flags, PositionalArgumentThrows) {
  Flags flags("test", "t");
  EXPECT_EXIT(parse_args(flags, {"prog", "stray"}),
              ::testing::ExitedWithCode(2),
              "unexpected positional argument: stray");
}

TEST(Flags, DuplicateRegistrationThrows) {
  // Each name has one owner; a second registration would be dead code.
  Flags flags("test", "t");
  flags.add_string("out", "", "first owner");
  EXPECT_THROW(flags.add_string("out", "", "second owner"), std::logic_error);
  EXPECT_THROW(flags.add_int("out", 0, "other type"), std::logic_error);
}

TEST(Flags, UsageMentionsFlagsAndDefaults) {
  Flags flags("prog", "does things");
  flags.add_int("alpha", 3, "the alpha");
  const auto usage = flags.usage();
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("3"), std::string::npos);
  EXPECT_NE(usage.find("does things"), std::string::npos);
}

}  // namespace
}  // namespace shuffledef::util
