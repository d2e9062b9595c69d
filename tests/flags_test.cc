// Tests for the CLI flags parser (tools/flags.h).

#include <gtest/gtest.h>

#include "tools/flags.h"

namespace hattrick {
namespace tools {
namespace {

Flags Parse(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, KeyEqualsValue) {
  const Flags flags = Parse({"--mode=frontier", "--sf=10"});
  EXPECT_EQ(flags.GetString("mode", ""), "frontier");
  EXPECT_EQ(flags.GetInt("sf", 0), 10);
}

TEST(FlagsTest, KeySpaceValue) {
  const Flags flags = Parse({"--system", "tidb", "--t", "8"});
  EXPECT_EQ(flags.GetString("system", ""), "tidb");
  EXPECT_EQ(flags.GetInt("t", 0), 8);
}

TEST(FlagsTest, BareFlagIsTrue) {
  const Flags flags = Parse({"--threaded"});
  EXPECT_TRUE(flags.GetBool("threaded", false));
  EXPECT_TRUE(flags.Has("threaded"));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const Flags flags = Parse({});
  EXPECT_EQ(flags.GetString("mode", "point"), "point");
  EXPECT_EQ(flags.GetInt("t", 4), 4);
  EXPECT_DOUBLE_EQ(flags.GetDouble("sf", 1.5), 1.5);
  EXPECT_FALSE(flags.GetBool("threaded", false));
  EXPECT_FALSE(flags.Has("mode"));
}

TEST(FlagsTest, DoubleValues) {
  const Flags flags = Parse({"--measure=2.5"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("measure", 0), 2.5);
}

TEST(FlagsTest, BoolSpellings) {
  EXPECT_TRUE(Parse({"--x=yes"}).GetBool("x", false));
  EXPECT_TRUE(Parse({"--x=1"}).GetBool("x", false));
  EXPECT_TRUE(Parse({"--x=true"}).GetBool("x", false));
  EXPECT_FALSE(Parse({"--x=no"}).GetBool("x", true));
}

TEST(FlagsTest, PositionalCollected) {
  const Flags flags = Parse({"input.csv", "--mode=sweep", "extra"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "extra");
}

TEST(FlagsTest, BareFlagBeforeAnotherFlag) {
  const Flags flags = Parse({"--verbose", "--sf=2"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("sf", 0), 2);
}

TEST(FlagsTest, GetPositiveIntAcceptsPositiveValues) {
  EXPECT_EQ(Parse({"--batch-size=1"}).GetPositiveInt("batch-size", 1024), 1);
  EXPECT_EQ(Parse({"--batch-size=4096"}).GetPositiveInt("batch-size", 1024),
            4096);
}

TEST(FlagsTest, GetPositiveIntRejectsZeroAndNegatives) {
  // A batch of zero rows can make no progress and a negative width is
  // meaningless: both are usage errors, not a silent fallback.
  EXPECT_EXIT(Parse({"--batch-size=0"}).GetPositiveInt("batch-size", 1024),
              ::testing::ExitedWithCode(2),
              "--batch-size: expected a positive integer, got '0'");
  EXPECT_EXIT(Parse({"--batch-size=-5"}).GetPositiveInt("batch-size", 1024),
              ::testing::ExitedWithCode(2), "got '-5'");
}

TEST(FlagsTest, GetPositiveIntRejectsGarbage) {
  EXPECT_EXIT(
      Parse({"--batch-size=banana"}).GetPositiveInt("batch-size", 1024),
      ::testing::ExitedWithCode(2), "got 'banana'");
  EXPECT_EXIT(Parse({"--batch-size=12x"}).GetPositiveInt("batch-size", 1024),
              ::testing::ExitedWithCode(2), "got '12x'");
  EXPECT_EXIT(
      Parse({"--batch-size=99999999999"}).GetPositiveInt("batch-size", 1024),
      ::testing::ExitedWithCode(2), "got '99999999999'");
}

TEST(FlagsTest, GetIntAcceptsSignedIntegers) {
  EXPECT_EQ(Parse({"--seed=-3"}).GetInt("seed", 7), -3);
  EXPECT_EQ(Parse({"--seed=0"}).GetInt("seed", 7), 0);
  EXPECT_EQ(Parse({"--seed=2147483647"}).GetInt("seed", 7), 2147483647);
}

TEST(FlagsTest, GetIntRejectsGarbage) {
  // atoi would have run these silently with 0 (or a truncated value).
  EXPECT_EXIT(Parse({"--seed=abc"}).GetInt("seed", 7),
              ::testing::ExitedWithCode(2),
              "--seed: expected an integer, got 'abc'");
  EXPECT_EXIT(Parse({"--seed="}).GetInt("seed", 7),
              ::testing::ExitedWithCode(2), "got ''");
  EXPECT_EXIT(Parse({"--t=4x"}).GetInt("t", 4), ::testing::ExitedWithCode(2),
              "got '4x'");
  EXPECT_EXIT(Parse({"--t=2.5"}).GetInt("t", 4), ::testing::ExitedWithCode(2),
              "got '2.5'");
  EXPECT_EXIT(Parse({"--t=2147483648"}).GetInt("t", 4),
              ::testing::ExitedWithCode(2), "got '2147483648'");
  EXPECT_EXIT(Parse({"--t=-99999999999999999999"}).GetInt("t", 4),
              ::testing::ExitedWithCode(2), "got '-99999999999999999999'");
  // Bounded ints parse strictly too, before clamping.
  EXPECT_EXIT(Parse({"--dop=two"}).GetBoundedInt("dop", 1, 1, 64),
              ::testing::ExitedWithCode(2), "--dop: expected an integer");
  EXPECT_EQ(Parse({"--dop=100"}).GetBoundedInt("dop", 1, 1, 64), 64);
}

TEST(FlagsTest, GetDoubleAcceptsNumbers) {
  EXPECT_DOUBLE_EQ(Parse({"--sf=10"}).GetDouble("sf", 1), 10.0);
  EXPECT_DOUBLE_EQ(Parse({"--sf=-0.25"}).GetDouble("sf", 1), -0.25);
  EXPECT_DOUBLE_EQ(Parse({"--sf=1e-3"}).GetDouble("sf", 1), 0.001);
}

TEST(FlagsTest, GetDoubleRejectsGarbage) {
  EXPECT_EXIT(Parse({"--measure=fast"}).GetDouble("measure", 1),
              ::testing::ExitedWithCode(2),
              "--measure: expected a number, got 'fast'");
  EXPECT_EXIT(Parse({"--measure="}).GetDouble("measure", 1),
              ::testing::ExitedWithCode(2), "got ''");
  EXPECT_EXIT(Parse({"--measure=0.5s"}).GetDouble("measure", 1),
              ::testing::ExitedWithCode(2), "got '0.5s'");
  EXPECT_EXIT(Parse({"--sf=1e999"}).GetDouble("sf", 1),
              ::testing::ExitedWithCode(2), "got '1e999'");
  EXPECT_EXIT(Parse({"--sf=nan"}).GetDouble("sf", 1),
              ::testing::ExitedWithCode(2), "got 'nan'");
  EXPECT_EXIT(Parse({"--sf=inf"}).GetDouble("sf", 1),
              ::testing::ExitedWithCode(2), "got 'inf'");
}

TEST(FlagsTest, GetPositiveIntUsesFallbackWhenAbsent) {
  EXPECT_EQ(Parse({}).GetPositiveInt("batch-size", 1024), 1024);
}

TEST(FlagsTest, UnreadListsFlagsNoGetterAskedFor) {
  const Flags flags =
      Parse({"--sf=2", "--bogus_flag=3", "--rows_per_sf=100", "--verbose"});
  EXPECT_EQ(flags.GetInt("sf", 1), 2);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.Unread(),
            (std::vector<std::string>{"bogus_flag", "rows_per_sf"}));
}

TEST(FlagsTest, HasAndAbsentLookupsCountAsRead) {
  const Flags flags = Parse({"--schema=all", "--t=3"});
  EXPECT_TRUE(flags.Has("schema"));
  EXPECT_EQ(flags.GetInt("a", 2), 2);  // absent: nothing to report
  EXPECT_EQ(flags.Unread(), std::vector<std::string>{"t"});
  EXPECT_EQ(flags.GetInt("t", 4), 3);
  EXPECT_TRUE(flags.Unread().empty());
  EXPECT_FALSE(flags.ReportUnread("prog"));
}

TEST(FlagsTest, ReportUnreadNamesEveryUnreadFlag) {
  const Flags flags = Parse({"--bogus_flag=3", "--other", "x"});
  testing::internal::CaptureStderr();
  EXPECT_TRUE(flags.ReportUnread("tool"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "tool: unknown flag(s): --bogus_flag --other\n");
}

}  // namespace
}  // namespace tools
}  // namespace hattrick
