// Unit tests for the CLI flag parser.
#include "util/flags.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace stx {
namespace {

flag_set parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return flag_set(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const auto f = parse({"--seed=42", "--name=mat2"});
  EXPECT_EQ(f.get_int("seed", 0), 42);
  EXPECT_EQ(f.get_string("name", ""), "mat2");
}

TEST(Flags, SpaceSyntax) {
  const auto f = parse({"--seed", "7"});
  EXPECT_EQ(f.get_int("seed", 0), 7);
}

TEST(Flags, BareFlagIsPresentAndTrue) {
  const auto f = parse({"--verbose"});
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  const auto f = parse({});
  EXPECT_EQ(f.get_int("missing", 9), 9);
  EXPECT_EQ(f.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(f.get_string("missing", "d"), "d");
  EXPECT_FALSE(f.get_bool("missing", false));
  EXPECT_FALSE(f.has("missing"));
}

TEST(Flags, PositionalArgumentsKept) {
  const auto f = parse({"input.trace", "--x=1", "more"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.trace");
  EXPECT_EQ(f.positional()[1], "more");
}

TEST(Flags, DoubleParsing) {
  const auto f = parse({"--thr=0.25"});
  EXPECT_DOUBLE_EQ(f.get_double("thr", 0), 0.25);
}

TEST(Flags, BooleanExplicitValues) {
  EXPECT_TRUE(parse({"--b=true"}).get_bool("b", false));
  EXPECT_TRUE(parse({"--b=1"}).get_bool("b", false));
  EXPECT_FALSE(parse({"--b=false"}).get_bool("b", true));
  EXPECT_FALSE(parse({"--b=0"}).get_bool("b", true));
}

TEST(Flags, RejectsGarbageNumbers) {
  const auto f = parse({"--n=abc"});
  EXPECT_THROW(f.get_int("n", 0), flag_error);
  EXPECT_THROW(f.get_double("n", 0), flag_error);
}

TEST(Flags, RejectsGarbageBool) {
  const auto f = parse({"--b=maybe"});
  EXPECT_THROW(f.get_bool("b", false), flag_error);
}

TEST(Flags, RejectsOutOfRangeAndNonFiniteNumbers) {
  // strtoll saturates and strtod accepts "inf"/"nan": neither may pass
  // silently as a value the user did not type.
  EXPECT_THROW(parse({"--n=99999999999999999999"}).get_int("n", 0),
               flag_error);
  EXPECT_THROW(parse({"--x=inf"}).get_double("x", 0), flag_error);
  EXPECT_THROW(parse({"--x=nan"}).get_double("x", 0), flag_error);
  EXPECT_THROW(parse({"--x=1e999"}).get_double("x", 0), flag_error);
  EXPECT_EQ(parse({"--n=-9223372036854775807"}).get_int("n", 0),
            -9223372036854775807LL);
}

TEST(Flags, FlagErrorIsAnInvalidArgument) {
  // Library callers that catch the broader type keep working.
  EXPECT_THROW(parse({"--n=x"}).get_int("n", 0), invalid_argument_error);
}

TEST(Flags, LaterValueWins) {
  const auto f = parse({"--x=1", "--x=2"});
  EXPECT_EQ(f.get_int("x", 0), 2);
}

TEST(Flags, GetListCollectsRepeatedFlagsInOrder) {
  const auto f = parse({"--grid", "win=200,400", "--x=1", "--grid=thr=0.1",
                        "--grid", "maxtb=0"});
  const auto grids = f.get_list("grid");
  ASSERT_EQ(grids.size(), 3u);
  EXPECT_EQ(grids[0], "win=200,400");
  EXPECT_EQ(grids[1], "thr=0.1");
  EXPECT_EQ(grids[2], "maxtb=0");
  // Scalar lookups keep last-one-wins; absent flags give an empty list.
  EXPECT_EQ(f.get_string("grid", ""), "maxtb=0");
  EXPECT_TRUE(f.get_list("absent").empty());
  EXPECT_EQ(f.get_list("x"), std::vector<std::string>{"1"});
}

TEST(Flags, NamesListsEverySuppliedFlagSorted) {
  const auto f = parse({"--zeta=1", "--alpha", "--mid=x", "positional"});
  const auto names = f.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "mid");
  EXPECT_EQ(names[2], "zeta");
  EXPECT_TRUE(parse({}).names().empty());
}

}  // namespace
}  // namespace stx
