// Unit tests for the command-line parser shared by the qif CLI and bench/.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli_options.hpp"

namespace qif::cli {
namespace {

const Command kCmd{"prog sub",
                   "<in> <out>",
                   2,
                   "a test command",
                   {{"jobs", Kind::kInt, "N", "workers", "1", 1},
                    {"richness", Kind::kReal, "R", "size", "0.5", 0},
                    {"name", Kind::kText, "S", "a name", "dflt"},
                    {"out", Kind::kText, "F", "required file", "", {}, true},
                    {"sync", Kind::kFlag, "", "a flag"},
                    {"scale", Kind::kReal, "S", "a multiplier", "1", 0, false, true}}};

Args parse_words(std::vector<std::string> words) { return parse(kCmd, words); }

/// The UsageError message parse() throws for `words`, or "" if none.
std::string usage_error(std::vector<std::string> words, const Command& cmd = kCmd) {
  try {
    (void)parse(cmd, words);
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(Options, EditDistance) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("jobs", "jobs"), 0u);
  EXPECT_EQ(edit_distance("richnes", "richness"), 1u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
}

TEST(Options, UnknownOptionNamesTheNearestAccepted) {
  EXPECT_EQ(usage_error({"a", "b", "--out", "f", "--richnes", "1"}),
            "unknown option --richnes for `prog sub` (did you mean --richness?)");
  EXPECT_EQ(usage_error({"a", "b", "--out", "f", "--snyc"}),
            "unknown option --snyc for `prog sub` (did you mean --sync?)");
  const Command bare{"bare", "", 0, "no options", {}};
  EXPECT_EQ(usage_error({"--x"}, bare), "unknown option --x for `bare` (it takes no options)");
}

TEST(Options, ValuelessOptionIsRefused) {
  EXPECT_EQ(usage_error({"a", "b", "--out"}), "option --out needs a value");
  EXPECT_EQ(usage_error({"a", "b", "--jobs", "--out", "f"}), "option --jobs needs a value");
  // A word that starts with a single dash is a value, not an option.
  EXPECT_EQ(usage_error({"a", "b", "--out", "f", "--jobs", "-3"}),
            "bad --jobs value '-3': below the minimum 1");
}

TEST(Options, FlagsTakeNoValue) {
  const Args on = parse_words({"--sync", "a", "b", "--out", "f"});
  EXPECT_TRUE(on.has("sync"));
  EXPECT_EQ(on.positional, (std::vector<std::string>{"a", "b"}));
  const Args off = parse_words({"a", "b", "--out", "f"});
  EXPECT_FALSE(off.has("sync"));
}

TEST(Options, RepeatedValuesKeepTheirOrder) {
  const Args args = parse_words(
      {"a", "b", "--out", "f", "--richness", "2", "--richness", "0.25", "--richness", "1"});
  EXPECT_EQ(args.all<double>("richness"), (std::vector<double>{2.0, 0.25, 1.0}));
  EXPECT_EQ(args.all("richness"), (std::vector<std::string>{"2", "0.25", "1"}));
  EXPECT_DOUBLE_EQ(args.get<double>("richness"), 1.0);  // the last one
  EXPECT_TRUE(args.all("jobs").empty());
}

TEST(Options, DefaultsComeFromTheDeclaration) {
  const Args args = parse_words({"a", "b", "--out", "f"});
  EXPECT_FALSE(args.has("jobs"));
  EXPECT_EQ(args.get<int>("jobs"), 1);
  EXPECT_DOUBLE_EQ(args.get<double>("richness"), 0.5);
  EXPECT_DOUBLE_EQ(args.get<double>("jobs"), 1.0);
  EXPECT_EQ(args.get("name"), "dflt");
  EXPECT_EQ(args.get("out"), "f");
  // Reading an option the command does not declare is a program bug.
  EXPECT_THROW((void)args.get("nosuch"), std::logic_error);
  EXPECT_THROW((void)args.get<int>("richness"), std::logic_error);
  EXPECT_THROW((void)args.get<int>("name"), std::logic_error);
}

TEST(Options, NumbersParseInFull) {
  const std::vector<std::string> base = {"a", "b", "--out", "f"};
  const auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> w = base;
    w.insert(w.end(), extra.begin(), extra.end());
    return w;
  };
  EXPECT_EQ(parse_words(with({"--jobs", "12"})).get<int>("jobs"), 12);
  EXPECT_DOUBLE_EQ(parse_words(with({"--richness", "2.5e-1"})).get<double>("richness"), 0.25);
  EXPECT_EQ(usage_error(with({"--jobs", "two"})), "bad --jobs value 'two': not a number");
  EXPECT_EQ(usage_error(with({"--jobs", "3x"})), "bad --jobs value '3x': not a number");
  EXPECT_EQ(usage_error(with({"--jobs", "1.5"})), "bad --jobs value '1.5': not a number");
  EXPECT_EQ(usage_error(with({"--jobs", "99999999999"})),
            "bad --jobs value '99999999999': not a number");
  EXPECT_EQ(usage_error(with({"--jobs", ""})), "bad --jobs value '': not a number");
  EXPECT_EQ(usage_error(with({"--richness", "abc"})),
            "bad --richness value 'abc': not a number");
  EXPECT_EQ(usage_error(with({"--richness", "0.5 "})),
            "bad --richness value '0.5 ': not a number");
  EXPECT_EQ(usage_error(with({"--richness", "nan"})),
            "bad --richness value 'nan': not a number");
  EXPECT_EQ(usage_error(with({"--richness", "inf"})),
            "bad --richness value 'inf': not a number");
  // Text options take any word.
  EXPECT_EQ(parse_words(with({"--name", "-7"})).get("name"), "-7");
}

TEST(Options, ValuesBelowTheMinimumAreRefused) {
  const std::vector<std::string> base = {"a", "b", "--out", "f"};
  auto w = base;
  w.insert(w.end(), {"--jobs", "0"});
  EXPECT_EQ(usage_error(w), "bad --jobs value '0': below the minimum 1");
  w = base;
  w.insert(w.end(), {"--richness", "-0.5"});
  EXPECT_EQ(usage_error(w), "bad --richness value '-0.5': below the minimum 0");
  w = base;
  w.insert(w.end(), {"--jobs", "1", "--richness", "0"});
  const Args at_min = parse_words(w);
  EXPECT_EQ(at_min.get<int>("jobs"), 1);
  EXPECT_DOUBLE_EQ(at_min.get<double>("richness"), 0.0);
}

TEST(Options, AnAboveMinimumBoundRefusesTheMinimumItself) {
  const std::vector<std::string> base = {"a", "b", "--out", "f"};
  auto w = base;
  w.insert(w.end(), {"--scale", "0"});
  EXPECT_EQ(usage_error(w), "bad --scale value '0': not above 0");
  w = base;
  w.insert(w.end(), {"--scale", "-1"});
  EXPECT_EQ(usage_error(w), "bad --scale value '-1': not above 0");
  w = base;
  w.insert(w.end(), {"--scale", "0.001"});
  EXPECT_DOUBLE_EQ(parse_words(w).get<double>("scale"), 0.001);
}

TEST(Options, RequiredOptionsMustBeGiven) {
  EXPECT_EQ(usage_error({"a", "b"}), "missing required option --out");
  EXPECT_EQ(usage_error({"a", "b", "--jobs", "2"}), "missing required option --out");
}

TEST(Options, PositionalArityAndPassthrough) {
  EXPECT_EQ(usage_error({"--out", "f"}), "`prog sub` takes <in> <out>, got 0 argument(s)");
  EXPECT_EQ(usage_error({"a", "--out", "f"}), "`prog sub` takes <in> <out>, got 1 argument(s)");
  EXPECT_EQ(usage_error({"a", "b", "c", "--out", "f"}),
            "`prog sub` takes <in> <out>, got 3 argument(s)");
  // Positionals interleave with options and pass through verbatim, in
  // order, including words that begin with a single dash.
  const Args args = parse_words({"-", "--jobs", "3", "-x.csv", "--out", "f"});
  EXPECT_EQ(args.positional, (std::vector<std::string>{"-", "-x.csv"}));
  EXPECT_EQ(args.get<int>("jobs"), 3);
  const Command none{"none", "", 0, "no positionals", {}};
  EXPECT_TRUE(parse(none, {}).positional.empty());
  EXPECT_EQ(usage_error({"extra"}, none), "`none` takes no arguments, got 1 argument(s)");
}

}  // namespace
}  // namespace qif::cli
