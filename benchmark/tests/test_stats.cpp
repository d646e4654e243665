#include "stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace qif_bench {
namespace {

TEST(BenchStats, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

// Reference values from Python: statistics.quantiles(values, n=4).
TEST(BenchStats, QuartilesMatchPythonExclusiveMethod) {
  const auto expect = [](std::vector<double> values, double q1, double q2, double q3) {
    const Quartiles q = quartiles(std::move(values));
    EXPECT_DOUBLE_EQ(q.q1, q1);
    EXPECT_DOUBLE_EQ(q.q2, q2);
    EXPECT_DOUBLE_EQ(q.q3, q3);
  };
  expect({5, 1, 4, 2, 3}, 1.5, 3.0, 4.5);
  expect({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25);
  expect({1, 2, 3, 4}, 1.25, 2.5, 3.75);
  expect({3, 1}, 0.5, 2.0, 3.5);  // two points extrapolate, as Python does
  expect({10, 11, 12, 13, 100}, 10.5, 12.0, 56.5);
  expect({6}, 6.0, 6.0, 6.0);
  EXPECT_THROW((void)quartiles({}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(relative_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(BenchStats, NearestRankPercentile) {
  const std::vector<double> v = one_to(100);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50), 50);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 99), 99);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100), 100);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0), 1);
}

TEST(BenchStats, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_FALSE(highest_supported_percentile(one_to(19)).has_value());
  const auto p20 = highest_supported_percentile(one_to(20));
  ASSERT_TRUE(p20.has_value());
  EXPECT_DOUBLE_EQ(p20->percentile, 50);
  EXPECT_DOUBLE_EQ(p20->value, 10);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(one_to(99))->percentile, 50);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(one_to(100))->percentile, 90);
  const auto p1000 = highest_supported_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(p1000->percentile, 99);
  EXPECT_DOUBLE_EQ(p1000->value, 990);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(one_to(10000))->percentile, 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(one_to(100000))->percentile, 99.99);
}

std::vector<double> scaled(const std::vector<double>& v, double k) {
  std::vector<double> out;
  for (const double x : v) out.push_back(x * k);
  return out;
}

// Ten steady runs: spread (q3 - q1) / median is about 1%.
const std::vector<double> kSteady = {100.0, 100.4, 99.6, 100.2, 99.8,
                                     100.1, 99.9, 100.3, 99.7, 100.0};

TEST(BenchStats, VerdictWorseBeyondBound) {
  const Comparison c = compare_runs(kSteady, scaled(kSteady, 1.2), Better::kLower, 0.1);
  EXPECT_EQ(c.verdict, Verdict::kWorse);
  EXPECT_NEAR(c.delta, 0.2, 1e-12);
  EXPECT_EQ(c.losses, 10u);
}

TEST(BenchStats, VerdictUnchangedWithinBound) {
  const Comparison c = compare_runs(kSteady, scaled(kSteady, 1.05), Better::kLower, 0.1);
  EXPECT_EQ(c.verdict, Verdict::kUnchanged);
}

TEST(BenchStats, VerdictBetterNeedsNineTenthsOfPairsAndAShiftBeyondTheSpread) {
  EXPECT_EQ(compare_runs(kSteady, scaled(kSteady, 0.9), Better::kLower, 0.1).verdict,
            Verdict::kBetter);
  // One lost pair in ten still leaves nine tenths won.
  std::vector<double> change = scaled(kSteady, 0.9);
  change[0] = 200.0;
  EXPECT_EQ(compare_runs(kSteady, change, Better::kLower, 0.1).verdict, Verdict::kBetter);
  // Two lost pairs do not.
  change[1] = 200.0;
  EXPECT_NE(compare_runs(kSteady, change, Better::kLower, 0.1).verdict, Verdict::kBetter);
  // Fewer than ten pairs never make a gain, however clear.
  EXPECT_NE(compare_runs({100, 100, 100}, {50, 50, 50}, Better::kLower, 0.1).verdict,
            Verdict::kBetter);
  // Ties count for neither side.
  const Comparison tie = compare_runs(kSteady, kSteady, Better::kLower, 0.1);
  EXPECT_EQ(tie.wins, 0u);
  EXPECT_EQ(tie.losses, 0u);
  EXPECT_EQ(tie.verdict, Verdict::kUnchanged);
}

TEST(BenchStats, VerdictUnresolvedWhenSpreadExceedsBound) {
  const std::vector<double> noisy = one_to(10);  // spread 1.0
  const Comparison c = compare_runs(noisy, scaled(noisy, 1.05), Better::kLower, 0.1);
  EXPECT_GT(c.spread, 0.1);
  EXPECT_EQ(c.verdict, Verdict::kUnresolved);
  // Even a median within the bound is unresolved, not unchanged.
  EXPECT_EQ(compare_runs(noisy, scaled(noisy, 0.99), Better::kLower, 0.1).verdict,
            Verdict::kUnresolved);
}

TEST(BenchStats, VerdictWideSpreadButEveryChangeRunBetterIsNoRegression) {
  const std::vector<double> parent = {10, 11, 12, 13, 100};
  const std::vector<double> change = {9, 9, 9, 9, 9};
  const Comparison c = compare_runs(parent, change, Better::kLower, 0.1);
  EXPECT_GT(c.spread, 0.1);
  EXPECT_EQ(c.verdict, Verdict::kUnchanged);
}

TEST(BenchStats, VerdictHigherIsBetter) {
  EXPECT_EQ(compare_runs(kSteady, scaled(kSteady, 0.8), Better::kHigher, 0.1).verdict,
            Verdict::kWorse);
  EXPECT_EQ(compare_runs(kSteady, scaled(kSteady, 1.1), Better::kHigher, 0.1).verdict,
            Verdict::kBetter);
}

TEST(BenchStats, VerdictNeedsRunsOnBothSides) {
  EXPECT_THROW((void)compare_runs({}, kSteady, Better::kLower, 0.1), std::invalid_argument);
}

}  // namespace
}  // namespace qif_bench
