// Statistics helpers shared by the benchmark driver and its comparison
// mode.  Quartiles follow Python's statistics.quantiles(n=4) (the default
// "exclusive" method), so the driver, compare.py and anyone re-checking a
// result file by hand all compute the same numbers.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace qif_bench {

/// Median (mean of the two middle values for an even count).  Throws
/// std::invalid_argument on an empty sample.
[[nodiscard]] double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// statistics.quantiles(values, n=4) for two or more values; a single
/// value is its own three quartiles.  Throws on an empty sample.
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// (q3 - q1) / median: the run-to-run spread as a share of the median.
/// 0 when the median is 0.
[[nodiscard]] double relative_spread(const std::vector<double>& values);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it.  `sorted` must be ascending and non-empty.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted, double p);

struct TailPercentile {
  double percentile = 0.0;  ///< e.g. 99.9
  double value = 0.0;
};

/// The highest of p50, p90, p99, p99.9, p99.99 that still has at least ten
/// samples beyond it, with its value.  Empty when fewer than 20 samples
/// exist (not even the median has ten samples above it).
[[nodiscard]] std::optional<TailPercentile> highest_supported_percentile(
    std::vector<double> values);

enum class Better { kLower, kHigher };

enum class Verdict {
  kBetter,      ///< gain rule met: >= 90% pair wins and a shift beyond the spread
  kUnchanged,   ///< median within the bound of the parent's
  kWorse,       ///< median worse than the parent's by more than the bound
  kUnresolved,  ///< spread wider than the bound; cannot tell
};

[[nodiscard]] const char* to_string(Verdict v);

struct Comparison {
  Quartiles parent;
  Quartiles change;
  std::size_t pairs = 0;  ///< runs paired by index
  std::size_t wins = 0;   ///< pairs where the change reads strictly better
  std::size_t losses = 0; ///< pairs where the parent reads strictly better
  double spread = 0.0;    ///< larger relative spread of the two sides
  double delta = 0.0;     ///< (change - parent) / parent median, + = worse
  Verdict verdict = Verdict::kUnchanged;
};

/// Fewest index-paired runs on which a gain can be claimed.
inline constexpr std::size_t kMinPairs = 10;

/// Compares two sets of runs of one metric on one workload.
///
/// - kBetter: at least kMinPairs pairs, the change wins at least nine
///   tenths of the index-paired runs (ties count for neither side), and its
///   median beats the parent's by more than the parent's quartile distance.
/// - kUnresolved: either side's spread exceeds `bound`, unless every change
///   run reads better than every parent run (then kUnchanged: no
///   regression, though not a claimable gain).
/// - kWorse: the change median is worse by more than `bound` x the parent
///   median.
/// - kUnchanged: otherwise.
///
/// Throws std::invalid_argument when either side is empty.
[[nodiscard]] Comparison compare_runs(const std::vector<double>& parent,
                                      const std::vector<double>& change, Better better,
                                      double bound);

}  // namespace qif_bench
