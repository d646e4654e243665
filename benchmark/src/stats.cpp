#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace qif_bench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles of an empty sample");
  std::sort(values.begin(), values.end());
  const auto n = static_cast<long>(values.size());
  if (n == 1) return {values[0], values[0], values[0]};
  // Python's "exclusive" method: position i*(n+1)/4, clamped to [1, n-1],
  // interpolated with exact integer arithmetic on the fractional part.
  double q[3] = {};
  const long m = n + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

double relative_spread(const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  const double mid = median(values);
  return mid == 0.0 ? 0.0 : (q.q3 - q.q1) / std::fabs(mid);
}

namespace {

/// 1-based nearest rank of percentile p among n samples.  The tolerance
/// keeps 99.9% of 10000 at rank 9990 although 0.999 * 10000 rounds above it.
std::size_t nearest_rank(double p, std::size_t n) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9 * exact));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of an empty sample");
  return sorted[nearest_rank(p, sorted.size()) - 1];
}

std::optional<TailPercentile> highest_supported_percentile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::optional<TailPercentile> best;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly above the nearest-rank position.
    if (values.empty() || values.size() - nearest_rank(p, values.size()) < 10) break;
    best = TailPercentile{p, percentile_sorted(values, p)};
  }
  return best;
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kBetter: return "better";
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kWorse: return "worse";
    case Verdict::kUnresolved: return "unresolved";
  }
  return "?";
}

Comparison compare_runs(const std::vector<double>& parent, const std::vector<double>& change,
                        Better better, double bound) {
  if (parent.empty() || change.empty()) {
    throw std::invalid_argument("compare_runs needs runs on both sides");
  }
  // Sign convention: `worse(a, b)` > 0 when a reads worse than b.
  const double sign = better == Better::kLower ? 1.0 : -1.0;
  Comparison c;
  c.parent = quartiles(parent);
  c.change = quartiles(change);
  c.pairs = std::min(parent.size(), change.size());
  for (std::size_t i = 0; i < c.pairs; ++i) {
    const double d = sign * (change[i] - parent[i]);
    if (d < 0) ++c.wins;
    if (d > 0) ++c.losses;
  }
  c.spread = std::max(relative_spread(parent), relative_spread(change));
  const double diff = sign * (c.change.q2 - c.parent.q2);
  if (c.parent.q2 != 0.0) {
    c.delta = diff / std::fabs(c.parent.q2);
  } else {
    c.delta = diff == 0.0 ? 0.0 : std::copysign(std::numeric_limits<double>::infinity(), diff);
  }

  const bool wins_enough = c.pairs >= kMinPairs && c.wins * 10 >= c.pairs * 9;
  const bool beyond_spread = std::fabs(diff) > c.parent.q3 - c.parent.q1;
  if (diff < 0 && wins_enough && beyond_spread) {
    c.verdict = Verdict::kBetter;
  } else if (c.spread > bound) {
    const double worst_change = better == Better::kLower
                                    ? *std::max_element(change.begin(), change.end())
                                    : *std::min_element(change.begin(), change.end());
    const double best_parent = better == Better::kLower
                                   ? *std::min_element(parent.begin(), parent.end())
                                   : *std::max_element(parent.begin(), parent.end());
    const bool every_change_better = sign * (worst_change - best_parent) < 0;
    c.verdict = every_change_better ? Verdict::kUnchanged : Verdict::kUnresolved;
  } else if (c.delta > bound) {
    c.verdict = Verdict::kWorse;
  } else {
    c.verdict = Verdict::kUnchanged;
  }
  return c;
}

}  // namespace qif_bench
