#include "qif/ml/preprocess.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qif/sim/rng.hpp"

namespace qif::ml {
namespace {

/// The pooled per-server-column Welford pass shared by both fit overloads:
/// `row(k)` yields the k-th row pointer for k in [0, n_rows).  One code
/// path, so the in-RAM and streaming fits cannot drift apart numerically.
template <typename RowFn>
void welford_fit(std::size_t n_rows, std::size_t width, std::size_t d, RowFn row,
                 std::vector<double>& mean, std::vector<double>& inv_std) {
  mean.assign(d, 0.0);
  inv_std.assign(d, 1.0);
  if (n_rows == 0) return;
  std::vector<double> m2(d, 0.0);
  std::size_t n = 0;
  for (std::size_t k = 0; k < n_rows; ++k) {
    const double* r = row(k);
    for (std::size_t off = 0; off < width; off += d) {
      ++n;
      for (std::size_t j = 0; j < d; ++j) {
        const double x = r[off + j];
        const double delta = x - mean[j];
        mean[j] += delta / static_cast<double>(n);
        m2[j] += delta * (x - mean[j]);
      }
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    const double var = n > 1 ? m2[j] / static_cast<double>(n) : 0.0;
    const double sd = std::sqrt(var);
    inv_std[j] = sd > 1e-12 ? 1.0 / sd : 1.0;  // constant features pass through
  }
}

}  // namespace

void Standardizer::fit(const monitor::TableView& ds) {
  welford_fit(
      ds.size(), ds.width(), static_cast<std::size_t>(ds.dim()),
      [&ds](std::size_t k) { return ds.row(k); }, mean_, inv_std_);
}

void Standardizer::fit(const monitor::RowAccess& rows, const std::vector<std::size_t>& idx) {
  welford_fit(
      idx.size(), rows.width(), static_cast<std::size_t>(rows.dim()),
      [&rows, &idx](std::size_t k) { return rows.row(idx[k]); }, mean_, inv_std_);
}

void Standardizer::transform(std::vector<double>& features) const {
  const std::size_t d = mean_.size();
  if (d == 0) return;
  for (std::size_t off = 0; off < features.size(); off += d) {
    for (std::size_t j = 0; j < d; ++j) {
      features[off + j] = (features[off + j] - mean_[j]) * inv_std_[j];
    }
  }
}

void Standardizer::transform_into(const double* src, std::size_t n, double* dst) const {
  const std::size_t d = mean_.size();
  if (d == 0) {
    std::copy(src, src + n, dst);
    return;
  }
  for (std::size_t off = 0; off < n; off += d) {
    for (std::size_t j = 0; j < d; ++j) {
      dst[off + j] = (src[off + j] - mean_[j]) * inv_std_[j];
    }
  }
}

Standardizer Standardizer::from_moments(std::vector<double> mean,
                                        std::vector<double> inv_std) {
  if (mean.size() != inv_std.size()) {
    throw std::invalid_argument("standardizer from_moments: " +
                                std::to_string(mean.size()) + " means vs " +
                                std::to_string(inv_std.size()) + " scales");
  }
  Standardizer s;
  s.mean_ = std::move(mean);
  s.inv_std_ = std::move(inv_std);
  return s;
}

std::pair<std::vector<std::size_t>, std::vector<std::size_t>> split_rows(
    std::size_t n, double test_fraction, std::uint64_t seed) {
  if (n == 0) return {{}, {}};
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  sim::Rng rng(sim::Rng::derive_seed(seed, "split"));
  // Fisher-Yates shuffle.
  for (std::size_t i = idx.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(idx[i - 1], idx[j]);
  }
  // Clamp the fraction BEFORE computing the count: the old code fed the
  // raw fraction to llround, so 1.5 yielded n_test > n and the train-size
  // subtraction underflowed to a near-SIZE_MAX allocation, and a negative
  // fraction wrapped to a huge n_test.  NaN fails both comparisons and
  // lands on the zero-test branch.
  double f = test_fraction;
  if (!(f > 0.0)) f = 0.0;
  if (f > 1.0) f = 1.0;
  auto n_test =
      static_cast<std::size_t>(std::llround(f * static_cast<double>(n)));
  if (n_test > n) n_test = n;
  // Rounding can claim every sample for the test split (e.g. n = 2,
  // fraction 0.8); keep at least one training sample unless the caller
  // explicitly asked for a pure test set.
  if (test_fraction < 1.0 && n_test >= n) n_test = n - 1;
  // Membership and *order* both match the historical materializing
  // implementation exactly: test gets the first n_test shuffled rows,
  // train the rest, so order-sensitive downstream stats (the Welford fit)
  // are bit-identical.
  std::vector<std::size_t> test_rows(n_test);
  std::vector<std::size_t> train_rows(n - n_test);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    (k < n_test ? test_rows[k] : train_rows[k - n_test]) = idx[k];
  }
  return {std::move(train_rows), std::move(test_rows)};
}

std::pair<monitor::TableView, monitor::TableView> split_dataset(const monitor::TableView& ds,
                                                                double test_fraction,
                                                                std::uint64_t seed) {
  auto [train_rows, test_rows] = split_rows(ds.size(), test_fraction, seed);
  if (ds.table() == nullptr) return {monitor::TableView{}, monitor::TableView{}};
  // Map view-local indices to backing-table rows (identity for a whole-
  // table view), preserving order.
  for (std::size_t& r : train_rows) r = ds.base_row(r);
  for (std::size_t& r : test_rows) r = ds.base_row(r);
  return {monitor::TableView(*ds.table(), std::move(train_rows)),
          monitor::TableView(*ds.table(), std::move(test_rows))};
}

void gather_standardized(const monitor::TableView& ds, const Standardizer* stdz, Matrix& x,
                         std::vector<int>& y) {
  const std::size_t width = ds.width();
  x.resize(ds.size(), width);
  y.resize(ds.size());
  const bool standardize = stdz != nullptr && stdz->fitted();
  for (std::size_t k = 0; k < ds.size(); ++k) {
    const double* src = ds.row(k);
    if (standardize) {
      stdz->transform_into(src, width, x.row(k));
    } else {
      std::copy(src, src + width, x.row(k));
    }
    y[k] = ds.label(k);
  }
}

void gather_standardized(const monitor::RowAccess& rows,
                         const std::vector<std::size_t>& idx, const Standardizer* stdz,
                         Matrix& x, std::vector<int>& y) {
  const std::size_t width = rows.width();
  x.resize(idx.size(), width);
  y.resize(idx.size());
  const bool standardize = stdz != nullptr && stdz->fitted();
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const double* src = rows.row(idx[k]);
    if (standardize) {
      stdz->transform_into(src, width, x.row(k));
    } else {
      std::copy(src, src + width, x.row(k));
    }
    y[k] = rows.label(idx[k]);
  }
}

namespace {

std::vector<double> weights_from_counts(const std::vector<std::size_t>& counts,
                                        std::size_t total, int n_classes) {
  std::vector<double> w(static_cast<std::size_t>(n_classes), 1.0);
  const double n = static_cast<double>(total);
  for (int c = 0; c < n_classes; ++c) {
    const auto nc = counts[static_cast<std::size_t>(c)];
    w[static_cast<std::size_t>(c)] =
        nc == 0 ? 0.0 : n / (static_cast<double>(n_classes) * static_cast<double>(nc));
  }
  return w;
}

}  // namespace

std::vector<double> inverse_frequency_weights(const monitor::TableView& ds, int n_classes) {
  std::vector<std::size_t> counts(static_cast<std::size_t>(n_classes), 0);
  for (std::size_t k = 0; k < ds.size(); ++k) {
    const int l = ds.label(k);
    if (l >= 0 && l < n_classes) counts[static_cast<std::size_t>(l)] += 1;
  }
  return weights_from_counts(counts, ds.size(), n_classes);
}

std::vector<double> inverse_frequency_weights(const monitor::RowAccess& rows,
                                              const std::vector<std::size_t>& idx,
                                              int n_classes) {
  std::vector<std::size_t> counts(static_cast<std::size_t>(n_classes), 0);
  for (const std::size_t i : idx) {
    const int l = rows.label(i);
    if (l >= 0 && l < n_classes) counts[static_cast<std::size_t>(l)] += 1;
  }
  return weights_from_counts(counts, idx.size(), n_classes);
}

}  // namespace qif::ml
