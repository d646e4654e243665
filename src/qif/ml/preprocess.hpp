// Dataset preprocessing: standardization and the 80/20 window split.
//
// Everything here operates on monitor::TableView — non-owning, index-based
// views of one columnar FeatureTable.  split_dataset permutes indices
// instead of materializing datasets, the standardizer fits by streaming
// view rows, and gather_standardized is the only place features are ever
// copied (straight into a caller-owned matrix, standardization fused in).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "qif/ml/matrix.hpp"
#include "qif/monitor/features.hpp"

namespace qif::ml {

/// Per-feature z-score standardizer.  Statistics are pooled over every
/// (sample, server) pair within each of the D per-server feature columns —
/// consistent with the shared kernel, which must interpret any server's
/// vector with the same scaling.
class Standardizer {
 public:
  Standardizer() = default;

  /// Fits on a view's per-server columns (train split only).
  void fit(const monitor::TableView& ds);
  /// Fits on the `idx` rows of a streaming source, in `idx` order.  The
  /// Welford update sequence is identical to fit(view-of-those-rows), so
  /// the chunked ingestion path reproduces the in-RAM statistics bit for
  /// bit.  Rows are read one at a time — nothing dataset-sized is built.
  void fit(const monitor::RowAccess& rows, const std::vector<std::size_t>& idx);
  /// In-place transform of a flattened (n_servers * dim) feature vector.
  void transform(std::vector<double>& features) const;
  /// Out-of-place transform of `n` doubles (a multiple of dim()) from
  /// `src` into `dst`; plain copy when unfitted.  The trainer's per-batch
  /// gather runs through this, reading table rows in place.
  void transform_into(const double* src, std::size_t n, double* dst) const;
  [[nodiscard]] bool fitted() const { return !mean_.empty(); }
  [[nodiscard]] int dim() const { return static_cast<int>(mean_.size()); }
  [[nodiscard]] const std::vector<double>& mean() const { return mean_; }
  [[nodiscard]] const std::vector<double>& inv_std() const { return inv_std_; }
  /// Rebuilds a fitted standardizer from stored moments (the binary model
  /// format's restore path).  Throws std::invalid_argument on a size
  /// mismatch between the two vectors.
  [[nodiscard]] static Standardizer from_moments(std::vector<double> mean,
                                                 std::vector<double> inv_std);

 private:
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

/// Random split preserving the paper's protocol: "we randomly select time
/// windows accounting for 20% of the total amount of windows and reserve
/// these for a test set".  Returns index views into the input's table —
/// no rows are copied, and splitting a view composes (the trainer's
/// validation carve-out splits the campaign's train view).  The table must
/// outlive the returned views.
[[nodiscard]] std::pair<monitor::TableView, monitor::TableView> split_dataset(
    const monitor::TableView& ds, double test_fraction, std::uint64_t seed);

/// The split's index core: partitions [0, n) into (train, test) row-index
/// vectors with the same RNG stream, shuffle, and ordering as
/// split_dataset (which is now a thin wrapper).  Degenerate inputs are
/// handled explicitly rather than by clamp side effects: n == 0 returns
/// two empty vectors, a non-finite or negative fraction selects no test
/// rows, a fraction >= 1 selects every row (the old implementation
/// underflowed `n - n_test` for fractions above 1), and any fraction
/// strictly below 1 keeps at least one training row.
[[nodiscard]] std::pair<std::vector<std::size_t>, std::vector<std::size_t>> split_rows(
    std::size_t n, double test_fraction, std::uint64_t seed);

/// Gathers a view into a caller-owned (N, n_servers*dim) matrix and label
/// vector, applying the standardizer if fitted.  The matrix/vector are
/// resized in place so steady-state callers reuse their capacity.
void gather_standardized(const monitor::TableView& ds, const Standardizer* stdz, Matrix& x,
                         std::vector<int>& y);

/// Streaming variant: gathers rows `idx` (in order) of a RowAccess source.
void gather_standardized(const monitor::RowAccess& rows,
                         const std::vector<std::size_t>& idx, const Standardizer* stdz,
                         Matrix& x, std::vector<int>& y);

/// Inverse-frequency class weights: w_c = N / (K * N_c).
[[nodiscard]] std::vector<double> inverse_frequency_weights(const monitor::TableView& ds,
                                                            int n_classes);

/// Streaming variant over the `idx` rows of a RowAccess source.
[[nodiscard]] std::vector<double> inverse_frequency_weights(
    const monitor::RowAccess& rows, const std::vector<std::size_t>& idx, int n_classes);

}  // namespace qif::ml
