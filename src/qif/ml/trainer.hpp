// Minibatch trainer for the kernel-based network.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qif/ml/kernel_net.hpp"
#include "qif/ml/metrics.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/monitor/features.hpp"

namespace qif::ml {

struct TrainConfig {
  int max_epochs = 80;
  int batch_size = 64;
  AdamParams adam{};                  ///< lr defaults to 1e-3
  double validation_fraction = 0.15;  ///< carved from the training split
  int patience = 12;                  ///< early-stop epochs without val improvement
  bool class_weighted = true;         ///< inverse-frequency loss weights
  std::uint64_t seed = 11;
  bool verbose = false;               ///< print per-epoch losses to stdout
  /// GEMM worker threads (<= 1 trains single-threaded).  The row-block
  /// partitioning keeps results bit-identical for every value, so this is
  /// purely a throughput knob.
  int jobs = 1;
};

struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double val_macro_f1 = 0.0;
};

struct TrainResult {
  int best_epoch = 0;
  double best_val_macro_f1 = 0.0;
  std::vector<EpochStats> history;
};

class Trainer {
 public:
  explicit Trainer(TrainConfig config) : config_(std::move(config)) {}

  /// Fits `stdz` on `train`, then trains `net` with minibatch Adam, early
  /// stopping on validation macro-F1 (restoring the best weights via
  /// binary in-memory snapshots).  Minibatches are gathered row by row
  /// straight out of the view's backing FeatureTable into the persistent
  /// batch buffer, standardization fused in — no dataset-sized temporary
  /// is ever built.  A thin wrapper over train_rows, so in-RAM and
  /// streaming training share one code path.
  TrainResult train(KernelNet& net, Standardizer& stdz, const monitor::TableView& train) const;

  /// Streaming-ingestion core: identical algorithm, RNG streams, and
  /// iteration order over any RowAccess source — an in-RAM view, a subset,
  /// or a sharded on-disk dataset.  Standardization statistics and epoch
  /// minibatches are computed row by row (at most batch-size rows are
  /// resident at once beyond the validation gather), so a dataset far
  /// larger than RAM trains within the source's paging budget, and the
  /// resulting model bytes are bit-identical to the in-RAM path at the
  /// same seed.
  /// Throws std::invalid_argument, naming the first offending row, when a
  /// label lies outside [0, n_classes) of the net.
  TrainResult train_rows(KernelNet& net, Standardizer& stdz,
                         const monitor::RowAccess& rows) const;

  /// Evaluates a trained net on a view, returning its confusion matrix.
  /// Both evaluate calls throw std::invalid_argument, naming both shapes,
  /// when the rows' server count or per-server width differs from the
  /// net's or the standardizer's, and naming the first offending row when
  /// a label lies outside [0, n_classes) of the net.
  static ConfusionMatrix evaluate(const KernelNet& net, const Standardizer& stdz,
                                  const monitor::TableView& test);

  /// Streaming evaluation: predicts in fixed-size chunks (per-row results
  /// do not depend on the batch partitioning, so the confusion matrix
  /// matches the all-at-once gather exactly).
  static ConfusionMatrix evaluate_rows(const KernelNet& net, const Standardizer& stdz,
                                       const monitor::RowAccess& rows);

 private:
  TrainConfig config_;
};

}  // namespace qif::ml
