// Training server (paper §III-C): owns the model bundle — the kernel-based
// network plus the fitted standardizer, held as one serve::ServingModel —
// trains it offline on a labelled dataset, and serves predictions
// afterwards.  The bundle it saves is the .qifm file the serving registry
// deploys.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "qif/ml/kernel_net.hpp"
#include "qif/ml/metrics.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/ml/trainer.hpp"
#include "qif/monitor/features.hpp"
#include "qif/serve/registry.hpp"

namespace qif::core {

struct TrainingServerConfig {
  int n_classes = 2;               ///< 2 = binary (>=2x), 3 = mild/moderate/severe
  std::vector<int> kernel_hidden = {64, 32};
  std::vector<int> head_hidden = {32};
  /// Trainer knobs; `train.jobs > 1` fans the training GEMMs across a
  /// thread pool with bit-identical results (a pure throughput knob).
  ml::TrainConfig train{};
  std::uint64_t seed = 7;
};

class TrainingServer {
 public:
  explicit TrainingServer(TrainingServerConfig config) : config_(std::move(config)) {}

  /// Trains a fresh model on `train_ds` (shape taken from the view; a
  /// FeatureTable converts implicitly).
  ml::TrainResult fit(const monitor::TableView& train_ds);

  /// Streaming variant: trains from any RowAccess source (e.g. a
  /// monitor::ShardedDataset) with chunked ingestion.  Same seeds, same
  /// algorithm — the model bytes are bit-identical to fit() on the
  /// equivalent in-RAM view.
  ml::TrainResult fit_rows(const monitor::RowAccess& rows);

  /// Confusion matrix of the current model on a held-out set.
  [[nodiscard]] ml::ConfusionMatrix evaluate(const monitor::TableView& test_ds) const;

  /// Streaming evaluation over a RowAccess source (chunked gathers).
  [[nodiscard]] ml::ConfusionMatrix evaluate_rows(const monitor::RowAccess& rows) const;

  /// Class prediction for one window's flattened features.
  [[nodiscard]] int predict(std::vector<double> features) const;

  /// The trained bundle (kernel kind), ready to publish or deploy.
  [[nodiscard]] const serve::ServingModel& model() const { return model_; }
  [[nodiscard]] const ml::KernelNet& net() const { return model_.kernel; }
  [[nodiscard]] const ml::Standardizer& standardizer() const { return model_.stdz; }
  [[nodiscard]] const TrainingServerConfig& config() const { return config_; }

  /// Writes the bundle as a .qifm image (serve::save_model).
  void save(std::ostream& os) const;
  /// Reads a .qifm image (serve::load_model).  Throws std::runtime_error on
  /// a corrupt file, an attention bundle, or — when `expected_dim` is
  /// nonzero — a per-server width other than `expected_dim`
  /// (ServingModel::validate_feature_width).  A rejected file leaves this
  /// object unchanged.
  void load(std::istream& is, int expected_dim = 0);

 private:
  TrainingServerConfig config_;
  serve::ServingModel model_;
};

}  // namespace qif::core
