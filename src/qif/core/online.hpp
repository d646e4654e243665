// Online prediction path.
//
// "After training, the model is deployed in the same training server and
// receives time window metrics from both the server-side and client-side
// monitors in the same per-server vector format at runtime."
//
// The OnlinePredictor wires live monitors to a deployed model: at every
// closed window it assembles the per-server vectors and publishes a
// prediction (class, probabilities, per-server kernel scores) to a user
// callback — the hook an adaptive I/O middleware or scheduler would
// consume.  Construction copies the TrainingServer's serve::ServingModel,
// and every window runs through
// serve::predict_batch with one request: the single-cluster deployment
// is literally the serving layer's N=1 case, so its predictions are
// bit-identical to what `qif serve` computes for the same features.
//
// Long scenarios used to grow `history_` without bound (one Prediction
// per window, forever); it is now a bounded ring (history_capacity) and
// the per-window output vectors are reused instead of reallocated.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "qif/core/training_server.hpp"
#include "qif/monitor/client_monitor.hpp"
#include "qif/monitor/features.hpp"
#include "qif/monitor/server_monitor.hpp"
#include "qif/serve/batcher.hpp"
#include "qif/sim/sampler.hpp"

namespace qif::core {

struct Prediction {
  std::int64_t window_index = 0;
  int predicted_class = 0;
  std::vector<double> probabilities;   ///< per class
  std::vector<double> server_scores;   ///< per monitored server
  bool had_activity = false;           ///< target issued I/O in this window
};

struct OnlinePredictorConfig {
  /// Retained predictions.  A week-long scenario with 1 s windows emits
  /// ~600k predictions; the ring keeps the most recent `history_capacity`
  /// instead of all of them.  Must be positive.
  std::size_t history_capacity = 4096;
};

class OnlinePredictor {
 public:
  using Callback = std::function<void(const Prediction&)>;

  /// Publishes a prediction at the close of every monitor window.
  /// Snapshots the server's trained bundle (the deployment step) and
  /// validates its feature width against the live monitors' schema —
  /// throws std::runtime_error naming both widths on a mismatch.
  OnlinePredictor(pfs::Cluster& cluster, const TrainingServer& server,
                  const monitor::ClientMonitor& client_mon,
                  const monitor::ServerMonitor& server_mon, Callback on_prediction,
                  OnlinePredictorConfig config = {});

  void start() { ticker_.start(); }
  void stop() { ticker_.stop(); }

  /// The most recent `history_capacity` predictions.  Until the ring
  /// wraps the vector is oldest-first; after that entries are in ring
  /// order — use `window_index` to order them, and history_total() to
  /// detect eviction.
  [[nodiscard]] const std::vector<Prediction>& history() const { return history_; }
  /// Total predictions ever emitted, including evicted ones.
  [[nodiscard]] std::uint64_t history_total() const { return history_total_; }

 private:
  void on_window_close(std::int64_t window_index);

  serve::ServingModel model_;  ///< deployment snapshot of the trained bundle
  const monitor::ClientMonitor& client_mon_;
  monitor::FeatureAssembler assembler_;
  Callback on_prediction_;
  sim::Sampler ticker_;
  OnlinePredictorConfig config_;

  // Per-window working set, reused every window (capacity stays warm).
  std::vector<double> features_;
  serve::Request request_;
  serve::PredictScratch scratch_;
  Prediction current_;

  std::vector<Prediction> history_;  // ring once size() == history_capacity
  std::size_t next_slot_ = 0;
  std::uint64_t history_total_ = 0;
};

}  // namespace qif::core
