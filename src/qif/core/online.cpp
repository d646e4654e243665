#include "qif/core/online.hpp"

#include <stdexcept>

namespace qif::core {

OnlinePredictor::OnlinePredictor(pfs::Cluster& cluster, const TrainingServer& server,
                                 const monitor::ClientMonitor& client_mon,
                                 const monitor::ServerMonitor& server_mon,
                                 Callback on_prediction, OnlinePredictorConfig config)
    : client_mon_(client_mon),
      assembler_(client_mon, server_mon, cluster.n_servers()),
      on_prediction_(std::move(on_prediction)),
      // Fire just after each window boundary so both monitors have closed it.
      ticker_(cluster.sim(), client_mon.window(), [this](std::uint64_t tick) {
        on_window_close(static_cast<std::int64_t>(tick) - 1);
      }),
      config_(config) {
  if (config_.history_capacity == 0) {
    throw std::invalid_argument("online predictor: history_capacity must be positive");
  }
  // Deployment snapshot: the serving bundle this predictor will run, with
  // the width check a real deployment would do (a 40-wide fault-features
  // model must not silently misread a 37-wide live stream).
  model_ = server.model();
  model_.validate_feature_width(assembler_.dim());
  features_.resize(model_.feature_dim());
  history_.reserve(config_.history_capacity);
}

void OnlinePredictor::on_window_close(std::int64_t window_index) {
  current_.window_index = window_index;
  current_.had_activity = client_mon_.cell(window_index, 0) != nullptr;
  assembler_.fill_window(window_index, features_.data());

  // The serving layer's N=1 case: one request, one batch.  Output vectors
  // live in current_ and are reused (resized, capacity warm) every window.
  request_.reset();
  request_.features = features_.data();
  request_.n_features = features_.size();
  serve::Request* rp = &request_;
  serve::predict_batch(model_, &rp, 1, scratch_);
  current_.predicted_class = request_.predicted_class;
  current_.probabilities = request_.probabilities;
  current_.server_scores = request_.server_scores;

  // Bounded history: plain append until the capacity is reached, then a
  // wrapping overwrite (vector assignment reuses each slot's capacity).
  Prediction* slot = nullptr;
  if (history_.size() < config_.history_capacity) {
    history_.push_back(current_);
    slot = &history_.back();
  } else {
    history_[next_slot_] = current_;
    slot = &history_[next_slot_];
    next_slot_ = (next_slot_ + 1) % config_.history_capacity;
  }
  ++history_total_;
  if (on_prediction_) on_prediction_(*slot);
}

}  // namespace qif::core
