#include "qif/core/training_server.hpp"

#include <stdexcept>

namespace qif::core {

ml::TrainResult TrainingServer::fit(const monitor::TableView& train_ds) {
  if (train_ds.empty()) throw std::invalid_argument("cannot train on an empty dataset");
  const monitor::ViewRows rows(train_ds);
  return fit_rows(rows);
}

ml::TrainResult TrainingServer::fit_rows(const monitor::RowAccess& rows) {
  if (rows.empty()) throw std::invalid_argument("cannot train on an empty dataset");
  ml::KernelNetConfig net_cfg;
  net_cfg.per_server_dim = rows.dim();
  net_cfg.n_servers = rows.n_servers();
  net_cfg.n_classes = config_.n_classes;
  net_cfg.kernel_hidden = config_.kernel_hidden;
  net_cfg.head_hidden = config_.head_hidden;
  net_cfg.seed = config_.seed;
  model_.kernel = ml::KernelNet(net_cfg);
  model_.n_classes = config_.n_classes;

  ml::TrainConfig tc = config_.train;
  tc.seed = sim::Rng::derive_seed(config_.seed, "train");
  const ml::Trainer trainer(tc);
  return trainer.train_rows(model_.kernel, model_.stdz, rows);
}

ml::ConfusionMatrix TrainingServer::evaluate(const monitor::TableView& test_ds) const {
  return ml::Trainer::evaluate(model_.kernel, model_.stdz, test_ds);
}

ml::ConfusionMatrix TrainingServer::evaluate_rows(const monitor::RowAccess& rows) const {
  return ml::Trainer::evaluate_rows(model_.kernel, model_.stdz, rows);
}

int TrainingServer::predict(std::vector<double> features) const {
  model_.stdz.transform(features);
  return model_.kernel.predict(ml::MatView(features.data(), 1, features.size()))[0];
}

void TrainingServer::save(std::ostream& os) const { serve::save_model(model_, os); }

void TrainingServer::load(std::istream& is, int expected_dim) {
  serve::ServingModel model = serve::load_model(is);
  if (model.kind != serve::ServingModel::Kind::kKernel) {
    throw std::runtime_error(
        "model bundle is an attention model; the training server holds kernel models");
  }
  model.validate_feature_width(expected_dim);
  config_.n_classes = model.n_classes;
  model_ = std::move(model);
}

}  // namespace qif::core
