// Model lifecycle: collect -> train -> save -> reload -> serve.
//
//   train_and_save_model [model-path] [richness]
//
// Builds an IO500 training campaign, trains both the binary and the
// 3-class model, persists the binary bundle (network + standardizer) to a
// .qifm model file, reloads it into a fresh TrainingServer and verifies the reloaded
// model reproduces the original predictions — the workflow a site would
// use to train once and deploy the model on its monitoring host.
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "qif/core/datasets.hpp"
#include "qif/core/training_server.hpp"
#include "qif/ml/preprocess.hpp"

using namespace qif;

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "qif_model.qifm";
  const double richness = argc > 2 ? std::atof(argv[2]) : 1.0;

  std::printf("collecting IO500 campaign (richness %.1f)...\n", richness);
  core::DatasetOptions opts;
  opts.richness = richness;
  const monitor::Dataset ds = core::build_io500_dataset(opts);
  auto [train, test] = ml::split_dataset(ds, 0.2, 13);
  std::printf("%zu train / %zu test windows\n", train.size(), test.size());

  // Binary model.
  core::TrainingServerConfig cfg;
  cfg.n_classes = 2;
  core::TrainingServer server(cfg);
  server.fit(train);
  const auto cm = server.evaluate(test);
  std::printf("\nbinary model:  accuracy %.3f, positive F1 %.3f\n", cm.accuracy(),
              cm.binary_f1());

  // 3-class variant — "the amount of classification bins is configurable".
  core::DatasetOptions multi_opts = opts;
  multi_opts.bin_thresholds = {2.0, 5.0};
  const monitor::Dataset ds3 = core::build_io500_dataset(multi_opts);
  auto [train3, test3] = ml::split_dataset(ds3, 0.2, 13);
  core::TrainingServerConfig cfg3;
  cfg3.n_classes = 3;
  core::TrainingServer server3(cfg3);
  server3.fit(train3);
  std::printf("3-class model: accuracy %.3f\n", server3.evaluate(test3).accuracy());

  // Persist and reload the binary bundle.
  {
    std::ofstream out(path, std::ios::binary);
    server.save(out);
  }
  core::TrainingServer reloaded(core::TrainingServerConfig{});
  {
    std::ifstream in(path, std::ios::binary);
    reloaded.load(in);
  }
  std::size_t agree = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const std::vector<double> features = test.row_vector(i);
    if (reloaded.predict(features) == server.predict(features)) ++agree;
  }
  std::printf("\nsaved to %s; reloaded model agrees on %zu/%zu test windows\n", path,
              agree, test.size());
  return agree == test.size() ? 0 : 1;
}
