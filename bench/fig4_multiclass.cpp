// Reproduces Figure 4: 3-class interference-severity prediction on IO500.
//
// Bin thresholds {2, 5} follow the paper (and Lu et al.'s Perseus
// taxonomy): class 0 = mild (< 2x), class 1 = moderate (2-5x), class 2 =
// severe (>= 5x).  "the amount of classification bins is configurable ...
// we minimally adjusted the output layer of our proposed model architecture
// to three output nodes" — here that is literally `n_classes = 3`.
// Expected shape: a strong diagonal, with the best-represented class
// slightly ahead in precision/recall.
#include <cstdio>

#include "qif/core/datasets.hpp"
#include "qif/core/training_server.hpp"
#include "qif/exec/parallel_runner.hpp"
#include "qif/ml/preprocess.hpp"

#include "bench_common.hpp"
#include "cli_options.hpp"

using namespace qif;

const cli::Command kCommand{
    "fig4_multiclass", "", 0, "Figure 4: mild/moderate/severe prediction on IO500",
    {{"richness", cli::Kind::kReal, "R", "campaign richness", "3", 0, false, true},
     {"jobs", cli::Kind::kInt, "N", "worker threads", "1", 1}}};

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(kCommand, argc, argv);
  const double richness = args.get<double>("richness");
  const int jobs = args.get<int>("jobs");
  std::printf("=== Figure 4: multi-class (mild/moderate/severe) prediction on IO500 ===\n");

  core::DatasetOptions opts;
  opts.bin_thresholds = {2.0, 5.0};
  opts.richness = richness;
  opts.verbose = true;
  opts.runner = exec::campaign_runner(jobs);
  std::printf("collecting IO500 campaign (bins {2, 5})...\n");
  const monitor::Dataset ds = core::build_io500_dataset(opts);

  auto [train, test] = ml::split_dataset(ds, 0.2, /*seed=*/19);
  std::printf("\ntrain: %zu samples (%s)  test: %zu samples\n", train.size(),
              bench::class_counts(train).c_str(), test.size());

  core::TrainingServerConfig cfg;
  cfg.n_classes = 3;  // the paper's "minimal adjustment"
  core::TrainingServer server(cfg);
  const ml::TrainResult tr = server.fit(train);
  const ml::ConfusionMatrix cm = server.evaluate(test);
  std::printf("trained (best epoch %d, val macro-F1 %.3f)\n", tr.best_epoch,
              tr.best_val_macro_f1);
  std::printf("%s", cm.to_string({"mild <2x", "moderate 2-5x", "severe >=5x"}).c_str());
  return 0;
}
