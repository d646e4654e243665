// Reproduces Figure 3: binary (>= 2x slowdown or not) confusion matrices
// for models trained and tested on the IO500 and DLIO benchmark datasets.
//
// The protocol follows the paper: collect labelled windows from benchmark
// campaigns, randomly reserve 20% of the windows as a test set, train the
// kernel-based network on the rest, and report the test confusion matrix.
// Expected shape: high accuracy with few false positives/negatives and
// positive-class F1 above 0.9 on both datasets; IO500 skews positive
// (~75%) and DLIO skews negative (~20% positive) as in the paper.
#include <cstdio>

#include "qif/core/datasets.hpp"
#include "qif/core/training_server.hpp"
#include "qif/exec/parallel_runner.hpp"
#include "qif/ml/preprocess.hpp"

#include "bench_common.hpp"
#include "cli_options.hpp"

using namespace qif;

namespace {

void run_dataset(const char* name, const monitor::Dataset& ds) {
  auto [train, test] = ml::split_dataset(ds, 0.2, /*seed=*/17);
  std::printf("\n=== %s ===\n", name);
  std::printf("train: %zu samples (%s)  test: %zu samples (%s)\n", train.size(),
              bench::class_counts(train).c_str(), test.size(), bench::class_counts(test).c_str());

  core::TrainingServerConfig cfg;
  cfg.n_classes = 2;
  cfg.train.max_epochs = 150;
  cfg.train.patience = 25;
  cfg.train.adam.lr = 2e-3;
  core::TrainingServer server(cfg);
  const ml::TrainResult tr = server.fit(train);
  const ml::ConfusionMatrix cm = server.evaluate(test);
  std::printf("trained %d epochs (best %d, val macro-F1 %.3f)\n",
              tr.history.empty() ? 0 : tr.history.back().epoch, tr.best_epoch,
              tr.best_val_macro_f1);
  std::printf("%s", cm.to_string({"<2x", ">=2x"}).c_str());
  std::printf("positive-class F1 = %.3f  (paper: 'F1 scores exceeding 90%%')\n",
              cm.binary_f1());
}

}  // namespace

const cli::Command kCommand{
    "fig3_binary_benchmarks", "", 0, "Figure 3: binary prediction on the IO500 and DLIO datasets",
    {{"richness", cli::Kind::kReal, "R", "campaign richness", "3", 0, false, true},
     {"jobs", cli::Kind::kInt, "N", "worker threads", "1", 1}}};

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(kCommand, argc, argv);
  const double richness = args.get<double>("richness");
  const int jobs = args.get<int>("jobs");
  std::printf("=== Figure 3: binary interference prediction on benchmark datasets ===\n");
  std::printf("(campaign richness %.1f, %d job(s); pass --richness N / --jobs N)\n",
              richness, jobs);

  core::DatasetOptions opts;
  opts.bin_thresholds = {2.0};
  opts.richness = richness;
  opts.verbose = true;
  opts.runner = exec::campaign_runner(jobs);

  std::printf("\ncollecting IO500 campaign...\n");
  const monitor::Dataset io500 = core::build_io500_dataset(opts);
  run_dataset("Figure 3(a): IO500", io500);

  std::printf("\ncollecting DLIO campaign...\n");
  const monitor::Dataset dlio = core::build_dlio_dataset(opts);
  run_dataset("Figure 3(b): DLIO (Unet3d + BERT)", dlio);
  return 0;
}
