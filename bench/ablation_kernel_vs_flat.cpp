// Ablation A1 (DESIGN.md): the kernel-based architecture vs. a flat MLP.
//
// The paper chose the kernel design "to account for the fact that some
// applications may only utilize a subset of OSTs or target different ones
// in multiple runs": one shared dense network interprets any server's
// vector.  The ablation trains (a) the kernel-based network and (b) a flat
// MLP over the concatenated vectors with no weight sharing, on the same
// IO500 windows, and compares:
//   1. test macro-F1,
//   2. robustness when the test windows' OST vectors are rotated — i.e.
//      the same load lands on *different* servers than in training.
#include <cstdio>

#include "qif/core/datasets.hpp"
#include "qif/core/training_server.hpp"
#include "qif/ml/preprocess.hpp"

#include "bench_common.hpp"
#include "cli_options.hpp"

using namespace qif;

namespace {

/// Reinterprets a per-server view as flat vectors: one "server" of width
/// n_servers * dim.  Same block, reshaped — no copy of the features.
monitor::Dataset flatten(const monitor::TableView& ds) {
  monitor::Dataset out = ds.materialize();
  out.reshape(1, ds.n_servers() * ds.dim());
  return out;
}

struct Scores {
  double test_f1 = 0.0;
  double rotated_f1 = 0.0;
};

Scores run(const monitor::TableView& train, const monitor::TableView& test,
           const monitor::TableView& rotated_test) {
  core::TrainingServerConfig cfg;
  cfg.n_classes = 2;
  core::TrainingServer server(cfg);
  server.fit(train);
  Scores sc;
  sc.test_f1 = server.evaluate(test).macro_f1();
  sc.rotated_f1 = server.evaluate(rotated_test).macro_f1();
  return sc;
}

}  // namespace

const cli::Command kCommand{
    "ablation_kernel_vs_flat", "", 0, "the kernel-based network against a flat MLP",
    {{"richness", cli::Kind::kReal, "R", "campaign richness", "2", 0, false, true}}};

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(kCommand, argc, argv);
  std::printf("=== Ablation: kernel-based network vs flat MLP ===\n");
  core::DatasetOptions opts;
  opts.richness = args.get<double>("richness");
  const monitor::Dataset ds = core::build_io500_dataset(opts);
  auto [train, test] = ml::split_dataset(ds, 0.2, 29);
  const monitor::Dataset rotated = bench::rotate_osts(test, 3);
  std::printf("windows: %zu train / %zu test\n\n", train.size(), test.size());

  const Scores kernel = run(train, test, rotated);
  const monitor::Dataset flat_train = flatten(train);
  const monitor::Dataset flat_test = flatten(test);
  const monitor::Dataset flat_rotated = flatten(rotated);
  const Scores flat = run(flat_train, flat_test, flat_rotated);

  std::printf("%-22s %12s %25s\n", "architecture", "test mF1", "rotated-OST test mF1");
  std::printf("%-22s %12.3f %25.3f\n", "kernel-based (shared)", kernel.test_f1,
              kernel.rotated_f1);
  std::printf("%-22s %12.3f %25.3f\n", "flat MLP", flat.test_f1, flat.rotated_f1);
  std::printf("\nexpected: comparable scores in distribution — the kernel design's"
              "\nadvantage is structural, not raw accuracy: the flat MLP spends ~%dx"
              "\nmore first-layer parameters for the same windows, and only the shared"
              "\nkernel generalizes to cluster shapes it was not trained on (it can be"
              "\napplied to any number of servers; the flat head cannot).\n",
              train.n_servers());
  return 0;
}
