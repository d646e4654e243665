// Ablation A2 (DESIGN.md): which metric groups carry the signal?
//
// Retrains the binary IO500 model with one feature group zeroed out at a
// time — the client-side block (§III-A) and each Table II server-side
// group — and reports the test macro-F1 damage.  This quantifies the
// paper's design claim that *both* application-side request patterns and
// server-side queue state are needed to predict interference impact.
#include <cstdio>
#include <vector>

#include "qif/core/datasets.hpp"
#include "qif/core/training_server.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/monitor/schema.hpp"

#include "cli_options.hpp"

using namespace qif;

namespace {

monitor::Dataset mask_group(const monitor::TableView& ds,
                            const std::vector<int>& drop_indices) {
  monitor::Dataset out = ds.materialize();
  for (std::size_t i = 0; i < out.size(); ++i) {
    double* row = out.row(i);
    for (int server = 0; server < out.n_servers(); ++server) {
      for (const int f : drop_indices) {
        row[static_cast<std::size_t>(server * out.dim() + f)] = 0.0;
      }
    }
  }
  return out;
}

double train_eval(const monitor::TableView& train, const monitor::TableView& test) {
  core::TrainingServerConfig cfg;
  cfg.n_classes = 2;
  core::TrainingServer server(cfg);
  server.fit(train);
  return server.evaluate(test).macro_f1();
}

}  // namespace

const cli::Command kCommand{
    "ablation_features", "", 0, "feature-group knockouts of the binary IO500 model",
    {{"richness", cli::Kind::kReal, "R", "campaign richness", "2", 0, false, true}}};

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(kCommand, argc, argv);
  std::printf("=== Ablation: feature-group importance (binary IO500 model) ===\n");
  core::DatasetOptions opts;
  opts.richness = args.get<double>("richness");
  const monitor::Dataset ds = core::build_io500_dataset(opts);
  auto [train, test] = ml::split_dataset(ds, 0.2, 31);
  std::printf("windows: %zu train / %zu test\n\n", train.size(), test.size());

  const monitor::MetricSchema schema;
  const std::vector<monitor::FeatureGroup> groups = {
      monitor::FeatureGroup::kClient, monitor::FeatureGroup::kIoSpeed,
      monitor::FeatureGroup::kDevice, monitor::FeatureGroup::kQueue};
  const double full = train_eval(train, test);
  std::printf("%-28s macro-F1 %6.3f   delta %+6.3f\n", "all features", full, 0.0);

  // Knockout direction: how much does losing one group cost?
  for (const auto group : groups) {
    const auto idx = schema.group_indices(group);
    const monitor::Dataset masked_train = mask_group(train, idx);
    const monitor::Dataset masked_test = mask_group(test, idx);
    const double f1 = train_eval(masked_train, masked_test);
    std::printf("drop %-23s macro-F1 %6.3f   delta %+6.3f\n",
                monitor::group_name(group), f1, f1 - full);
  }
  std::printf("\n");

  // Sufficiency direction: how far does one group get on its own?
  for (const auto keep : groups) {
    std::vector<int> drop_idx;
    for (const auto group : groups) {
      if (group == keep) continue;
      const auto idx = schema.group_indices(group);
      drop_idx.insert(drop_idx.end(), idx.begin(), idx.end());
    }
    const monitor::Dataset masked_train = mask_group(train, drop_idx);
    const monitor::Dataset masked_test = mask_group(test, drop_idx);
    const double f1 = train_eval(masked_train, masked_test);
    std::printf("keep only %-18s macro-F1 %6.3f   delta %+6.3f\n",
                monitor::group_name(keep), f1, f1 - full);
  }
  std::printf("\nexpected: single-group knockouts barely move the score — the signal is"
              "\nredundant across groups (queue pressure shows up in client I/O times"
              "\nand in server counters alike).  The sufficiency direction separates"
              "\nthem: the client-side block alone nearly suffices (the app feels the"
              "\npressure it suffers), while raw device counters alone lose the most.\n");
  return 0;
}
