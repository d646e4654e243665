// Ablation A3: the paper's future-work architecture — attention pooling
// over server vectors — against the published kernel-based design.
//
// Attention pooling is permutation-invariant over servers by construction,
// so the "same load on different OSTs" robustness the kernel design *aims*
// for (shared per-server interpretation) holds exactly; the question is
// whether giving up slot identity costs in-distribution accuracy.
#include <cstdio>
#include <vector>

#include "qif/core/datasets.hpp"
#include "qif/ml/attention_net.hpp"
#include "qif/ml/kernel_net.hpp"
#include "qif/ml/metrics.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/ml/trainer.hpp"

#include "bench_common.hpp"
#include "cli_options.hpp"

using namespace qif;

namespace {

// Shared manual training loop so both architectures get identical budgets.
template <typename Net>
void train_net(Net& net, const ml::Matrix& x, const std::vector<int>& y,
               const std::vector<double>& weights, int epochs) {
  bench::train_minibatches(net, x, epochs, 31,
                           [&](const ml::Matrix& logits, const std::vector<std::size_t>& rows) {
                             std::vector<int> yb;
                             for (const std::size_t r : rows) yb.push_back(y[r]);
                             return ml::SoftmaxXent::loss_and_grad(logits, yb, weights).second;
                           });
}

template <typename Net>
std::pair<double, double> evaluate_both(const Net& net, const ml::Matrix& xt,
                                        const std::vector<int>& yt,
                                        const ml::Matrix& xr,
                                        const std::vector<int>& yr) {
  ml::ConfusionMatrix cm(2), cr(2);
  cm.add_all(yt, net.predict(xt));
  cr.add_all(yr, net.predict(xr));
  return {cm.macro_f1(), cr.macro_f1()};
}

}  // namespace

const cli::Command kCommand{
    "ablation_attention", "", 0, "attention pooling against the kernel-based network",
    {{"richness", cli::Kind::kReal, "R", "campaign richness", "2", 0, false, true}}};

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(kCommand, argc, argv);
  std::printf("=== Ablation: attention pooling (future work) vs kernel-based net ===\n");
  core::DatasetOptions opts;
  opts.richness = args.get<double>("richness");
  const monitor::Dataset ds = core::build_io500_dataset(opts);
  auto [train, test] = ml::split_dataset(ds, 0.2, 37);
  const monitor::Dataset rotated = bench::rotate_osts(test, 2);
  std::printf("windows: %zu train / %zu test\n\n", train.size(), test.size());

  ml::Standardizer stdz;
  stdz.fit(train);
  ml::Matrix x, xt, xr;
  std::vector<int> y, yt, yr;
  ml::gather_standardized(train, &stdz, x, y);
  ml::gather_standardized(test, &stdz, xt, yt);
  ml::gather_standardized(rotated, &stdz, xr, yr);
  const auto weights = ml::inverse_frequency_weights(train, 2);
  const int epochs = 40;

  ml::KernelNetConfig kc;
  kc.per_server_dim = ds.dim();
  kc.n_servers = ds.n_servers();
  kc.n_classes = 2;
  ml::KernelNet kernel(kc);
  train_net(kernel, x, y, weights, epochs);
  const auto [kf1, krot] = evaluate_both(kernel, xt, yt, xr, yr);

  ml::AttentionNetConfig ac;
  ac.per_server_dim = ds.dim();
  ac.n_servers = ds.n_servers();
  ac.n_classes = 2;
  ml::AttentionNet attention(ac);
  train_net(attention, x, y, weights, epochs);
  const auto [af1, arot] = evaluate_both(attention, xt, yt, xr, yr);

  std::printf("%-24s %12s %25s\n", "architecture", "test mF1", "rotated-OST test mF1");
  std::printf("%-24s %12.3f %25.3f\n", "kernel-based (paper)", kf1, krot);
  std::printf("%-24s %12.3f %25.3f\n", "attention pooling", af1, arot);
  std::printf("\nexpected: comparable in-distribution; attention pooling is exactly"
              "\ninvariant to OST permutation (rotated == unrotated score), while the"
              "\nkernel design's slot-indexed head can degrade.\n");
  return 0;
}
