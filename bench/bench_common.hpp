// Helpers the paper-figure programs share: the solo testbed scenario, class
// counts, OST rotation and the manual minibatch training loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "qif/core/scenario.hpp"
#include "qif/ml/nn.hpp"
#include "qif/monitor/features.hpp"
#include "qif/sim/rng.hpp"

namespace qif::bench {

/// `workload` alone on testbed nodes {0, 1} at two ranks each, monitors off.
inline core::ScenarioConfig solo_scenario(const std::string& workload, std::uint64_t seed,
                                          double scale) {
  core::ScenarioConfig cfg;
  cfg.cluster = core::testbed_cluster_config(seed);
  cfg.target.workload = workload;
  cfg.target.nodes = {0, 1};
  cfg.target.procs_per_node = 2;
  cfg.target.seed = seed;
  cfg.target.scale = scale;
  cfg.monitors = false;
  return cfg;
}

/// "class0=N, class1=M, ..." for the window labels of `ds`.
inline std::string class_counts(const monitor::TableView& ds) {
  const auto hist = ds.class_histogram();
  std::string out;
  for (std::size_t c = 0; c < hist.size(); ++c) {
    out += (c ? ", class" : "class") + std::to_string(c) + "=" + std::to_string(hist[c]);
  }
  return out;
}

/// Rotates the OST blocks of every row by `shift` (the MDT block, last,
/// stays in place): the workload that hit OSTs {0,1} now appears on
/// {shift, shift+1}, emulating a run that targeted different servers.
inline monitor::Dataset rotate_osts(const monitor::TableView& ds, int shift) {
  monitor::Dataset out = ds.materialize();
  const int n_osts = ds.n_servers() - 1;
  const int dim = ds.dim();
  std::vector<double> rotated(out.width());
  for (std::size_t i = 0; i < out.size(); ++i) {
    double* row = out.row(i);
    std::copy(row, row + out.width(), rotated.begin());
    for (int o = 0; o < n_osts; ++o) {
      const int dst = (o + shift) % n_osts;
      std::copy(row + o * dim, row + (o + 1) * dim, rotated.begin() + dst * dim);
    }
    std::copy(rotated.begin(), rotated.end(), row);
  }
  return out;
}

/// Trains `net` with Adam for `epochs` shuffled passes over the rows of `x`
/// in 64-row minibatches; `grad(pred, rows)` is the loss gradient of the
/// batch made of rows `rows` of `x`.
template <class Net, class Grad>
void train_minibatches(Net& net, const ml::Matrix& x, int epochs, std::uint64_t seed,
                       Grad&& grad) {
  sim::Rng rng(seed);
  std::vector<std::size_t> idx(x.rows());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::int64_t t = 0;
  for (int e = 0; e < epochs; ++e) {
    for (std::size_t i = idx.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(idx[i - 1], idx[j]);
    }
    for (std::size_t lo = 0; lo < idx.size(); lo += 64) {
      const std::vector<std::size_t> rows(idx.begin() + static_cast<std::ptrdiff_t>(lo),
                                          idx.begin() + static_cast<std::ptrdiff_t>(
                                                            std::min(idx.size(), lo + 64)));
      ml::Matrix xb(rows.size(), x.cols());
      for (std::size_t k = 0; k < rows.size(); ++k) {
        std::copy(x.row(rows[k]), x.row(rows[k]) + x.cols(), xb.row(k));
      }
      net.backward(grad(net.forward(xb), rows));
      net.step(ml::AdamParams{}, ++t);
    }
  }
}

}  // namespace qif::bench
