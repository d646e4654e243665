#include "qif/ml/trainer.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "qif/exec/thread_pool.hpp"
#include "qif/sim/rng.hpp"

namespace qif::ml {
namespace {

/// Gathers source rows fit_idx[idx[lo..hi)] into `xb`/`yb` (resized in
/// place), standardizing on the fly: source row -> batch buffer is the
/// only copy on the training path.  `fit_idx` maps the shuffled epoch
/// positions to source rows, exactly like the old view-of-indices did.
void gather_batch_into(const monitor::RowAccess& rows, const Standardizer& stdz,
                       const std::vector<std::size_t>& fit_idx,
                       const std::vector<std::size_t>& idx, std::size_t lo, std::size_t hi,
                       Matrix& xb, std::vector<int>& yb) {
  const std::size_t width = rows.width();
  xb.resize(hi - lo, width);
  yb.resize(hi - lo);
  const bool standardize = stdz.fitted();
  for (std::size_t k = lo; k < hi; ++k) {
    const std::size_t src_row = fit_idx[idx[k]];
    const double* src = rows.row(src_row);
    if (standardize) {
      stdz.transform_into(src, width, xb.row(k - lo));
    } else {
      std::copy(src, src + width, xb.row(k - lo));
    }
    yb[k - lo] = rows.label(src_row);
  }
}

/// Throws naming both shapes when evaluation rows do not have the net's
/// server count and per-server width, or the standardizer's width:
/// gathering them would read past each row and the standardizer moments.
void check_eval_shape(const KernelNet& net, const Standardizer& stdz,
                      const monitor::RowAccess& rows) {
  const KernelNetConfig& c = net.config();
  if (rows.n_servers() != c.n_servers || rows.dim() != c.per_server_dim ||
      (stdz.fitted() && stdz.dim() != rows.dim())) {
    throw std::invalid_argument(
        "evaluate: rows have " + std::to_string(rows.n_servers()) + " servers x " +
        std::to_string(rows.dim()) + " features, the model expects " +
        std::to_string(c.n_servers) + " x " + std::to_string(c.per_server_dim) +
        " (standardizer width " + std::to_string(stdz.dim()) + ")");
  }
}

/// Throws naming the first label outside [0, n_classes): the loss and the
/// confusion matrix index their buffers by label, so one such row would
/// write out of bounds.
void check_labels(const monitor::RowAccess& rows, int n_classes, const char* what) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const int label = rows.label(i);
    if (label < 0 || label >= n_classes) {
      throw std::invalid_argument(std::string(what) + ": row " + std::to_string(i) +
                                  " has label " + std::to_string(label) + ", the model has " +
                                  std::to_string(n_classes) + " classes");
    }
  }
}

/// Attaches a pool to the net for the duration of a scope; detaches on
/// exit so the net never outlives a dangling pool pointer.
struct PoolGuard {
  KernelNet& net;
  explicit PoolGuard(KernelNet& n, exec::ThreadPool* pool) : net(n) { net.set_pool(pool); }
  ~PoolGuard() { net.set_pool(nullptr); }
  PoolGuard(const PoolGuard&) = delete;
  PoolGuard& operator=(const PoolGuard&) = delete;
};

}  // namespace

TrainResult Trainer::train(KernelNet& net, Standardizer& stdz,
                           const monitor::TableView& train_ds) const {
  const monitor::ViewRows rows(train_ds);
  return train_rows(net, stdz, rows);
}

TrainResult Trainer::train_rows(KernelNet& net, Standardizer& stdz,
                                const monitor::RowAccess& rows) const {
  TrainResult result;
  if (rows.empty()) return result;
  const int n_classes = net.config().n_classes;
  check_labels(rows, n_classes, "train");

  // Validation carve-out for early stopping.  split_rows uses the same
  // RNG stream and ordering as split_dataset did here, so the fit/val
  // membership is unchanged.
  auto [fit_idx, val_idx] = split_rows(rows.size(), config_.validation_fraction,
                                       sim::Rng::derive_seed(config_.seed, "val-split"));
  if (fit_idx.empty()) {
    // Tiny datasets: train (and validate) on everything.
    fit_idx.resize(rows.size());
    for (std::size_t i = 0; i < fit_idx.size(); ++i) fit_idx[i] = i;
  }

  stdz.fit(rows, fit_idx);
  // Training batches standardize lazily out of the source, and validation
  // predicts in fixed-size chunks below — nothing dataset-sized (not even
  // a val-sized activation matrix) is ever built, which is what keeps the
  // streaming path inside its RSS budget.
  const std::vector<std::size_t>& vidx = val_idx.empty() ? fit_idx : val_idx;

  const std::vector<double> weights =
      config_.class_weighted ? inverse_frequency_weights(rows, fit_idx, n_classes)
                             : std::vector<double>{};

  sim::Rng rng(sim::Rng::derive_seed(config_.seed, "shuffle"));
  std::vector<std::size_t> idx(fit_idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  // GEMM fan-out: the row-block partitioning makes results bit-identical
  // at every job count, so the pool is purely a throughput knob.
  std::unique_ptr<exec::ThreadPool> pool;
  if (config_.jobs > 1) pool = std::make_unique<exec::ThreadPool>(config_.jobs);
  const PoolGuard guard(net, pool.get());

  std::vector<double> best_weights;  // binary snapshot of the best epoch
  Matrix xb;                         // persistent minibatch buffers
  std::vector<int> yb;
  Matrix dlogits;
  Matrix xv;                         // persistent validation-chunk buffers
  std::vector<int> yv;
  std::vector<std::size_t> vidx_chunk;
  double best_f1 = -1.0;
  int best_epoch = 0;
  int since_best = 0;
  std::int64_t adam_t = 0;

  for (int epoch = 1; epoch <= config_.max_epochs; ++epoch) {
    // Shuffle each epoch.
    for (std::size_t i = idx.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(idx[i - 1], idx[j]);
    }
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t lo = 0; lo < idx.size(); lo += static_cast<std::size_t>(config_.batch_size)) {
      const std::size_t hi =
          std::min(idx.size(), lo + static_cast<std::size_t>(config_.batch_size));
      gather_batch_into(rows, stdz, fit_idx, idx, lo, hi, xb, yb);
      const Matrix& logits = net.forward(xb);
      const double loss = SoftmaxXent::loss_and_grad_into(logits, yb, weights, dlogits);
      net.backward(dlogits);
      net.step(config_.adam, ++adam_t);
      loss_sum += loss;
      ++batches;
    }

    // Validation macro-F1, chunked like evaluate_rows: each row's
    // prediction is independent of the batching, so the F1 (and thus the
    // best-epoch choice and the saved weights) is identical to the old
    // whole-matrix predict — only the peak memory changes.
    ConfusionMatrix cm(n_classes);
    constexpr std::size_t kValChunk = 4096;
    for (std::size_t lo = 0; lo < vidx.size(); lo += kValChunk) {
      const std::size_t hi = std::min(vidx.size(), lo + kValChunk);
      vidx_chunk.assign(vidx.begin() + static_cast<std::ptrdiff_t>(lo),
                        vidx.begin() + static_cast<std::ptrdiff_t>(hi));
      gather_standardized(rows, vidx_chunk, &stdz, xv, yv);
      cm.add_all(yv, net.predict(xv));
    }
    const double val_f1 = cm.macro_f1();
    result.history.push_back(
        EpochStats{epoch, loss_sum / static_cast<double>(std::max<std::size_t>(batches, 1)),
                   val_f1});
    if (config_.verbose) {
      std::printf("epoch %3d  loss %.4f  val macro-F1 %.4f\n", epoch,
                  result.history.back().train_loss, val_f1);
    }
    if (val_f1 > best_f1) {
      best_f1 = val_f1;
      best_epoch = epoch;
      since_best = 0;
      net.snapshot_into(best_weights);
    } else if (++since_best >= config_.patience) {
      break;
    }
  }

  // Restore the best snapshot.
  if (best_f1 >= 0.0) net.restore(best_weights);
  result.best_epoch = best_epoch;
  result.best_val_macro_f1 = best_f1;
  return result;
}

ConfusionMatrix Trainer::evaluate(const KernelNet& net, const Standardizer& stdz,
                                  const monitor::TableView& test) {
  return evaluate_rows(net, stdz, monitor::ViewRows(test));
}

ConfusionMatrix Trainer::evaluate_rows(const KernelNet& net, const Standardizer& stdz,
                                       const monitor::RowAccess& rows) {
  ConfusionMatrix cm(net.config().n_classes);
  if (rows.empty()) return cm;
  check_eval_shape(net, stdz, rows);
  check_labels(rows, net.config().n_classes, "evaluate");
  constexpr std::size_t kChunk = 1024;  // bounds the gather, not the math:
  // per-row predictions are independent of the chunking.
  Matrix x;
  std::vector<int> y;
  std::vector<std::size_t> idx;
  for (std::size_t lo = 0; lo < rows.size(); lo += kChunk) {
    const std::size_t hi = std::min(rows.size(), lo + kChunk);
    idx.resize(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) idx[i - lo] = i;
    gather_standardized(rows, idx, &stdz, x, y);
    cm.add_all(y, net.predict(x));
  }
  return cm;
}

}  // namespace qif::ml
