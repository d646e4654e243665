// The paper's kernel-based neural network (§III-C).
//
// "the kernel-based model applies the same dense network to each of the
// server's vectors, and learns to generally interpret the data from any
// server.  Once the kernel-based network has processed each of the
// per-server vectors, resulting in a single value for each server, all
// output values are concatenated and further fed through a simple MLP
// classification network for multi-bin classification."
//
// Implementation: a sample is S per-server vectors of width D.  The batch
// (B, S*D) is viewed as (B*S, D) — same row-major memory, no copy —
// pushed through the shared kernel MLP down to one scalar per server,
// viewed back as (B, S) and classified by the MLP head into `n_classes`
// bins.  Because the kernel is shared, its gradient accumulates over all
// S applications — exactly weight sharing.
//
// The architecture is what makes the model robust to "applications [that]
// may only utilize a subset of OSTs or target different ones in multiple
// runs": any server's vector is interpreted by the same function.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qif/ml/nn.hpp"

namespace qif::ml {

struct KernelNetConfig {
  int per_server_dim = 37;           ///< D: width of one server vector
  int n_servers = 7;                 ///< S: monitored servers (OSTs + MDT)
  int n_classes = 2;                 ///< output bins (2 binary; 3 multi-class)
  std::vector<int> kernel_hidden = {64, 32};  ///< shared kernel MLP widths
  std::vector<int> head_hidden = {32};        ///< classifier MLP widths
  std::uint64_t seed = 7;
};

class KernelNet {
 public:
  KernelNet() = default;
  explicit KernelNet(const KernelNetConfig& config);

  /// Optional GEMM thread pool used by forward/backward; results are
  /// bit-identical with or without it.  Not owned; callers must clear it
  /// (set_pool(nullptr)) before the pool is destroyed.
  void set_pool(exec::ThreadPool* pool) { pool_ = pool; }

  /// Training forward: X is (B, S*D); returns logits (B, C).  The
  /// reference points into a layer-owned buffer valid until the next call.
  const Matrix& forward(MatView x);
  /// Backward from dlogits; accumulates all layer gradients.
  void backward(MatView dlogits);
  /// Adam update on every layer (t is the 1-based step count).
  void step(const AdamParams& params, std::int64_t t);

  /// Inference without touching training caches.  Takes a view, so rows
  /// can come straight out of a FeatureTable block or a Matrix alike.
  [[nodiscard]] Matrix forward_inference(MatView x) const;

  /// Caller-owned buffers for forward_batch.  One Scratch per serving
  /// thread; after the first full-size batch its capacity is warm and a
  /// steady-state serving loop performs zero heap allocations.
  struct Scratch {
    Matrix ping, pong;  ///< layer ping-pong buffers
    Matrix scores;      ///< (B*S, 1) kernel outputs == (B, S) per-server scores
  };
  /// Batched inference through caller-owned scratch: X is (B, S*D), the
  /// returned view is the (B, C) logits (valid until the scratch is next
  /// written).  After the call `s.scores` holds the per-server kernel
  /// scores, row-major (B, S).  Every row's result is bit-identical to
  /// forward_inference on that row alone — batch composition never changes
  /// a prediction — which is the contract the serving layer's
  /// batched-vs-sync identity tests pin.
  MatView forward_batch(MatView x, Scratch& s,
                        exec::ThreadPool* pool = nullptr) const;
  /// Predicted class per row of X.
  [[nodiscard]] std::vector<int> predict(MatView x) const;
  /// Per-server kernel scores for one sample (interpretability hook: which
  /// server the model blames).
  [[nodiscard]] std::vector<double> server_scores(const std::vector<double>& features) const;

  [[nodiscard]] const KernelNetConfig& config() const { return config_; }

  /// Total learnable parameter count across every layer.
  [[nodiscard]] std::size_t param_count() const;
  /// Binary in-memory weight snapshot: raw doubles, kernel layers then
  /// head layers, each layer W row-major then b.  Bit-exact by
  /// construction; used by early stopping, and it is the weight block of
  /// the .qifm model file (serve::save_model / load_model).
  void snapshot_into(std::vector<double>& out) const;
  [[nodiscard]] std::vector<double> snapshot() const;
  /// Restores weights from a snapshot of a same-architecture net.
  /// Throws std::invalid_argument on size mismatch.
  void restore(const std::vector<double>& snap);

 private:
  [[nodiscard]] const Matrix& kernel_forward(MatView xk);
  [[nodiscard]] Matrix kernel_forward_inference(MatView xk) const;

  KernelNetConfig config_;
  std::vector<Dense> kernel_layers_;
  std::vector<ReLU> kernel_relus_;  // one per hidden kernel layer
  std::vector<Dense> head_layers_;
  std::vector<ReLU> head_relus_;    // one per hidden head layer
  exec::ThreadPool* pool_ = nullptr;
};

}  // namespace qif::ml
