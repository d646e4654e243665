// Attention-pooling network over per-server vectors.
//
// The paper's future work: "we plan to further investigate other possible
// network architectures, such as transformers".  This model replaces the
// kernel-based design's concatenate-in-server-order head with additive
// attention pooling:
//
//   e_s   = ReLU(W1 x_s + b1)          shared per-server embedding
//   u_s   = tanh(W2 e_s + b2)          attention pre-activation
//   a     = softmax_s(v . u_s)         attention weights over servers
//   pooled = sum_s a_s e_s             order-free aggregate
//   logits = MLP(pooled)
//
// Unlike the kernel net — whose head weights are tied to server *slots* —
// attention pooling is permutation-invariant over servers: the same load
// observed on a different subset of OSTs produces the same prediction by
// construction.  bench/ablation_attention quantifies the trade-off.
#pragma once

#include <cstdint>
#include <vector>

#include "qif/ml/nn.hpp"

namespace qif::ml {

struct AttentionNetConfig {
  int per_server_dim = 37;
  int n_servers = 7;
  int n_classes = 2;
  int embed_dim = 32;              ///< E: shared embedding width
  int attention_dim = 16;          ///< A: additive-attention width
  std::vector<int> head_hidden = {32};
  std::uint64_t seed = 7;
};

class AttentionNet {
 public:
  AttentionNet() = default;
  explicit AttentionNet(const AttentionNetConfig& config);

  /// Optional GEMM thread pool (not owned; bit-identical results either
  /// way).  Clear with set_pool(nullptr) before the pool dies.
  void set_pool(exec::ThreadPool* pool) { pool_ = pool; }

  /// Training forward: X is (B, S*D); returns logits (B, C) by reference
  /// into a layer-owned buffer (valid until the next call).
  const Matrix& forward(MatView x);
  void backward(MatView dlogits);
  void step(const AdamParams& params, std::int64_t t);

  [[nodiscard]] Matrix forward_inference(MatView x) const;

  /// Caller-owned buffers for forward_batch (one per serving thread;
  /// capacity is warm after the first full-size batch, after which batched
  /// inference performs zero heap allocations).
  struct Scratch {
    Matrix embed;       ///< (B*S, E) post-ReLU embeddings
    Matrix u;           ///< (B*S, A) attention pre-activations
    Matrix scores;      ///< (B*S, 1) == (B, S) attention scores
    Matrix alpha;       ///< (B, S) attention weights
    Matrix ping, pong;  ///< pooled vector + head ping-pong buffers
  };
  /// Batched inference through caller-owned scratch: X is (B, S*D), the
  /// returned view is the (B, C) logits (valid until the scratch is next
  /// written); `s.alpha` holds the attention weights afterwards.  Each
  /// row's result is bit-identical to forward_inference on that row alone.
  MatView forward_batch(MatView x, Scratch& s, exec::ThreadPool* pool = nullptr) const;

  [[nodiscard]] std::vector<int> predict(MatView x) const;
  /// Attention weights over servers for one sample (which servers the
  /// model attends to).
  [[nodiscard]] std::vector<double> attention_weights(
      const std::vector<double>& features) const;

  [[nodiscard]] const AttentionNetConfig& config() const { return config_; }

  /// Total learnable parameter count across every layer.
  [[nodiscard]] std::size_t param_count() const;
  /// Binary in-memory weight snapshot (embed, attention, head layers; per
  /// layer W row-major then b); restore() is the bit-exact inverse.
  void snapshot_into(std::vector<double>& out) const;
  [[nodiscard]] std::vector<double> snapshot() const;
  void restore(const std::vector<double>& snap);

 private:
  struct ForwardState {
    const Matrix* embed = nullptr;  // (B*S, E) post-ReLU embeddings (relu buffer)
    Matrix alpha;                   // (B, S) attention weights
    Matrix pooled;                  // (B, E)
  };

  AttentionNetConfig config_;
  Dense embed_;
  ReLU embed_relu_;
  Dense attn_hidden_;   // W2 (E -> A)
  Tanh attn_tanh_;
  Dense attn_score_;    // v   (A -> 1)
  std::vector<Dense> head_layers_;
  std::vector<ReLU> head_relus_;
  ForwardState cache_;  // from the last training forward
  Matrix dalpha_, dembed_, dscores_;  // persistent backward scratch
  exec::ThreadPool* pool_ = nullptr;
};

}  // namespace qif::ml
