// Neural network building blocks: dense layer, ReLU, softmax
// cross-entropy with class weights, and the Adam optimizer.
//
// Everything is implemented from first principles — the training server in
// the paper is a PyTorch model, but a dependency-free C++ implementation
// keeps the framework deployable on the login/management node of a cluster
// where a Python stack is unwelcome.
//
// Buffer discipline: the training-path forward()/backward() methods write
// into buffers owned by the layer and return a reference, so a steady-state
// epoch performs no heap allocation.  A returned reference stays valid
// until the same layer's next forward()/backward() call; chaining layers is
// safe because every layer only writes its own buffers.  The *_inference
// paths stay const (and allocate) so a shared trained model can serve
// predictions from several threads.
#pragma once

#include <cstdint>
#include <vector>

#include "qif/ml/matrix.hpp"
#include "qif/sim/rng.hpp"

namespace qif::exec {
class ThreadPool;
}

namespace qif::ml {

struct AdamParams {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double weight_decay = 0.0;
};

/// Fully connected layer: Y = X W + b, with He-initialized weights.
class Dense {
 public:
  Dense() = default;
  Dense(std::size_t in, std::size_t out, sim::Rng& rng);

  /// Forward pass; caches X for the backward pass.  `pool` (optional)
  /// parallelizes the GEMM with bit-identical results at any job count.
  const Matrix& forward(MatView x, exec::ThreadPool* pool = nullptr);
  /// Inference-only forward: no cache, usable on a const layer.
  [[nodiscard]] Matrix forward_inference(MatView x) const;
  /// Inference forward into a caller-owned buffer: const (usable from a
  /// shared trained model), and allocation-free once `y`'s capacity covers
  /// the batch shape — the serving-path variant of forward_inference.
  /// `y` must not alias `x`.  Bit-identical to forward_inference.
  void forward_into(MatView x, Matrix& y, exec::ThreadPool* pool = nullptr) const;
  /// Backward pass: accumulates dW/db from the cached X, returns dX.
  const Matrix& backward(MatView dy, exec::ThreadPool* pool = nullptr);
  /// Parameter-only backward for a network's input layer, whose dX
  /// nobody reads: accumulates the same dW/db as backward(), bit for bit,
  /// and skips the dY·Wᵀ product.
  void backward_params(MatView dy, exec::ThreadPool* pool = nullptr);
  /// Applies one Adam update with bias correction at step `t` (1-based)
  /// and clears the gradient accumulators.
  void step(const AdamParams& p, std::int64_t t);
  void zero_grad();

  [[nodiscard]] std::size_t in_dim() const { return w_.rows(); }
  [[nodiscard]] std::size_t out_dim() const { return w_.cols(); }
  [[nodiscard]] const Matrix& weights() const { return w_; }
  [[nodiscard]] const std::vector<double>& bias() const { return b_; }

  /// Number of learnable parameters (weights + biases).
  [[nodiscard]] std::size_t param_count() const { return w_.size() + b_.size(); }
  /// Copies W then b into `dst` (param_count() doubles) — the binary
  /// snapshot path used by early stopping.
  void snapshot_to(double* dst) const;
  /// Restores W then b from `src` (param_count() doubles).
  void restore_from(const double* src);

 private:
  Matrix w_;               // (in, out)
  std::vector<double> b_;  // (out)
  Matrix dw_;
  std::vector<double> db_;
  Matrix mw_, vw_;         // Adam first/second moments for W
  std::vector<double> mb_, vb_;
  Matrix x_cache_;
  Matrix y_;   // training forward output
  Matrix dx_;  // training backward output
};

/// ReLU activation.  The backward mask comes from the cached output
/// (y > 0 iff x > 0), so no separate input cache is needed.
class ReLU {
 public:
  const Matrix& forward(MatView x);
  [[nodiscard]] static Matrix forward_inference(MatView x);
  /// In-place activation for the serving path: same values as
  /// forward_inference, no copy, no allocation.
  static void apply_inplace(Matrix& m);
  const Matrix& backward(MatView dy);

 private:
  Matrix y_;
  Matrix dx_;
};

/// Tanh activation with cached output (tanh' = 1 - tanh^2).
class Tanh {
 public:
  const Matrix& forward(MatView x);
  [[nodiscard]] static Matrix forward_inference(MatView x);
  /// In-place activation (serving path; values match forward_inference).
  static void apply_inplace(Matrix& m);
  const Matrix& backward(MatView dy);

 private:
  Matrix y_;
  Matrix dx_;
};

/// Mean squared error for the regression extension (predicting the
/// degradation level itself rather than its bin).
struct SquaredError {
  /// Returns (loss, dpred) for column-vector predictions (N, 1).
  static std::pair<double, Matrix> loss_and_grad(const Matrix& pred,
                                                 const std::vector<double>& targets);
};

/// Softmax cross-entropy with optional per-class weights (for the skewed
/// datasets: IO500 is ~75% positive, DLIO ~20%).
struct SoftmaxXent {
  /// Returns (loss, dlogits).  `class_weights` empty means uniform.
  /// Labels must lie in [0, logits.cols); the trainer checks them.
  static std::pair<double, Matrix> loss_and_grad(const Matrix& logits,
                                                 const std::vector<int>& labels,
                                                 const std::vector<double>& class_weights);
  /// loss_and_grad writing dlogits into a caller-owned buffer (resized in
  /// place, so a steady-state training loop allocates nothing); returns
  /// the loss.  Same arithmetic, element for element.  `dlogits` must not
  /// alias `logits`.
  static double loss_and_grad_into(MatView logits, const std::vector<int>& labels,
                                   const std::vector<double>& class_weights,
                                   Matrix& dlogits);
  /// Row-wise softmax probabilities.
  static Matrix softmax(const Matrix& logits);
  /// Row-wise softmax into a caller-owned buffer (resized in place, so a
  /// steady-state serving loop allocates nothing).  Arithmetic is identical
  /// to softmax(), element for element.  `out` must not alias `logits`.
  static void softmax_into(MatView logits, Matrix& out);
};

}  // namespace qif::ml
