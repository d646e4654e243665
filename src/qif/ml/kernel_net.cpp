#include "qif/ml/kernel_net.hpp"

#include <cassert>
#include <stdexcept>

namespace qif::ml {

KernelNet::KernelNet(const KernelNetConfig& config) : config_(config) {
  sim::Rng rng(sim::Rng::derive_seed(config.seed, "kernel-net"));
  // Shared kernel: D -> hidden... -> 1 (linear output scalar).
  std::size_t in = static_cast<std::size_t>(config_.per_server_dim);
  for (const int h : config_.kernel_hidden) {
    kernel_layers_.emplace_back(in, static_cast<std::size_t>(h), rng);
    kernel_relus_.emplace_back();
    in = static_cast<std::size_t>(h);
  }
  kernel_layers_.emplace_back(in, 1, rng);

  // Head: S -> hidden... -> C.
  in = static_cast<std::size_t>(config_.n_servers);
  for (const int h : config_.head_hidden) {
    head_layers_.emplace_back(in, static_cast<std::size_t>(h), rng);
    head_relus_.emplace_back();
    in = static_cast<std::size_t>(h);
  }
  head_layers_.emplace_back(in, static_cast<std::size_t>(config_.n_classes), rng);
}

const Matrix& KernelNet::kernel_forward(MatView xk) {
  MatView h = xk;
  for (std::size_t l = 0; l + 1 < kernel_layers_.size(); ++l) {
    h = kernel_layers_[l].forward(h, pool_);
    h = kernel_relus_[l].forward(h);
  }
  return kernel_layers_.back().forward(h, pool_);
}

Matrix KernelNet::kernel_forward_inference(MatView xk) const {
  Matrix h;
  MatView v = xk;
  for (std::size_t l = 0; l + 1 < kernel_layers_.size(); ++l) {
    h = ReLU::forward_inference(kernel_layers_[l].forward_inference(v));
    v = h;
  }
  return kernel_layers_.back().forward_inference(v);
}

const Matrix& KernelNet::forward(MatView x) {
  const auto b = x.rows;
  const auto s = static_cast<std::size_t>(config_.n_servers);
  const auto d = static_cast<std::size_t>(config_.per_server_dim);
  assert(x.cols == s * d);

  // (B, S*D) viewed as (B*S, D); kernel output (B*S, 1) viewed as (B, S).
  MatView h = MatView(kernel_forward(x.reshaped(b * s, d))).reshaped(b, s);
  for (std::size_t l = 0; l + 1 < head_layers_.size(); ++l) {
    h = head_layers_[l].forward(h, pool_);
    h = head_relus_[l].forward(h);
  }
  return head_layers_.back().forward(h, pool_);
}

void KernelNet::backward(MatView dlogits) {
  MatView d{head_layers_.back().backward(dlogits, pool_)};
  for (std::size_t l = head_layers_.size() - 1; l-- > 0;) {
    d = head_relus_[l].backward(d);
    d = head_layers_[l].backward(d, pool_);
  }
  // d is now (B, S): gradient w.r.t. the per-server kernel scores —
  // the same memory as the (B*S, 1) kernel-output gradient.
  const auto b = d.rows;
  const auto s = static_cast<std::size_t>(config_.n_servers);
  // The input layer's dX (the gradient w.r.t. the features) has no
  // consumer, so it runs the parameter-only backward.
  MatView dk = d.reshaped(b * s, 1);
  for (std::size_t l = kernel_layers_.size() - 1; l > 0; --l) {
    dk = kernel_layers_[l].backward(dk, pool_);
    dk = kernel_relus_[l - 1].backward(dk);
  }
  kernel_layers_.front().backward_params(dk, pool_);
}

void KernelNet::step(const AdamParams& params, std::int64_t t) {
  for (auto& l : kernel_layers_) l.step(params, t);
  for (auto& l : head_layers_) l.step(params, t);
}

Matrix KernelNet::forward_inference(MatView x) const {
  const auto b = x.rows;
  const auto s = static_cast<std::size_t>(config_.n_servers);
  const auto d = static_cast<std::size_t>(config_.per_server_dim);
  assert(x.cols == s * d);
  const Matrix scores = kernel_forward_inference(x.reshaped(b * s, d));
  Matrix h;
  MatView v = MatView(scores).reshaped(b, s);
  for (std::size_t l = 0; l + 1 < head_layers_.size(); ++l) {
    h = ReLU::forward_inference(head_layers_[l].forward_inference(v));
    v = h;
  }
  return head_layers_.back().forward_inference(v);
}

MatView KernelNet::forward_batch(MatView x, Scratch& s, exec::ThreadPool* pool) const {
  const auto b = x.rows;
  const auto sv = static_cast<std::size_t>(config_.n_servers);
  const auto d = static_cast<std::size_t>(config_.per_server_dim);
  assert(x.cols == sv * d);

  // Kernel: (B*S, D) -> ... -> (B*S, 1), ping-ponging between the two
  // scratch buffers (a GEMM cannot write over its own input), ReLU applied
  // in place.  The arithmetic per element is exactly forward_inference's.
  Matrix* bufs[2] = {&s.ping, &s.pong};
  int cur = 0;
  MatView v = x.reshaped(b * sv, d);
  for (std::size_t l = 0; l + 1 < kernel_layers_.size(); ++l) {
    kernel_layers_[l].forward_into(v, *bufs[cur], pool);
    ReLU::apply_inplace(*bufs[cur]);
    v = *bufs[cur];
    cur ^= 1;
  }
  kernel_layers_.back().forward_into(v, s.scores, pool);

  // Head: the (B*S, 1) scores are the same memory as (B, S).
  v = MatView(s.scores).reshaped(b, sv);
  for (std::size_t l = 0; l + 1 < head_layers_.size(); ++l) {
    head_layers_[l].forward_into(v, *bufs[cur], pool);
    ReLU::apply_inplace(*bufs[cur]);
    v = *bufs[cur];
    cur ^= 1;
  }
  head_layers_.back().forward_into(v, *bufs[cur], pool);
  return *bufs[cur];
}

std::vector<int> KernelNet::predict(MatView x) const {
  const Matrix logits = forward_inference(x);
  std::vector<int> out(logits.rows());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const double* row = logits.row(i);
    int best = 0;
    for (std::size_t j = 1; j < logits.cols(); ++j) {
      if (row[j] > row[best]) best = static_cast<int>(j);
    }
    out[i] = best;
  }
  return out;
}

std::vector<double> KernelNet::server_scores(const std::vector<double>& features) const {
  const auto s = static_cast<std::size_t>(config_.n_servers);
  const auto d = static_cast<std::size_t>(config_.per_server_dim);
  assert(features.size() == s * d);
  const Matrix scores = kernel_forward_inference(MatView(features.data(), s, d));
  std::vector<double> out(s);
  for (std::size_t i = 0; i < s; ++i) out[i] = scores.at(i, 0);
  return out;
}

std::size_t KernelNet::param_count() const {
  std::size_t n = 0;
  for (const auto& l : kernel_layers_) n += l.param_count();
  for (const auto& l : head_layers_) n += l.param_count();
  return n;
}

void KernelNet::snapshot_into(std::vector<double>& out) const {
  out.resize(param_count());
  double* dst = out.data();
  for (const auto& l : kernel_layers_) {
    l.snapshot_to(dst);
    dst += l.param_count();
  }
  for (const auto& l : head_layers_) {
    l.snapshot_to(dst);
    dst += l.param_count();
  }
}

std::vector<double> KernelNet::snapshot() const {
  std::vector<double> out;
  snapshot_into(out);
  return out;
}

void KernelNet::restore(const std::vector<double>& snap) {
  if (snap.size() != param_count()) {
    throw std::invalid_argument("kernelnet restore: snapshot has " +
                                std::to_string(snap.size()) + " params, net has " +
                                std::to_string(param_count()));
  }
  const double* src = snap.data();
  for (auto& l : kernel_layers_) {
    l.restore_from(src);
    src += l.param_count();
  }
  for (auto& l : head_layers_) {
    l.restore_from(src);
    src += l.param_count();
  }
}

}  // namespace qif::ml
