#include "qif/ml/nn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qif/ml/gemm.hpp"

namespace qif::ml {

Dense::Dense(std::size_t in, std::size_t out, sim::Rng& rng)
    : w_(in, out),
      b_(out, 0.0),
      dw_(in, out),
      db_(out, 0.0),
      mw_(in, out),
      vw_(in, out),
      mb_(out, 0.0),
      vb_(out, 0.0) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(in));  // He init
  for (double& v : w_.data()) v = rng.normal(0.0, stddev);
}

const Matrix& Dense::forward(MatView x, exec::ThreadPool* pool) {
  x_cache_.assign(x);
  gemm_nn(x, w_, y_, /*accumulate=*/false, pool);
  for (std::size_t i = 0; i < y_.rows(); ++i) {
    double* row = y_.row(i);
    for (std::size_t j = 0; j < y_.cols(); ++j) row[j] += b_[j];
  }
  return y_;
}

Matrix Dense::forward_inference(MatView x) const {
  Matrix y;
  gemm_nn(x, w_, y);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    double* row = y.row(i);
    for (std::size_t j = 0; j < y.cols(); ++j) row[j] += b_[j];
  }
  return y;
}

void Dense::forward_into(MatView x, Matrix& y, exec::ThreadPool* pool) const {
  gemm_nn(x, w_, y, /*accumulate=*/false, pool);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    double* row = y.row(i);
    for (std::size_t j = 0; j < y.cols(); ++j) row[j] += b_[j];
  }
}

const Matrix& Dense::backward(MatView dy, exec::ThreadPool* pool) {
  backward_params(dy, pool);
  gemm_nt(dy, w_, dx_, /*accumulate=*/false, pool);
  return dx_;
}

void Dense::backward_params(MatView dy, exec::ThreadPool* pool) {
  // Accumulate so several backward calls per step (the shared kernel is
  // applied once per server) sum their gradients before step().
  gemm_tn(x_cache_, dy, dw_, /*accumulate=*/true, pool);
  for (std::size_t i = 0; i < dy.rows; ++i) {
    const double* row = dy.row(i);
    for (std::size_t j = 0; j < dy.cols; ++j) db_[j] += row[j];
  }
}

void Dense::zero_grad() {
  dw_.fill(0.0);
  std::fill(db_.begin(), db_.end(), 0.0);
}

void Dense::step(const AdamParams& p, std::int64_t t) {
  const double bc1 = 1.0 - std::pow(p.beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(p.beta2, static_cast<double>(t));
  auto update = [&](double& w, double& m, double& v, double g) {
    if (p.weight_decay > 0.0) g += p.weight_decay * w;
    m = p.beta1 * m + (1.0 - p.beta1) * g;
    v = p.beta2 * v + (1.0 - p.beta2) * g * g;
    const double mhat = m / bc1;
    const double vhat = v / bc2;
    w -= p.lr * mhat / (std::sqrt(vhat) + p.eps);
  };
  for (std::size_t i = 0; i < w_.size(); ++i) {
    update(w_.data()[i], mw_.data()[i], vw_.data()[i], dw_.data()[i]);
  }
  for (std::size_t j = 0; j < b_.size(); ++j) {
    double g = db_[j];
    double& m = mb_[j];
    double& v = vb_[j];
    m = p.beta1 * m + (1.0 - p.beta1) * g;
    v = p.beta2 * v + (1.0 - p.beta2) * g * g;
    b_[j] -= p.lr * (m / bc1) / (std::sqrt(v / bc2) + p.eps);
  }
  zero_grad();
}

void Dense::snapshot_to(double* dst) const {
  dst = std::copy(w_.data().begin(), w_.data().end(), dst);
  std::copy(b_.begin(), b_.end(), dst);
}

void Dense::restore_from(const double* src) {
  std::copy(src, src + w_.size(), w_.data().begin());
  std::copy(src + w_.size(), src + w_.size() + b_.size(), b_.begin());
}

const Matrix& ReLU::forward(MatView x) {
  y_.resize(x.rows, x.cols);
  const double* in = x.ptr;
  double* out = y_.data().data();
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = in[i] > 0.0 ? in[i] : 0.0;
  return y_;
}

Matrix ReLU::forward_inference(MatView x) {
  Matrix y(x.rows, x.cols);
  const double* in = x.ptr;
  double* out = y.data().data();
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = in[i] > 0.0 ? in[i] : 0.0;
  return y;
}

void ReLU::apply_inplace(Matrix& m) {
  double* v = m.data().data();
  for (std::size_t i = 0; i < m.size(); ++i) v[i] = v[i] > 0.0 ? v[i] : 0.0;
}

const Matrix& ReLU::backward(MatView dy) {
  dx_.resize(dy.rows, dy.cols);
  const double* __restrict in = dy.ptr;
  const double* __restrict y = y_.data().data();
  double* __restrict out = dx_.data().data();
  // dy is loaded unconditionally so the select if-converts into a
  // vector compare-and-mask; a conditional load compiles to a branch
  // that mispredicts on random activation signs.
  for (std::size_t i = 0; i < dy.size(); ++i) {
    const double g = in[i];
    out[i] = y[i] > 0.0 ? g : 0.0;
  }
  return dx_;
}

const Matrix& Tanh::forward(MatView x) {
  y_.resize(x.rows, x.cols);
  const double* in = x.ptr;
  double* out = y_.data().data();
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::tanh(in[i]);
  return y_;
}

Matrix Tanh::forward_inference(MatView x) {
  Matrix y(x.rows, x.cols);
  const double* in = x.ptr;
  double* out = y.data().data();
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::tanh(in[i]);
  return y;
}

void Tanh::apply_inplace(Matrix& m) {
  double* v = m.data().data();
  for (std::size_t i = 0; i < m.size(); ++i) v[i] = std::tanh(v[i]);
}

const Matrix& Tanh::backward(MatView dy) {
  dx_.resize(dy.rows, dy.cols);
  const double* in = dy.ptr;
  const double* y = y_.data().data();
  double* out = dx_.data().data();
  for (std::size_t i = 0; i < dy.size(); ++i) out[i] = in[i] * (1.0 - y[i] * y[i]);
  return dx_;
}

std::pair<double, Matrix> SquaredError::loss_and_grad(const Matrix& pred,
                                                      const std::vector<double>& targets) {
  const std::size_t n = pred.rows();
  Matrix d(pred.rows(), 1);
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double err = pred.at(i, 0) - targets[i];
    loss += err * err;
    d.at(i, 0) = 2.0 * err / static_cast<double>(n);
  }
  return {loss / static_cast<double>(n), std::move(d)};
}

Matrix SoftmaxXent::softmax(const Matrix& logits) {
  Matrix p = logits;
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double* row = p.row(i);
    double mx = row[0];
    for (std::size_t j = 1; j < p.cols(); ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (std::size_t j = 0; j < p.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    for (std::size_t j = 0; j < p.cols(); ++j) row[j] /= sum;
  }
  return p;
}

void SoftmaxXent::softmax_into(MatView logits, Matrix& out) {
  out.resize(logits.rows, logits.cols);
  for (std::size_t i = 0; i < logits.rows; ++i) {
    const double* in = logits.row(i);
    double* row = out.row(i);
    double mx = in[0];
    for (std::size_t j = 1; j < logits.cols; ++j) mx = std::max(mx, in[j]);
    double sum = 0.0;
    for (std::size_t j = 0; j < logits.cols; ++j) {
      row[j] = std::exp(in[j] - mx);
      sum += row[j];
    }
    for (std::size_t j = 0; j < logits.cols; ++j) row[j] /= sum;
  }
}

std::pair<double, Matrix> SoftmaxXent::loss_and_grad(
    const Matrix& logits, const std::vector<int>& labels,
    const std::vector<double>& class_weights) {
  Matrix d;
  const double loss = loss_and_grad_into(logits, labels, class_weights, d);
  return {loss, std::move(d)};
}

double SoftmaxXent::loss_and_grad_into(MatView logits, const std::vector<int>& labels,
                                       const std::vector<double>& class_weights,
                                       Matrix& dlogits) {
  const std::size_t n = logits.rows;
  softmax_into(logits, dlogits);
  double loss = 0.0;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto y = static_cast<std::size_t>(labels[i]);
    const double w = class_weights.empty() ? 1.0 : class_weights[y];
    double* row = dlogits.row(i);
    loss += -w * std::log(std::max(row[y], 1e-12));
    weight_sum += w;
    for (std::size_t j = 0; j < dlogits.cols(); ++j) row[j] *= w;
    row[y] -= w;
  }
  const double norm = weight_sum > 0.0 ? weight_sum : 1.0;
  for (double& v : dlogits.data()) v /= norm;
  return loss / norm;
}

}  // namespace qif::ml
