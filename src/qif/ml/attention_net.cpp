#include "qif/ml/attention_net.hpp"

#include <cassert>
#include <stdexcept>

namespace qif::ml {

AttentionNet::AttentionNet(const AttentionNetConfig& config) : config_(config) {
  sim::Rng rng(sim::Rng::derive_seed(config.seed, "attention-net"));
  embed_ = Dense(static_cast<std::size_t>(config_.per_server_dim),
                 static_cast<std::size_t>(config_.embed_dim), rng);
  attn_hidden_ = Dense(static_cast<std::size_t>(config_.embed_dim),
                       static_cast<std::size_t>(config_.attention_dim), rng);
  attn_score_ = Dense(static_cast<std::size_t>(config_.attention_dim), 1, rng);
  std::size_t in = static_cast<std::size_t>(config_.embed_dim);
  for (const int h : config_.head_hidden) {
    head_layers_.emplace_back(in, static_cast<std::size_t>(h), rng);
    head_relus_.emplace_back();
    in = static_cast<std::size_t>(h);
  }
  head_layers_.emplace_back(in, static_cast<std::size_t>(config_.n_classes), rng);
}

namespace {

/// pooled[b] = sum_s alpha[b,s] * embed[b*S+s], written into `pooled`
/// (resized in place, so steady-state batches allocate nothing).
void pool_into(MatView embed, MatView alpha, Matrix& pooled) {
  const std::size_t b = alpha.rows;
  const std::size_t s = alpha.cols;
  const std::size_t e = embed.cols;
  pooled.resize(b, e);
  pooled.fill(0.0);
  for (std::size_t i = 0; i < b; ++i) {
    double* out = pooled.row(i);
    for (std::size_t j = 0; j < s; ++j) {
      const double a = alpha.at(i, j);
      const double* row = embed.row(i * s + j);
      for (std::size_t k = 0; k < e; ++k) out[k] += a * row[k];
    }
  }
}

}  // namespace

const Matrix& AttentionNet::forward(MatView x) {
  const auto b = x.rows;
  const auto s = static_cast<std::size_t>(config_.n_servers);
  const auto d = static_cast<std::size_t>(config_.per_server_dim);
  assert(x.cols == s * d);

  cache_.embed = &embed_relu_.forward(embed_.forward(x.reshaped(b * s, d), pool_));
  const Matrix& u = attn_tanh_.forward(attn_hidden_.forward(*cache_.embed, pool_));
  const Matrix& scores = attn_score_.forward(u, pool_);
  SoftmaxXent::softmax_into(MatView(scores).reshaped(b, s), cache_.alpha);
  pool_into(*cache_.embed, cache_.alpha, cache_.pooled);

  MatView h = cache_.pooled;
  for (std::size_t l = 0; l + 1 < head_layers_.size(); ++l) {
    h = head_relus_[l].forward(head_layers_[l].forward(h, pool_));
  }
  return head_layers_.back().forward(h, pool_);
}

void AttentionNet::backward(MatView dlogits) {
  MatView d{head_layers_.back().backward(dlogits, pool_)};
  for (std::size_t l = head_layers_.size() - 1; l-- > 0;) {
    d = head_layers_[l].backward(head_relus_[l].backward(d), pool_);
  }
  // d == dpooled (B, E).
  const std::size_t b = cache_.alpha.rows();
  const std::size_t s = cache_.alpha.cols();
  const std::size_t e = cache_.embed->cols();

  dalpha_.resize(b, s);
  dembed_.resize(b * s, e);
  for (std::size_t i = 0; i < b; ++i) {
    const double* dp = d.row(i);
    for (std::size_t j = 0; j < s; ++j) {
      const double* erow = cache_.embed->row(i * s + j);
      double dot = 0.0;
      for (std::size_t k = 0; k < e; ++k) dot += dp[k] * erow[k];
      dalpha_.at(i, j) = dot;
      const double a = cache_.alpha.at(i, j);
      double* de = dembed_.row(i * s + j);
      for (std::size_t k = 0; k < e; ++k) de[k] = a * dp[k];
    }
  }
  // Softmax jacobian per row.
  dscores_.resize(b, s);
  for (std::size_t i = 0; i < b; ++i) {
    double inner = 0.0;
    for (std::size_t j = 0; j < s; ++j) inner += cache_.alpha.at(i, j) * dalpha_.at(i, j);
    for (std::size_t j = 0; j < s; ++j) {
      dscores_.at(i, j) = cache_.alpha.at(i, j) * (dalpha_.at(i, j) - inner);
    }
  }
  // Attention branch back to the embeddings.
  const Matrix& du = attn_score_.backward(MatView(dscores_).reshaped(b * s, 1), pool_);
  const Matrix& dembed_attn = attn_hidden_.backward(attn_tanh_.backward(du), pool_);
  for (std::size_t i = 0; i < dembed_.size(); ++i) {
    dembed_.data()[i] += dembed_attn.data()[i];
  }
  // embed_ is the input layer: its dX has no consumer.
  embed_.backward_params(embed_relu_.backward(dembed_), pool_);
}

void AttentionNet::step(const AdamParams& params, std::int64_t t) {
  embed_.step(params, t);
  attn_hidden_.step(params, t);
  attn_score_.step(params, t);
  for (auto& l : head_layers_) l.step(params, t);
}

Matrix AttentionNet::forward_inference(MatView x) const {
  const auto b = x.rows;
  const auto s = static_cast<std::size_t>(config_.n_servers);
  const auto d = static_cast<std::size_t>(config_.per_server_dim);
  assert(x.cols == s * d);
  const Matrix embed =
      ReLU::forward_inference(embed_.forward_inference(x.reshaped(b * s, d)));
  const Matrix u = Tanh::forward_inference(attn_hidden_.forward_inference(embed));
  const Matrix alpha =
      SoftmaxXent::softmax(attn_score_.forward_inference(u).reshaped(b, s));
  Matrix h;
  pool_into(embed, alpha, h);
  for (std::size_t l = 0; l + 1 < head_layers_.size(); ++l) {
    h = ReLU::forward_inference(head_layers_[l].forward_inference(h));
  }
  return head_layers_.back().forward_inference(h);
}

MatView AttentionNet::forward_batch(MatView x, Scratch& s, exec::ThreadPool* pool) const {
  const auto b = x.rows;
  const auto sv = static_cast<std::size_t>(config_.n_servers);
  const auto d = static_cast<std::size_t>(config_.per_server_dim);
  assert(x.cols == sv * d);

  // Same arithmetic as forward_inference, element for element, but every
  // intermediate lands in a caller-owned buffer.
  embed_.forward_into(x.reshaped(b * sv, d), s.embed, pool);
  ReLU::apply_inplace(s.embed);
  attn_hidden_.forward_into(s.embed, s.u, pool);
  Tanh::apply_inplace(s.u);
  attn_score_.forward_into(s.u, s.scores, pool);
  SoftmaxXent::softmax_into(MatView(s.scores).reshaped(b, sv), s.alpha);

  Matrix* bufs[2] = {&s.ping, &s.pong};
  pool_into(s.embed, s.alpha, s.ping);
  MatView v = s.ping;
  int cur = 1;  // pooled lives in ping; first head layer writes pong
  for (std::size_t l = 0; l + 1 < head_layers_.size(); ++l) {
    head_layers_[l].forward_into(v, *bufs[cur], pool);
    ReLU::apply_inplace(*bufs[cur]);
    v = *bufs[cur];
    cur ^= 1;
  }
  head_layers_.back().forward_into(v, *bufs[cur], pool);
  return *bufs[cur];
}

std::vector<int> AttentionNet::predict(MatView x) const {
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

std::vector<double> AttentionNet::attention_weights(
    const std::vector<double>& features) const {
  const auto s = static_cast<std::size_t>(config_.n_servers);
  const auto d = static_cast<std::size_t>(config_.per_server_dim);
  assert(features.size() == s * d);
  const Matrix embed =
      ReLU::forward_inference(embed_.forward_inference(MatView(features.data(), s, d)));
  const Matrix u = Tanh::forward_inference(attn_hidden_.forward_inference(embed));
  const Matrix alpha =
      SoftmaxXent::softmax(attn_score_.forward_inference(u).reshaped(1, s));
  return {alpha.row(0), alpha.row(0) + s};
}

std::size_t AttentionNet::param_count() const {
  std::size_t n = embed_.param_count() + attn_hidden_.param_count() +
                  attn_score_.param_count();
  for (const auto& l : head_layers_) n += l.param_count();
  return n;
}

void AttentionNet::snapshot_into(std::vector<double>& out) const {
  out.resize(param_count());
  double* dst = out.data();
  embed_.snapshot_to(dst);
  dst += embed_.param_count();
  attn_hidden_.snapshot_to(dst);
  dst += attn_hidden_.param_count();
  attn_score_.snapshot_to(dst);
  dst += attn_score_.param_count();
  for (const auto& l : head_layers_) {
    l.snapshot_to(dst);
    dst += l.param_count();
  }
}

std::vector<double> AttentionNet::snapshot() const {
  std::vector<double> out;
  snapshot_into(out);
  return out;
}

void AttentionNet::restore(const std::vector<double>& snap) {
  if (snap.size() != param_count()) {
    throw std::invalid_argument("attentionnet restore: snapshot has " +
                                std::to_string(snap.size()) + " params, net has " +
                                std::to_string(param_count()));
  }
  const double* src = snap.data();
  embed_.restore_from(src);
  src += embed_.param_count();
  attn_hidden_.restore_from(src);
  src += attn_hidden_.param_count();
  attn_score_.restore_from(src);
  src += attn_score_.param_count();
  for (auto& l : head_layers_) {
    l.restore_from(src);
    src += l.param_count();
  }
}

}  // namespace qif::ml
