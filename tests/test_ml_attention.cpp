// Tests for the attention-pooling network (the paper's future-work
// architecture direction) and the Tanh / squared-error building blocks.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "qif/ml/attention_net.hpp"
#include "qif/serve/registry.hpp"

namespace qif::ml {
namespace {

AttentionNetConfig tiny_config() {
  AttentionNetConfig cfg;
  cfg.per_server_dim = 4;
  cfg.n_servers = 3;
  cfg.n_classes = 2;
  cfg.embed_dim = 8;
  cfg.attention_dim = 4;
  cfg.head_hidden = {6};
  cfg.seed = 9;
  return cfg;
}

TEST(Tanh, ForwardAndBackward) {
  Tanh tanh_layer;
  Matrix x(1, 3);
  x.data() = {0.0, 1.0, -2.0};
  const Matrix y = tanh_layer.forward(x);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 0.0);
  EXPECT_NEAR(y.at(0, 1), std::tanh(1.0), 1e-12);
  EXPECT_NEAR(y.at(0, 2), std::tanh(-2.0), 1e-12);
  Matrix dy(1, 3);
  dy.data() = {1.0, 1.0, 1.0};
  const Matrix dx = tanh_layer.backward(dy);
  EXPECT_DOUBLE_EQ(dx.at(0, 0), 1.0);  // tanh'(0) = 1
  EXPECT_NEAR(dx.at(0, 1), 1.0 - std::tanh(1.0) * std::tanh(1.0), 1e-12);
}

TEST(SquaredError, LossAndGradient) {
  Matrix pred(2, 1);
  pred.at(0, 0) = 3.0;
  pred.at(1, 0) = -1.0;
  auto [loss, d] = SquaredError::loss_and_grad(pred, {1.0, -1.0});
  EXPECT_DOUBLE_EQ(loss, (4.0 + 0.0) / 2.0);
  EXPECT_DOUBLE_EQ(d.at(0, 0), 2.0 * 2.0 / 2.0);
  EXPECT_DOUBLE_EQ(d.at(1, 0), 0.0);
}

TEST(AttentionNet, OutputShape) {
  AttentionNet net(tiny_config());
  Matrix x(5, 12);
  const Matrix logits = net.forward_inference(x);
  EXPECT_EQ(logits.rows(), 5u);
  EXPECT_EQ(logits.cols(), 2u);
}

TEST(AttentionNet, PermutationInvariantOverServers) {
  // The defining property vs. the kernel net: reordering the per-server
  // blocks leaves the prediction unchanged.
  AttentionNet net(tiny_config());
  sim::Rng rng(4);
  Matrix x(1, 12);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  Matrix perm = x;
  // Rotate the three 4-wide blocks.
  for (int s = 0; s < 3; ++s) {
    for (int f = 0; f < 4; ++f) {
      perm.at(0, ((s + 1) % 3) * 4 + f) = x.at(0, s * 4 + f);
    }
  }
  const Matrix a = net.forward_inference(x);
  const Matrix b = net.forward_inference(perm);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(a.at(0, j), b.at(0, j), 1e-10);
  }
}

TEST(AttentionNet, AttentionWeightsFormDistribution) {
  AttentionNet net(tiny_config());
  sim::Rng rng(5);
  std::vector<double> features(12);
  for (auto& v : features) v = rng.normal(0, 1);
  const auto alpha = net.attention_weights(features);
  ASSERT_EQ(alpha.size(), 3u);
  double sum = 0.0;
  for (const double a : alpha) {
    EXPECT_GT(a, 0.0);
    sum += a;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(AttentionNet, GradientStepReducesLoss) {
  AttentionNet net(tiny_config());
  sim::Rng rng(6);
  Matrix x(6, 12);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  const std::vector<int> y = {0, 1, 0, 1, 1, 0};
  double first = 0.0, last = 0.0;
  for (int step = 1; step <= 150; ++step) {
    const Matrix logits = net.forward(x);
    auto [loss, d] = SoftmaxXent::loss_and_grad(logits, y, {});
    if (step == 1) first = loss;
    last = loss;
    net.backward(d);
    net.step(AdamParams{}, step);
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(AttentionNet, LearnsAnyServerHotRule) {
  AttentionNet net(tiny_config());
  sim::Rng rng(11);
  const std::size_t n = 256;
  Matrix x(n, 12);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    bool positive = false;
    for (int srv = 0; srv < 3; ++srv) {
      const bool hot = rng.chance(0.25);
      x.at(i, srv * 4) = hot ? rng.uniform(1.0, 3.0) : rng.uniform(-3.0, -1.0);
      for (int f = 1; f < 4; ++f) x.at(i, srv * 4 + f) = rng.normal(0, 1);
      positive = positive || hot;
    }
    y[i] = positive ? 1 : 0;
  }
  std::int64_t t = 0;
  for (int epoch = 0; epoch < 500; ++epoch) {
    const Matrix logits = net.forward(x);
    auto [loss, d] = SoftmaxXent::loss_and_grad(logits, y, {});
    net.backward(d);
    net.step(AdamParams{}, ++t);
  }
  const auto pred = net.predict(x);
  int correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pred[i] == y[i]) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(n * 0.92));
}

TEST(AttentionNet, LearnsToAttendToTheInformativeServer) {
  // End-to-end check of the hand-derived backward pass: when the label
  // depends only on one server's features, a correctly trained model must
  // route its attention there for positive samples.  A materially wrong
  // softmax/pooling jacobian cannot pass this.
  AttentionNetConfig cfg = tiny_config();
  AttentionNet net(cfg);
  sim::Rng rng(22);
  const std::size_t n = 256;
  Matrix x(n, 12);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool hot = rng.chance(0.5);
    for (int srv = 0; srv < 3; ++srv) {
      for (int f = 0; f < 4; ++f) x.at(i, srv * 4 + f) = rng.normal(0, 0.3);
    }
    // Only server 1 carries signal.
    x.at(i, 1 * 4 + 0) = hot ? 2.5 : -2.5;
    y[i] = hot ? 1 : 0;
  }
  std::int64_t t = 0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    const Matrix logits = net.forward(x);
    auto [loss, d] = SoftmaxXent::loss_and_grad(logits, y, {});
    net.backward(d);
    net.step(AdamParams{}, ++t);
  }
  // Accuracy first.
  const auto pred = net.predict(x);
  int correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pred[i] == y[i]) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(n * 0.95));
  // Attention concentrates on server 1 for positive samples (averaged —
  // individual samples may tie when the noise dominates).
  double a1_sum = 0.0, other_sum = 0.0;
  int positives = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (y[i] != 1) continue;
    ++positives;
    std::vector<double> f(x.row(i), x.row(i) + 12);
    const auto alpha = net.attention_weights(f);
    a1_sum += alpha[1];
    other_sum += alpha[0] + alpha[2];
  }
  ASSERT_GT(positives, 0);
  EXPECT_GT(a1_sum / positives, other_sum / positives / 2.0)
      << "attention did not concentrate on the informative server";
}

TEST(AttentionNet, SaveLoadPreservesPredictions) {
  // The .qifm model file is a net's only on-disk form.
  serve::ServingModel model;
  model.kind = serve::ServingModel::Kind::kAttention;
  model.attention = AttentionNet(tiny_config());
  model.stdz = Standardizer::from_moments(std::vector<double>(4, 0.0),
                                          std::vector<double>(4, 1.0));
  sim::Rng rng(7);
  Matrix x(4, 12);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  const Matrix before = model.attention.forward_inference(x);
  std::stringstream ss;
  serve::save_model(model, ss);
  const AttentionNet loaded = serve::load_model(ss).attention;
  EXPECT_EQ(loaded.config().embed_dim, 8);
  const Matrix after = loaded.forward_inference(x);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after.data()[i], before.data()[i]);
  }
}

TEST(AttentionNet, RegressionHeadFitsDegradationLevels) {
  // The regression extension: one output node + squared error learns the
  // degradation magnitude, not just its bin.
  AttentionNetConfig cfg = tiny_config();
  cfg.n_classes = 1;
  AttentionNet net(cfg);
  sim::Rng rng(12);
  const std::size_t n = 128;
  Matrix x(n, 12);
  std::vector<double> target(n);
  for (std::size_t i = 0; i < n; ++i) {
    double level = 0.0;
    for (int srv = 0; srv < 3; ++srv) {
      const double load = rng.uniform(0.0, 2.0);
      x.at(i, srv * 4) = load;
      for (int f = 1; f < 4; ++f) x.at(i, srv * 4 + f) = rng.normal(0, 0.1);
      level += load;
    }
    target[i] = level;  // degradation ~ total load
  }
  std::int64_t t = 0;
  double last = 0.0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    const Matrix pred = net.forward(x);
    auto [loss, d] = SquaredError::loss_and_grad(pred, target);
    last = loss;
    net.backward(d);
    net.step(AdamParams{}, ++t);
  }
  EXPECT_LT(last, 0.1);  // targets range ~[0, 6]; MSE 0.1 is a tight fit
}

TEST(AttentionNet, ForwardBatchMatchesForwardInferenceBitForBit) {
  // Same contract the kernel net pins: batched logits and attention
  // weights are bit-identical per row to forward_inference and to a
  // one-row forward_batch of that row alone.
  AttentionNet net(tiny_config());
  sim::Rng rng(19);
  for (const std::size_t batch : {1u, 3u, 6u, 11u}) {
    Matrix x(batch, 12);
    for (auto& v : x.data()) v = rng.normal(0, 1);
    AttentionNet::Scratch scratch;
    const MatView logits = net.forward_batch(x, scratch);
    ASSERT_EQ(logits.rows, batch);
    ASSERT_EQ(logits.cols, 2u);
    const Matrix want = net.forward_inference(x);
    for (std::size_t i = 0; i < batch; ++i) {
      for (std::size_t j = 0; j < 2u; ++j) {
        ASSERT_EQ(logits.at(i, j), want.at(i, j)) << "batch=" << batch << " row " << i;
      }
      AttentionNet::Scratch one_scratch;
      const MatView one = net.forward_batch(MatView(x.row(i), 1, 12), one_scratch);
      for (std::size_t j = 0; j < 2u; ++j) {
        ASSERT_EQ(one.at(0, j), logits.at(i, j)) << "batch=" << batch << " row " << i;
      }
      for (std::size_t s = 0; s < 3u; ++s) {
        ASSERT_EQ(one_scratch.alpha.data()[s], scratch.alpha.data()[i * 3 + s])
            << "batch=" << batch << " row " << i << " server " << s;
      }
    }
  }
}

}  // namespace
}  // namespace qif::ml
