// Tests for the network building blocks: dense layers (with a finite-
// difference gradient check), ReLU, softmax cross-entropy, and Adam.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "qif/ml/nn.hpp"

namespace qif::ml {
namespace {

TEST(Dense, ForwardComputesXWPlusB) {
  sim::Rng rng(1);
  Dense layer(2, 2, rng);
  // Overwrite with known weights via save/load round trip is awkward;
  // instead verify linearity: f(2x) - f(x) == f(x) - f(0).
  Matrix x(1, 2), x2(1, 2), zero(1, 2);
  x.at(0, 0) = 1.0;
  x.at(0, 1) = -2.0;
  x2.at(0, 0) = 2.0;
  x2.at(0, 1) = -4.0;
  const Matrix fx = layer.forward_inference(x);
  const Matrix fx2 = layer.forward_inference(x2);
  const Matrix f0 = layer.forward_inference(zero);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(fx2.at(0, j) - fx.at(0, j), fx.at(0, j) - f0.at(0, j), 1e-12);
  }
}

TEST(Dense, GradientCheckAgainstFiniteDifferences) {
  sim::Rng rng(2);
  Dense layer(3, 2, rng);
  Matrix x(4, 3);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  std::vector<int> y = {0, 1, 0, 1};

  // Analytic gradient of the scalar loss w.r.t. the input.
  Matrix logits = layer.forward(x);
  auto [loss, dlogits] = SoftmaxXent::loss_and_grad(logits, y, {});
  const Matrix dx = layer.backward(dlogits);

  // Numerical gradient.
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    Matrix xp = x, xm = x;
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    const auto lp =
        SoftmaxXent::loss_and_grad(layer.forward_inference(xp), y, {}).first;
    const auto lm =
        SoftmaxXent::loss_and_grad(layer.forward_inference(xm), y, {}).first;
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(dx.data()[i], numeric, 1e-5) << "input grad " << i;
  }
}

TEST(Dense, AdamStepReducesLoss) {
  sim::Rng rng(3);
  Dense layer(4, 3, rng);
  Matrix x(8, 4);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  std::vector<int> y;
  for (int i = 0; i < 8; ++i) y.push_back(i % 3);

  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 1; step <= 200; ++step) {
    const Matrix logits = layer.forward(x);
    auto [loss, dlogits] = SoftmaxXent::loss_and_grad(logits, y, {});
    if (step == 1) first_loss = loss;
    last_loss = loss;
    layer.backward(dlogits);
    layer.step(AdamParams{}, step);
  }
  EXPECT_LT(last_loss, first_loss * 0.8);
}

TEST(Dense, SnapshotRestoreRoundTrip) {
  sim::Rng rng(4);
  Dense layer(5, 3, rng);
  Matrix x(2, 5);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  const Matrix before = layer.forward_inference(x);
  std::vector<double> snap(layer.param_count());
  layer.snapshot_to(snap.data());
  Dense loaded(5, 3, rng);  // different init, same shape
  loaded.restore_from(snap.data());
  const Matrix after = loaded.forward_inference(x);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after.data()[i], before.data()[i]);
  }
}

TEST(Dense, ParamOnlyBackwardMatchesFullBackwardBitForBit) {
  // An input layer's backward skips dX; its dW/db must be exactly the
  // full backward's.  The gradients are private, so compare the weights
  // after one Adam step from identical layers, bit for bit, with two
  // accumulated backward calls per step like the shared kernel makes.
  sim::Rng init_a(6), init_b(6), data(7);
  Dense full(37, 64, init_a);
  Dense params_only(37, 64, init_b);
  Matrix x(448, 37), dy(448, 64);
  for (auto& v : x.data()) v = data.normal(0, 1);
  for (auto& v : dy.data()) v = data.normal(0, 1);
  for (int call = 0; call < 2; ++call) {
    (void)full.forward(x);
    (void)params_only.forward(x);
    (void)full.backward(dy);
    params_only.backward_params(dy);
  }
  full.step(AdamParams{}, 1);
  params_only.step(AdamParams{}, 1);
  std::vector<double> a(full.param_count()), b(params_only.param_count());
  full.snapshot_to(a.data());
  params_only.snapshot_to(b.data());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "param " << i;
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Matrix x(1, 4);
  x.data() = {-1.0, 0.0, 2.0, -3.5};
  const Matrix y = relu.forward(x);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(y.at(0, 3), 0.0);
}

TEST(ReLU, BackwardMasksByInputSign) {
  ReLU relu;
  Matrix x(1, 3);
  x.data() = {-1.0, 1.0, 0.0};
  relu.forward(x);
  Matrix dy(1, 3);
  dy.data() = {5.0, 5.0, 5.0};
  const Matrix dx = relu.backward(dy);
  EXPECT_DOUBLE_EQ(dx.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(dx.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(dx.at(0, 2), 0.0);
}

TEST(ReLU, BackwardPassesGradientExactlyWherePositive) {
  // Random signs over an odd length (the vector loop's scalar tail too):
  // dx is dy bit for bit where y > 0 and +0.0 elsewhere, NaN gradients
  // included, since the select reads dy unconditionally.
  ReLU relu;
  sim::Rng rng(8);
  Matrix x(5, 13), dy(5, 13);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  for (auto& v : dy.data()) v = rng.normal(0, 1);
  x.data()[3] = 0.0;
  dy.data()[4] = std::nan("");
  x.data()[4] = -1.0;
  (void)relu.forward(x);
  const Matrix& dx = relu.backward(dy);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x.data()[i] > 0.0) {
      EXPECT_EQ(dx.data()[i], dy.data()[i]) << i;
    } else {
      EXPECT_EQ(dx.data()[i], 0.0) << i;
      EXPECT_FALSE(std::signbit(dx.data()[i])) << i;
    }
  }
}

TEST(SoftmaxXent, SoftmaxRowsSumToOne) {
  Matrix logits(3, 4);
  sim::Rng rng(5);
  for (auto& v : logits.data()) v = rng.normal(0, 3);
  const Matrix p = SoftmaxXent::softmax(logits);
  for (std::size_t i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_GT(p.at(i, j), 0.0);
      sum += p.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(SoftmaxXent, SoftmaxNumericallyStableForHugeLogits) {
  Matrix logits(1, 2);
  logits.data() = {1000.0, 999.0};
  const Matrix p = SoftmaxXent::softmax(logits);
  EXPECT_TRUE(std::isfinite(p.at(0, 0)));
  EXPECT_NEAR(p.at(0, 0) + p.at(0, 1), 1.0, 1e-12);
  EXPECT_GT(p.at(0, 0), p.at(0, 1));
}

TEST(SoftmaxXent, UniformLogitsGiveLogKLoss) {
  Matrix logits(2, 4);  // all zeros -> uniform distribution
  auto [loss, grad] = SoftmaxXent::loss_and_grad(logits, {1, 2}, {});
  EXPECT_NEAR(loss, std::log(4.0), 1e-9);
  // Gradient: p - onehot, normalized by batch.
  EXPECT_NEAR(grad.at(0, 1), (0.25 - 1.0) / 2.0, 1e-12);
  EXPECT_NEAR(grad.at(0, 0), 0.25 / 2.0, 1e-12);
}

TEST(SoftmaxXent, ClassWeightsScaleContributions) {
  Matrix logits(2, 2);  // uniform
  const std::vector<double> w = {1.0, 3.0};
  auto [loss_weighted, g] = SoftmaxXent::loss_and_grad(logits, {0, 1}, w);
  auto [loss_plain, g2] = SoftmaxXent::loss_and_grad(logits, {0, 1}, {});
  // Both rows have loss log(2); weighted average = (1*l + 3*l)/4 = l.
  EXPECT_NEAR(loss_weighted, loss_plain, 1e-12);
  // But the class-1 row's gradient carries 3x the weight (before norm).
  EXPECT_NEAR(std::abs(g.at(1, 1)) / std::abs(g2.at(1, 1)), 3.0 / 2.0, 1e-9);
}

TEST(SoftmaxXent, LossIntoMatchesTheSoftmaxThenScaleReference) {
  // The buffer-writing loss keeps the original arithmetic order: softmax
  // rows, loss from the unscaled probability, scale by the class weight,
  // subtract it at the label, then normalize.  Bit for bit, and the
  // buffer is reused at the same shape.
  sim::Rng rng(9);
  Matrix logits(64, 3);
  for (auto& v : logits.data()) v = rng.normal(0, 2);
  std::vector<int> y(64);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 3);
  const std::vector<double> w = {0.7, 1.9, 1.1};

  const Matrix p = SoftmaxXent::softmax(logits);
  Matrix want = p;
  double want_loss = 0.0, weight_sum = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const auto c = static_cast<std::size_t>(y[i]);
    want_loss += -w[c] * std::log(std::max(p.at(i, c), 1e-12));
    weight_sum += w[c];
    for (std::size_t j = 0; j < 3; ++j) want.at(i, j) *= w[c];
    want.at(i, c) -= w[c];
  }
  for (double& v : want.data()) v /= weight_sum;
  want_loss /= weight_sum;

  Matrix d;
  EXPECT_EQ(SoftmaxXent::loss_and_grad_into(logits, y, w, d), want_loss);
  const double* buf = d.data().data();
  EXPECT_EQ(SoftmaxXent::loss_and_grad_into(logits, y, w, d), want_loss);
  EXPECT_EQ(d.data().data(), buf);
  ASSERT_EQ(d.rows(), want.rows());
  ASSERT_EQ(d.cols(), want.cols());
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(d.data()[i], want.data()[i]) << i;
  const auto [loss, pair_d] = SoftmaxXent::loss_and_grad(logits, y, w);
  EXPECT_EQ(loss, want_loss);
  EXPECT_EQ(pair_d.data(), want.data());
}

TEST(SoftmaxXent, PerfectPredictionNearZeroLoss) {
  Matrix logits(1, 2);
  logits.data() = {20.0, -20.0};
  auto [loss, grad] = SoftmaxXent::loss_and_grad(logits, {0}, {});
  EXPECT_LT(loss, 1e-6);
  EXPECT_LT(std::abs(grad.at(0, 0)), 1e-6);
}

}  // namespace
}  // namespace qif::ml
