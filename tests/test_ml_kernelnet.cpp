// Tests for the kernel-based network: shapes, weight sharing semantics,
// gradient check through the whole architecture, learning, serialization.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "qif/ml/kernel_net.hpp"
#include "qif/serve/registry.hpp"

namespace qif::ml {
namespace {

KernelNetConfig tiny_config() {
  KernelNetConfig cfg;
  cfg.per_server_dim = 4;
  cfg.n_servers = 3;
  cfg.n_classes = 2;
  cfg.kernel_hidden = {6};
  cfg.head_hidden = {5};
  cfg.seed = 7;
  return cfg;
}

/// The net inside a model bundle: the .qifm file is a net's only on-disk
/// form.
serve::ServingModel tiny_model() {
  serve::ServingModel model;
  model.kernel = KernelNet(tiny_config());
  model.stdz = Standardizer::from_moments(std::vector<double>(4, 0.0),
                                          std::vector<double>(4, 1.0));
  return model;
}

TEST(KernelNet, OutputShape) {
  KernelNet net(tiny_config());
  Matrix x(5, 12);
  const Matrix logits = net.forward_inference(x);
  EXPECT_EQ(logits.rows(), 5u);
  EXPECT_EQ(logits.cols(), 2u);
}

TEST(KernelNet, SharedKernelScoresDependOnlyOnServerVector) {
  // Weight sharing: putting the same vector in any server slot yields the
  // same kernel score for that slot.
  KernelNet net(tiny_config());
  std::vector<double> probe = {1.0, -0.5, 2.0, 0.25};
  for (int slot = 0; slot < 3; ++slot) {
    std::vector<double> features(12, 0.0);
    std::copy(probe.begin(), probe.end(), features.begin() + slot * 4);
    const auto scores = net.server_scores(features);
    ASSERT_EQ(scores.size(), 3u);
    // All-zero slots share one score; the probe slot's score is the same
    // number regardless of which slot holds it.
    std::vector<double> zeros(12, 0.0);
    const auto base = net.server_scores(zeros);
    for (int other = 0; other < 3; ++other) {
      if (other == slot) continue;
      EXPECT_NEAR(scores[other], base[other], 1e-12);
    }
    static double probe_score = scores[static_cast<std::size_t>(slot)];
    EXPECT_NEAR(scores[static_cast<std::size_t>(slot)], probe_score, 1e-12);
  }
}

TEST(KernelNet, GradientCheckEndToEnd) {
  KernelNet net(tiny_config());
  sim::Rng rng(3);
  Matrix x(3, 12);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  const std::vector<int> y = {0, 1, 1};

  // dLoss/dInput is not exposed; check dLoss/dW indirectly by verifying a
  // single Adam-free SGD step in the gradient direction reduces the loss.
  const Matrix logits = net.forward(x);
  auto [loss0, d] = SoftmaxXent::loss_and_grad(logits, y, {});
  net.backward(d);
  AdamParams small;
  small.lr = 1e-3;
  net.step(small, 1);
  const auto [loss1, d1] =
      SoftmaxXent::loss_and_grad(net.forward_inference(x), y, {});
  EXPECT_LT(loss1, loss0);
}

TEST(KernelNet, LearnsSyntheticInterferenceRule) {
  // Synthetic rule: positive iff any server's first feature (its "queue
  // depth") exceeds 0 — a sum the kernel + head must learn.
  KernelNetConfig cfg = tiny_config();
  KernelNet net(cfg);
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

TEST(KernelNet, SaveLoadPreservesPredictions) {
  const serve::ServingModel model = tiny_model();
  const KernelNet& net = model.kernel;
  sim::Rng rng(5);
  Matrix x(4, 12);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  const Matrix before = net.forward_inference(x);
  std::stringstream ss;
  serve::save_model(model, ss);
  const KernelNet loaded = serve::load_model(ss).kernel;
  EXPECT_EQ(loaded.config().n_servers, 3);
  EXPECT_EQ(loaded.config().kernel_hidden, std::vector<int>{6});
  const Matrix after = loaded.forward_inference(x);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after.data()[i], before.data()[i]);
  }
}

TEST(KernelNet, LoadThrowsOnCorruptOrTruncatedStream) {
  // Regression: load() used to trust the stream, so a bad header or a
  // truncated file produced a silently garbage network.
  std::stringstream ss;
  serve::save_model(tiny_model(), ss);
  const std::string full = ss.str();

  std::stringstream bad_magic("notakernelnet 4 3 2\n");
  EXPECT_THROW((void)serve::load_model(bad_magic), std::runtime_error);
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)serve::load_model(truncated), std::runtime_error);
  std::stringstream empty("");
  EXPECT_THROW((void)serve::load_model(empty), std::runtime_error);
}

TEST(KernelNet, PredictIsArgmaxOfLogits) {
  KernelNet net(tiny_config());
  sim::Rng rng(6);
  Matrix x(10, 12);
  for (auto& v : x.data()) v = rng.normal(0, 2);
  const Matrix logits = net.forward_inference(x);
  const auto pred = net.predict(x);
  for (std::size_t i = 0; i < 10; ++i) {
    const int expect = logits.at(i, 0) >= logits.at(i, 1) ? 0 : 1;
    EXPECT_EQ(pred[i], expect);
  }
}

TEST(KernelNet, ConfigurableBins) {
  // "the amount of classification bins is configurable".
  KernelNetConfig cfg = tiny_config();
  cfg.n_classes = 3;
  KernelNet net(cfg);
  Matrix x(2, 12);
  EXPECT_EQ(net.forward_inference(x).cols(), 3u);
}

TEST(KernelNet, SnapshotRestoreIsBitExact) {
  KernelNet net(tiny_config());
  sim::Rng rng(9);
  Matrix x(4, 12);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  const std::vector<int> y = {0, 1, 0, 1};

  // Move off the init point, snapshot, keep training, then restore.
  auto train_steps = [&](KernelNet& n, int steps, std::int64_t& t) {
    for (int s = 0; s < steps; ++s) {
      auto [loss, d] = SoftmaxXent::loss_and_grad(n.forward(x), y, {});
      n.backward(d);
      n.step({}, ++t);
    }
  };
  std::int64_t t = 0;
  train_steps(net, 5, t);
  const std::vector<double> snap = net.snapshot();
  EXPECT_EQ(snap.size(), net.param_count());
  const Matrix at_snapshot = net.forward_inference(x);
  train_steps(net, 7, t);
  net.restore(snap);
  const Matrix restored = net.forward_inference(x);
  ASSERT_EQ(restored.size(), at_snapshot.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    // Bit-exact: a snapshot copies the raw doubles.
    EXPECT_EQ(restored.data()[i], at_snapshot.data()[i]);
  }
}

TEST(KernelNet, RestoreRejectsWrongSizeSnapshot) {
  KernelNet net(tiny_config());
  std::vector<double> snap = net.snapshot();
  snap.pop_back();
  EXPECT_THROW(net.restore(snap), std::invalid_argument);
  snap.resize(net.param_count() + 3, 0.0);
  EXPECT_THROW(net.restore(snap), std::invalid_argument);
  EXPECT_THROW(net.restore({}), std::invalid_argument);
}

TEST(KernelNet, SnapshotIntoReusesBuffer) {
  KernelNet net(tiny_config());
  std::vector<double> buf;
  net.snapshot_into(buf);
  EXPECT_EQ(buf.size(), net.param_count());
  const double* p = buf.data();
  net.snapshot_into(buf);  // steady state: no reallocation
  EXPECT_EQ(buf.data(), p);
  EXPECT_EQ(buf, net.snapshot());
}

TEST(KernelNet, DeterministicInitFromSeed) {
  KernelNet a(tiny_config()), b(tiny_config());
  Matrix x(1, 12);
  x.data()[3] = 1.0;
  EXPECT_DOUBLE_EQ(a.forward_inference(x).at(0, 0), b.forward_inference(x).at(0, 0));
}

TEST(KernelNet, ForwardBatchMatchesForwardInferenceBitForBit) {
  // The serving-layer contract: batched logits (and per-server scores) are
  // bit-identical to forward_inference per row, and to a one-row
  // forward_batch of the same row — batch composition never changes a
  // prediction.
  KernelNet net(tiny_config());
  sim::Rng rng(17);
  for (const std::size_t batch : {1u, 2u, 5u, 8u, 13u}) {
    Matrix x(batch, 12);
    for (auto& v : x.data()) v = rng.normal(0, 1);
    KernelNet::Scratch scratch;
    const MatView logits = net.forward_batch(x, scratch);
    ASSERT_EQ(logits.rows, batch);
    ASSERT_EQ(logits.cols, 2u);
    const Matrix want = net.forward_inference(x);
    for (std::size_t i = 0; i < batch; ++i) {
      for (std::size_t j = 0; j < 2u; ++j) {
        ASSERT_EQ(logits.at(i, j), want.at(i, j)) << "batch=" << batch << " row " << i;
      }
      // One-row batch of the same row: identical logits and scores.
      KernelNet::Scratch one_scratch;
      const MatView one = net.forward_batch(MatView(x.row(i), 1, 12), one_scratch);
      for (std::size_t j = 0; j < 2u; ++j) {
        ASSERT_EQ(one.at(0, j), logits.at(i, j)) << "batch=" << batch << " row " << i;
      }
      for (std::size_t s = 0; s < 3u; ++s) {
        ASSERT_EQ(one_scratch.scores.data()[s], scratch.scores.data()[i * 3 + s])
            << "batch=" << batch << " row " << i << " server " << s;
      }
    }
  }
}

}  // namespace
}  // namespace qif::ml
