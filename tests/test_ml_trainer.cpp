// Tests for preprocessing (standardizer, split, class weights), the
// trainer, and the classification metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "qif/ml/metrics.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/ml/trainer.hpp"

namespace qif::ml {
namespace {

monitor::Dataset synthetic_dataset(std::size_t n, std::uint64_t seed) {
  // 2 servers x 3 features; label = 1 iff server 0's feature 0 is large.
  monitor::Dataset ds(2, 3);
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool hot = rng.chance(0.5);
    double* f = ds.append_row(static_cast<std::int64_t>(i), hot ? 1 : 0,
                              hot ? 4.0 : 1.0);
    f[0] = hot ? rng.uniform(5.0, 8.0) : rng.uniform(0.0, 2.0);
    f[1] = rng.normal(0, 1);
    f[2] = rng.normal(100, 10);
    f[3] = rng.normal(0, 1);
    f[4] = rng.normal(0, 1);
    f[5] = rng.normal(-5, 2);
  }
  return ds;
}

TEST(Standardizer, ZeroMeanUnitVarianceAfterTransform) {
  const auto ds = synthetic_dataset(500, 1);
  Standardizer stdz;
  stdz.fit(ds);
  ASSERT_TRUE(stdz.fitted());
  EXPECT_EQ(stdz.dim(), 3);
  // Pool transformed values per column (over samples AND servers).
  std::vector<double> sum(3, 0.0), sq(3, 0.0);
  std::size_t n = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    auto f = ds.row_vector(i);
    stdz.transform(f);
    for (std::size_t off = 0; off < f.size(); off += 3) {
      ++n;
      for (std::size_t j = 0; j < 3; ++j) {
        sum[j] += f[off + j];
        sq[j] += f[off + j] * f[off + j];
      }
    }
  }
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(sum[j] / n, 0.0, 1e-9);
    EXPECT_NEAR(sq[j] / n, 1.0, 1e-6);
  }
}

TEST(Standardizer, ConstantFeaturePassesThrough) {
  monitor::Dataset ds(1, 2);
  for (int i = 0; i < 10; ++i) {
    double* f = ds.append_row(i, 0, 1.0);
    f[0] = 7.0;
    f[1] = static_cast<double>(i);
  }
  Standardizer stdz;
  stdz.fit(ds);
  std::vector<double> f = {7.0, 4.5};
  stdz.transform(f);
  EXPECT_DOUBLE_EQ(f[0], 0.0);  // (7-7) * 1
  EXPECT_NEAR(f[1], 0.0, 1e-9);
}

TEST(Standardizer, FromMomentsRoundTrip) {
  // from_moments is how a model file restores the fitted statistics.
  const auto ds = synthetic_dataset(100, 2);
  Standardizer a;
  a.fit(ds);
  const Standardizer b = Standardizer::from_moments(a.mean(), a.inv_std());
  std::vector<double> fa = ds.row_vector(0);
  std::vector<double> fb = fa;
  a.transform(fa);
  b.transform(fb);
  EXPECT_EQ(fa, fb);
}

TEST(Standardizer, TransformIntoMatchesTransform) {
  const auto ds = synthetic_dataset(64, 21);
  Standardizer stdz;
  stdz.fit(ds);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    std::vector<double> expected = ds.row_vector(i);
    stdz.transform(expected);
    std::vector<double> got(ds.width());
    stdz.transform_into(ds.row(i), ds.width(), got.data());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_DOUBLE_EQ(got[j], expected[j]);
    }
  }
}

TEST(Standardizer, FromMomentsRejectsMismatchedMoments) {
  // Means and scales of different widths must never build a standardizer
  // that reads past one of them.
  EXPECT_THROW((void)Standardizer::from_moments({0.0, 1.0, 2.0}, {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)Standardizer::from_moments({}, {1.0}), std::invalid_argument);
}

TEST(SplitDataset, SmallDatasetKeepsAtLeastOneTrainingSample) {
  // Regression: llround(test_fraction * n) could equal n, handing every
  // sample to the test split and returning an empty training set.
  const auto two = synthetic_dataset(2, 11);
  auto [train2, test2] = split_dataset(two, 0.9, 1);  // llround(1.8) == 2
  EXPECT_EQ(train2.size(), 1u);
  EXPECT_EQ(test2.size(), 1u);

  const auto one = synthetic_dataset(1, 12);
  auto [train1, test1] = split_dataset(one, 0.5, 1);  // llround(0.5) == 1
  EXPECT_EQ(train1.size(), 1u);
  EXPECT_EQ(test1.size(), 0u);

  // An explicit pure test set (fraction == 1.0) is still allowed.
  auto [train_none, test_all] = split_dataset(two, 1.0, 1);
  EXPECT_EQ(train_none.size(), 0u);
  EXPECT_EQ(test_all.size(), 2u);

  const monitor::Dataset empty_ds;
  auto [train0, test0] = split_dataset(empty_ds, 0.2, 1);
  EXPECT_EQ(train0.size(), 0u);
  EXPECT_EQ(test0.size(), 0u);
}

TEST(SplitDataset, FractionsAndDisjointness) {
  const auto ds = synthetic_dataset(1000, 3);
  auto [train, test] = split_dataset(ds, 0.2, 5);
  EXPECT_EQ(train.size() + test.size(), 1000u);
  EXPECT_NEAR(static_cast<double>(test.size()), 200.0, 1.0);
  std::set<std::int64_t> train_w, test_w;
  for (std::size_t i = 0; i < train.size(); ++i) train_w.insert(train.window_index(i));
  for (std::size_t i = 0; i < test.size(); ++i) test_w.insert(test.window_index(i));
  for (const auto w : test_w) EXPECT_EQ(train_w.count(w), 0u);
}

TEST(SplitDataset, DeterministicPerSeed) {
  const auto ds = synthetic_dataset(100, 4);
  auto [t1, e1] = split_dataset(ds, 0.2, 9);
  auto [t2, e2] = split_dataset(ds, 0.2, 9);
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1.window_index(i), e2.window_index(i));
  }
}

TEST(SplitDataset, Seed42MembershipGolden) {
  // Pins the exact shuffle produced by Rng::derive_seed(42, "split") on the
  // canonical 20-row dataset.  The split must stay bit-identical across
  // refactors: the standardizer's Welford fit is iteration-order-dependent,
  // so any change in membership *or order* changes every trained model.
  monitor::Dataset ds(2, 3);
  for (int i = 0; i < 20; ++i) {
    double* f = ds.append_row(i, i % 2, 1.0 + i);
    for (int j = 0; j < 6; ++j) f[j] = static_cast<double>((j + 1) * i);
  }
  auto [train, test] = split_dataset(ds, 0.2, 42);
  const std::vector<std::int64_t> want_test = {8, 4, 1, 5};
  const std::vector<std::int64_t> want_train = {17, 10, 12, 0, 3, 7,  6,  19,
                                                18, 11, 15, 16, 2, 13, 14, 9};
  ASSERT_EQ(test.size(), want_test.size());
  ASSERT_EQ(train.size(), want_train.size());
  for (std::size_t i = 0; i < want_test.size(); ++i) {
    EXPECT_EQ(test.window_index(i), want_test[i]) << "test row " << i;
  }
  for (std::size_t i = 0; i < want_train.size(); ++i) {
    EXPECT_EQ(train.window_index(i), want_train[i]) << "train row " << i;
  }
  // Views are zero-copy: both index into the original table.
  EXPECT_EQ(train.table(), &ds);
  EXPECT_EQ(test.table(), &ds);
}

TEST(SplitDataset, DegenerateFractionsReturnValidViews) {
  // Bugfix pins.  A fraction above 1 used to underflow the train size
  // (n - n_test with n_test > n); a negative or NaN fraction used to
  // llround to a huge/garbage n_test.  All of them must now return a pair
  // of valid, disjoint, exhaustive views.
  const auto ds = synthetic_dataset(10, 21);
  struct Case {
    double fraction;
    std::size_t want_test;
  };
  const Case cases[] = {
      {1.5, 10},                                        // clamped to "all test"
      {2.0, 10},
      {-0.25, 0},                                       // no test rows
      {std::numeric_limits<double>::quiet_NaN(), 0},    // treated as 0
      {0.0, 0},
  };
  for (const Case& c : cases) {
    auto [train, test] = split_dataset(ds, c.fraction, 3);
    EXPECT_EQ(test.size(), c.want_test) << "fraction " << c.fraction;
    EXPECT_EQ(train.size() + test.size(), ds.size()) << "fraction " << c.fraction;
    // Every row accounted for exactly once.
    std::set<std::int64_t> seen;
    for (std::size_t i = 0; i < train.size(); ++i) seen.insert(train.window_index(i));
    for (std::size_t i = 0; i < test.size(); ++i) seen.insert(test.window_index(i));
    EXPECT_EQ(seen.size(), ds.size()) << "fraction " << c.fraction;
  }
}

TEST(SplitDataset, SingleRowAndZeroTestAreUsableViews) {
  // n_test == 0: the test view must be a valid (empty) view, not UB.
  const auto ds = synthetic_dataset(7, 22);
  auto [train, test] = split_dataset(ds, 0.01, 4);  // llround(0.07) == 0
  EXPECT_EQ(test.size(), 0u);
  EXPECT_EQ(train.size(), 7u);
  EXPECT_TRUE(test.empty());
  EXPECT_EQ(test.class_histogram().size(), 1u);  // callable on the empty view

  const auto one = synthetic_dataset(1, 23);
  auto [t1, e1] = split_dataset(one, 0.99, 4);  // keep-one-train rule
  EXPECT_EQ(t1.size(), 1u);
  EXPECT_EQ(e1.size(), 0u);
  EXPECT_EQ(t1.row(0), one.row(0));  // zero-copy view of the single row
}

TEST(SplitRows, MatchesSplitDatasetMembership) {
  // The index core and the view wrapper must stay the same split forever
  // (the streaming trainer relies on it for bit-identity).
  const auto ds = synthetic_dataset(57, 24);
  auto [train_view, test_view] = split_dataset(ds, 0.2, 42);
  auto [train_idx, test_idx] = split_rows(ds.size(), 0.2, 42);
  ASSERT_EQ(train_idx.size(), train_view.size());
  ASSERT_EQ(test_idx.size(), test_view.size());
  for (std::size_t i = 0; i < train_idx.size(); ++i) {
    EXPECT_EQ(train_idx[i], train_view.base_row(i)) << i;
  }
  for (std::size_t i = 0; i < test_idx.size(); ++i) {
    EXPECT_EQ(test_idx[i], test_view.base_row(i)) << i;
  }
}

TEST(InverseFrequencyWeights, BalancesClasses) {
  monitor::Dataset ds(1, 1);
  for (int i = 0; i < 30; ++i) {
    ds.append_row(i, i < 24 ? 1 : 0, 0.0);  // 24 positive, 6 negative
  }
  const auto w = inverse_frequency_weights(ds, 2);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0], 30.0 / (2 * 6), 1e-12);
  EXPECT_NEAR(w[1], 30.0 / (2 * 24), 1e-12);
  // Expected total contribution per class becomes equal.
  EXPECT_NEAR(w[0] * 6, w[1] * 24, 1e-9);
}

TEST(Trainer, FitsSeparableDataset) {
  const auto ds = synthetic_dataset(600, 6);
  auto [train, test] = split_dataset(ds, 0.25, 7);
  TrainConfig tc;
  tc.max_epochs = 200;
  tc.adam.lr = 3e-3;
  Trainer trainer(tc);
  KernelNetConfig nc;
  nc.per_server_dim = 3;
  nc.n_servers = 2;
  nc.n_classes = 2;
  nc.kernel_hidden = {8};
  nc.head_hidden = {4};
  KernelNet net(nc);
  Standardizer stdz;
  const TrainResult result = trainer.train(net, stdz, train);
  EXPECT_GT(result.best_val_macro_f1, 0.95);
  EXPECT_FALSE(result.history.empty());
  const ConfusionMatrix cm = Trainer::evaluate(net, stdz, test);
  EXPECT_GT(cm.accuracy(), 0.95);
}

TEST(Trainer, EarlyStoppingRestoresBestEpoch) {
  const auto ds = synthetic_dataset(200, 8);
  TrainConfig tc;
  tc.max_epochs = 60;
  tc.patience = 5;
  Trainer trainer(tc);
  KernelNetConfig nc;
  nc.per_server_dim = 3;
  nc.n_servers = 2;
  nc.n_classes = 2;
  KernelNet net(nc);
  Standardizer stdz;
  const TrainResult result = trainer.train(net, stdz, ds);
  EXPECT_LE(result.best_epoch,
            static_cast<int>(result.history.size()));
  // Stopped within patience of the best epoch.
  EXPECT_LE(static_cast<int>(result.history.size()) - result.best_epoch, tc.patience);
}

TEST(Trainer, ResultIsBitIdenticalAcrossJobCounts) {
  // Campaign-width dataset (7 servers x 37 features) so the kernel-layer
  // GEMMs at batch 64 — (448, 37)x(37, 64) ≈ 1.06M multiply-adds — clear
  // the parallel threshold and the pooled path actually runs.  The
  // determinism contract says jobs must not change a single bit.
  monitor::Dataset ds(7, 37);
  sim::Rng rng(23);
  for (std::size_t i = 0; i < 192; ++i) {
    const bool hot = i % 2 == 0;
    double* f = ds.append_row(static_cast<std::int64_t>(i), hot ? 1 : 0,
                              hot ? 4.0 : 1.0);
    for (std::size_t k = 0; k < ds.width(); ++k) f[k] = rng.normal(0, 1);
    if (hot) f[0] += 4.0;
  }

  auto run = [&ds](int jobs) {
    TrainConfig tc;
    tc.max_epochs = 4;
    tc.jobs = jobs;
    Trainer trainer(tc);
    KernelNetConfig nc;
    nc.per_server_dim = 37;
    nc.n_servers = 7;
    nc.n_classes = 2;
    KernelNet net(nc);
    Standardizer stdz;
    const TrainResult result = trainer.train(net, stdz, ds);
    return std::make_pair(result, net.snapshot());
  };

  const auto [r1, w1] = run(1);
  for (const int jobs : {2, 4}) {
    const auto [rn, wn] = run(jobs);
    EXPECT_EQ(rn.best_epoch, r1.best_epoch) << "jobs=" << jobs;
    EXPECT_EQ(rn.best_val_macro_f1, r1.best_val_macro_f1) << "jobs=" << jobs;
    ASSERT_EQ(rn.history.size(), r1.history.size()) << "jobs=" << jobs;
    for (std::size_t e = 0; e < r1.history.size(); ++e) {
      EXPECT_EQ(rn.history[e].train_loss, r1.history[e].train_loss)
          << "jobs=" << jobs << " epoch=" << e;
      EXPECT_EQ(rn.history[e].val_macro_f1, r1.history[e].val_macro_f1)
          << "jobs=" << jobs << " epoch=" << e;
    }
    // Final weights match bit for bit.
    EXPECT_EQ(wn, w1) << "jobs=" << jobs;
  }
}

TEST(Trainer, EvaluateRejectsWidthMismatchNamingBothWidths) {
  // Regression: a model trained on fault features (7 x 40) evaluated on a
  // healthy dataset (7 x 37) read past every row and the standardizer's
  // moments, and printed a garbage confusion matrix.
  auto fitted = [](const monitor::Dataset& ds) {
    KernelNetConfig nc;
    nc.per_server_dim = ds.dim();
    nc.n_servers = ds.n_servers();
    Standardizer stdz;
    stdz.fit(ds);
    return std::make_pair(KernelNet(nc), stdz);
  };
  const auto narrow = synthetic_dataset(8, 3);  // 2 servers x 3 features
  monitor::Dataset wide(2, 5);
  monitor::Dataset more_servers(4, 3);
  for (std::size_t i = 0; i < 8; ++i) {
    std::fill_n(wide.append_row(static_cast<std::int64_t>(i), 0, 1.0), wide.width(), 1.0);
    std::fill_n(more_servers.append_row(static_cast<std::int64_t>(i), 0, 1.0),
                more_servers.width(), 1.0);
  }
  const auto [wide_net, wide_stdz] = fitted(wide);
  try {
    (void)Trainer::evaluate(wide_net, wide_stdz, narrow);
    FAIL() << "width mismatch must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 servers x 3 features"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2 x 5"), std::string::npos) << msg;
  }
  const auto [net, stdz] = fitted(narrow);
  const monitor::TableView view(more_servers);
  EXPECT_THROW((void)Trainer::evaluate_rows(net, stdz, monitor::ViewRows(view)),
               std::invalid_argument);
  // A standardizer of another width is refused even when the net matches.
  EXPECT_THROW((void)Trainer::evaluate(net, wide_stdz, narrow), std::invalid_argument);
  EXPECT_EQ(Trainer::evaluate(net, stdz, narrow).total(),
            static_cast<std::int64_t>(narrow.size()));
}

TEST(Trainer, RejectsLabelsOutsideTheClassCountNamingTheRow) {
  // Regression: a 3-bin dataset trained as binary indexed the class
  // weights and the softmax row past their ends (heap corruption), and
  // evaluating a binary model on it wrote past the confusion matrix.
  auto ds = synthetic_dataset(40, 12);
  monitor::Dataset bad(ds.n_servers(), ds.dim());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto f = ds.row_vector(i);
    const int label = i == 9 ? 2 : i == 20 ? -1 : ds.label(i);
    std::copy(f.begin(), f.end(), bad.append_row(static_cast<std::int64_t>(i), label, 1.0));
  }
  KernelNetConfig nc;
  nc.per_server_dim = 3;
  nc.n_servers = 2;
  nc.n_classes = 2;
  auto expect_message = [](const auto& call, const std::string& want) {
    try {
      call();
      FAIL() << "out-of-range label must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
    }
  };
  KernelNet net(nc);
  Standardizer stdz;
  TrainConfig tc;
  tc.max_epochs = 1;
  const Trainer trainer(tc);
  expect_message([&] { (void)trainer.train(net, stdz, bad); },
                 "row 9 has label 2, the model has 2 classes");
  (void)trainer.train(net, stdz, ds);
  expect_message([&] { (void)Trainer::evaluate(net, stdz, bad); },
                 "row 9 has label 2, the model has 2 classes");
  // The first offender is named, whichever side of the range it is on.
  nc.n_classes = 3;
  KernelNet net3(nc);
  Standardizer stdz3;
  expect_message([&] { (void)trainer.train(net3, stdz3, bad); },
                 "row 20 has label -1, the model has 3 classes");
}

TEST(ConfusionMatrix, HandComputedMetrics) {
  ConfusionMatrix cm(2);
  // 50 TN, 10 FP, 5 FN, 35 TP.
  for (int i = 0; i < 50; ++i) cm.add(0, 0);
  for (int i = 0; i < 10; ++i) cm.add(0, 1);
  for (int i = 0; i < 5; ++i) cm.add(1, 0);
  for (int i = 0; i < 35; ++i) cm.add(1, 1);
  EXPECT_EQ(cm.total(), 100);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.85);
  EXPECT_DOUBLE_EQ(cm.precision(1), 35.0 / 45.0);
  EXPECT_DOUBLE_EQ(cm.recall(1), 35.0 / 40.0);
  const double p = 35.0 / 45.0, r = 35.0 / 40.0;
  EXPECT_DOUBLE_EQ(cm.binary_f1(), 2 * p * r / (p + r));
  EXPECT_GT(cm.macro_f1(), 0.8);
}

TEST(ConfusionMatrix, EmptyClassHasZeroF1) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(1, 1);
  EXPECT_DOUBLE_EQ(cm.f1(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(0), 1.0);
}

TEST(ConfusionMatrix, ToStringContainsCountsAndNames) {
  ConfusionMatrix cm(2);
  cm.add(0, 0);
  cm.add(1, 1);
  const std::string s = cm.to_string({"neg", "pos"});
  EXPECT_NE(s.find("neg"), std::string::npos);
  EXPECT_NE(s.find("pos"), std::string::npos);
  EXPECT_NE(s.find("accuracy"), std::string::npos);
}

TEST(ConfusionMatrix, AddAllMatchesIndividualAdds) {
  ConfusionMatrix a(2), b(2);
  const std::vector<int> truth = {0, 1, 1, 0, 1};
  const std::vector<int> pred = {0, 1, 0, 1, 1};
  a.add_all(truth, pred);
  for (std::size_t i = 0; i < truth.size(); ++i) b.add(truth[i], pred[i]);
  for (int t = 0; t < 2; ++t) {
    for (int p = 0; p < 2; ++p) EXPECT_EQ(a.at(t, p), b.at(t, p));
  }
}

}  // namespace
}  // namespace qif::ml
