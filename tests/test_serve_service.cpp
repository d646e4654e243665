// InferenceService: batched-vs-sync bit identity (kernel and attention
// models), batch-composition determinism, adaptive batch policy, hot-swap
// atomicity under load.
//
// The central contract: a request's reply (class, probabilities,
// per-server scores) is byte-identical no matter which batch it rode in —
// batching is a pure throughput optimization, never a numerics change.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "qif/serve/service.hpp"
#include "qif/sim/rng.hpp"

namespace qif::serve {
namespace {

constexpr int kD = 5;        // per-server feature width
constexpr int kS = 3;        // servers
constexpr std::size_t kFeat = kD * kS;

constexpr ServingModel::Kind kBothKinds[] = {ServingModel::Kind::kKernel,
                                             ServingModel::Kind::kAttention};

std::shared_ptr<const ServingModel> make_model(
    std::uint64_t version, std::uint64_t seed,
    ServingModel::Kind kind = ServingModel::Kind::kKernel) {
  auto m = std::make_shared<ServingModel>();
  m->kind = kind;
  if (kind == ServingModel::Kind::kKernel) {
    ml::KernelNetConfig cfg;
    cfg.per_server_dim = kD;
    cfg.n_servers = kS;
    cfg.n_classes = 2;
    cfg.kernel_hidden = {8, 4};
    cfg.head_hidden = {6};
    cfg.seed = seed;
    m->kernel = ml::KernelNet(cfg);
  } else {
    ml::AttentionNetConfig cfg;
    cfg.per_server_dim = kD;
    cfg.n_servers = kS;
    cfg.n_classes = 2;
    cfg.embed_dim = 8;
    cfg.attention_dim = 4;
    cfg.head_hidden = {6};
    cfg.seed = seed;
    m->attention = ml::AttentionNet(cfg);
  }
  m->stdz = ml::Standardizer::from_moments(std::vector<double>(kD, 0.0),
                                           std::vector<double>(kD, 1.0));
  m->n_classes = 2;
  m->version = version;
  return m;
}

std::vector<std::vector<double>> make_features(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::vector<double>> rows(n, std::vector<double>(kFeat));
  for (auto& row : rows) {
    for (auto& v : row) v = rng.uniform(-2.0, 2.0);
  }
  return rows;
}

/// Copyable reply snapshot (Request itself holds an atomic).
struct Reply {
  int predicted_class = -1;
  std::vector<double> probabilities;
  std::vector<double> server_scores;
};

Reply snapshot(const Request& r) {
  return {r.predicted_class, r.probabilities, r.server_scores};
}

/// Sync reference: the same request features through a one-row batch.
Reply predict_sync(const ServingModel& model, const std::vector<double>& features) {
  Request r;
  r.features = features.data();
  r.n_features = features.size();
  Request* rp = &r;
  PredictScratch scratch;
  predict_batch(model, &rp, 1, scratch);
  return snapshot(r);
}

void expect_same_reply(const Reply& got, const Reply& want) {
  EXPECT_EQ(got.predicted_class, want.predicted_class);
  ASSERT_EQ(got.probabilities.size(), want.probabilities.size());
  ASSERT_EQ(got.server_scores.size(), want.server_scores.size());
  EXPECT_EQ(std::memcmp(got.probabilities.data(), want.probabilities.data(),
                        got.probabilities.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(got.server_scores.data(), want.server_scores.data(),
                        got.server_scores.size() * sizeof(double)),
            0);
}

TEST(InferenceService, RejectsNullModelAndZeroBatch) {
  EXPECT_THROW(InferenceService(nullptr, ServiceConfig{}), std::invalid_argument);
  ServiceConfig cfg;
  cfg.max_batch = 0;
  EXPECT_THROW(InferenceService(make_model(1, 3), cfg), std::invalid_argument);
}

TEST(InferenceService, BatchedRepliesAreBitIdenticalToSync) {
  for (const ServingModel::Kind kind : kBothKinds) {
    SCOPED_TRACE(kind == ServingModel::Kind::kKernel ? "kernel" : "attention");
    const auto model = make_model(1, 11, kind);
    const auto features = make_features(13, 21);
    ServiceConfig cfg;
    cfg.max_batch = 4;  // 13 requests -> batches of 4, 4, 4, 1
    InferenceService service(model, cfg);

    std::deque<Request> reqs(features.size());
    for (std::size_t i = 0; i < features.size(); ++i) {
      reqs[i].features = features[i].data();
      reqs[i].n_features = kFeat;
      ASSERT_TRUE(service.try_submit(&reqs[i]));
    }
    std::size_t served = 0;
    while (std::size_t n = service.step()) served += n;
    ASSERT_EQ(served, features.size());

    for (std::size_t i = 0; i < features.size(); ++i) {
      ASSERT_TRUE(reqs[i].ready());
      EXPECT_EQ(reqs[i].model_version, 1u);
      expect_same_reply(snapshot(reqs[i]), predict_sync(*model, features[i]));
    }
  }
}

TEST(InferenceService, MultiProducerBatcherRepliesAreBitIdenticalToSync) {
  // `qif serve verify --requests 400 --producers 2 --max-batch 8` for both
  // architectures: two producer threads feed the batcher thread, so batch
  // composition depends on the interleaving, and every reply must still
  // equal the one-row sync prediction.
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kPerProducer = 200;
  for (const ServingModel::Kind kind : kBothKinds) {
    SCOPED_TRACE(kind == ServingModel::Kind::kKernel ? "kernel" : "attention");
    const auto model = make_model(1, 29, kind);
    const auto features = make_features(kProducers * kPerProducer, 31);
    ServiceConfig cfg;
    cfg.max_batch = 8;
    cfg.max_delay_us = 100;
    InferenceService service(model, cfg);
    service.start();
    std::deque<Request> reqs(features.size());
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = 0; i < kPerProducer; ++i) {
          const std::size_t idx = p * kPerProducer + i;
          reqs[idx].features = features[idx].data();
          reqs[idx].n_features = kFeat;
          service.submit(&reqs[idx]);
        }
      });
    }
    for (auto& t : producers) t.join();
    for (auto& r : reqs) r.wait();
    service.stop();
    EXPECT_EQ(service.stats().requests.load(), features.size());
    for (std::size_t i = 0; i < features.size(); ++i) {
      expect_same_reply(snapshot(reqs[i]), predict_sync(*model, features[i]));
    }
  }
}

TEST(InferenceService, RepliesIndependentOfArrivalInterleaving) {
  // The same 12 requests served under two different submission orders and
  // two different batch partitions must produce byte-identical replies.
  const auto model = make_model(1, 5);
  const auto features = make_features(12, 77);

  auto serve_with = [&](const std::vector<std::size_t>& order, std::size_t step_rows) {
    ServiceConfig cfg;
    cfg.max_batch = 8;
    InferenceService service(model, cfg);
    std::deque<Request> reqs(features.size());
    for (const std::size_t i : order) {
      reqs[i].features = features[i].data();
      reqs[i].n_features = kFeat;
      EXPECT_TRUE(service.try_submit(&reqs[i]));
    }
    while (service.step(step_rows) > 0) {
    }
    std::vector<Reply> out;
    for (auto& r : reqs) {
      EXPECT_TRUE(r.ready());
      out.push_back(snapshot(r));
    }
    return out;
  };

  std::vector<std::size_t> fifo(features.size());
  for (std::size_t i = 0; i < fifo.size(); ++i) fifo[i] = i;
  const std::vector<std::size_t> shuffled = {7, 2, 11, 0, 9, 4, 1, 10, 3, 8, 6, 5};

  const auto a = serve_with(fifo, 5);      // batches of 5,5,2
  const auto b = serve_with(shuffled, 3);  // batches of 3, different composition
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_reply(a[i], b[i]);
}

TEST(InferenceService, WidthMismatchThrowsAndCompletesNothing) {
  const auto model = make_model(1, 9);
  InferenceService service(model, ServiceConfig{});
  std::vector<double> bad(kFeat + 1, 0.5);
  Request r;
  r.features = bad.data();
  r.n_features = bad.size();
  ASSERT_TRUE(service.try_submit(&r));
  EXPECT_THROW(service.step(), std::invalid_argument);
  EXPECT_FALSE(r.ready()) << "a rejected batch must not complete requests";
}

TEST(InferenceService, StepHonorsRowLimitAndEmptyRing) {
  const auto model = make_model(1, 13);
  ServiceConfig cfg;
  cfg.max_batch = 32;
  InferenceService service(model, cfg);
  EXPECT_EQ(service.step(), 0u);
  const auto features = make_features(5, 33);
  std::deque<Request> reqs(5);
  for (std::size_t i = 0; i < 5; ++i) {
    reqs[i].features = features[i].data();
    reqs[i].n_features = kFeat;
    ASSERT_TRUE(service.try_submit(&reqs[i]));
  }
  EXPECT_EQ(service.step(2), 2u);  // explicit row cap
  EXPECT_EQ(service.step(), 3u);   // remainder in one sub-max_batch batch
  EXPECT_EQ(service.step(), 0u);
  for (auto& r : reqs) EXPECT_TRUE(r.ready());
  EXPECT_EQ(service.stats().batches.load(), 2u);
  EXPECT_EQ(service.stats().requests.load(), 5u);
}

TEST(InferenceService, TrySubmitRefusesWhenRingFull) {
  const auto model = make_model(1, 17);
  ServiceConfig cfg;
  cfg.ring_capacity = 2;
  InferenceService service(model, cfg);
  const auto features = make_features(3, 41);
  std::deque<Request> reqs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    reqs[i].features = features[i].data();
    reqs[i].n_features = kFeat;
  }
  EXPECT_TRUE(service.try_submit(&reqs[0]));
  EXPECT_TRUE(service.try_submit(&reqs[1]));
  EXPECT_FALSE(service.try_submit(&reqs[2]));
  EXPECT_EQ(service.stats().rejected.load(), 1u);
}

TEST(InferenceService, BatcherThreadServesAndCountsBatchTriggers) {
  const auto model = make_model(1, 19);
  ServiceConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  InferenceService service(model, cfg);
  service.start();
  const auto features = make_features(35, 55);
  std::deque<Request> reqs(features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    reqs[i].features = features[i].data();
    reqs[i].n_features = kFeat;
    service.submit(&reqs[i]);
  }
  for (auto& r : reqs) r.wait();
  service.stop();
  EXPECT_EQ(service.stats().requests.load(), features.size());
  EXPECT_GE(service.stats().batches.load(),
            (features.size() + cfg.max_batch - 1) / cfg.max_batch);
  EXPECT_EQ(service.stats().full_batches.load() + service.stats().timeout_batches.load(),
            service.stats().batches.load());
  for (std::size_t i = 0; i < features.size(); ++i) {
    expect_same_reply(snapshot(reqs[i]), predict_sync(*model, features[i]));
  }
}

TEST(InferenceService, StopDrainsEverythingAlreadySubmitted) {
  const auto model = make_model(1, 23);
  InferenceService service(model, ServiceConfig{});
  service.start();
  const auto features = make_features(10, 67);
  std::deque<Request> reqs(10);
  for (std::size_t i = 0; i < 10; ++i) {
    reqs[i].features = features[i].data();
    reqs[i].n_features = kFeat;
    service.submit(&reqs[i]);
  }
  service.stop();  // must serve the backlog before joining
  for (auto& r : reqs) EXPECT_TRUE(r.ready());
  service.stop();  // idempotent
}

TEST(InferenceService, HotSwapIsNeverTornAndNeverMixesVersionsInABatch) {
  // Producers hammer the service while the main thread flips between two
  // bundles.  Afterwards: every request carries version 1 or 2, every
  // batch is single-version, and every reply is byte-identical to the
  // sync path on the model that allegedly served it — a torn or
  // mixed-version swap would break one of these.
  const auto v1 = make_model(1, 101);
  const auto v2 = make_model(2, 202);
  ServiceConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 50;
  InferenceService service(v1, cfg);
  service.start();

  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kPerProducer = 300;
  const auto features = make_features(kProducers * kPerProducer, 303);
  std::deque<Request> reqs(features.size());
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t idx = p * kPerProducer + i;
        reqs[idx].features = features[idx].data();
        reqs[idx].n_features = kFeat;
        service.submit(&reqs[idx]);
      }
    });
  }
  for (int swap = 0; swap < 20; ++swap) {
    service.swap_model(swap % 2 == 0 ? v2 : v1);
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  for (auto& r : reqs) r.wait();
  service.stop();

  std::map<std::uint64_t, std::uint64_t> batch_version;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    ASSERT_TRUE(r.model_version == 1 || r.model_version == 2) << r.model_version;
    const auto [it, inserted] = batch_version.emplace(r.batch_seq, r.model_version);
    if (!inserted) {
      EXPECT_EQ(it->second, r.model_version)
          << "batch " << r.batch_seq << " mixed model versions";
    }
    const ServingModel& served_by = r.model_version == 1 ? *v1 : *v2;
    expect_same_reply(snapshot(r), predict_sync(served_by, features[i]));
  }
}

}  // namespace
}  // namespace qif::serve
