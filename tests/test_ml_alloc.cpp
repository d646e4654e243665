// Heap-allocation accounting for the training step (the test_serve_alloc
// discipline): once warm-up batches have sized every layer buffer, the
// loss gradient, the GEMM pad row and the NT transpose scratch, a
// steady-state gather -> forward -> loss -> backward -> Adam step performs
// zero heap allocations — for KernelNet serially and with the GEMMs
// fanned across a two-worker pool, and for AttentionNet.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "qif/exec/thread_pool.hpp"
#include "qif/ml/attention_net.hpp"
#include "qif/ml/kernel_net.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/sim/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

struct AllocWindow {
  std::uint64_t start = g_allocs.load(std::memory_order_relaxed);
  [[nodiscard]] std::uint64_t count() const {
    return g_allocs.load(std::memory_order_relaxed) - start;
  }
};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qif::ml {
namespace {

// The campaign shape (7 servers x 37 features) at the trainer's batch
// size, so the kernel-layer GEMMs clear the parallel threshold and the
// pooled path really runs at jobs 2.
constexpr int kServers = 7;
constexpr int kDim = 37;
constexpr std::size_t kBatch = 64;

template <typename Net, typename Config>
std::uint64_t steady_state_step_allocs(int jobs) {
  monitor::Dataset ds(kServers, kDim);
  sim::Rng rng(41);
  for (std::size_t i = 0; i < 4 * kBatch + 17; ++i) {
    const int label = static_cast<int>(i % 2);
    double* f = ds.append_row(static_cast<std::int64_t>(i), label, 1.0);
    for (std::size_t k = 0; k < ds.width(); ++k) f[k] = rng.normal(label, 1.0);
  }
  const monitor::TableView view(ds);
  const monitor::ViewRows rows(view);
  std::vector<std::size_t> all(rows.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  Standardizer stdz;
  stdz.fit(rows, all);
  const std::vector<double> weights = inverse_frequency_weights(rows, all, 2);

  // Full batches plus the epoch's short tail batch, which shrinks every
  // buffer before the next full batch grows it back within capacity.
  std::vector<std::vector<std::size_t>> batches;
  for (std::size_t lo = 0; lo < all.size(); lo += kBatch) {
    const std::size_t hi = std::min(all.size(), lo + kBatch);
    batches.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(lo),
                         all.begin() + static_cast<std::ptrdiff_t>(hi));
  }

  Config nc;
  nc.per_server_dim = kDim;
  nc.n_servers = kServers;
  nc.n_classes = 2;
  Net net(nc);
  exec::ThreadPool pool(jobs);
  if (jobs > 1) net.set_pool(&pool);

  Matrix xb;
  std::vector<int> yb;
  Matrix dlogits;
  std::int64_t t = 0;
  auto epoch = [&] {
    for (const auto& batch : batches) {
      gather_standardized(rows, batch, &stdz, xb, yb);
      const Matrix& logits = net.forward(xb);
      SoftmaxXent::loss_and_grad_into(logits, yb, weights, dlogits);
      net.backward(dlogits);
      net.step(AdamParams{}, ++t);
    }
  };
  epoch();  // warm-up: layer buffers, dlogits, pad row, transpose scratch, pool ring
  const AllocWindow w;
  for (int e = 0; e < 3; ++e) epoch();
  const std::uint64_t allocs = w.count();
  net.set_pool(nullptr);
  return allocs;
}

TEST(MlAllocations, SteadyStateTrainingStepIsAllocationFreeSerial) {
  EXPECT_EQ((steady_state_step_allocs<KernelNet, KernelNetConfig>(1)), 0u)
      << "training step allocated at jobs 1";
}

TEST(MlAllocations, SteadyStateTrainingStepIsAllocationFreePooled) {
  EXPECT_EQ((steady_state_step_allocs<KernelNet, KernelNetConfig>(2)), 0u)
      << "training step allocated at jobs 2";
}

TEST(MlAllocations, SteadyStateAttentionTrainingStepIsAllocationFree) {
  EXPECT_EQ((steady_state_step_allocs<AttentionNet, AttentionNetConfig>(1)), 0u)
      << "attention training step allocated";
}

}  // namespace
}  // namespace qif::ml
