// Heap-allocation accounting for the PFS op path.
//
// A data op travels from PfsClient through the fabric, an OST's write-back
// or read cache and its disk, and back.  Every piece of per-op state on
// that path is pooled — the client's op slab and chunk lists, the by-value
// RPC request and inline continuations, recycled cache-map and disk-queue
// nodes, pooled disk completions — so once a cluster is warm an op makes no
// heap allocation at all.  This binary replaces global operator new with a
// counting version, warms a one-client cluster up, and then asserts that a
// window of at least 1000 more ops allocates nothing: healthy writes,
// healthy reads with the server read cache off and on, writes under an RPC
// deadline with a timeout and retry, and writes throttled by an admission
// gate.
//
// The run's trace log stores records in fixed blocks (trace/op_record.hpp),
// one allocation per 4096 records; every warm-up here ends just inside a
// fresh block so the measured window never crosses into the next one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>

#include "qif/pfs/admission.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/sim/simulation.hpp"

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

namespace qif::pfs {
namespace {

/// Ops before the measured window: the trace log then sits just inside its
/// first full-size block, with room for every measured op.
constexpr int kWarmupOps = 4200;
constexpr int kMeasuredOps = 1000;
static_assert(kWarmupOps > static_cast<int>(trace::TraceLog::kGrowingRecords));
static_assert(kWarmupOps + kMeasuredOps + 1 <
              static_cast<int>(trace::TraceLog::kGrowingRecords +
                               trace::TraceLog::kMaxBlockRecords));

enum class Pattern {
  kWrite,          ///< sequential 1 MiB writes
  kRead,           ///< 1 MiB reads sweeping a 64 MiB range
  kWriteReadBack,  ///< each 1 MiB write is read straight back
};

/// One client on a 4-OST cluster driving a closed loop of ops on one file
/// striped over every OST: each completion issues the next op.
struct Rig {
  sim::Simulation s;
  std::unique_ptr<Cluster> cluster;
  PfsClient* client = nullptr;
  FileHandle fh;
  Pattern pattern = Pattern::kWrite;
  std::int64_t step = 0;  ///< ops issued so far
  std::int64_t stop = 0;

  explicit Rig(const ClusterConfig& cfg, Pattern p) : pattern(p) {
    cluster = std::make_unique<Cluster>(s, cfg);
    client = &cluster->make_client(0, 0, 0);
    client->create("/alloc/file", 0, [this](FileHandle h) { fh = h; });
    s.run_all();
  }

  void next() {
    if (step == stop) return;
    const std::int64_t i = step++;
    constexpr std::int64_t kMiB = 1 << 20;
    switch (pattern) {
      case Pattern::kWrite:
        client->write(fh, i * kMiB, kMiB, [this] { next(); });
        break;
      case Pattern::kRead:
        client->read(fh, (i % 64) * kMiB, kMiB, [this] { next(); });
        break;
      case Pattern::kWriteReadBack:
        if (i % 2 == 0) {
          client->write(fh, (i / 2) * kMiB, kMiB, [this] { next(); });
        } else {
          client->read(fh, (i / 2) * kMiB, kMiB, [this] { next(); });
        }
        break;
    }
  }

  /// Runs `n` more ops to completion and returns the allocations made.
  std::uint64_t run_ops(int n) {
    stop = step + n;
    const AllocWindow w;
    next();
    s.run_all();
    return w.count();
  }

  /// Warms up, then measures the next kMeasuredOps ops.
  std::uint64_t measure() {
    run_ops(kWarmupOps);
    const std::uint64_t allocs = run_ops(kMeasuredOps);
    EXPECT_EQ(cluster->trace_log().size(),
              static_cast<std::size_t>(1 + kWarmupOps + kMeasuredOps));
    return allocs;
  }
};

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.n_client_nodes = 1;
  cfg.n_oss = 2;
  cfg.osts_per_oss = 2;
  cfg.seed = 17;
  return cfg;
}

TEST(PfsAllocations, HealthyWriteIsAllocationFree) {
  Rig rig(small_cluster(), Pattern::kWrite);
  EXPECT_EQ(rig.measure(), 0u) << "a steady-state write allocated";
}

TEST(PfsAllocations, HealthyReadIsAllocationFree) {
  Rig rig(small_cluster(), Pattern::kRead);
  EXPECT_EQ(rig.measure(), 0u) << "a steady-state read allocated";
}

TEST(PfsAllocations, ReadCacheHitsAreAllocationFree) {
  ClusterConfig cfg = small_cluster();
  cfg.read_cache.capacity_bytes = 8ll << 20;  // writes keep evicting
  Rig rig(cfg, Pattern::kWriteReadBack);
  rig.run_ops(kWarmupOps);
  std::int64_t hits_before = 0;
  for (OstId o = 0; o < rig.cluster->n_osts(); ++o) {
    hits_before += rig.cluster->ost(o).read_cache().hits();
  }
  EXPECT_EQ(rig.run_ops(kMeasuredOps), 0u) << "a steady-state cached read allocated";
  std::int64_t hits = 0;
  for (OstId o = 0; o < rig.cluster->n_osts(); ++o) {
    hits += rig.cluster->ost(o).read_cache().hits();
  }
  EXPECT_GE(hits - hits_before, kMeasuredOps / 2) << "the reads should hit the cache";
}

TEST(PfsAllocations, DeadlineWriteWithTimeoutAndRetryIsAllocationFree) {
  ClusterConfig cfg = small_cluster();
  cfg.client.rpc_deadline = sim::kSecond;
  cfg.client.retry_backoff = 10 * sim::kMillisecond;
  Rig rig(cfg, Pattern::kWrite);
  // Drops exactly one message in the measured window: its RPC times out and
  // is re-issued after a backoff.
  std::int64_t messages = 0;
  std::int64_t drop_at = -1;
  rig.cluster->net().set_loss_gate([&messages, &drop_at] { return ++messages == drop_at; });
  rig.run_ops(kWarmupOps);
  ASSERT_EQ(rig.client->total_timeouts(), 0);
  drop_at = messages + 1000;
  EXPECT_EQ(rig.run_ops(kMeasuredOps), 0u) << "a write under a deadline allocated";
  EXPECT_EQ(rig.client->total_timeouts(), 1);
  EXPECT_EQ(rig.client->total_retries(), 1);
  EXPECT_EQ(rig.client->total_failed_ops(), 0);
}

/// Throttles every 16th ask for a millisecond.
struct PeriodicGate final : AdmissionGate {
  std::int64_t asks = 0;
  std::int64_t throttled = 0;
  sim::SimDuration acquire(int, std::int64_t, sim::SimTime) override {
    if (++asks % 16 != 0) return 0;
    ++throttled;
    return sim::kMillisecond;
  }
  [[nodiscard]] int concurrency_cap() const override { return 4; }
  void on_chunk_complete(int, std::int64_t, sim::SimDuration) override {}
};

TEST(PfsAllocations, GatedWriteIsAllocationFree) {
  Rig rig(small_cluster(), Pattern::kWrite);
  PeriodicGate gate;
  rig.client->set_gate(&gate);
  rig.run_ops(kWarmupOps);
  const std::int64_t throttled_before = gate.throttled;
  EXPECT_EQ(rig.run_ops(kMeasuredOps), 0u) << "a gated write allocated";
  EXPECT_GT(gate.throttled, throttled_before) << "the gate should have throttled";
}

}  // namespace
}  // namespace qif::pfs
