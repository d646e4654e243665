// Heap-allocation accounting for the event-engine hot path.
//
// The acceptance bar for the engine rebuild: zero heap allocations per
// scheduled event in steady state, for closures of every shape the pfs
// layer schedules today (up to ~104 bytes of captures, including
// std::function members moved through).  This binary replaces global
// operator new/delete with counting versions; each test warms the engine
// up (so slabs, heaps, and reusable buffers reach their steady-state
// capacity) and then asserts that a measured window performs no
// allocations at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include "qif/sim/fair_link.hpp"
#include "qif/sim/lanes.hpp"
#include "qif/sim/pipe.hpp"
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

namespace qif::sim {
namespace {

// Representative of the largest closure the pfs layer schedules today
// (MdtServer::dispatch: this + Task{kind, string, ids, callback}): ~104
// bytes including a moved std::function member.
struct BigCapture {
  void* self = nullptr;
  std::int64_t a = 0, b = 0, c = 0, d = 0;
  std::int64_t payload[4] = {0, 0, 0, 0};
  std::function<void()> cb;
};

TEST(EngineAllocations, SteadyStateScheduleAndFireIsAllocationFree) {
  Simulation s;
  int fired = 0;
  std::function<void()> cb = [&fired] { ++fired; };
  auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      BigCapture big;
      big.cb = cb;
      s.schedule_after(1 + i, [big = std::move(big)] {
        if (big.cb) big.cb();
      });
      s.schedule_after(2 + i, [&fired] { ++fired; });
    }
    s.run_all();
  };
  burst(256);  // warm-up: grows the slot slab and the heap once
  const AllocWindow w;
  burst(256);
  EXPECT_EQ(w.count(), 0u) << "event scheduling/firing allocated in steady state";
  EXPECT_GT(fired, 0);
}

TEST(EngineAllocations, CancelChurnIsAllocationFree) {
  Simulation s;
  int fired = 0;
  auto churn = [&](int n) {
    EventId pending = kInvalidEvent;
    for (int i = 0; i < n; ++i) {
      s.cancel(pending);
      pending = s.schedule_after(1000, [&fired] { ++fired; });
    }
    s.run_all();
  };
  churn(512);
  const AllocWindow w;
  churn(512);
  EXPECT_EQ(w.count(), 0u) << "cancel/reschedule churn allocated in steady state";
}

TEST(EngineAllocations, FairLinkTransfersAreAllocationFreeInSteadyState) {
  Simulation s;
  FairLink link(s, 1e9);
  int done = 0;
  auto round = [&](int n) {
    for (int i = 0; i < n; ++i) {
      link.transfer(1 << 16, [&done] { ++done; });
    }
    s.run_all();
  };
  round(64);  // warm-up: flows_ vector, done_ buffer, engine slab
  const AllocWindow w;
  round(64);
  EXPECT_EQ(w.count(), 0u) << "FairLink transfer/completion allocated in steady state";
  EXPECT_EQ(done, 128);
}

TEST(EngineAllocations, LaneWindowLoopIsAllocationFreeInSteadyState) {
  // The lane hot loop: post into the per-(src,dst) outboxes, drain them via
  // inject, run both window stages, mint entity-context origins.  After one
  // warm-up (outbox capacity, slot slabs, per-context counters) a steady
  // round must not allocate.
  LaneGroup lanes(2, /*lookahead=*/100);
  // Lane 0 runs on the driver thread and lane 1 on its worker, concurrently
  // within a window, so the shared counter must be atomic.
  std::atomic<int> fired{0};
  auto round = [&](int n) {
    for (int i = 0; i < n; ++i) {
      for (int src = 0; src < 2; ++src) {
        Simulation& s = lanes.lane(src);
        const SimTime t = s.now();
        lanes.post(src, 1 - src, EventKey{t + 100, t, s.consume_origin(), 0},
                   /*ctx=*/static_cast<std::uint32_t>(1 - src), [&lanes, src, &fired] {
                     ++fired;
                     // Delivered hops schedule local follow-ups, like a
                     // served RPC does.
                     lanes.lane(1 - src).schedule_after(10, [&fired] { ++fired; });
                   });
      }
      lanes.run_until(lanes.now() + 1000);
    }
  };
  round(64);  // warm-up
  const AllocWindow w;
  round(64);
  EXPECT_EQ(w.count(), 0u) << "lane window loop allocated in steady state";
  EXPECT_EQ(fired.load(), 2 * 2 * 128);
}

TEST(EngineAllocations, PipeDeliveriesAreAllocationFreeInSteadyState) {
  Simulation s;
  Pipe pipe(s, 1e9, 100);
  int done = 0;
  auto round = [&](int n) {
    for (int i = 0; i < n; ++i) {
      pipe.send(4096, [&done] { ++done; });
    }
    s.run_all();
  };
  round(64);  // warm-up: message queue, delivery pool, engine slab
  const AllocWindow w;
  round(64);
  EXPECT_EQ(w.count(), 0u) << "Pipe send/delivery allocated in steady state";
  EXPECT_EQ(done, 128);
}

}  // namespace
}  // namespace qif::sim
