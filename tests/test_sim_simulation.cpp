// Unit tests for the discrete-event engine: ordering, cancellation,
// horizons, determinism, and the periodic sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "qif/sim/rng.hpp"
#include "qif/sim/sampler.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/sim/stats.hpp"

namespace qif::sim {
namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Simulation, ExecutesEventsInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, SimultaneousEventsRunInScheduleOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    s.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation s;
  SimTime seen = -1;
  s.schedule_at(42, [&] { seen = s.now(); });
  s.run_all();
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(s.now(), 42);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation s;
  SimTime seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_after(50, [&] { seen = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(seen, 150);
}

TEST(Simulation, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulation s;
  int ran = 0;
  s.schedule_at(10, [&] { ++ran; });
  s.schedule_at(100, [&] { ++ran; });
  const auto executed = s.run_until(50);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), 50);  // clock tiles to the horizon
  s.run_all();
  EXPECT_EQ(ran, 2);
}

TEST(Simulation, EventAtExactHorizonFires) {
  Simulation s;
  bool fired = false;
  s.schedule_at(50, [&] { fired = true; });
  s.run_until(50);
  EXPECT_TRUE(fired);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation s;
  bool fired = false;
  const EventId id = s.schedule_at(10, [&] { fired = true; });
  s.cancel(id);
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelAfterFireIsNoOp) {
  Simulation s;
  int count = 0;
  const EventId id = s.schedule_at(10, [&] { ++count; });
  s.run_all();
  s.cancel(id);  // must not crash or affect later events
  s.schedule_at(20, [&] { ++count; });
  s.run_all();
  EXPECT_EQ(count, 2);
}

TEST(Simulation, CancelInvalidEventIsNoOp) {
  Simulation s;
  s.cancel(kInvalidEvent);
  s.schedule_at(1, [] {});
  EXPECT_EQ(s.run_all(), 1u);
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.schedule_after(1, chain);
  };
  s.schedule_at(0, chain);
  s.run_all();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99);
}

TEST(Simulation, CancelThenRescheduleSameTickRunsOnlyReplacement) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(10, [&] { order.push_back(0); });
  const EventId doomed = s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(10, [&] { order.push_back(2); });
  s.cancel(doomed);
  // The replacement gets a fresh sequence id, so it runs after event 2 —
  // exactly what a cancel+reschedule at the same timestamp must do.
  s.schedule_at(10, [&] { order.push_back(3); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
  EXPECT_TRUE(s.check_invariants());
}

TEST(Simulation, DoubleCancelIsNoOp) {
  Simulation s;
  int count = 0;
  const EventId id = s.schedule_at(10, [&] { ++count; });
  s.schedule_at(20, [&] { ++count; });
  s.cancel(id);
  s.cancel(id);  // second cancel must not disturb the other event
  s.run_all();
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.check_invariants());
}

TEST(Simulation, CancelOfRecycledSlotDoesNotKillNewEvent) {
  Simulation s;
  bool stale_fired = false;
  bool fresh_fired = false;
  const EventId stale = s.schedule_at(10, [&] { stale_fired = true; });
  s.cancel(stale);
  // The freed slot is recycled; the stale id's generation no longer matches.
  const EventId fresh = s.schedule_at(20, [&] { fresh_fired = true; });
  s.cancel(stale);
  s.run_all();
  EXPECT_FALSE(stale_fired);
  EXPECT_TRUE(fresh_fired);
  (void)fresh;
}

TEST(Simulation, EventCanCancelAnotherPendingEvent) {
  Simulation s;
  bool victim_fired = false;
  EventId victim = kInvalidEvent;
  victim = s.schedule_at(20, [&] { victim_fired = true; });
  s.schedule_at(10, [&] { s.cancel(victim); });
  s.run_all();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.check_invariants());
}

TEST(Simulation, EventCancellingItselfWhileFiringIsNoOp) {
  Simulation s;
  int count = 0;
  EventId self = kInvalidEvent;
  self = s.schedule_at(10, [&] {
    ++count;
    s.cancel(self);  // the id is already released when the closure runs
  });
  s.schedule_at(20, [&] { ++count; });
  s.run_all();
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(s.check_invariants());
}

TEST(Simulation, CancelChurnDoesNotGrowState) {
  // The old engine kept a cancelled-id tombstone set that grew without
  // bound under the FairLink pattern (cancel the pending completion,
  // schedule a new one, repeat).  The slot slab must stay at the peak
  // number of *simultaneously* pending events instead.
  Simulation s;
  EventId pending = s.schedule_at(1, [] {});
  for (int i = 2; i < 5000; ++i) {
    s.cancel(pending);
    pending = s.schedule_at(i, [] {});
  }
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_LE(s.slot_slab_size(), 4u);
  EXPECT_TRUE(s.check_invariants());
  s.run_all();
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(Simulation, InterleavedCancelKeepsHeapConsistent) {
  // Randomized structural check: cancel every third event out of a shuffled
  // schedule and verify heap order, back-pointers, and the free list.
  Simulation s;
  Rng rng(1234);
  std::vector<EventId> ids;
  std::vector<SimTime> fired;
  for (int i = 0; i < 500; ++i) {
    const SimTime when = rng.uniform_int(1, 10'000);
    ids.push_back(s.schedule_at(when, [&fired, &s] { fired.push_back(s.now()); }));
    if (i % 3 == 0) {
      s.cancel(ids[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(ids.size()) - 1))]);
      ASSERT_TRUE(s.check_invariants());
    }
  }
  ASSERT_TRUE(s.check_invariants());
  s.run_all();
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulation, ClosureSchedulingAcrossSlotChunksFiresInOrder) {
  // A running closure stays in its slot while it schedules thousands of
  // events, so the engine must grow new slot chunks around it without
  // moving it — and every event must still fire, in order.
  Simulation s;
  std::vector<int> order;
  bool inner_ok = false;
  s.schedule_at(1, [&] {
    for (int i = 0; i < 3000; ++i) {
      // Three events per tick, scheduled out of time order.
      s.schedule_at(2 + (2999 - i) / 3, [&order, i] { order.push_back(i); });
    }
    inner_ok = s.check_invariants() && s.pending() == 3000;
  });
  s.run_all();
  EXPECT_TRUE(inner_ok);
  ASSERT_EQ(order.size(), 3000u);
  std::vector<int> expected;
  for (int tick = 0; tick < 1000; ++tick) {
    // Within a tick, scheduling order; ticks ascend as i descends.
    for (int k = 0; k < 3; ++k) expected.push_back(2999 - (3 * tick + (2 - k)));
  }
  EXPECT_EQ(order, expected);
  EXPECT_GE(s.slot_slab_size(), 3001u);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.check_invariants());
}

TEST(Simulation, InvariantsHoldInsideRunningClosure) {
  // While a closure runs, its slot is on neither the heap nor the free
  // list; the self-check must account for it, before and after the closure
  // schedules, cancels, and cancels itself.
  Simulation s;
  std::vector<bool> checks;
  EventId self = kInvalidEvent;
  EventId other = s.schedule_at(20, [] {});
  self = s.schedule_at(10, [&] {
    checks.push_back(s.check_invariants());
    const EventId a = s.schedule_after(5, [] {});
    s.schedule_after(7, [] {});
    checks.push_back(s.check_invariants());
    s.cancel(a);
    s.cancel(other);
    s.cancel(self);  // its own id died when it started: a no-op
    checks.push_back(s.check_invariants());
    checks.push_back(s.pending() == 1);
  });
  s.run_all();
  EXPECT_EQ(checks, (std::vector<bool>{true, true, true, true}));
  EXPECT_EQ(s.events_executed(), 2u);
  EXPECT_TRUE(s.check_invariants());
}

TEST(Simulation, EmptyClosureIsAnEventThatOnlyAdvancesTheClock) {
  Simulation s;
  s.schedule_at(5, nullptr);
  s.schedule_at(9, InlineTask{});
  EXPECT_EQ(s.pending(), 2u);
  s.run_all();
  EXPECT_EQ(s.events_executed(), 2u);
  EXPECT_EQ(s.now(), 9);
  EXPECT_TRUE(s.check_invariants());
}

TEST(Simulation, RearmMovesPendingEventLikeCancelPlusSchedule) {
  // Twin engines: one moves its event with rearm, the other cancels and
  // re-schedules.  The firing order — including ties at the new time,
  // which the fresh origin puts after everything already scheduled — and
  // the clock must match.
  auto run = [](bool use_rearm) {
    Simulation s;
    std::vector<int> order;
    const EventId moved = s.schedule_at(10, [&order] { order.push_back(0); });
    s.schedule_at(30, [&order] { order.push_back(1); });
    s.schedule_at(5, [&s, &order, moved, use_rearm] {
      order.push_back(2);
      s.schedule_at(30, [&order] { order.push_back(3); });
      if (use_rearm) {
        EXPECT_TRUE(s.rearm(moved, 30));
      } else {
        s.cancel(moved);
        s.schedule_at(30, [&order] { order.push_back(0); });
      }
      s.schedule_at(30, [&order] { order.push_back(4); });
    });
    s.run_all();
    EXPECT_TRUE(s.check_invariants());
    return order;
  };
  EXPECT_EQ(run(true), run(false));
  EXPECT_EQ(run(true), (std::vector<int>{2, 1, 3, 0, 4}));
}

TEST(Simulation, RearmOfStaleIdIsANoOp) {
  Simulation s;
  int fired = 0;
  const EventId id = s.schedule_at(10, [&fired] { ++fired; });
  s.run_all();
  EXPECT_FALSE(s.rearm(id, 50));
  const EventId cancelled = s.schedule_at(20, [&fired] { ++fired; });
  s.cancel(cancelled);
  EXPECT_FALSE(s.rearm(cancelled, 30));
  EXPECT_FALSE(s.rearm(kInvalidEvent, 30));
  EXPECT_EQ(s.pending(), 0u);
  s.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.check_invariants());
}

TEST(Simulation, ScheduledClosureIsMovedAtMostOnceAndRunInPlace) {
  // Zero-copy pin: scheduling builds the caller's lambda in its slot with
  // one move, and firing runs it where it is — no relocation at all.
  struct Counter {
    int* moves;
    int* copies;
    Counter(int* m, int* c) : moves(m), copies(c) {}
    Counter(const Counter& o) : moves(o.moves), copies(o.copies) { ++*copies; }
    Counter(Counter&& o) noexcept : moves(o.moves), copies(o.copies) { ++*moves; }
    Counter& operator=(const Counter&) = delete;
    Counter& operator=(Counter&&) = delete;
    ~Counter() = default;
  };
  int moves = 0;
  int copies = 0;
  int fired = 0;
  Simulation s;
  // Filler events so the tracked one sits among heap siblings.
  for (int i = 0; i < 50; ++i) s.schedule_at(i % 7, [] {});
  auto fn = [c = Counter(&moves, &copies), &fired] {
    (void)c;
    ++fired;
  };
  moves = 0;
  s.schedule_at(3, std::move(fn));
  EXPECT_LE(moves, 1);
  EXPECT_EQ(copies, 0);
  moves = 0;
  for (int i = 0; i < 50; ++i) s.schedule_at(i % 5, [] {});
  s.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(moves, 0);
  EXPECT_EQ(copies, 0);
}

TEST(InlineTask, MoveTransfersClosureAndEmptiesSource) {
  int hits = 0;
  InlineTask a = [&hits] { ++hits; };
  InlineTask b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  b.reset();
  EXPECT_FALSE(static_cast<bool>(b));
}

TEST(InlineTask, DestroysCapturesExactlyOnce) {
  struct Probe {
    int* live;
    explicit Probe(int* l) : live(l) { ++*live; }
    Probe(const Probe& o) : live(o.live) { ++*live; }
    Probe(Probe&& o) noexcept : live(o.live) { o.live = nullptr; }
    ~Probe() {
      if (live != nullptr) --*live;
    }
    void operator()() const {}
  };
  int live = 0;
  {
    InlineTask t = Probe(&live);
    EXPECT_EQ(live, 1);
    InlineTask u = std::move(t);
    EXPECT_EQ(live, 1);  // relocation, not duplication
  }
  EXPECT_EQ(live, 0);
}

TEST(Simulation, PendingTracksQueue) {
  Simulation s;
  s.schedule_at(10, [] {});
  s.schedule_at(20, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.run_until(15);
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Sampler, FiresAtExactPeriods) {
  Simulation s;
  std::vector<SimTime> times;
  Sampler sampler(s, kSecond, [&](std::uint64_t) { times.push_back(s.now()); });
  sampler.start();
  s.run_until(3 * kSecond + kMillisecond);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], kSecond);
  EXPECT_EQ(times[1], 2 * kSecond);
  EXPECT_EQ(times[2], 3 * kSecond);
}

TEST(Sampler, TickIndexIncrements) {
  Simulation s;
  std::vector<std::uint64_t> ticks;
  Sampler sampler(s, 10, [&](std::uint64_t t) { ticks.push_back(t); });
  sampler.start();
  s.run_until(35);
  EXPECT_EQ(ticks, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(sampler.ticks(), 3u);
}

TEST(Sampler, StopHaltsFiring) {
  Simulation s;
  int count = 0;
  Sampler sampler(s, 10, [&](std::uint64_t) {
    if (++count == 2) sampler.stop();
  });
  sampler.start();
  s.run_until(1000);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sampler.running());
}

TEST(Sampler, StartIsIdempotent) {
  Simulation s;
  int count = 0;
  Sampler sampler(s, 10, [&](std::uint64_t) { ++count; });
  sampler.start();
  sampler.start();
  s.run_until(25);
  EXPECT_EQ(count, 2);  // not doubled
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats st;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
  EXPECT_NEAR(st.stddev(), 2.0, 1e-12);  // classic example set
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats st;
  st.add(3.5);
  EXPECT_DOUBLE_EQ(st.mean(), 3.5);
  EXPECT_DOUBLE_EQ(st.variance(), 0.0);
  EXPECT_DOUBLE_EQ(st.min(), 3.5);
  EXPECT_DOUBLE_EQ(st.max(), 3.5);
}

TEST(MovingAverage, WindowOneIsIdentity) {
  const std::vector<double> xs = {1, 5, 2, 8};
  EXPECT_EQ(moving_average(xs, 1), xs);
}

TEST(MovingAverage, SmoothsConstantToConstant) {
  const std::vector<double> xs(20, 3.0);
  for (const double v : moving_average(xs, 5)) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(MovingAverage, CenteredWindowValues) {
  const std::vector<double> xs = {0, 3, 6, 9, 12};
  const auto out = moving_average(xs, 3);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_DOUBLE_EQ(out[0], 1.5);  // mean of {0,3}
  EXPECT_DOUBLE_EQ(out[1], 3.0);  // mean of {0,3,6}
  EXPECT_DOUBLE_EQ(out[2], 6.0);
  EXPECT_DOUBLE_EQ(out[4], 10.5);
}

TEST(MovingAverage, PreservesTotalLength) {
  std::vector<double> xs(123, 0.0);
  EXPECT_EQ(moving_average(xs, 10).size(), xs.size());
}

// Property sweep: the engine is deterministic — same schedule, same result.
class DeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismTest, ReplayProducesIdenticalEventTrace) {
  auto run_once = [&](std::uint64_t seed) {
    Simulation s;
    Rng rng(seed);
    std::vector<SimTime> trace;
    std::function<void()> spawn = [&] {
      trace.push_back(s.now());
      if (trace.size() < 200) {
        s.schedule_after(rng.uniform_int(1, 1000), spawn);
        if (rng.chance(0.3)) s.schedule_after(rng.uniform_int(1, 500), spawn);
      }
    };
    s.schedule_at(0, spawn);
    s.run_until(1'000'000);
    return trace;
  };
  const auto seed = static_cast<std::uint64_t>(GetParam());
  EXPECT_EQ(run_once(seed), run_once(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest, ::testing::Values(1, 2, 7, 99, 12345));

}  // namespace
}  // namespace qif::sim
