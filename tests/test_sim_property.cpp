// Property tests for the pooled 4-ary-heap event engine: random
// schedule/cancel/rearm/run workloads are mirrored into a naive reference
// scheduler (a plain vector scanned for the (when, seq) minimum), and the
// two must agree on the exact firing order and pending count at every
// step, with the engine's structural invariants holding throughout.  A
// rearm is modelled in the reference as a cancel plus a schedule of the
// same token, which is exactly the key contract of Simulation::rearm.
//
// The reference is deliberately simple enough to be obviously correct:
// that is the whole point — any divergence is an engine bug, including
// FIFO tie-break violations among simultaneous events, mis-placed heap
// back-pointers after O(log n) cancellation, and slot-reuse hazards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "qif/sim/rng.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::sim {
namespace {

/// Naive but obviously-correct scheduler: O(n) min-scan per pop.
class ReferenceScheduler {
 public:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    int token;
    SimDuration chain_delay;  // > 0: firing schedules a follow-up event
  };

  std::uint64_t schedule(SimTime when, int token, SimDuration chain_delay = 0) {
    pending_.push_back({when, ++next_seq_, token, chain_delay});
    return pending_.back().seq;
  }

  /// Mirrors Simulation::cancel: cancelling a fired or already-cancelled
  /// event is a no-op.
  void cancel(std::uint64_t seq) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->seq == seq) {
        pending_.erase(it);
        return;
      }
    }
  }

  void run_until(SimTime until, std::vector<int>& log) {
    for (;;) {
      std::size_t best = pending_.size();
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].when > until) continue;
        if (best == pending_.size() || pending_[i].when < pending_[best].when ||
            (pending_[i].when == pending_[best].when &&
             pending_[i].seq < pending_[best].seq)) {
          best = i;
        }
      }
      if (best == pending_.size()) return;
      const Event ev = pending_[best];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
      log.push_back(ev.token);
      if (ev.chain_delay > 0) {
        schedule(ev.when + ev.chain_delay, ev.token + 1000000, 0);
      }
    }
  }

  /// Mirrors Simulation::rearm as cancel + schedule of the same token.
  /// Returns the new seq, or 0 when `seq` is no longer pending.
  std::uint64_t rearm(std::uint64_t seq, SimTime when) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->seq == seq) {
        const Event ev = *it;
        pending_.erase(it);
        return schedule(when, ev.token, ev.chain_delay);
      }
    }
    return 0;
  }

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

 private:
  std::uint64_t next_seq_ = 0;
  std::vector<Event> pending_;
};

/// One randomized round: ~`ops` operations driven by `seed`, engine vs
/// reference compared after every operation.
void run_round(std::uint64_t seed, int ops) {
  Simulation sim;
  ReferenceScheduler ref;
  Rng rng(seed);
  std::vector<int> sim_log;
  std::vector<int> ref_log;
  // Parallel handle arrays: operation k scheduled (real id, ref seq).
  std::vector<EventId> sim_handles;
  std::vector<std::uint64_t> ref_handles;
  SimTime cursor = 0;  // the last run_until horizon; schedules are >= this
  int next_token = 0;

  for (int op = 0; op < ops; ++op) {
    const double roll = rng.next_double();
    if (roll < 0.55 || sim_handles.empty()) {
      // Schedule.  Coarse time quantization forces plenty of (when, seq)
      // ties, exercising the FIFO tie-break.
      const SimTime when = cursor + rng.uniform_int(0, 40) * 100;
      const bool chain = rng.chance(0.25);
      const SimDuration chain_delay = chain ? rng.uniform_int(1, 20) * 100 : 0;
      const int token = next_token++;
      if (chain_delay > 0) {
        sim_handles.push_back(sim.schedule_at(when, [&sim, &sim_log, token, chain_delay] {
          sim_log.push_back(token);
          sim.schedule_after(chain_delay,
                             [&sim_log, token] { sim_log.push_back(token + 1000000); });
        }));
      } else {
        sim_handles.push_back(
            sim.schedule_at(when, [&sim_log, token] { sim_log.push_back(token); }));
      }
      ref_handles.push_back(ref.schedule(when, token, chain_delay));
    } else if (roll < 0.70) {
      // Cancel a random handle — possibly one that already fired or was
      // already cancelled (both engines treat that as a no-op).
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sim_handles.size()) - 1));
      sim.cancel(sim_handles[pick]);
      ref.cancel(ref_handles[pick]);
      if (rng.chance(0.2)) {  // double-cancel: must stay a no-op
        sim.cancel(sim_handles[pick]);
        ref.cancel(ref_handles[pick]);
      }
    } else if (roll < 0.82) {
      // Rearm a random handle to a new time, possibly one that already
      // fired or was cancelled (a no-op in both), possibly earlier than
      // its current time, often onto a tie.
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sim_handles.size()) - 1));
      const SimTime when = cursor + rng.uniform_int(0, 40) * 100;
      const bool moved = sim.rearm(sim_handles[pick], when);
      const std::uint64_t seq = ref.rearm(ref_handles[pick], when);
      ASSERT_EQ(moved, seq != 0) << "op " << op << " seed " << seed;
      if (moved) ref_handles[pick] = seq;
    } else {
      // Advance the clock.
      cursor += rng.uniform_int(0, 1500);
      const std::uint64_t ran = sim.run_until(cursor);
      ref.run_until(cursor, ref_log);
      ASSERT_EQ(sim_log.size(), ref_log.size()) << "after run_until(" << cursor << ")";
      EXPECT_GE(ran, 0u);
    }
    ASSERT_TRUE(sim.check_invariants()) << "op " << op << " seed " << seed;
    ASSERT_EQ(sim.pending(), ref.pending()) << "op " << op << " seed " << seed;
    ASSERT_EQ(sim_log, ref_log) << "op " << op << " seed " << seed;
  }

  // Drain both completely; the full firing history must match exactly.
  sim.run_all();
  ref.run_until(std::numeric_limits<SimTime>::max(), ref_log);
  EXPECT_TRUE(sim.check_invariants());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(ref.pending(), 0u);
  ASSERT_EQ(sim_log, ref_log) << "seed " << seed;
}

TEST(SimProperty, RandomScheduleCancelRunMatchesReferenceScheduler) {
  for (std::uint64_t round = 0; round < 20; ++round) {
    run_round(Rng::derive_seed(0xFA17, "round" + std::to_string(round)), 300);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

TEST(SimProperty, HeavyCancellationChurnKeepsSlabBounded) {
  // Schedule/cancel churn must recycle slots instead of growing the slab:
  // the peak simultaneous pending count bounds slot_slab_size().
  Simulation sim;
  ReferenceScheduler ref;
  Rng rng(99);
  std::vector<int> sim_log;
  std::vector<int> ref_log;
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<EventId> ids;
    std::vector<std::uint64_t> seqs;
    const SimTime base = sim.now();
    for (int i = 0; i < 64; ++i) {
      const SimTime when = base + rng.uniform_int(1, 1000);
      const int token = wave * 1000 + i;
      ids.push_back(sim.schedule_at(when, [&sim_log, token] { sim_log.push_back(token); }));
      seqs.push_back(ref.schedule(when, token));
    }
    // Cancel a random half, in random order.
    for (int i = 0; i < 32; ++i) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(0, 63));
      sim.cancel(ids[pick]);
      ref.cancel(seqs[pick]);
    }
    ASSERT_TRUE(sim.check_invariants());
    ASSERT_EQ(sim.pending(), ref.pending());
    sim.run_until(base + 1000);
    ref.run_until(base + 1000, ref_log);
    ASSERT_EQ(sim_log, ref_log) << "wave " << wave;
  }
  EXPECT_LE(sim.slot_slab_size(), 64u + 1u);
}

TEST(SimProperty, SimultaneousEventsFireInSchedulingOrder) {
  // Direct FIFO pin (the reference also checks this, but keep a readable
  // witness): N events at the same instant fire in scheduling order even
  // when interleaved with cancellations.
  Simulation sim;
  std::vector<int> log;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule_at(500, [&log, i] { log.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 3) sim.cancel(ids[static_cast<std::size_t>(i)]);
  ASSERT_TRUE(sim.check_invariants());
  sim.run_all();
  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(log, expected);
}

}  // namespace
}  // namespace qif::sim
