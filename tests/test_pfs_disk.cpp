// Tests for the mechanical disk model: positioning costs, read priority,
// rate-limited write turns, anticipation, merging, and diskstats counters.
#include <gtest/gtest.h>

#include <vector>

#include "qif/pfs/disk.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {
namespace {

DiskParams no_jitter() {
  DiskParams p;
  p.service_jitter = 0.0;
  return p;
}

TEST(DiskModel, SequentialContinuationHasNoPositioningCost) {
  sim::Simulation s;
  DiskParams p = no_jitter();
  DiskModel disk(s, p, 1);
  sim::SimTime first = 0, second = 0;
  disk.submit(false, 0, 1 << 20, [&] { first = s.now(); });
  s.run_all();
  disk.submit(false, 1 << 20, 1 << 20, [&] { second = s.now(); });
  s.run_all();
  const double xfer_s = static_cast<double>(1 << 20) / p.media_rate_bps;
  // First request pays a seek from head position 0? offset==head(0): no.
  EXPECT_NEAR(sim::to_seconds(first), xfer_s, 1e-6);
  EXPECT_NEAR(sim::to_seconds(second - first), xfer_s, 1e-6);
}

TEST(DiskModel, FarRequestPaysFullSeekPlusRotation) {
  sim::Simulation s;
  DiskParams p = no_jitter();
  DiskModel disk(s, p, 1);
  sim::SimTime done = 0;
  disk.submit(false, 200ll << 30, 4096, [&] { done = s.now(); });
  s.run_all();
  const auto rot_half = sim::from_seconds(30.0 / p.rpm);
  const auto expected =
      p.avg_seek + rot_half + sim::from_seconds(4096.0 / p.media_rate_bps);
  EXPECT_NEAR(static_cast<double>(done), static_cast<double>(expected),
              static_cast<double>(expected) * 0.01);
}

TEST(DiskModel, NearRequestPaysShortSeek) {
  sim::Simulation s;
  DiskParams p = no_jitter();
  DiskModel disk(s, p, 1);
  sim::SimTime t1 = 0, t2 = 0;
  disk.submit(false, 0, 4096, [&] { t1 = s.now(); });
  s.run_all();
  disk.submit(false, 1 << 20, 4096, [&] { t2 = s.now(); });  // 1 MiB gap: near
  s.run_all();
  const auto near_cost = p.track_seek + sim::from_seconds(30.0 / p.rpm) / 2 +
                         sim::from_seconds(4096.0 / p.media_rate_bps);
  EXPECT_NEAR(static_cast<double>(t2 - t1), static_cast<double>(near_cost),
              static_cast<double>(near_cost) * 0.01);
}

TEST(DiskModel, InterleavedStreamsSlowerThanSolo) {
  // The seek-storm mechanism behind read-vs-read interference: two
  // *synchronous* sequential readers (each submits its next request only
  // when the previous completes, like a blocking rank) force a seek per
  // request, where one reader streams seek-free.
  auto run = [](int n_streams) {
    sim::Simulation s;
    DiskModel disk(s, no_jitter(), 1);
    const int per_stream = 32;
    int done = 0;
    std::function<void(int, int)> next = [&](int stream, int i) {
      if (i >= per_stream) return;
      const std::int64_t base = static_cast<std::int64_t>(stream) * (500ll << 30);
      disk.submit(false, base + (static_cast<std::int64_t>(i) << 20), 1 << 20,
                  [&, stream, i] {
                    ++done;
                    next(stream, i + 1);
                  });
    };
    for (int st = 0; st < n_streams; ++st) next(st, 0);
    s.run_all();
    EXPECT_EQ(done, n_streams * per_stream);
    // Per-stream completion rate (bytes per second of simulated time).
    return static_cast<double>(per_stream) * n_streams / sim::to_seconds(s.now());
  };
  const double solo_rate = run(1);
  const double duo_rate = run(2);
  // Aggregate throughput collapses: two interleaved streams move *less*
  // total data per second than one, despite having twice the demand.
  EXPECT_LT(duo_rate, 0.7 * solo_rate);
}

TEST(DiskModel, ReadsHavePriorityOverQueuedWrites) {
  sim::Simulation s;
  DiskParams p = no_jitter();
  p.anticipation_hold = 0;
  DiskModel disk(s, p, 1);
  std::vector<char> order;
  // Make the disk busy, then queue a write before a read.
  disk.submit(false, 0, 1 << 20, [] {});
  disk.submit(true, 10ll << 30, 1 << 20, [&] { order.push_back('w'); });
  disk.submit(false, 1 << 20, 1 << 20, [&] { order.push_back('r'); });
  s.run_all();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'r');
  EXPECT_EQ(order[1], 'w');
}

TEST(DiskModel, WriteTurnGuaranteesProgressUnderReadPressure) {
  sim::Simulation s;
  DiskParams p = no_jitter();
  p.anticipation_hold = 0;
  DiskModel disk(s, p, 1);
  bool write_done = false;
  disk.submit(true, 10ll << 30, 4096, [&] { write_done = true; });
  // Sustain a read stream far longer than the starvation limit.
  std::function<void(int)> reads = [&](int i) {
    if (i >= 200) return;
    disk.submit(false, static_cast<std::int64_t>(i) << 20, 1 << 20,
                [&reads, i] { reads(i + 1); });
  };
  reads(0);
  s.run_until(5 * sim::kSecond);
  EXPECT_TRUE(write_done);
}

TEST(DiskModel, BackMergeCoalescesContiguousWrites) {
  sim::Simulation s;
  DiskModel disk(s, no_jitter(), 1);
  int done = 0;
  // First request occupies the head; the rest queue up and merge.
  disk.submit(true, 100ll << 30, 4096, [&] { ++done; });
  disk.submit(true, 0, 4096, [&] { ++done; });
  disk.submit(true, 4096, 4096, [&] { ++done; });
  disk.submit(true, 8192, 4096, [&] { ++done; });
  s.run_all();
  EXPECT_EQ(done, 4);
  const DiskCounters c = disk.counters();
  EXPECT_EQ(c.write_merges, 2);
  EXPECT_EQ(c.writes_completed, 4);  // merged requests still count ops
}

TEST(DiskModel, FrontMergeCoalesces) {
  sim::Simulation s;
  DiskModel disk(s, no_jitter(), 1);
  disk.submit(false, 100ll << 30, 4096, [] {});  // busy
  disk.submit(false, 4096, 4096, [] {});
  disk.submit(false, 0, 4096, [] {});  // ends where the previous starts
  s.run_all();
  EXPECT_EQ(disk.counters().read_merges, 1);
}

TEST(DiskModel, MergeRespectsSizeCap) {
  sim::Simulation s;
  DiskParams p = no_jitter();
  p.max_merge_bytes = 8192;
  DiskModel disk(s, p, 1);
  disk.submit(true, 100ll << 30, 4096, [] {});  // busy
  disk.submit(true, 0, 8192, [] {});
  disk.submit(true, 8192, 4096, [] {});  // would exceed the cap
  s.run_all();
  EXPECT_EQ(disk.counters().write_merges, 0);
}

TEST(DiskModel, RefusedFrontMergeKeepsEveryCompletion) {
  // A front-merge candidate that would exceed the cap is left alone: both
  // the queued request and the newcomer still complete.
  sim::Simulation s;
  DiskParams p = no_jitter();
  p.max_merge_bytes = 8192;
  DiskModel disk(s, p, 1);
  int done = 0;
  disk.submit(false, 100ll << 30, 4096, [&] { ++done; });  // busy
  disk.submit(false, 4096, 8192, [&] { ++done; });
  disk.submit(false, 0, 4096, [&] { ++done; });  // ends where the previous starts
  s.run_all();
  EXPECT_EQ(disk.counters().read_merges, 0);
  EXPECT_EQ(done, 3);
  EXPECT_EQ(disk.counters().reads_completed, 3);
}

TEST(DiskModel, SectorCountersMatchBytes) {
  sim::Simulation s;
  DiskModel disk(s, no_jitter(), 1);
  disk.submit(false, 0, 1 << 20, [] {});
  disk.submit(true, 5ll << 30, 512 * 3, [] {});
  s.run_all();
  const DiskCounters c = disk.counters();
  EXPECT_EQ(c.sectors_read, (1 << 20) / 512);
  EXPECT_EQ(c.sectors_written, 3);
  EXPECT_EQ(c.reads_completed, 1);
  EXPECT_EQ(c.writes_completed, 1);
  EXPECT_EQ(c.queued_requests, 2);
}

TEST(DiskModel, BusyTicksApproximateServiceTime) {
  sim::Simulation s;
  DiskModel disk(s, no_jitter(), 1);
  disk.submit(false, 0, 15'000'000, [] {});  // 0.1 s of transfer
  s.run_all();
  const DiskCounters c = disk.counters();
  EXPECT_NEAR(sim::to_seconds(c.io_ticks), 0.1, 0.01);
  EXPECT_GE(c.weighted_ticks, c.io_ticks);
}

TEST(DiskModel, WeightedTicksGrowWithQueueDepth) {
  sim::Simulation s;
  DiskModel disk(s, no_jitter(), 1);
  // Three 0.1 s requests back to back: weighted ticks ~ 0.1*3 + 0.1*2 + 0.1.
  for (int i = 0; i < 3; ++i) {
    disk.submit(false, static_cast<std::int64_t>(i) * 15'000'000, 15'000'000, [] {});
  }
  s.run_all();
  EXPECT_NEAR(sim::to_seconds(disk.counters().weighted_ticks), 0.6, 0.05);
}

TEST(DiskModel, AnticipationHoldsWritesDuringReadGaps) {
  sim::Simulation s;
  DiskParams p = no_jitter();
  p.anticipation_hold = 5 * sim::kMillisecond;
  DiskModel disk(s, p, 1);
  sim::SimTime read2_done = 0;
  // Read completes; a write is pending; the next read arrives 1 ms later
  // (inside the hold) and must NOT wait behind the write.
  disk.submit(false, 0, 1 << 20, [&] {
    s.schedule_after(sim::kMillisecond, [&] {
      disk.submit(false, 1 << 20, 1 << 20, [&] { read2_done = s.now(); });
    });
  });
  disk.submit(true, 300ll << 30, 1 << 20, [] {});
  s.run_all();
  const double xfer_ms = 1e3 * static_cast<double>(1 << 20) / p.media_rate_bps;
  // read1 (~7 ms) + 1 ms gap + read2 (~7 ms, sequential continue).
  EXPECT_NEAR(sim::to_millis(read2_done), 2 * xfer_ms + 1.0, 1.0);
}

TEST(DiskModel, CountersMonotoneNonDecreasing) {
  sim::Simulation s;
  DiskModel disk(s, DiskParams{}, 3);
  sim::Rng rng(5);
  std::int64_t prev_reads = 0, prev_sectors = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      disk.submit(rng.chance(0.5), rng.uniform_int(0, 1ll << 38), 4096, [] {});
    }
    s.run_all();
    const DiskCounters c = disk.counters();
    EXPECT_GE(c.reads_completed, prev_reads);
    EXPECT_GE(c.sectors_read, prev_sectors);
    prev_reads = c.reads_completed;
    prev_sectors = c.sectors_read;
  }
}

// Property sweep: every submitted request completes exactly once, for any
// mix of sizes and directions.
class DiskCompletionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiskCompletionTest, AllRequestsCompleteExactlyOnce) {
  sim::Simulation s;
  DiskModel disk(s, DiskParams{}, GetParam());
  sim::Rng rng(GetParam());
  int completions = 0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    disk.submit(rng.chance(0.4), rng.uniform_int(0, 1ll << 39),
                rng.uniform_int(512, 2 << 20), [&] { ++completions; });
  }
  s.run_all();
  EXPECT_EQ(completions, n);
  EXPECT_EQ(disk.read_queue_depth(), 0u);
  EXPECT_EQ(disk.write_queue_depth(), 0u);
  EXPECT_FALSE(disk.busy());
  const DiskCounters c = disk.counters();
  EXPECT_EQ(c.reads_completed + c.writes_completed, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskCompletionTest, ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace qif::pfs
