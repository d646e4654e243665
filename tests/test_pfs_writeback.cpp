// Tests for the write-back cache: absorption, dirty throttling, deficit
// round robin admission, and extent coalescing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "qif/pfs/disk.hpp"
#include "qif/pfs/writeback.hpp"
#include "qif/sim/rng.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {
namespace {

DiskParams fast_disk() {
  DiskParams p;
  p.service_jitter = 0.0;
  return p;
}

TEST(Writeback, SmallWriteAcksAtMemorySpeed) {
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 1);
  WritebackParams wp;
  WritebackCache cache(s, disk, wp);
  sim::SimTime acked = -1;
  cache.write(0, 1 << 20, [&] { acked = s.now(); });
  s.run_until(sim::kSecond);
  const double expected_s =
      sim::to_seconds(wp.ack_overhead) + static_cast<double>(1 << 20) / wp.memcpy_rate_bps;
  EXPECT_NEAR(sim::to_seconds(acked), expected_s, 1e-5);
  // Far faster than the disk path (~7 ms for 1 MiB + seek).
  EXPECT_LT(sim::to_millis(acked), 1.0);
}

TEST(Writeback, DataEventuallyReachesDisk) {
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 1);
  WritebackCache cache(s, disk, WritebackParams{});
  cache.write(0, 8 << 20, nullptr);
  s.run_all();
  EXPECT_EQ(cache.dirty_bytes(), 0);
  EXPECT_EQ(cache.total_flushed(), 8 << 20);
  EXPECT_EQ(disk.counters().sectors_written, (8 << 20) / 512);
}

TEST(Writeback, ThrottlesWhenDirtyLimitExceeded) {
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 1);
  WritebackParams wp;
  wp.dirty_limit_bytes = 4 << 20;
  wp.dirty_target_bytes = 2 << 20;
  WritebackCache cache(s, disk, wp);
  int acked = 0;
  for (int i = 0; i < 16; ++i) {
    cache.write(static_cast<std::int64_t>(i) << 20, 1 << 20, [&] { ++acked; });
  }
  // Immediately, only the writes under the limit are absorbed.
  s.run_until(5 * sim::kMillisecond);
  EXPECT_LT(acked, 16);
  EXPECT_TRUE(cache.throttled());
  s.run_all();
  EXPECT_EQ(acked, 16);
  EXPECT_FALSE(cache.throttled());
}

TEST(Writeback, DeficitRoundRobinFavorsSmallWriters) {
  // A small write queued behind a large backlog must be admitted after
  // roughly its *own* share of flush progress, not the whole backlog.
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 1);
  WritebackParams wp;
  wp.dirty_limit_bytes = 2 << 20;
  wp.dirty_target_bytes = 1 << 20;
  WritebackCache cache(s, disk, wp);
  // Saturate with big writers.
  for (int i = 0; i < 8; ++i) {
    cache.write(static_cast<std::int64_t>(i) * (4 << 20), 4 << 20, nullptr);
  }
  sim::SimTime small_acked = -1;
  sim::SimTime big_acked = -1;
  cache.write(100ll << 20, 4096, [&] { small_acked = s.now(); });
  cache.write(200ll << 20, 4 << 20, [&] { big_acked = s.now(); });
  s.run_all();
  ASSERT_GE(small_acked, 0);
  ASSERT_GE(big_acked, 0);
  EXPECT_LT(small_acked, big_acked);
}

TEST(Writeback, OversizedWriteCannotDeadlock) {
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 1);
  WritebackParams wp;
  wp.dirty_limit_bytes = 1 << 20;
  wp.dirty_target_bytes = 512 << 10;
  WritebackCache cache(s, disk, wp);
  bool acked = false;
  cache.write(0, 8 << 20, [&] { acked = true; });  // 8x the limit
  s.run_all();
  EXPECT_TRUE(acked);
}

TEST(Writeback, ContiguousWritesCoalesceIntoOneExtentFlush) {
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 1);
  WritebackParams wp;
  wp.flush_chunk_bytes = 16 << 20;  // big enough to flush in one go
  WritebackCache cache(s, disk, wp);
  for (int i = 0; i < 8; ++i) {
    cache.write(static_cast<std::int64_t>(i) << 20, 1 << 20, nullptr);
  }
  s.run_all();
  // All 8 MiB contiguous: few large flush writes rather than 8 scattered.
  EXPECT_LE(disk.counters().writes_completed, 3);
  EXPECT_EQ(cache.total_flushed(), 8 << 20);
}

TEST(Writeback, AbsorbedAndFlushedTotalsAgree) {
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 2);
  WritebackCache cache(s, disk, WritebackParams{});
  sim::Rng rng(4);
  std::int64_t total = 0;
  for (int i = 0; i < 50; ++i) {
    const std::int64_t len = rng.uniform_int(512, 1 << 20);
    total += len;
    cache.write(rng.uniform_int(0, 1ll << 32), len, nullptr);
  }
  s.run_all();
  EXPECT_EQ(cache.total_absorbed(), total);
  // Overlapping random extents may coalesce, so flushed <= absorbed but
  // everything dirty must drain.
  EXPECT_EQ(cache.dirty_bytes(), 0);
  EXPECT_GT(cache.total_flushed(), 0);
}

TEST(Writeback, ThrottledWritersCountGauge) {
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 1);
  WritebackParams wp;
  wp.dirty_limit_bytes = 1 << 20;
  wp.dirty_target_bytes = 512 << 10;
  WritebackCache cache(s, disk, wp);
  for (int i = 0; i < 5; ++i) {
    cache.write(static_cast<std::int64_t>(i) * (2 << 20), 2 << 20, nullptr);
  }
  EXPECT_GE(cache.throttled_writers(), 3u);
  s.run_all();
  EXPECT_EQ(cache.throttled_writers(), 0u);
}

TEST(Writeback, ForgetDropsDirtyRange) {
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 1);
  WritebackParams wp;
  wp.background_flush_delay = 10 * sim::kSecond;  // keep data dirty
  WritebackCache cache(s, disk, wp);
  cache.write(0, 8 << 20, nullptr);
  s.run_until(sim::kMillisecond * 50);
  EXPECT_EQ(cache.dirty_bytes(), 8 << 20);
  cache.forget(2 << 20, 4 << 20);  // carve the middle out
  EXPECT_EQ(cache.dirty_bytes(), 4 << 20);
  cache.forget(0, 16 << 20);  // everything else
  EXPECT_EQ(cache.dirty_bytes(), 0);
  cache.forget(0, 1 << 20);  // idempotent on clean ranges
  EXPECT_EQ(cache.dirty_bytes(), 0);
}

TEST(Writeback, ForgetSplitTailStillFlushes) {
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 1);
  WritebackParams wp;
  wp.background_flush_delay = 200 * sim::kMillisecond;
  WritebackCache cache(s, disk, wp);
  cache.write(0, 8 << 20, nullptr);
  cache.forget(0, 4 << 20);
  s.run_all();
  EXPECT_EQ(cache.dirty_bytes(), 0);
  // Only the surviving tail hit the media.
  EXPECT_EQ(disk.counters().sectors_written, (4 << 20) / 512);
}

TEST(Writeback, LazyFlushCoalescesLightWriters) {
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 1);
  WritebackParams wp;
  WritebackCache cache(s, disk, wp);
  // 8 contiguous small writes land well under the target: the flusher
  // waits out the expiry delay and issues few, large, merged writes.
  for (int i = 0; i < 8; ++i) {
    cache.write(static_cast<std::int64_t>(i) * 4096, 4096, nullptr);
  }
  s.run_all();
  EXPECT_EQ(cache.total_flushed(), 8 * 4096);
  const auto c = disk.counters();
  EXPECT_LE(c.writes_completed - c.write_merges, 2);
}

TEST(Writeback, RandomWriteForgetFlushMatchesByteReference) {
  // The dirty-extent map against a bitmap of dirty bytes.  Phase 1 holds
  // the flusher off (sim time frozen) and checks dirty_bytes() after every
  // write (coalescing overlapping and adjacent extents) and forget
  // (trimming, and splitting an extent when the range is strictly inside
  // it), with more than 1000 extents live.  Phase 2 interleaves flushing
  // in 512-byte chunks — which trims extents from the head — with more
  // writes and forgets, and checks conservation once everything drained:
  // every byte made dirty is either flushed or forgotten, exactly once.
  constexpr std::int64_t kRange = 48 << 10;
  sim::Simulation s;
  DiskModel disk(s, fast_disk(), 3);
  WritebackParams wp;
  wp.dirty_limit_bytes = 1ll << 40;   // never throttle
  wp.dirty_target_bytes = 1ll << 40;  // always the lazy flusher
  wp.flush_chunk_bytes = 512;
  wp.background_flush_delay = sim::kSecond;
  WritebackCache cache(s, disk, wp);
  std::vector<bool> dirty(static_cast<std::size_t>(kRange), false);
  std::int64_t dirty_count = 0;
  sim::Rng rng(0xD1271);
  std::size_t peak_runs = 0;
  std::int64_t made_dirty = 0;  // sum of dirty_bytes() increases on write
  std::int64_t forgotten = 0;   // sum of dirty_bytes() decreases on forget
  for (int op = 0; op < 6000; ++op) {
    const std::int64_t off = rng.uniform_int(0, kRange - 64);
    const std::int64_t len = rng.chance(0.95) ? rng.uniform_int(1, 9) : rng.uniform_int(10, 60);
    const std::int64_t before = cache.dirty_bytes();
    if (rng.chance(0.7)) {
      cache.write(off, len, nullptr);
      for (std::int64_t b = off; b < off + len; ++b) {
        dirty_count += dirty[static_cast<std::size_t>(b)] ? 0 : 1;
        dirty[static_cast<std::size_t>(b)] = true;
      }
      made_dirty += cache.dirty_bytes() - before;
    } else {
      cache.forget(off, len);
      for (std::int64_t b = off; b < off + len; ++b) {
        dirty_count -= dirty[static_cast<std::size_t>(b)] ? 1 : 0;
        dirty[static_cast<std::size_t>(b)] = false;
      }
      forgotten += before - cache.dirty_bytes();
    }
    ASSERT_EQ(cache.dirty_bytes(), dirty_count) << "op " << op;
    if (op % 8 != 0) continue;
    std::size_t runs = 0;
    for (std::int64_t b = 0; b < kRange; ++b) {
      runs += dirty[static_cast<std::size_t>(b)] && (b == 0 || !dirty[static_cast<std::size_t>(b - 1)]);
    }
    peak_runs = std::max(peak_runs, runs);
  }
  EXPECT_GE(peak_runs, 1000u);
  ASSERT_EQ(s.now(), 0);  // the flusher never ran in phase 1

  // Phase 2: flushing in flight while the map keeps changing.
  for (int round = 0; round < 40; ++round) {
    s.run_until(s.now() + sim::kSecond + rng.uniform_int(0, 30) * sim::kMillisecond);
    for (int k = 0; k < 40; ++k) {
      const std::int64_t off = rng.uniform_int(0, kRange - 2048);
      const std::int64_t len = rng.uniform_int(1, 2048);
      const std::int64_t before = cache.dirty_bytes();
      if (rng.chance(0.5)) {
        cache.write(off, len, nullptr);
        made_dirty += cache.dirty_bytes() - before;
      } else {
        cache.forget(off, len);
        forgotten += before - cache.dirty_bytes();
      }
    }
  }
  s.run_all();
  EXPECT_EQ(cache.dirty_bytes(), 0);
  EXPECT_EQ(cache.total_flushed(), made_dirty - forgotten);
  EXPECT_GT(cache.total_flushed(), 0);
}

// Property: under any load mix, every ack fires and dirty drains to zero.
class WritebackDrainTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WritebackDrainTest, AllWritesAckAndDrain) {
  sim::Simulation s;
  DiskModel disk(s, DiskParams{}, GetParam());
  WritebackParams wp;
  wp.dirty_limit_bytes = 4 << 20;
  wp.dirty_target_bytes = 2 << 20;
  WritebackCache cache(s, disk, wp);
  sim::Rng rng(GetParam() * 13);
  int acked = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    cache.write(rng.uniform_int(0, 1ll << 34), rng.uniform_int(512, 3 << 20),
                [&] { ++acked; });
  }
  s.run_all();
  EXPECT_EQ(acked, n);
  EXPECT_EQ(cache.dirty_bytes(), 0);
  EXPECT_EQ(cache.throttled_writers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WritebackDrainTest, ::testing::Values(1u, 7u, 21u, 99u));

}  // namespace
}  // namespace qif::pfs
