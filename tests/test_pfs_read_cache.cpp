// Tests for the opt-in server read cache and the flat extent map under it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "qif/pfs/extent_map.hpp"
#include "qif/pfs/ost.hpp"
#include "qif/pfs/read_cache.hpp"
#include "qif/sim/rng.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {
namespace {

// --- ExtentMap against a byte-level reference -----------------------------

/// Naive reference: for every byte of a small address range, the offset of
/// the extent covering it, or -1.  Obviously correct, O(range) per check.
class ByteOwners {
 public:
  explicit ByteOwners(std::int64_t range) : start_(static_cast<std::size_t>(range), -1) {}

  [[nodiscard]] std::int64_t range() const { return static_cast<std::int64_t>(start_.size()); }
  [[nodiscard]] std::int64_t at(std::int64_t b) const { return start_[idx(b)]; }

  /// Length of the free run starting at `b` (0 when `b` is covered).
  [[nodiscard]] std::int64_t free_run(std::int64_t b) const {
    std::int64_t n = 0;
    while (b + n < range() && at(b + n) == -1) ++n;
    return n;
  }

  void set(std::int64_t off, std::int64_t len) {
    for (std::int64_t b = off; b < range() && at(b) == off; ++b) start_[idx(b)] = -1;
    for (std::int64_t b = off; b < off + len; ++b) start_[idx(b)] = off;
  }

  std::int64_t erase_range(std::int64_t lo, std::int64_t hi) {
    // The extent covering `hi` (if it started inside or before the range)
    // keeps its tail, re-based at hi.
    if (hi < range() && at(hi) != -1 && at(hi) < hi) {
      const std::int64_t old = at(hi);
      for (std::int64_t b = hi; b < range() && at(b) == old; ++b) start_[idx(b)] = hi;
    }
    std::int64_t removed = 0;
    for (std::int64_t b = lo; b < hi; ++b) {
      if (at(b) != -1) ++removed;
      start_[idx(b)] = -1;
    }
    return removed;
  }

  /// The extents as (offset, length), in offset order.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>> extents() const {
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    for (std::int64_t b = 0; b < range(); ++b) {
      if (at(b) == -1) continue;
      if (out.empty() || out.back().first != at(b)) {
        out.emplace_back(at(b), 0);
      }
      ++out.back().second;
    }
    return out;
  }

 private:
  static std::size_t idx(std::int64_t b) { return static_cast<std::size_t>(b); }
  std::vector<std::int64_t> start_;
};

std::vector<std::pair<std::int64_t, std::int64_t>> contents(const ExtentMap& m) {
  return {m.begin(), m.end()};
}

TEST(ExtentMap, EraseRangeStrictlyInsideSplitsTheExtent) {
  ExtentMap m;
  m.set(100, 50);
  m.set(0, 10);
  m.set(200, 10);
  EXPECT_EQ(m.erase_range(110, 120), 10);
  using V = std::vector<std::pair<std::int64_t, std::int64_t>>;
  EXPECT_EQ(contents(m), (V{{0, 10}, {100, 10}, {120, 30}, {200, 10}}));
  // A range covering several extents trims both straddlers.
  EXPECT_EQ(m.erase_range(5, 125), 5 + 10 + 5);
  EXPECT_EQ(contents(m), (V{{0, 5}, {125, 25}, {200, 10}}));
  EXPECT_EQ(m.erase_range(150, 200), 0);
  EXPECT_EQ(m.find(125)->second, 25);
  EXPECT_EQ(m.find(126), m.end());
}

TEST(ExtentMap, RandomSequenceMatchesByteReference) {
  // Small extents with small gaps in a 24 KiB range: the map climbs past
  // 1000 live extents, so sets and erases shift long tails.
  constexpr std::int64_t kRange = 24 << 10;
  ExtentMap m;
  ByteOwners ref(kRange);
  sim::Rng rng(0xE47E);
  std::size_t peak = 0;
  for (int op = 0; op < 6000; ++op) {
    const double roll = rng.next_double();
    const std::int64_t at = rng.uniform_int(0, kRange - 1);
    if (roll < 0.70) {
      // set: a new extent in the free run at `at`, or a resize of the
      // extent starting there (never overlapping a neighbour).
      const std::int64_t owner = ref.at(at);
      if (owner == at) {
        const std::int64_t room =
            (m.find(at)->second) + ref.free_run(at + m.find(at)->second);
        const std::int64_t len = rng.uniform_int(1, std::min<std::int64_t>(room, 16));
        m.set(at, len);
        ref.set(at, len);
      } else if (owner == -1) {
        const std::int64_t room = ref.free_run(at);
        const std::int64_t len = rng.uniform_int(1, std::min<std::int64_t>(room, 16));
        m.set(at, len);
        ref.set(at, len);
      }
    } else if (roll < 0.90) {
      // erase_range: mostly short ranges (often strictly inside one
      // extent), sometimes long ones sweeping many extents.
      const std::int64_t len = rng.chance(0.9) ? rng.uniform_int(0, 12)
                                               : rng.uniform_int(0, 600);
      const std::int64_t hi = std::min(at + len, kRange);
      ASSERT_EQ(m.erase_range(at, hi), ref.erase_range(at, hi)) << "op " << op;
    } else {
      // Erase one whole extent through the iterator API.
      const auto it = m.lower_bound(at);
      if (it != m.end()) {
        const std::int64_t off = it->first;
        const std::int64_t len = it->second;
        m.erase(it);
        ref.erase_range(off, off + len);
      }
    }
    ASSERT_EQ(contents(m), ref.extents()) << "op " << op;
    // Point queries against the reference.
    const std::int64_t probe = rng.uniform_int(0, kRange - 1);
    const auto found = m.find(probe);
    ASSERT_EQ(found != m.end(), ref.at(probe) == probe) << "op " << op;
    const auto ub = m.upper_bound(probe);
    const bool covered = ub != m.begin() && std::prev(ub)->first + std::prev(ub)->second > probe;
    ASSERT_EQ(covered, ref.at(probe) != -1) << "op " << op;
    peak = std::max(peak, m.size());
  }
  EXPECT_GE(peak, 1000u);
}

TEST(ReadCache, RandomInsertLookupEvictMatchesByteReference) {
  // ReadCache over the flat map against a bitmap of cached bytes with the
  // same FIFO eviction: cached_bytes, every lookup, and therefore the
  // coalescing (a lookup spanning two adjacent inserts only hits when they
  // merged) must agree.  Short inserts with gaps keep > 1000 extents live.
  constexpr std::int64_t kRange = 32 << 10;
  constexpr std::int64_t kCapacity = 12 << 10;
  ReadCache cache(ReadCacheParams{kCapacity});
  std::vector<bool> bits(static_cast<std::size_t>(kRange), false);
  std::deque<std::pair<std::int64_t, std::int64_t>> fifo;
  std::int64_t cached = 0;
  auto bit = [&bits](std::int64_t b) { return bits[static_cast<std::size_t>(b)]; };
  auto clear = [&](std::int64_t off, std::int64_t len) {
    for (std::int64_t b = off; b < off + len; ++b) {
      if (bit(b)) --cached;
      bits[static_cast<std::size_t>(b)] = false;
    }
  };
  sim::Rng rng(0x4EADCAC7E);
  std::size_t peak_runs = 0;
  for (int op = 0; op < 8000; ++op) {
    const std::int64_t off = rng.uniform_int(0, kRange - 64);
    const std::int64_t len = rng.chance(0.95) ? rng.uniform_int(1, 9) : rng.uniform_int(10, 60);
    if (rng.chance(0.6)) {
      cache.insert(off, len);
      clear(off, len);
      for (std::int64_t b = off; b < off + len; ++b) bits[static_cast<std::size_t>(b)] = true;
      cached += len;
      fifo.emplace_back(off, len);
      while (cached > kCapacity && !fifo.empty()) {
        clear(fifo.front().first, fifo.front().second);
        fifo.pop_front();
      }
    } else {
      bool all = true;
      for (std::int64_t b = off; b < off + len; ++b) all = all && bit(b);
      ASSERT_EQ(cache.lookup(off, len), all) << "op " << op;
      if (all) fifo.emplace_back(off, len);
    }
    ASSERT_EQ(cache.cached_bytes(), cached) << "op " << op;
    if (op % 8 != 0) continue;
    std::size_t runs = 0;
    for (std::int64_t b = 0; b < kRange; ++b) runs += bit(b) && (b == 0 || !bit(b - 1));
    peak_runs = std::max(peak_runs, runs);
  }
  EXPECT_GE(peak_runs, 1000u);
}

TEST(ReadCache, DisabledByDefault) {
  ReadCache cache(ReadCacheParams{});
  EXPECT_FALSE(cache.enabled());
  cache.insert(0, 4096);
  EXPECT_FALSE(cache.lookup(0, 4096));
  EXPECT_EQ(cache.cached_bytes(), 0);
}

TEST(ReadCache, HitRequiresFullCoverage) {
  ReadCache cache(ReadCacheParams{1 << 20});
  cache.insert(1000, 5000);
  EXPECT_TRUE(cache.lookup(1000, 5000));
  EXPECT_TRUE(cache.lookup(2000, 1000));
  EXPECT_FALSE(cache.lookup(0, 1500));     // head not cached
  EXPECT_FALSE(cache.lookup(5000, 2000));  // tail exceeds extent
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(ReadCache, AdjacentInsertsCoalesce) {
  ReadCache cache(ReadCacheParams{1 << 20});
  cache.insert(0, 4096);
  cache.insert(4096, 4096);
  EXPECT_TRUE(cache.lookup(0, 8192));
  EXPECT_EQ(cache.cached_bytes(), 8192);
}

TEST(ReadCache, OverlappingInsertDoesNotDoubleCount) {
  ReadCache cache(ReadCacheParams{1 << 20});
  cache.insert(0, 8192);
  cache.insert(4096, 8192);  // overlaps the second half
  EXPECT_EQ(cache.cached_bytes(), 12288);
  EXPECT_TRUE(cache.lookup(0, 12288));
}

TEST(ReadCache, FifoEvictionRespectsBudget) {
  ReadCache cache(ReadCacheParams{10000});
  cache.insert(0, 6000);
  cache.insert(100000, 6000);  // pushes over budget: first extent evicted
  EXPECT_LE(cache.cached_bytes(), 10000);
  EXPECT_FALSE(cache.lookup(0, 6000));
  EXPECT_TRUE(cache.lookup(100000, 6000));
}

TEST(ReadCache, OstServesHitsAtMemorySpeed) {
  sim::Simulation s;
  DiskParams dp;
  dp.service_jitter = 0.0;
  WritebackParams wp;
  ReadCacheParams rc;
  rc.capacity_bytes = 64 << 20;
  Ost ost(s, 0, dp, wp, 1, rc);
  sim::SimTime hit_done = 0, miss_done = 0;
  ost.write(0, 1 << 20, nullptr);
  s.run_all();
  const sim::SimTime t0 = s.now();
  ost.read(0, 1 << 20, [&] { hit_done = s.now() - t0; });
  s.run_all();
  const sim::SimTime t1 = s.now();
  ost.read(500ll << 20, 1 << 20, [&] { miss_done = s.now() - t1; });
  s.run_all();
  EXPECT_LT(sim::to_millis(hit_done), 1.0);   // memcpy path
  EXPECT_GT(sim::to_millis(miss_done), 5.0);  // media path
  EXPECT_EQ(ost.read_cache().hits(), 1);
  EXPECT_EQ(ost.read_cache().misses(), 1);
}

TEST(ReadCache, OstDisabledCacheAlwaysHitsMedia) {
  sim::Simulation s;
  DiskParams dp;
  dp.service_jitter = 0.0;
  Ost ost(s, 0, dp, WritebackParams{}, 1);
  ost.write(0, 1 << 20, nullptr);
  s.run_all();
  const sim::SimTime t0 = s.now();
  sim::SimTime done = 0;
  ost.read(0, 1 << 20, [&] { done = s.now() - t0; });
  s.run_all();
  EXPECT_GT(sim::to_millis(done), 5.0);
}

}  // namespace
}  // namespace qif::pfs
