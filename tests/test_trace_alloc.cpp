// Heap-allocation accounting for the trace path.
//
// The in-memory trace is the largest structure of a big run, so its hot
// operations are pinned by allocation count: recording a typical data op
// into a warmed log allocates nothing (inline targets, no replay box, fixed
// blocks), a metadata op allocates only its replay box, handing a
// scenario's trace out of the cluster allocates the same however long the
// trace is, and matching allocates a fixed number of buffers, not one per
// record.  This binary replaces global operator new/delete with
// counting versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "qif/core/scenario.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/trace/matcher.hpp"
#include "qif/trace/op_record.hpp"

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

namespace qif::trace {
namespace {

/// A data op touching `n_targets` OSTs, with an empty path.
OpRecord data_op(std::int32_t job, std::int64_t index, std::size_t n_targets) {
  OpRecord r;
  r.job = job;
  r.op_index = index;
  r.type = pfs::OpType::kWrite;
  r.bytes = 1 << 20;
  r.start = index * 10;
  r.end = r.start + 5;
  for (std::size_t t = 0; t < n_targets; ++t) r.targets.push_back(static_cast<std::int32_t>(t));
  return r;
}

TEST(TraceAllocations, RecordingADataOpIntoAWarmedLogIsAllocationFree) {
  TraceLog log;
  log.record(data_op(0, 0, 1));  // allocates the first block
  const AllocWindow w;
  for (std::int64_t i = 1; i < static_cast<std::int64_t>(TraceLog::kFirstBlockRecords); ++i) {
    log.record(data_op(0, i, 1 + static_cast<std::size_t>(i) % TargetList::kInline));
  }
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(log.size(), TraceLog::kFirstBlockRecords);
}

TEST(TraceAllocations, ADataOpRecordOwnsNoHeapMemory) {
  const AllocWindow w;
  const OpRecord r = data_op(0, 0, TargetList::kInline);
  EXPECT_TRUE(r.replay.empty());
  EXPECT_EQ(r.targets.capacity(), TargetList::kInline);
  EXPECT_EQ(w.count(), 0u);
}

TEST(TraceAllocations, RecordingAMetadataOpAllocatesAtMostOnce) {
  TraceLog log;
  log.record(data_op(0, 0, 1));  // allocates the first block
  const std::string short_path = "/d/f";
  const std::string long_path(200, 'p');
  for (const std::string* path : {&short_path, &long_path}) {
    const AllocWindow w;
    OpRecord r;
    r.type = pfs::OpType::kCreate;
    r.targets = {kMdtTarget};
    r.replay = ReplayColumns(*path, /*stripes=*/4, /*stripe_hint=*/2);
    log.record(std::move(r));
    EXPECT_EQ(w.count(), 1u) << path->size();  // the replay box, path included
  }
  EXPECT_EQ(log.records().back().replay.path(), long_path);
  EXPECT_EQ(log.records().back().replay.stripes(), 4);
}

TEST(TraceAllocations, TargetsSpillToTheHeapOnlyBeyondInlineCapacity) {
  {
    const AllocWindow w;
    const OpRecord r = data_op(0, 0, TargetList::kInline);
    const OpRecord copy = r;
    EXPECT_EQ(copy.targets.size(), TargetList::kInline);
    EXPECT_EQ(w.count(), 0u);
  }
  const AllocWindow w;
  const OpRecord r = data_op(0, 0, TargetList::kInline + 1);
  EXPECT_EQ(w.count(), 1u);
}

TEST(TraceAllocations, AppendingAllocatesOneBlockPerBlockNotPerRecord) {
  constexpr std::size_t n = 100'000;
  std::uint64_t blocks = 0;
  for (std::size_t held = 0, cap = TraceLog::kFirstBlockRecords; held < n;
       held += cap, cap = std::min(2 * cap, TraceLog::kMaxBlockRecords)) {
    ++blocks;
  }
  TraceLog log;
  const AllocWindow w;
  for (std::size_t i = 0; i < n; ++i) log.record(data_op(0, static_cast<std::int64_t>(i), 1));
  // One allocation per block, plus the block table's own doubling.
  EXPECT_GE(w.count(), blocks);
  EXPECT_LE(w.count(), blocks + std::bit_width(blocks) + 1);
}

std::uint64_t take_trace_allocs(std::size_t n) {
  sim::Simulation s;
  pfs::Cluster cluster(s, core::testbed_cluster_config(1));
  for (std::size_t i = 0; i < n; ++i) {
    cluster.record_client_op(0, data_op(0, static_cast<std::int64_t>(i), 1));
  }
  const AllocWindow w;
  const TraceLog taken = cluster.take_trace();
  const std::uint64_t allocs = w.count();
  EXPECT_EQ(taken.size(), n);
  return allocs;
}

TEST(TraceAllocations, TakeTraceIsConstantInRecordCount) {
  const std::uint64_t small = take_trace_allocs(10);
  const std::uint64_t large = take_trace_allocs(50'000);
  EXPECT_EQ(small, large);
  // Classic mode moves the log out whole; the one allocation trims the
  // partly filled last block to fit.
  EXPECT_EQ(large, 1u);
}

std::uint64_t match_allocs(std::int64_t n, std::size_t* matched) {
  TraceLog base, noisy;
  for (std::int64_t i = 0; i < n; ++i) {
    base.record(data_op(0, i, 2));
    noisy.record(data_op(0, i, 2));
    noisy.record(data_op(1, i, 1));  // a noise job's op, filtered out
  }
  const AllocWindow w;
  const auto out = TraceMatcher::match(base, noisy, /*job=*/0);
  const std::uint64_t allocs = w.count();
  *matched = out.size();
  return allocs;
}

TEST(TraceAllocations, MatchAllocatesNoBufferPerRecord) {
  std::size_t small_matched = 0;
  std::size_t large_matched = 0;
  const std::uint64_t small = match_allocs(10, &small_matched);
  const std::uint64_t large = match_allocs(20'000, &large_matched);
  EXPECT_EQ(small_matched, 10u);
  EXPECT_EQ(large_matched, 20'000u);
  EXPECT_EQ(small, large);
  // Two sorted pointer vectors, the per-rank offset table each sort builds
  // (sized by the rank span, not the record count), plus the output vector.
  EXPECT_EQ(large, 5u);
}

}  // namespace
}  // namespace qif::trace
