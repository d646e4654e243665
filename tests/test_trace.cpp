// Tests for the trace pipeline: records, logs, baseline/interference
// matching, and degradation labelling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <random>
#include <stdexcept>
#include <vector>

#include "qif/core/scenario.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/trace/labeler.hpp"
#include "qif/trace/matcher.hpp"
#include "qif/trace/op_record.hpp"

namespace qif::trace {
namespace {

OpRecord make_op(std::int32_t job, pfs::Rank rank, std::int64_t index, sim::SimTime start,
                 sim::SimDuration dur, pfs::OpType type = pfs::OpType::kRead,
                 std::int64_t bytes = 4096) {
  OpRecord r;
  r.job = job;
  r.rank = rank;
  r.op_index = index;
  r.type = type;
  r.bytes = bytes;
  r.start = start;
  r.end = start + dur;
  return r;
}

TEST(TraceLog, RecordsAndObserver) {
  TraceLog log;
  int observed = 0;
  log.set_observer([&](const OpRecord&) { ++observed; });
  log.record(make_op(0, 0, 0, 0, 10));
  log.record(make_op(0, 0, 1, 10, 10));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(observed, 2);
}

TEST(TraceLog, CopiesAndMovesCarryNoObserver) {
  TraceLog log;
  int observed = 0;
  log.set_observer([&](const OpRecord&) { ++observed; });
  log.record(make_op(0, 0, 0, 0, 10));
  TraceLog copy = log;
  TraceLog moved = std::move(log);
  copy.record(make_op(0, 0, 1, 10, 10));
  moved.record(make_op(0, 0, 1, 10, 10));
  EXPECT_EQ(observed, 1);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_TRUE(log.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  // The moved-from log keeps its own observer.
  log.record(make_op(0, 0, 2, 20, 10));
  EXPECT_EQ(observed, 2);
}

// A scenario's client monitor observes the cluster's log and dies with the
// run; the trace handed out must not call back into it.
TEST(TraceLog, ScenarioTraceCarriesNoObserver) {
  core::ScenarioConfig cfg;
  cfg.cluster = core::testbed_cluster_config(7);
  cfg.target.workload = "ior-easy-write";
  cfg.target.nodes = {0};
  cfg.target.procs_per_node = 1;
  cfg.target.scale = 0.05;
  cfg.monitors = true;
  core::ScenarioResult result = core::run_scenario(cfg);
  ASSERT_FALSE(result.trace.empty());
  const std::size_t n = result.trace.size();
  result.trace.record(make_op(0, 0, 1 << 20, 0, 10));
  TraceLog moved = std::move(result.trace);
  moved.record(make_op(0, 0, (1 << 20) + 1, 10, 10));
  EXPECT_EQ(moved.size(), n + 2);
}

// Fills a log with n records whose op_index is their insertion position.
void fill(TraceLog& log, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    log.record(make_op(0, 0, static_cast<std::int64_t>(i), 0, 1));
  }
}

void expect_positions(const TraceLog& log, std::size_t n) {
  const auto recs = log.records();
  ASSERT_EQ(recs.size(), n);
  ASSERT_EQ(log.size(), n);
  EXPECT_EQ(recs.empty(), n == 0);
  std::size_t i = 0;
  for (const OpRecord& r : recs) {
    ASSERT_EQ(r.op_index, static_cast<std::int64_t>(i)) << "iteration, n=" << n;
    ++i;
  }
  EXPECT_EQ(i, n);
  for (i = 0; i < n; ++i) {
    ASSERT_EQ(recs[i].op_index, static_cast<std::int64_t>(i)) << "indexing, n=" << n;
  }
  if (n > 0) {
    EXPECT_EQ(recs.front().op_index, 0);
    EXPECT_EQ(recs.back().op_index, static_cast<std::int64_t>(n - 1));
  }
}

class TraceLogBlocks : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TraceLogBlocks, IndexingBackAndIterationFollowInsertionOrder) {
  const std::size_t n = GetParam();
  TraceLog log;
  fill(log, n);
  expect_positions(log, n);
  // Appending never moves a record already in the log.
  if (n > 0) {
    const OpRecord* first = &log.records()[0];
    const OpRecord* last = &log.records().back();
    fill(log, TraceLog::kMaxBlockRecords + 1);
    EXPECT_EQ(first, &log.records()[0]);
    EXPECT_EQ(last, &log.records()[n - 1]);
  }
  const TraceLog copy = log;
  EXPECT_EQ(trace_fingerprint(copy), trace_fingerprint(log));
}

TEST_P(TraceLogBlocks, ShrinkToFitKeepsRecordsAndAppendsRegrow) {
  const std::size_t n = GetParam();
  TraceLog log;
  fill(log, n);
  log.shrink_to_fit();
  expect_positions(log, n);
  // Appending after the trim refills the last block and keeps the layout.
  log.record(make_op(0, 0, static_cast<std::int64_t>(n), 0, 1));
  expect_positions(log, n + 1);
}

TEST_P(TraceLogBlocks, TakeTraceMovesTheWholeLogOut) {
  const std::size_t n = GetParam();
  sim::Simulation s;
  pfs::Cluster cluster(s, core::testbed_cluster_config(1));
  for (std::size_t i = 0; i < n; ++i) {
    cluster.record_client_op(0, make_op(0, 0, static_cast<std::int64_t>(i), 0, 1));
  }
  const TraceLog taken = cluster.take_trace();
  EXPECT_TRUE(cluster.trace_log().empty());
  EXPECT_EQ(cluster.trace_log().records().begin(), cluster.trace_log().records().end());
  expect_positions(taken, n);
  // The cluster's log is usable again after the hand-out.
  cluster.record_client_op(0, make_op(0, 0, 0, 0, 1));
  EXPECT_EQ(cluster.trace_log().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TraceLogBlocks,
    ::testing::Values(std::size_t{0}, std::size_t{1}, TraceLog::kFirstBlockRecords,
                      TraceLog::kFirstBlockRecords + 1, TraceLog::kGrowingRecords,
                      TraceLog::kGrowingRecords + 1, TraceLog::kMaxBlockRecords - 1,
                      TraceLog::kMaxBlockRecords, TraceLog::kMaxBlockRecords + 1,
                      TraceLog::kGrowingRecords + TraceLog::kMaxBlockRecords,
                      TraceLog::kGrowingRecords + TraceLog::kMaxBlockRecords + 1));

TEST(TraceLog, GatherMovesRecordsInTheGivenOrder) {
  std::vector<TraceLog> logs(2);
  logs[0].record(make_op(0, 0, 0, 0, 1));
  logs[0].record(make_op(0, 0, 2, 0, 1));
  logs[1].record(make_op(0, 0, 1, 0, 1));
  const std::vector<TraceLog::RecordRef> order = {{0, 0}, {1, 0}, {0, 1}};
  const TraceLog merged = TraceLog::gather(logs, order);
  expect_positions(merged, 3);
  EXPECT_TRUE(logs[0].empty());
  EXPECT_TRUE(logs[1].empty());
}

TEST(TargetList, InlineUpToCapacityThenSpills) {
  TargetList t;
  EXPECT_TRUE(t.empty());
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(TargetList::kInline); ++i) {
    t.push_back(i);
  }
  EXPECT_EQ(t.capacity(), TargetList::kInline);
  t.push_back(99);
  EXPECT_GT(t.capacity(), TargetList::kInline);
  ASSERT_EQ(t.size(), TargetList::kInline + 1);
  for (std::size_t i = 0; i < TargetList::kInline; ++i) {
    EXPECT_EQ(t[i], static_cast<std::int32_t>(i));
  }
  EXPECT_EQ(t.back(), 99);

  // Copies and moves keep order and equality, inline or spilled.
  const TargetList copy = t;
  EXPECT_EQ(copy, t);
  TargetList moved = std::move(t);
  EXPECT_EQ(moved, copy);
  EXPECT_TRUE(t.empty());  // NOLINT(bugprone-use-after-move)
  const TargetList small = {3, kMdtTarget};
  TargetList assigned = copy;
  assigned = small;
  EXPECT_EQ(assigned, small);
  EXPECT_EQ(assigned.capacity(), copy.capacity());  // keeps its buffer
  assigned = TargetList{};
  EXPECT_TRUE(assigned.empty());
  EXPECT_FALSE(small == copy);
  std::vector<std::int32_t> seen(small.begin(), small.end());
  EXPECT_EQ(seen, (std::vector<std::int32_t>{3, kMdtTarget}));
}

TEST(TargetList, RoundTripsEdgeIdsInlineAndSpilled) {
  constexpr std::int32_t kLargest = std::numeric_limits<std::int16_t>::max();
  for (const std::size_t n : {std::size_t{1}, TargetList::kInline - 1, TargetList::kInline,
                              TargetList::kInline + 1, 5 * TargetList::kInline + 3}) {
    std::vector<std::int32_t> ids = {kMdtTarget, kLargest};
    for (std::int32_t i = 0; ids.size() < n; ++i) ids.push_back(kLargest - 1 - i);
    ids.resize(n);
    TargetList t;
    for (const std::int32_t id : ids) t.push_back(id);
    EXPECT_EQ(t.capacity() == TargetList::kInline, n <= TargetList::kInline) << n;
    const auto expect_ids = [&](const TargetList& got) {
      EXPECT_EQ(std::vector<std::int32_t>(got.begin(), got.end()), ids) << n;
    };
    expect_ids(t);
    const TargetList copy = t;
    expect_ids(copy);
    TargetList assigned = {1, 2, 3, 4, 5, 6, 7, 8};
    assigned = copy;
    expect_ids(assigned);
    TargetList moved = std::move(t);
    expect_ids(moved);
    EXPECT_TRUE(t.empty());  // NOLINT(bugprone-use-after-move)
    TargetList move_assigned = {9};
    move_assigned = std::move(moved);
    expect_ids(move_assigned);
    expect_ids(copy);  // the copy shares nothing with the original
  }
}

TEST(TargetList, PushBeyondMaxSizeThrows) {
  TargetList t;
  for (std::size_t i = 0; i < TargetList::kMaxSize; ++i) {
    t.push_back(static_cast<std::int32_t>(i % 30000));
  }
  EXPECT_EQ(t.size(), TargetList::kMaxSize);
  EXPECT_THROW(t.push_back(0), std::length_error);
  EXPECT_EQ(t.size(), TargetList::kMaxSize);
  EXPECT_EQ(t.back(), static_cast<std::int16_t>((TargetList::kMaxSize - 1) % 30000));
}

// A faulted op's outcome fields travel with its record through copies,
// moves and gather like every other field.
TEST(TraceLog, FaultOutcomeSurvivesCopyAndGather) {
  OpRecord rec = make_op(0, 2, 7, 100, 50, pfs::OpType::kWrite, 1 << 20);
  rec.retries = 3;
  rec.timeouts = 4;
  rec.failed = true;
  rec.targets = {5, 1};
  const auto expect_fault = [](const OpRecord& r) {
    EXPECT_EQ(r.retries, 3);
    EXPECT_EQ(r.timeouts, 4);
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.targets, (TargetList{5, 1}));
    EXPECT_EQ(r.op_index, 7);
  };
  TraceLog log;
  log.record(make_op(0, 0, 0, 0, 1));
  log.record(rec);
  const TraceLog copy = log;  // NOLINT(performance-unnecessary-copy-initialization)
  expect_fault(copy.records()[1]);
  std::vector<TraceLog> logs;
  logs.push_back(copy);
  logs.push_back(std::move(log));
  const std::vector<TraceLog::RecordRef> order = {{1, 1}, {0, 0}};
  const TraceLog gathered = TraceLog::gather(logs, order);
  ASSERT_EQ(gathered.size(), 2u);
  expect_fault(gathered.records()[0]);
  EXPECT_EQ(gathered.records()[1].retries, 0);
}

// The replay columns are owned per record: copies are deep, moves and
// gather carry them along.
TEST(TraceLog, ReplayColumnsTravelWithTheirRecord) {
  OpRecord create = make_op(0, 0, 0, 0, 1, pfs::OpType::kCreate, 0);
  create.replay = ReplayColumns("/job0/a-path-longer-than-any-small-string-buffer", 2, 5);
  OpRecord open_op = make_op(0, 0, 1, 1, 1, pfs::OpType::kOpen, 0);
  open_op.replay = ReplayColumns("/x");
  TraceLog log;
  log.record(create);
  log.record(open_op);
  log.record(make_op(0, 0, 2, 2, 1));
  std::vector<TraceLog> logs;
  logs.push_back(log);  // deep copy
  log.clear();
  const std::vector<TraceLog::RecordRef> order = {{0, 2}, {0, 1}, {0, 0}};
  const TraceLog gathered = TraceLog::gather(logs, order);
  ASSERT_EQ(gathered.size(), 3u);
  EXPECT_TRUE(gathered.records()[0].replay.empty());
  EXPECT_EQ(gathered.records()[1].replay.path(), "/x");
  EXPECT_EQ(gathered.records()[1].replay.stripes(), 0);
  EXPECT_EQ(gathered.records()[1].replay.stripe_hint(), -1);
  EXPECT_EQ(gathered.records()[2].replay.path(), create.replay.path());
  EXPECT_EQ(gathered.records()[2].replay.stripes(), 2);
  EXPECT_EQ(gathered.records()[2].replay.stripe_hint(), 5);
  // Default columns need no box; a stripe request without a path does.
  EXPECT_TRUE(ReplayColumns("", 0, -1).empty());
  const ReplayColumns hint_only("", 0, 3);
  EXPECT_FALSE(hint_only.empty());
  EXPECT_EQ(hint_only.path(), "");
  EXPECT_EQ(hint_only.stripe_hint(), 3);
}

/// sorted_for_job's order as a comparison sort over log order defines it.
std::vector<const OpRecord*> reference_sort(const TraceLog& log, std::int32_t job) {
  std::vector<const OpRecord*> out;
  for (const OpRecord& r : log.records()) {
    if (r.job == job) out.push_back(&r);
  }
  std::sort(out.begin(), out.end(), [](const OpRecord* a, const OpRecord* b) {
    if (a->rank != b->rank) return a->rank < b->rank;
    return a->op_index < b->op_index;
  });
  return out;
}

TEST(TraceLog, SortedForJobEqualsTheComparisonSort) {
  // Per-rank op_index order (what a simulated log holds), then the same
  // records shuffled, with duplicate keys, and with a sparse rank span.
  std::vector<OpRecord> ops;
  for (std::int64_t i = 0; i < 40; ++i) {
    for (pfs::Rank rank : {3, -1, 0, 7}) ops.push_back(make_op(0, rank, i, i, 1));
    ops.push_back(make_op(1, 0, i, i, 1));
  }
  const auto check = [](const std::vector<OpRecord>& records, const char* what) {
    TraceLog log;
    for (const OpRecord& r : records) log.record(r);
    for (const std::int32_t job : {0, 1, 2}) {
      EXPECT_EQ(log.sorted_for_job(job), reference_sort(log, job)) << what << " job " << job;
    }
  };
  check(ops, "ordered");
  std::mt19937 rng(12345);
  std::vector<OpRecord> shuffled = ops;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  check(shuffled, "shuffled");
  std::vector<OpRecord> duplicated = ops;
  duplicated.push_back(make_op(0, 3, 5, 999, 1));
  check(duplicated, "duplicate key");
  std::vector<OpRecord> sparse = {make_op(0, 1 << 30, 0, 0, 1), make_op(0, -(1 << 30), 0, 0, 1),
                                  make_op(0, 0, 1, 0, 1), make_op(0, 0, 0, 0, 1)};
  check(sparse, "sparse ranks");
}

TEST(TraceLog, SortedForJobEqualsTheComparisonSortOnAScenarioLog) {
  core::ScenarioConfig cfg;
  cfg.cluster = core::testbed_cluster_config(7);
  cfg.target.workload = "ior-easy-write";
  cfg.target.nodes = {0, 1};
  cfg.target.procs_per_node = 2;
  cfg.target.scale = 0.05;
  core::InterferenceSpec noise;
  noise.workload = "mdt-easy-write";
  noise.nodes = {2, 3};
  noise.instances = 2;
  noise.scale = 0.05;
  cfg.interference = noise;
  cfg.monitors = false;
  const core::ScenarioResult result = core::run_scenario(cfg);
  for (const std::int32_t job : {0, 1, 2}) {
    const auto sorted = result.trace.sorted_for_job(job);
    EXPECT_FALSE(sorted.empty()) << job;
    EXPECT_EQ(sorted, reference_sort(result.trace, job)) << job;
  }
}

TEST(TraceLog, SortedForJobFiltersAndOrders) {
  TraceLog log;
  log.record(make_op(1, 0, 5, 0, 1));
  log.record(make_op(0, 1, 0, 0, 1));
  log.record(make_op(0, 0, 1, 0, 1));
  log.record(make_op(0, 0, 0, 0, 1));
  const auto sorted = log.sorted_for_job(0);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0]->rank, 0);
  EXPECT_EQ(sorted[0]->op_index, 0);
  EXPECT_EQ(sorted[1]->op_index, 1);
  EXPECT_EQ(sorted[2]->rank, 1);
}

TEST(TraceMatcher, PairsByRankAndIndex) {
  TraceLog base, noisy;
  for (int i = 0; i < 5; ++i) {
    base.record(make_op(0, 0, i, i * 100, 10));
    noisy.record(make_op(0, 0, i, i * 300, 30));
  }
  MatchStats stats;
  const auto matched = TraceMatcher::match(base, noisy, 0, &stats);
  ASSERT_EQ(matched.size(), 5u);
  EXPECT_EQ(stats.matched, 5u);
  EXPECT_EQ(stats.unmatched_base, 0u);
  for (const auto& m : matched) {
    EXPECT_EQ(m.base.op_index, m.interference.op_index);
    EXPECT_EQ(m.interference.duration(), 3 * m.base.duration());
  }
}

TEST(TraceMatcher, TruncatedInterferenceRunCountsUnmatched) {
  TraceLog base, noisy;
  for (int i = 0; i < 10; ++i) base.record(make_op(0, 0, i, i * 100, 10));
  for (int i = 0; i < 4; ++i) noisy.record(make_op(0, 0, i, i * 100, 10));
  MatchStats stats;
  const auto matched = TraceMatcher::match(base, noisy, 0, &stats);
  EXPECT_EQ(matched.size(), 4u);
  EXPECT_EQ(stats.unmatched_base, 6u);
  EXPECT_EQ(stats.unmatched_interf, 0u);
}

TEST(TraceMatcher, TypeMismatchRejected) {
  TraceLog base, noisy;
  base.record(make_op(0, 0, 0, 0, 10, pfs::OpType::kRead));
  noisy.record(make_op(0, 0, 0, 0, 10, pfs::OpType::kWrite));
  MatchStats stats;
  const auto matched = TraceMatcher::match(base, noisy, 0, &stats);
  EXPECT_TRUE(matched.empty());
  EXPECT_EQ(stats.mismatched, 1u);
}

TEST(TraceMatcher, IgnoresOtherJobs) {
  TraceLog base, noisy;
  base.record(make_op(0, 0, 0, 0, 10));
  noisy.record(make_op(0, 0, 0, 0, 10));
  noisy.record(make_op(7, 0, 0, 0, 10));  // interference job's own ops
  EXPECT_EQ(TraceMatcher::match(base, noisy, 0).size(), 1u);
}

TEST(TraceMatcher, MultiRankMergePath) {
  TraceLog base, noisy;
  for (pfs::Rank r = 0; r < 4; ++r) {
    for (int i = 0; i < 3; ++i) {
      base.record(make_op(0, r, i, i, 5));
      if (!(r == 2 && i == 1)) noisy.record(make_op(0, r, i, i, 7));
    }
  }
  MatchStats stats;
  const auto matched = TraceMatcher::match(base, noisy, 0, &stats);
  EXPECT_EQ(matched.size(), 11u);
  EXPECT_EQ(stats.unmatched_base, 1u);
}

TEST(Labeler, ComputesAverageRatioPerWindow) {
  LabelerConfig cfg;
  cfg.window = 100;
  Labeler labeler(cfg);
  std::vector<MatchedOp> matched;
  // Window 0: ratios 2 and 4 -> level 3.0.
  matched.push_back({make_op(0, 0, 0, 0, 10), make_op(0, 0, 0, 10, 20)});
  matched.push_back({make_op(0, 0, 1, 20, 10), make_op(0, 0, 1, 50, 40)});
  // Window 2: ratio 1.
  matched.push_back({make_op(0, 0, 2, 40, 10), make_op(0, 0, 2, 250, 10)});
  const auto labels = labeler.label(matched);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].window_index, 0);
  EXPECT_DOUBLE_EQ(labels[0].degradation, 3.0);
  EXPECT_EQ(labels[0].label, 1);  // >= 2x
  EXPECT_EQ(labels[0].n_ops, 2u);
  EXPECT_EQ(labels[1].window_index, 2);
  EXPECT_DOUBLE_EQ(labels[1].degradation, 1.0);
  EXPECT_EQ(labels[1].label, 0);
}

TEST(Labeler, WindowAssignmentUsesInterferenceStartTime) {
  LabelerConfig cfg;
  cfg.window = 100;
  Labeler labeler(cfg);
  // Base op at t=0 but the interference run executed it at t=550.
  std::vector<MatchedOp> matched = {
      {make_op(0, 0, 0, 0, 10), make_op(0, 0, 0, 550, 10)}};
  const auto labels = labeler.label(matched);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].window_index, 5);
}

TEST(Labeler, MinOpsFilterDropsSparseWindows) {
  LabelerConfig cfg;
  cfg.window = 100;
  cfg.min_ops_per_window = 2;
  Labeler labeler(cfg);
  std::vector<MatchedOp> matched = {
      {make_op(0, 0, 0, 0, 10), make_op(0, 0, 0, 0, 10)},
      {make_op(0, 0, 1, 10, 10), make_op(0, 0, 1, 10, 10)},
      {make_op(0, 0, 2, 20, 10), make_op(0, 0, 2, 150, 10)},  // lone op
  };
  const auto labels = labeler.label(matched);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].window_index, 0);
}

TEST(Labeler, ZeroBaselineDurationClamped) {
  Labeler labeler(LabelerConfig{});
  std::vector<MatchedOp> matched = {
      {make_op(0, 0, 0, 0, 0), make_op(0, 0, 0, 0, 100)}};
  const auto labels = labeler.label(matched);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_DOUBLE_EQ(labels[0].degradation, 100.0);  // clamp base to 1 tick
}

struct BinCase {
  std::vector<double> thresholds;
  double degradation;
  int expected;
};

// Spells the case out so the test names are stable across runs; gtest's
// default byte dump of the struct would embed the vector's heap addresses.
void PrintTo(const BinCase& c, std::ostream* os) {
  *os << "thresholds {";
  for (std::size_t i = 0; i < c.thresholds.size(); ++i) {
    *os << (i == 0 ? "" : ", ") << c.thresholds[i];
  }
  *os << "}, degradation " << c.degradation << " -> bin " << c.expected;
}

class LabelerBinTest : public ::testing::TestWithParam<BinCase> {};

TEST_P(LabelerBinTest, BinOfMatchesThresholds) {
  const auto& [thresholds, degradation, expected] = GetParam();
  LabelerConfig cfg;
  cfg.bin_thresholds = thresholds;
  Labeler labeler(cfg);
  EXPECT_EQ(labeler.bin_of(degradation), expected);
  EXPECT_EQ(labeler.num_classes(), static_cast<int>(thresholds.size()) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Bins, LabelerBinTest,
    ::testing::Values(BinCase{{2.0}, 1.0, 0}, BinCase{{2.0}, 1.99, 0},
                      BinCase{{2.0}, 2.0, 1}, BinCase{{2.0}, 50.0, 1},
                      BinCase{{2.0, 5.0}, 1.2, 0}, BinCase{{2.0, 5.0}, 3.0, 1},
                      BinCase{{2.0, 5.0}, 5.0, 2}, BinCase{{2.0, 5.0}, 41.0, 2},
                      BinCase{{1.5, 3.0, 10.0}, 9.99, 2},
                      BinCase{{1.5, 3.0, 10.0}, 10.0, 3}));

}  // namespace
}  // namespace qif::trace
