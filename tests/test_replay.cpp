// Tests for trace replay (the `trace:FILE` workload) and the Daly
// checkpoint/restart generator (`ckpt:SIZE,BW,MTTI`).
//
// The load-bearing test is the closed-loop golden: dump a run's DXT trace,
// replay it with original timing against a fresh cluster, and require the
// replayed op stream to reproduce the dumped one bit-identically —
// timestamps included.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "qif/pfs/cluster.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/trace/dxt.hpp"
#include "qif/trace/op_record.hpp"
#include "qif/workloads/checkpoint.hpp"
#include "qif/workloads/driver.hpp"
#include "qif/workloads/replay.hpp"

namespace qif::workloads {
namespace {

/// Runs `workload` solo (4 ranks over 2 nodes, the ExecutorFixture
/// topology) and returns the trace it produced.
trace::TraceLog run_workload(const std::string& workload) {
  sim::Simulation s;
  pfs::ClusterConfig cc;
  cc.seed = 13;
  pfs::Cluster cluster(s, cc);
  JobSpec spec;
  spec.workload = workload;
  spec.nodes = {0, 1};
  spec.procs_per_node = 2;
  spec.job = 0;
  spec.seed = 1;
  spec.scale = 0.2;
  JobInstance job(cluster, spec, /*loop=*/false);
  job.start(nullptr);
  s.run_all();
  return cluster.trace_log();
}

trace::OpRecord make_rec(pfs::Rank rank, std::int64_t op_index, pfs::OpType type,
                         sim::SimTime start, sim::SimTime end,
                         const std::string& path = {}) {
  trace::OpRecord r;
  r.rank = rank;
  r.op_index = op_index;
  r.type = type;
  r.start = start;
  r.end = end;
  r.replay = trace::ReplayColumns(path);
  r.bytes = 4096;
  return r;
}

std::string expect_replay_error(const trace::TraceLog& log, const ReplayOptions& opt) {
  try {
    (void)build_replay_programs(log, opt);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "replay accepted a defective trace";
  return {};
}

TEST(Replay, ClosedLoopGoldenReproducesTheDumpedOpStream) {
  const trace::TraceLog original = run_workload("enzo");
  ASSERT_FALSE(original.empty());

  const std::string path = ::testing::TempDir() + "qif_replay_golden.dxt";
  {
    std::ofstream out(path, std::ios::binary);
    trace::write_dxt(out, original);
  }

  const trace::TraceLog replayed = run_workload("trace:" + path + "@original");
  EXPECT_EQ(trace::trace_fingerprint(replayed), trace::trace_fingerprint(original));

  const auto want = original.sorted_for_job(0);
  const auto got = replayed.sorted_for_job(0);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i]->rank, want[i]->rank) << i;
    EXPECT_EQ(got[i]->op_index, want[i]->op_index) << i;
    EXPECT_EQ(got[i]->type, want[i]->type) << i;
    EXPECT_EQ(got[i]->offset, want[i]->offset) << i;
    EXPECT_EQ(got[i]->bytes, want[i]->bytes) << i;
    EXPECT_EQ(got[i]->start, want[i]->start) << i;  // original timing, exactly
    EXPECT_EQ(got[i]->end, want[i]->end) << i;
    EXPECT_EQ(got[i]->replay.path(), want[i]->replay.path()) << i;
    EXPECT_EQ(got[i]->targets, want[i]->targets) << i;
  }
}

TEST(Replay, GapsBecomeThinkOpsUnderEachTimingPolicy) {
  trace::TraceLog log;
  log.record(make_rec(0, 0, pfs::OpType::kWrite, 100, 200));
  log.record(make_rec(0, 1, pfs::OpType::kWrite, 500, 600));

  ReplayOptions original;
  const WorkloadProgram o = build_replay_programs(log, original);
  ASSERT_EQ(o.ranks.size(), 1u);
  const auto& body = o.ranks[0].body;
  // Leading gap (trace starts at t=100) plus the 300 ns inter-op gap.
  ASSERT_EQ(body.size(), 4u);
  EXPECT_EQ(body[0].kind, OpSpec::Kind::kThink);
  EXPECT_EQ(body[0].think, 100);
  EXPECT_EQ(body[1].kind, OpSpec::Kind::kWrite);
  EXPECT_EQ(body[2].kind, OpSpec::Kind::kThink);
  EXPECT_EQ(body[2].think, 300);
  EXPECT_EQ(body[3].kind, OpSpec::Kind::kWrite);

  ReplayOptions asap;
  asap.timing = ReplayTiming::kAsap;
  const WorkloadProgram a = build_replay_programs(log, asap);
  ASSERT_EQ(a.ranks[0].body.size(), 2u);
  for (const auto& op : a.ranks[0].body) EXPECT_NE(op.kind, OpSpec::Kind::kThink);

  ReplayOptions scaled;
  scaled.timing = ReplayTiming::kScale;
  scaled.gap_scale = 2.5;
  const WorkloadProgram sc = build_replay_programs(log, scaled);
  ASSERT_EQ(sc.ranks[0].body.size(), 4u);
  EXPECT_EQ(sc.ranks[0].body[0].think, 250);
  EXPECT_EQ(sc.ranks[0].body[2].think, 750);
}

TEST(Replay, ParsesTimingPoliciesFromTheWorkloadArg) {
  const auto [f1, o1] = parse_replay_arg("/tmp/a.dxt");
  EXPECT_EQ(f1, "/tmp/a.dxt");
  EXPECT_EQ(o1.timing, ReplayTiming::kOriginal);

  const auto [f2, o2] = parse_replay_arg("/tmp/a.dxt@asap");
  EXPECT_EQ(f2, "/tmp/a.dxt");
  EXPECT_EQ(o2.timing, ReplayTiming::kAsap);

  const auto [f3, o3] = parse_replay_arg("/tmp/a.dxt@scale=0.5");
  EXPECT_EQ(o3.timing, ReplayTiming::kScale);
  EXPECT_DOUBLE_EQ(o3.gap_scale, 0.5);

  EXPECT_THROW((void)parse_replay_arg("/tmp/a.dxt@bogus"), std::runtime_error);
  EXPECT_THROW((void)parse_replay_arg("/tmp/a.dxt@scale=0"), std::runtime_error);
  EXPECT_THROW((void)parse_replay_arg("/tmp/a.dxt@scale=x"), std::runtime_error);
  EXPECT_THROW((void)parse_replay_arg("@asap"), std::runtime_error);
}

TEST(Replay, DefectiveTracesAreNamedPrecisely) {
  const ReplayOptions opt;

  trace::TraceLog empty;
  EXPECT_EQ(expect_replay_error(empty, opt),
            "trace has no records for job 0 (trace is empty)");

  trace::TraceLog other_job;
  auto rec = make_rec(0, 0, pfs::OpType::kWrite, 0, 10);
  rec.job = 3;
  other_job.record(rec);
  EXPECT_EQ(expect_replay_error(other_job, opt),
            "trace has no records for job 0 (jobs present: 3)");

  trace::TraceLog skipped;
  skipped.record(make_rec(0, 0, pfs::OpType::kWrite, 0, 10));
  skipped.record(make_rec(0, 2, pfs::OpType::kWrite, 20, 30));
  EXPECT_EQ(expect_replay_error(skipped, opt),
            "trace job 0 rank 0 has op_index 2 where 1 was expected (truncated or "
            "filtered dump)");

  trace::TraceLog gap_rank;
  gap_rank.record(make_rec(1, 0, pfs::OpType::kWrite, 0, 10));
  EXPECT_EQ(expect_replay_error(gap_rank, opt), "trace job 0 is missing rank 0");

  // A v1 dump carries no paths: metadata ops cannot be re-issued.
  trace::TraceLog v1;
  v1.record(make_rec(0, 0, pfs::OpType::kStat, 0, 10, /*path=*/""));
  const std::string msg = expect_replay_error(v1, opt);
  EXPECT_NE(msg.find("DXT version 1 dumps cannot be replayed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("job 0, rank 0, op 0, type stat"), std::string::npos) << msg;
}

TEST(Daly, MatchesHandComputedIntervals) {
  // delta = 2 s, MTTI = 4 s: x = 1/4, so
  // tau = sqrt(16) * (1 + (1/3)(1/2) + (1/9)(1/4)) - 2 = 25/9.
  EXPECT_NEAR(daly_optimal_interval_s(2.0, 4.0), 25.0 / 9.0, 1e-9);
  // At/above the crossover (delta >= 2*MTTI) the optimum saturates at MTTI.
  EXPECT_DOUBLE_EQ(daly_optimal_interval_s(8.0, 4.0), 4.0);
  EXPECT_DOUBLE_EQ(daly_optimal_interval_s(10.0, 4.0), 4.0);
  // Cheap dumps: tau -> sqrt(2*delta*M) as delta -> 0 (leading term).
  EXPECT_NEAR(daly_optimal_interval_s(1e-6, 3600.0), std::sqrt(2e-6 * 3600.0), 1e-3);
}

TEST(Checkpoint, ParsesSuffixedSizesAndTimes) {
  const CheckpointConfig a = parse_checkpoint_arg("4g,2g,3600");
  EXPECT_EQ(a.bytes, std::int64_t(4) << 30);
  EXPECT_DOUBLE_EQ(a.bandwidth_Bps, double(std::int64_t(2) << 30));
  EXPECT_DOUBLE_EQ(a.mtti_s, 3600.0);

  const CheckpointConfig b = parse_checkpoint_arg("64m,1g,2h");
  EXPECT_EQ(b.bytes, std::int64_t(64) << 20);
  EXPECT_DOUBLE_EQ(b.mtti_s, 7200.0);

  EXPECT_THROW((void)parse_checkpoint_arg("4g,2g"), std::runtime_error);
  EXPECT_THROW((void)parse_checkpoint_arg("0,1g,10"), std::runtime_error);
  EXPECT_THROW((void)parse_checkpoint_arg("4x,1g,10"), std::runtime_error);
  EXPECT_THROW((void)parse_checkpoint_arg("4g,1g,0"), std::runtime_error);
}

TEST(Checkpoint, ProgramHasRestartPrologueAndDalyPacedDumps) {
  CheckpointConfig cfg;
  cfg.bytes = std::int64_t(4) << 20;   // 4 MiB
  cfg.bandwidth_Bps = double(2 << 20);  // 2 MiB/s -> delta = 2 s
  cfg.mtti_s = 4.0;
  const RankProgram p = build_checkpoint_program(cfg, /*rank=*/1, /*job=*/2, /*scale=*/1.0);

  // Prologue: create + 2 writes + close, then open + 2 reads + close.
  ASSERT_EQ(p.prologue.size(), 8u);
  EXPECT_EQ(p.prologue[0].kind, OpSpec::Kind::kCreate);
  EXPECT_EQ(p.prologue[0].path, "/ckpt/job2.rank1.restart");
  EXPECT_EQ(p.prologue[0].stripes, 1);
  EXPECT_EQ(p.prologue[0].stripe_hint, 2 * 131 + 1);
  EXPECT_EQ(p.prologue[1].kind, OpSpec::Kind::kWrite);
  EXPECT_EQ(p.prologue[1].len, 2 << 20);
  EXPECT_EQ(p.prologue[4].kind, OpSpec::Kind::kOpen);
  EXPECT_EQ(p.prologue[5].kind, OpSpec::Kind::kRead);

  // Body: 4 cycles of think-tau + create + 2 writes + close.
  ASSERT_EQ(p.body.size(), 4u * 5u);
  EXPECT_EQ(p.body[0].kind, OpSpec::Kind::kThink);
  EXPECT_NEAR(static_cast<double>(p.body[0].think) / 1e9, 25.0 / 9.0, 1e-6);
  EXPECT_EQ(p.body[1].kind, OpSpec::Kind::kCreate);
  EXPECT_EQ(p.body[1].path, "/ckpt/job2.rank1.c0");
  EXPECT_EQ(p.body[2].offset, 0);
  EXPECT_EQ(p.body[3].offset, 2 << 20);
  EXPECT_EQ(p.body[4].kind, OpSpec::Kind::kClose);
  EXPECT_EQ(p.body[6].path, "/ckpt/job2.rank1.c1");
}

}  // namespace
}  // namespace qif::workloads
