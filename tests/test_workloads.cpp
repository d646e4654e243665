// Tests for the workload generators, the program executor, and the job
// drivers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "qif/pfs/cluster.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/workloads/dlio.hpp"
#include "qif/workloads/driver.hpp"
#include "qif/workloads/ior.hpp"
#include "qif/workloads/mdtest.hpp"
#include "qif/workloads/proxies.hpp"
#include "qif/workloads/registry.hpp"

namespace qif::workloads {
namespace {

TEST(Registry, KnowsAllCanonicalWorkloads) {
  EXPECT_EQ(io500_tasks().size(), 7u);
  EXPECT_EQ(known_workloads().size(), 13u);
  for (const auto& name : known_workloads()) {
    EXPECT_TRUE(is_known_workload(name)) << name;
    const RankProgram prog = build_named_program(name, 0, 4, 0, 1);
    EXPECT_FALSE(prog.body.empty()) << name;
  }
  EXPECT_FALSE(is_known_workload("nope"));
  EXPECT_THROW(build_named_program("nope", 0, 1, 0, 1), std::invalid_argument);
}

TEST(Registry, ScaleMustBePositiveAndFinite) {
  for (const double scale : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW((void)build_named_program("ior-easy-write", 0, 1, 0, 1, scale),
                 std::invalid_argument)
        << scale;
  }
  // Below one still builds, with at least one transfer.
  EXPECT_EQ(build_named_program("ior-easy-write", 0, 1, 0, 1, 0.001).body.size(), 3u);
}

TEST(Registry, UserBuildersPlugIntoTheFactory) {
  register_workload("test-custom", [](const std::string&, const WorkloadContext& ctx) {
    RankProgram p;
    OpSpec think;
    think.kind = OpSpec::Kind::kThink;
    think.think = ctx.rank + 1;
    p.body.push_back(think);
    return p;
  });
  EXPECT_TRUE(is_known_workload("test-custom"));
  const auto prog = build_named_program("test-custom", 2, 4, 0, 1);
  ASSERT_EQ(prog.body.size(), 1u);
  EXPECT_EQ(prog.body.front().think, 3);

  register_workload_prefix("test-param", "ARG",
                           [](const std::string& arg, const WorkloadContext&) {
                             RankProgram p;
                             OpSpec stat;
                             stat.kind = OpSpec::Kind::kStat;
                             stat.path = "/" + arg;
                             p.body.push_back(stat);
                             return p;
                           });
  EXPECT_TRUE(is_known_workload("test-param:xyz"));
  const auto parameterized = build_named_program("test-param:xyz", 0, 1, 0, 1);
  ASSERT_EQ(parameterized.body.size(), 1u);
  EXPECT_EQ(parameterized.body.front().path, "/xyz");
}

TEST(Registry, UnknownNameErrorListsCanonicalAndParameterizedForms) {
  const std::string msg = workload_name_error("bogus");
  EXPECT_NE(msg.find("unknown workload: 'bogus'"), std::string::npos) << msg;
  for (const auto& name : known_workloads()) {
    EXPECT_NE(msg.find(name), std::string::npos) << msg;
  }
  EXPECT_NE(msg.find("trace:FILE"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ckpt:SIZE,BW,MTTI"), std::string::npos) << msg;
  EXPECT_NE(msg.find("qwp:FILE"), std::string::npos) << msg;
}

TEST(Registry, ScaleMultipliesBodyOps) {
  const auto small = build_named_program("ior-easy-write", 0, 4, 0, 1, 0.5);
  const auto big = build_named_program("ior-easy-write", 0, 4, 0, 1, 2.0);
  EXPECT_GT(big.body.size(), 2 * small.body.size());
}

TEST(Ior, EasyIsFilePerProcessSequential) {
  IorConfig cfg;
  cfg.hard = false;
  cfg.write = true;
  cfg.n_transfers = 4;
  const auto p0 = build_ior_program(cfg, 0, 4, 0);
  const auto p1 = build_ior_program(cfg, 1, 4, 0);
  // Distinct per-rank paths.
  EXPECT_NE(p0.body.front().path, p1.body.front().path);
  // Sequential offsets.
  std::int64_t expect = 0;
  for (const auto& op : p0.body) {
    if (op.kind != OpSpec::Kind::kWrite) continue;
    EXPECT_EQ(op.offset, expect);
    expect += op.len;
  }
}

TEST(Ior, HardIsSharedFileStrided47008) {
  IorConfig cfg;
  cfg.hard = true;
  cfg.write = true;
  cfg.n_transfers = 3;
  const auto p0 = build_ior_program(cfg, 0, 4, 7);
  const auto p2 = build_ior_program(cfg, 2, 4, 7);
  EXPECT_EQ(p0.body.front().path, p2.body.front().path);  // shared file
  std::vector<std::int64_t> offsets;
  for (const auto& op : p2.body) {
    if (op.kind == OpSpec::Kind::kWrite) {
      EXPECT_EQ(op.len, 47008);
      offsets.push_back(op.offset);
    }
  }
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets[0], 2 * 47008);
  EXPECT_EQ(offsets[1], (1 * 4 + 2) * 47008);  // segment stride
}

TEST(Ior, ReadProgramsCreateInPrologue) {
  IorConfig cfg;
  cfg.write = false;
  const auto prog = build_ior_program(cfg, 0, 2, 0);
  ASSERT_FALSE(prog.prologue.empty());
  EXPECT_EQ(prog.prologue.front().kind, OpSpec::Kind::kCreate);
  for (const auto& op : prog.body) EXPECT_NE(op.kind, OpSpec::Kind::kWrite);
}

TEST(Mdtest, EasyUsesPrivateDirsAndEmptyFiles) {
  MdtestConfig cfg;
  cfg.hard = false;
  cfg.n_files = 5;
  const auto p0 = build_mdtest_program(cfg, 0, 0);
  const auto p1 = build_mdtest_program(cfg, 1, 0);
  EXPECT_NE(p0.prologue.front().path, p1.prologue.front().path);  // own dirs
  for (const auto& op : p0.body) EXPECT_NE(op.kind, OpSpec::Kind::kWrite);
}

TEST(Mdtest, HardUsesSharedDirWith3901ByteBodies) {
  MdtestConfig cfg;
  cfg.hard = true;
  cfg.n_files = 5;
  const auto p0 = build_mdtest_program(cfg, 0, 0);
  const auto p1 = build_mdtest_program(cfg, 1, 0);
  EXPECT_EQ(p0.prologue.front().path, p1.prologue.front().path);  // shared dir
  int writes = 0;
  for (const auto& op : p0.body) {
    if (op.kind == OpSpec::Kind::kWrite) {
      EXPECT_EQ(op.len, 3901);
      ++writes;
    }
  }
  EXPECT_EQ(writes, 5);
}

TEST(Mdtest, ReadPhaseStatsOpensReadsCloses) {
  MdtestConfig cfg;
  cfg.hard = true;
  cfg.phase = MdtestConfig::Phase::kRead;
  cfg.n_files = 3;
  const auto prog = build_mdtest_program(cfg, 0, 0);
  int stats = 0, reads = 0, creates_in_body = 0;
  for (const auto& op : prog.body) {
    if (op.kind == OpSpec::Kind::kStat) ++stats;
    if (op.kind == OpSpec::Kind::kRead) ++reads;
    if (op.kind == OpSpec::Kind::kCreate) ++creates_in_body;
  }
  EXPECT_EQ(stats, 3);
  EXPECT_EQ(reads, 3);
  EXPECT_EQ(creates_in_body, 0);  // creation happens in the prologue
  EXPECT_GE(prog.prologue.size(), 6u);
}

TEST(Dlio, DeterministicPerSeedAndRank) {
  DlioConfig cfg;
  const auto a = build_dlio_program(cfg, 0, 0, 5);
  const auto b = build_dlio_program(cfg, 0, 0, 5);
  const auto c = build_dlio_program(cfg, 1, 0, 5);
  ASSERT_EQ(a.body.size(), b.body.size());
  for (std::size_t i = 0; i < a.body.size(); ++i) {
    EXPECT_EQ(a.body[i].offset, b.body[i].offset);
    EXPECT_EQ(a.body[i].think, b.body[i].think);
  }
  // Different rank: different shuffle.
  bool differs = false;
  for (std::size_t i = 0; i < std::min(a.body.size(), c.body.size()); ++i) {
    if (a.body[i].offset != c.body[i].offset) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Dlio, BertReadsSmallerAndMoreSequentialThanUnet) {
  DlioConfig unet;
  unet.model = DlioConfig::Model::kUnet3d;
  DlioConfig bert;
  bert.model = DlioConfig::Model::kBert;
  const auto pu = build_dlio_program(unet, 0, 0, 1);
  const auto pb = build_dlio_program(bert, 0, 0, 1);
  std::int64_t unet_len = 0, bert_len = 0;
  for (const auto& op : pu.body) {
    if (op.kind == OpSpec::Kind::kRead) unet_len = op.len;
  }
  for (const auto& op : pb.body) {
    if (op.kind == OpSpec::Kind::kRead) bert_len = op.len;
  }
  EXPECT_GT(unet_len, 8 * bert_len);
}

TEST(Dlio, CheckpointsAppearAtConfiguredCadence) {
  DlioConfig cfg;
  cfg.steps = 10;
  cfg.checkpoint_every = 5;
  const auto prog = build_dlio_program(cfg, 0, 0, 1);
  int creates = 0;
  for (const auto& op : prog.body) {
    if (op.kind == OpSpec::Kind::kCreate) ++creates;
  }
  EXPECT_EQ(creates, 2);  // two checkpoints over 10 steps
}

TEST(Proxies, EnzoMixesAllOpKinds) {
  const auto prog = build_enzo_program(EnzoConfig{}, 0, 0, 3);
  std::set<OpSpec::Kind> kinds;
  for (const auto& op : prog.body) kinds.insert(op.kind);
  EXPECT_TRUE(kinds.count(OpSpec::Kind::kRead) || kinds.count(OpSpec::Kind::kOpen));
  EXPECT_TRUE(kinds.count(OpSpec::Kind::kWrite));
  EXPECT_TRUE(kinds.count(OpSpec::Kind::kStat));
  EXPECT_TRUE(kinds.count(OpSpec::Kind::kClose));
  EXPECT_TRUE(kinds.count(OpSpec::Kind::kThink));
}

TEST(Proxies, OpenPmdIsMetadataDominated) {
  const auto prog = build_openpmd_program(OpenPmdConfig{}, 0, 0, 3);
  std::int64_t bytes = 0;
  int meta_ops = 0, data_ops = 0;
  for (const auto& op : prog.body) {
    switch (op.kind) {
      case OpSpec::Kind::kRead:
      case OpSpec::Kind::kWrite:
        ++data_ops;
        bytes += op.len;
        break;
      case OpSpec::Kind::kThink:
        break;
      default:
        ++meta_ops;
    }
  }
  EXPECT_GT(meta_ops, data_ops / 2);
  EXPECT_LT(bytes, 2 << 20);  // kilobyte-scale payloads only
}

TEST(Proxies, AmrexIsWriteHeavy) {
  AmrexConfig cfg;
  cfg.plotfiles = 2;
  cfg.bytes_per_rank = 16 << 20;
  const auto prog = build_amrex_program(cfg, 0, 0, 3);
  std::int64_t written = 0;
  for (const auto& op : prog.body) {
    if (op.kind == OpSpec::Kind::kWrite) written += op.len;
  }
  EXPECT_EQ(written, 2 * (16 << 20));
}

TEST(OpSeq, IorEasyWriteBodyIsThreeRecords) {
  // create, one strided write run, close — however many transfers.
  const RankProgram prog = build_named_program("ior-easy-write", 0, 4, 0, 1, 4.0);
  EXPECT_LE(prog.body.records().size(), 3u);
  EXPECT_EQ(prog.body.size(), 768u + 2u);
  EXPECT_EQ(prog.paths.size(), 1u);
}

TEST(OpSeq, FoldsStridedRunsAndExpandsThemExactly) {
  const auto transfer = [](OpSpec::Kind kind, int slot, std::int64_t offset, std::int64_t len) {
    OpSpec op;
    op.kind = kind;
    op.slot = slot;
    op.offset = offset;
    op.len = len;
    return op;
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<OpSpec> ops = {
      transfer(OpSpec::Kind::kWrite, 0, 0, 5),
      transfer(OpSpec::Kind::kWrite, 0, 10, 5),
      transfer(OpSpec::Kind::kWrite, 0, 20, 5),   // run of 3, stride 10
      transfer(OpSpec::Kind::kWrite, 0, 25, 5),   // breaks the stride: new record
      transfer(OpSpec::Kind::kWrite, 0, 25, 5),   // stride 0 joins it
      transfer(OpSpec::Kind::kRead, 0, 25, 5),    // other kind
      transfer(OpSpec::Kind::kRead, 1, 25, 5),    // other slot
      transfer(OpSpec::Kind::kRead, 1, 30, 6),    // other len
      transfer(OpSpec::Kind::kRead, 2, 0, 1),
      transfer(OpSpec::Kind::kRead, 2, kMax, 1),  // stride INT64_MAX, so the next
      transfer(OpSpec::Kind::kRead, 2, -2, 1),    // step 0 + 2 * stride wraps to -2
  };
  RankProgram prog;
  for (const OpSpec& op : ops) prog.body.push_back(op);
  EXPECT_EQ(prog.body.records().size(), 6u);
  ASSERT_EQ(prog.body.size(), ops.size());
  EXPECT_EQ(std::vector<OpSpec>(prog.body.begin(), prog.body.end()), ops);
  for (std::size_t i = 0; i < ops.size(); ++i) EXPECT_EQ(prog.body[i], ops[i]) << i;
}

TEST(OpSeq, PathsAreInternedOncePerRank) {
  RankProgram prog;
  OpSpec create;
  create.kind = OpSpec::Kind::kCreate;
  create.path = "/d/f";
  create.stripes = 2;
  create.stripe_hint = 7;
  prog.prologue.push_back(create);
  OpSpec stat;
  stat.kind = OpSpec::Kind::kStat;
  stat.path = "/d/f";
  prog.body.push_back(stat);
  stat.path = "/d";
  prog.body.push_back(stat);
  EXPECT_EQ(prog.paths.size(), 2u);
  EXPECT_EQ(prog.prologue.front(), create);
  EXPECT_EQ(prog.body[0].path, "/d/f");
  EXPECT_EQ(prog.body[1].path, "/d");
}

TEST(OpSeq, EqualityComparesPathsNotTheirInterningOrder) {
  OpSpec x;
  x.kind = OpSpec::Kind::kMkdir;
  x.path = "/x";
  OpSpec y = x;
  y.path = "/y";
  RankProgram a;
  a.prologue.push_back(x);
  a.body.push_back(y);
  RankProgram b;  // interns /y first
  b.body.push_back(y);
  b.prologue.push_back(x);
  EXPECT_EQ(a, b);
  RankProgram c;
  c.prologue.push_back(x);
  c.body.push_back(x);
  EXPECT_NE(a, c);
}

TEST(OpSeq, CopiesAndMovesKeepTheirOwnPathTable) {
  std::vector<RankProgram> ranks;
  for (int r = 0; r < 9; ++r) {  // reallocations move every element
    ranks.push_back(build_named_program("mdt-easy-write", r, 9, 0, 1, 0.05));
  }
  const std::vector<RankProgram> copies = ranks;
  RankProgram assigned;
  assigned = ranks[3];
  RankProgram moved = std::move(ranks[3]);
  ranks.clear();
  EXPECT_EQ(moved, copies[3]);
  EXPECT_EQ(assigned, copies[3]);
  EXPECT_EQ(moved.body.front().path, build_named_program("mdt-easy-write", 3, 9, 0, 1, 0.05)
                                         .body.front()
                                         .path);
}


struct ExecutorFixture : ::testing::Test {
  sim::Simulation s;
  pfs::ClusterConfig cfg;
  std::unique_ptr<pfs::Cluster> cluster;
  void SetUp() override {
    cfg.seed = 13;
    cluster = std::make_unique<pfs::Cluster>(s, cfg);
  }
};

TEST_F(ExecutorFixture, RunsProgramToCompletion) {
  pfs::PfsClient& client = cluster->make_client(0, 0, 0);
  RankProgram prog;
  OpSpec create;
  create.kind = OpSpec::Kind::kCreate;
  create.path = "/e/f";
  prog.body.push_back(create);
  OpSpec write;
  write.kind = OpSpec::Kind::kWrite;
  write.len = 1 << 20;
  prog.body.push_back(write);
  OpSpec close;
  close.kind = OpSpec::Kind::kClose;
  prog.body.push_back(close);

  bool finished = false;
  ExecOptions opts;
  opts.on_finish = [&] { finished = true; };
  ProgramExecutor exec(client, prog, opts);
  exec.start();
  s.run_all();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(exec.finished());
  EXPECT_EQ(exec.ops_executed(), 3u);
  EXPECT_EQ(exec.body_iterations(), 1u);
}

TEST_F(ExecutorFixture, LoopModeStopsAtHorizon) {
  pfs::PfsClient& client = cluster->make_client(0, 0, 0);
  RankProgram prog;
  OpSpec think;
  think.kind = OpSpec::Kind::kThink;
  think.think = 100 * sim::kMillisecond;
  prog.body.push_back(think);

  ExecOptions opts;
  opts.loop = true;
  opts.stop_at = 2 * sim::kSecond;
  ProgramExecutor exec(client, prog, opts);
  exec.start();
  s.run_until(10 * sim::kSecond);
  EXPECT_TRUE(exec.finished());
  EXPECT_NEAR(static_cast<double>(exec.body_iterations()), 20.0, 2.0);
}

TEST_F(ExecutorFixture, ThinkOpsClampToTheStopHorizon) {
  // Replayed traces carry multi-second think gaps; a think that straddles
  // stop_at must be clamped so the executor finishes AT the horizon rather
  // than overshooting by up to a full gap.
  pfs::PfsClient& client = cluster->make_client(0, 0, 0);
  RankProgram prog;
  OpSpec think;
  think.kind = OpSpec::Kind::kThink;
  think.think = 5 * sim::kSecond;
  prog.body.push_back(think);

  ExecOptions opts;
  opts.loop = true;
  opts.stop_at = 2 * sim::kSecond;
  sim::SimTime finished_at = -1;
  opts.on_finish = [&] { finished_at = s.now(); };
  ProgramExecutor exec(client, prog, opts);
  exec.start();
  s.run_until(10 * sim::kSecond);
  EXPECT_TRUE(exec.finished());
  EXPECT_EQ(finished_at, 2 * sim::kSecond);
}

TEST_F(ExecutorFixture, PrologueRunsOnceAcrossLoops) {
  pfs::PfsClient& client = cluster->make_client(0, 0, 0);
  RankProgram prog;
  OpSpec mkdir;
  mkdir.kind = OpSpec::Kind::kMkdir;
  mkdir.path = "/once";
  prog.prologue.push_back(mkdir);
  OpSpec stat;
  stat.kind = OpSpec::Kind::kStat;
  stat.path = "/once";
  prog.body.push_back(stat);

  ExecOptions opts;
  opts.loop = true;
  opts.stop_at = sim::kSecond;
  ProgramExecutor exec(client, prog, opts);
  exec.start();
  s.run_until(2 * sim::kSecond);
  int mkdirs = 0, stats = 0;
  for (const auto& r : cluster->trace_log().records()) {
    if (r.type == pfs::OpType::kMkdir) ++mkdirs;
    if (r.type == pfs::OpType::kStat) ++stats;
  }
  EXPECT_EQ(mkdirs, 1);
  EXPECT_GT(stats, 10);
}

TEST_F(ExecutorFixture, JobInstanceCompletesAllRanks) {
  JobSpec spec;
  spec.workload = "mdt-easy-write";
  spec.nodes = {0, 1};
  spec.procs_per_node = 2;
  spec.job = 0;
  spec.seed = 1;
  spec.scale = 0.1;
  JobInstance job(*cluster, spec, /*loop=*/false);
  bool done = false;
  job.start([&] { done = true; });
  s.run_all();
  EXPECT_TRUE(done);
  EXPECT_TRUE(job.done());
  EXPECT_GT(job.completion_time(), 0);
  // All 4 ranks traced.
  std::set<pfs::Rank> ranks;
  for (const auto& r : cluster->trace_log().records()) ranks.insert(r.rank);
  EXPECT_EQ(ranks.size(), 4u);
}

TEST_F(ExecutorFixture, InterferenceDriverSpreadsInstancesOverNodes) {
  InterferenceDriver driver(*cluster, "mdt-easy-write", {2, 3, 4}, 6,
                            500 * sim::kMillisecond, 3, /*job_base=*/10, 0.1);
  driver.start();
  s.run_until(sim::kSecond);
  ASSERT_EQ(driver.instances().size(), 6u);
  std::set<std::int32_t> jobs;
  for (const auto& r : cluster->trace_log().records()) jobs.insert(r.job);
  EXPECT_GE(jobs.size(), 6u);
  // Node placement round-robins over {2,3,4}.
  EXPECT_EQ(driver.instances()[0]->spec().nodes[0], 2);
  EXPECT_EQ(driver.instances()[1]->spec().nodes[0], 3);
  EXPECT_EQ(driver.instances()[3]->spec().nodes[0], 2);
}

TEST_F(ExecutorFixture, Io500SuitePhaseRangesAlignWithTrace) {
  // phase_sweep buckets matched ops into phases via these ranges; they
  // must agree with the op stream an actual suite run produces.
  JobSpec spec;
  spec.workload = "io500-suite";
  spec.nodes = {0};
  spec.procs_per_node = 2;
  spec.seed = 3;
  spec.scale = 0.05;
  JobInstance job(*cluster, spec, /*loop=*/false);
  job.start(nullptr);
  s.run_all();
  ASSERT_TRUE(job.done());

  const auto ranges = io500_suite_phase_ranges(spec.n_ranks(), spec.seed, spec.scale);
  ASSERT_EQ(ranges.size(), 7u);
  // Ranges tile [0, total) without gaps.
  std::int64_t cursor = 0;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, cursor);
    EXPECT_LT(lo, hi);
    cursor = hi;
  }
  // Every rank issued exactly `cursor` ops, and the data ops inside each
  // phase have that phase's direction (read phases contain no writes in
  // their own range and vice versa for pure-metadata phases).
  const auto sorted = cluster->trace_log().sorted_for_job(0);
  std::map<pfs::Rank, std::int64_t> per_rank;
  for (const trace::OpRecord* r : sorted) per_rank[r->rank] = r->op_index + 1;
  for (const auto& [rank, count] : per_rank) EXPECT_EQ(count, cursor) << rank;

  const auto& names = io500_tasks();
  for (const trace::OpRecord* rec : sorted) {
    const trace::OpRecord& r = *rec;
    int phase = -1;
    for (std::size_t pi = 0; pi < ranges.size(); ++pi) {
      if (r.op_index >= ranges[pi].first && r.op_index < ranges[pi].second) {
        phase = static_cast<int>(pi);
      }
    }
    ASSERT_GE(phase, 0);
    const std::string& name = names[static_cast<std::size_t>(phase)];
    if (r.type == pfs::OpType::kWrite && name.find("read") != std::string::npos &&
        name.rfind("ior", 0) == 0) {
      ADD_FAILURE() << "write op inside read phase " << name;
    }
    if (r.type == pfs::OpType::kRead && name.find("write") != std::string::npos) {
      ADD_FAILURE() << "read op inside write phase " << name;
    }
  }
}

TEST_F(ExecutorFixture, SameSeedSameOpSequence) {
  // The determinism contract the trace matcher relies on.
  auto run = [](std::uint64_t seed) {
    sim::Simulation sim;
    pfs::ClusterConfig cc;
    cc.seed = 99;  // cluster seed fixed; workload seed varies
    pfs::Cluster cl(sim, cc);
    JobSpec spec;
    spec.workload = "dlio-unet3d";
    spec.nodes = {0};
    spec.procs_per_node = 2;
    spec.seed = seed;
    spec.scale = 0.2;
    JobInstance job(cl, spec, false);
    job.start(nullptr);
    sim.run_all();
    std::vector<std::tuple<pfs::Rank, std::int64_t, std::int64_t>> ops;
    for (const auto& r : cl.trace_log().records()) {
      ops.emplace_back(r.rank, r.op_index, r.bytes);
    }
    return ops;
  };
  EXPECT_EQ(run(5), run(5));
}

}  // namespace
}  // namespace qif::workloads
