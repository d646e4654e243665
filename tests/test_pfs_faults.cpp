// Tests for the deterministic fault-injection layer: plan parsing (with
// pinned diagnostics), episode mechanics on a live cluster, the client
// timeout/retry machine, and the bit-identity contract for empty or
// never-triggered plans.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "qif/core/scenario.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/pfs/faults.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs::faults {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanParse, EmptySpecYieldsEmptyPlan) {
  const FaultPlan plan = parse_fault_plan("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.size(), 0u);
  EXPECT_EQ(to_spec(plan), "");
}

TEST(FaultPlanParse, ParsesEveryKind) {
  const FaultPlan plan = parse_fault_plan(
      "slow:ost=1,start=5,dur=30,factor=8;"
      "stall:ost=0,start=40,dur=10;"
      "drop:p=0.25,start=0.5,dur=2.5");
  ASSERT_EQ(plan.slow_disks.size(), 1u);
  ASSERT_EQ(plan.stalls.size(), 1u);
  ASSERT_EQ(plan.rpc_loss.size(), 1u);
  EXPECT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.slow_disks[0].ost, 1);
  EXPECT_EQ(plan.slow_disks[0].start, 5 * sim::kSecond);
  EXPECT_EQ(plan.slow_disks[0].duration, 30 * sim::kSecond);
  EXPECT_DOUBLE_EQ(plan.slow_disks[0].factor, 8.0);
  EXPECT_EQ(plan.stalls[0].ost, 0);
  EXPECT_EQ(plan.stalls[0].start, 40 * sim::kSecond);
  EXPECT_EQ(plan.stalls[0].duration, 10 * sim::kSecond);
  EXPECT_DOUBLE_EQ(plan.rpc_loss[0].probability, 0.25);
  EXPECT_EQ(plan.rpc_loss[0].start, 500 * sim::kMillisecond);
  EXPECT_EQ(plan.rpc_loss[0].duration, 2500 * sim::kMillisecond);
}

TEST(FaultPlanParse, RoundTripsThroughSpec) {
  const std::string spec =
      "slow:ost=3,start=1.5,dur=12,factor=4;"
      "slow:ost=0,start=0,dur=60,factor=1.5;"
      "stall:ost=2,start=8,dur=0.25;"
      "drop:p=0.05,start=3,dur=9";
  const FaultPlan plan = parse_fault_plan(spec);
  const std::string canonical = to_spec(plan);
  const FaultPlan again = parse_fault_plan(canonical);
  EXPECT_EQ(to_spec(again), canonical);
  ASSERT_EQ(again.slow_disks.size(), 2u);
  ASSERT_EQ(again.stalls.size(), 1u);
  ASSERT_EQ(again.rpc_loss.size(), 1u);
  EXPECT_EQ(again.slow_disks[0].ost, plan.slow_disks[0].ost);
  EXPECT_EQ(again.slow_disks[0].start, plan.slow_disks[0].start);
  EXPECT_EQ(again.slow_disks[0].duration, plan.slow_disks[0].duration);
  EXPECT_DOUBLE_EQ(again.slow_disks[0].factor, plan.slow_disks[0].factor);
  EXPECT_EQ(again.stalls[0].start, plan.stalls[0].start);
  EXPECT_DOUBLE_EQ(again.rpc_loss[0].probability, plan.rpc_loss[0].probability);
}

void expect_parse_error(const std::string& spec, const std::string& message) {
  try {
    (void)parse_fault_plan(spec);
    FAIL() << "expected parse failure for: " << spec;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message) << "spec: " << spec;
  }
}

TEST(FaultPlanParse, DiagnosticsNameClauseAndOffset) {
  // Pinned formats: fuzz-found rejections must stay diagnosable, so these
  // exact strings are part of the parser's contract.
  expect_parse_error("bogus:x=1",
                     "fault plan: clause 1, offset 0: unknown fault kind 'bogus'");
  expect_parse_error("slow:ost=abc,start=0,dur=5,factor=2",
                     "fault plan: clause 1, offset 9: bad number 'abc' for 'ost'");
  expect_parse_error(
      "slow:ost=0,start=0,dur=5,factor=2;stall:ost=0",
      "fault plan: clause 2, offset 34: missing required key 'start'");
  expect_parse_error(
      "slow:ost=0,start=0,dur=5,factor=2,zap=1",
      "fault plan: clause 1, offset 34: unknown key 'zap'");
  expect_parse_error("slow:ost=0,start=0,dur=1,factor=0.5",
                     "fault plan: clause 1, offset 0: factor must be >= 1");
  expect_parse_error("drop:p=1.5,start=0,dur=1",
                     "fault plan: clause 1, offset 0: p must be in [0,1]");
  expect_parse_error("stall:ost=0,start=0,dur=0",
                     "fault plan: clause 1, offset 0: need start >= 0 and dur > 0");
  expect_parse_error(";", "fault plan: clause 1, offset 0: empty clause");
  expect_parse_error("stall", "fault plan: clause 1, offset 0: "
                              "expected 'kind:' prefix (slow|stall|drop)");
  expect_parse_error("stall:ost", "fault plan: clause 1, offset 6: expected key=value");
}

// ---------------------------------------------------------------------------
// Injector mechanics against a live cluster
// ---------------------------------------------------------------------------

TEST(FaultInjector, RejectsOutOfRangeOst) {
  sim::Simulation s;
  Cluster cluster(s, core::testbed_cluster_config(5));  // 3 OSS x 2 OST = 6
  {
    FaultPlan plan;
    plan.slow_disks.push_back({6, 0, sim::kSecond, 2.0});
    EXPECT_THROW(FaultInjector(cluster, plan, 1), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.stalls.push_back({-1, 0, sim::kSecond});
    EXPECT_THROW(FaultInjector(cluster, plan, 1), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.rpc_loss.push_back({0, sim::kSecond, 1.5});
    EXPECT_THROW(FaultInjector(cluster, plan, 1), std::invalid_argument);
  }
}

TEST(FaultInjector, SlowEpisodesStackMultiplicativelyAndRestoreExactly) {
  sim::Simulation s;
  Cluster cluster(s, core::testbed_cluster_config(6));
  FaultPlan plan;
  plan.slow_disks.push_back({0, 2 * sim::kSecond, 8 * sim::kSecond, 2.0});
  plan.slow_disks.push_back({0, 5 * sim::kSecond, 10 * sim::kSecond, 3.0});
  FaultInjector injector(cluster, plan, 42);
  EXPECT_DOUBLE_EQ(cluster.ost(0).disk().fault_multiplier(), 1.0);
  s.run_until(3 * sim::kSecond);
  EXPECT_DOUBLE_EQ(cluster.ost(0).disk().fault_multiplier(), 2.0);
  s.run_until(6 * sim::kSecond);  // both active: factors stack
  EXPECT_DOUBLE_EQ(cluster.ost(0).disk().fault_multiplier(), 6.0);
  s.run_until(11 * sim::kSecond);  // first episode ended at t=10
  EXPECT_DOUBLE_EQ(cluster.ost(0).disk().fault_multiplier(), 3.0);
  s.run_until(16 * sim::kSecond);  // all episodes over
  // Exactly 1.0, not 1.0-plus-epsilon: the restore must be drift-free.
  EXPECT_EQ(cluster.ost(0).disk().fault_multiplier(), 1.0);
  EXPECT_DOUBLE_EQ(cluster.ost(1).disk().fault_multiplier(), 1.0);  // untouched
  EXPECT_EQ(injector.activations(), 2);
}

TEST(FaultInjector, StallWindowsNestByDepth) {
  sim::Simulation s;
  Cluster cluster(s, core::testbed_cluster_config(7));
  FaultPlan plan;
  plan.stalls.push_back({1, sim::kSecond, 4 * sim::kSecond});
  plan.stalls.push_back({1, 2 * sim::kSecond, sim::kSecond});
  FaultInjector injector(cluster, plan, 42);
  EXPECT_FALSE(cluster.ost(1).disk().stalled());
  s.run_until(1500 * sim::kMillisecond);
  EXPECT_TRUE(cluster.ost(1).disk().stalled());
  s.run_until(3500 * sim::kMillisecond);  // inner window over, outer still on
  EXPECT_TRUE(cluster.ost(1).disk().stalled());
  s.run_until(6 * sim::kSecond);
  EXPECT_FALSE(cluster.ost(1).disk().stalled());
}

TEST(FaultInjector, LossWindowsComposeAndGateDraws) {
  sim::Simulation s;
  Cluster cluster(s, core::testbed_cluster_config(8));
  FaultPlan plan;
  plan.rpc_loss.push_back({sim::kSecond, 2 * sim::kSecond, 0.5});
  plan.rpc_loss.push_back({2 * sim::kSecond, 2 * sim::kSecond, 0.5});
  FaultInjector injector(cluster, plan, 42);
  EXPECT_DOUBLE_EQ(injector.active_loss_probability(), 0.0);
  EXPECT_FALSE(injector.should_drop_message());  // outside any window: no draw
  s.run_until(1500 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(injector.active_loss_probability(), 0.5);
  s.run_until(2500 * sim::kMillisecond);
  // Independent overlapping windows: 1 - (1-0.5)(1-0.5).
  EXPECT_DOUBLE_EQ(injector.active_loss_probability(), 0.75);
  int drops = 0;
  for (int i = 0; i < 1000; ++i) drops += injector.should_drop_message() ? 1 : 0;
  EXPECT_GT(drops, 600);  // ~750 expected
  EXPECT_LT(drops, 900);
  EXPECT_EQ(injector.messages_dropped(), static_cast<std::uint64_t>(drops));
  s.run_until(5 * sim::kSecond);
  EXPECT_DOUBLE_EQ(injector.active_loss_probability(), 0.0);
  EXPECT_FALSE(injector.should_drop_message());
}

// ---------------------------------------------------------------------------
// Scenario-level behaviour
// ---------------------------------------------------------------------------

core::ScenarioConfig fault_scenario(std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.cluster = core::testbed_cluster_config(seed);
  cfg.target.workload = "ior-easy-write";
  cfg.target.nodes = {0};
  cfg.target.procs_per_node = 2;
  cfg.target.seed = seed;
  cfg.target.scale = 0.5;
  cfg.monitors = false;
  return cfg;
}

FaultPlan slow_everywhere(double factor) {
  FaultPlan plan;
  for (OstId ost = 0; ost < 6; ++ost) {
    plan.slow_disks.push_back({ost, 0, 600 * sim::kSecond, factor});
  }
  return plan;
}

FaultPlan stall_everywhere(sim::SimDuration duration) {
  FaultPlan plan;
  for (OstId ost = 0; ost < 6; ++ost) plan.stalls.push_back({ost, 0, duration});
  return plan;
}

struct FaultTotals {
  long long retries = 0;
  long long timeouts = 0;
  long long failed = 0;
};

FaultTotals totals(const trace::TraceLog& log) {
  FaultTotals t;
  for (const trace::OpRecord& rec : log.records()) {
    t.retries += rec.retries;
    t.timeouts += rec.timeouts;
    t.failed += rec.failed ? 1 : 0;
  }
  return t;
}

TEST(FaultScenario, SlowDiskEpisodeSlowsTheTarget) {
  const core::ScenarioResult healthy = core::run_scenario(fault_scenario(3));
  core::ScenarioConfig degraded = fault_scenario(3);
  degraded.faults = slow_everywhere(8.0);
  const core::ScenarioResult slow = core::run_scenario(degraded);
  ASSERT_TRUE(healthy.target_finished);
  ASSERT_TRUE(slow.target_finished);
  EXPECT_GT(static_cast<double>(slow.target_completion),
            3.0 * static_cast<double>(healthy.target_completion));
  // Slowness alone never trips the (5 s default) deadline machinery.
  const FaultTotals t = totals(slow.trace);
  EXPECT_EQ(t.retries, 0);
  EXPECT_EQ(t.failed, 0);
}

TEST(FaultScenario, StallDrivesTimeoutsRetriesAndFailures) {
  core::ScenarioConfig cfg = fault_scenario(4);
  // Tighten the retry machine so a 20 s blackout exhausts it quickly.
  cfg.cluster.client.rpc_deadline = 200 * sim::kMillisecond;
  cfg.cluster.client.retry_backoff = 50 * sim::kMillisecond;
  cfg.cluster.client.rpc_max_retries = 3;
  cfg.faults = stall_everywhere(20 * sim::kSecond);
  cfg.horizon = 60 * sim::kSecond;
  const core::ScenarioResult res = core::run_scenario(cfg);
  const FaultTotals t = totals(res.trace);
  EXPECT_GT(t.timeouts, 0);
  EXPECT_GT(t.retries, 0);
  EXPECT_GT(t.failed, 0);
  // Each failed op burned every retry before giving up.
  EXPECT_GE(t.timeouts, t.failed * 4);
}

TEST(FaultScenario, RpcLossRetriesRecoverAfterTheWindow) {
  core::ScenarioConfig cfg = fault_scenario(11);
  cfg.cluster.client.rpc_deadline = 300 * sim::kMillisecond;
  cfg.cluster.client.retry_backoff = 50 * sim::kMillisecond;
  cfg.cluster.client.rpc_max_retries = 8;
  FaultPlan plan;
  plan.rpc_loss.push_back({0, 3 * sim::kSecond, 0.4});
  cfg.faults = plan;
  cfg.horizon = 120 * sim::kSecond;
  const core::ScenarioResult res = core::run_scenario(cfg);
  EXPECT_GT(totals(res.trace).retries, 0);
  // Once the loss window closes every retry goes through.
  EXPECT_TRUE(res.target_finished);
}

TEST(FaultScenario, FarFuturePlanLeavesTraceBitIdentical) {
  // A non-empty plan arms the deadline timers, but as long as no episode
  // fires the op stream must be bit-identical to a healthy run: timers are
  // cancelled events, not behaviour.
  const core::ScenarioResult healthy = core::run_scenario(fault_scenario(7));
  core::ScenarioConfig armed = fault_scenario(7);
  FaultPlan plan;
  plan.slow_disks.push_back({0, 4000 * sim::kSecond, sim::kSecond, 8.0});
  armed.faults = plan;
  const core::ScenarioResult res = core::run_scenario(armed);
  EXPECT_EQ(res.target_completion, healthy.target_completion);
  ASSERT_EQ(res.trace.size(), healthy.trace.size());
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    const trace::OpRecord& a = healthy.trace.records()[i];
    const trace::OpRecord& b = res.trace.records()[i];
    EXPECT_EQ(a.start, b.start) << "op " << i;
    EXPECT_EQ(a.end, b.end) << "op " << i;
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.targets, b.targets);
    EXPECT_EQ(b.retries, 0);
    EXPECT_EQ(b.timeouts, 0);
    EXPECT_FALSE(b.failed);
  }
}

TEST(FaultScenario, FaultedRunsAreDeterministic) {
  const auto make = [] {
    core::ScenarioConfig cfg = fault_scenario(9);
    cfg.cluster.client.rpc_deadline = 300 * sim::kMillisecond;
    cfg.cluster.client.retry_backoff = 50 * sim::kMillisecond;
    FaultPlan plan = stall_everywhere(5 * sim::kSecond);
    plan.rpc_loss.push_back({0, 4 * sim::kSecond, 0.3});
    cfg.faults = plan;
    cfg.horizon = 60 * sim::kSecond;
    return cfg;
  };
  const core::ScenarioResult a = core::run_scenario(make());
  const core::ScenarioResult b = core::run_scenario(make());
  EXPECT_EQ(a.target_completion, b.target_completion);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const trace::OpRecord& x = a.trace.records()[i];
    const trace::OpRecord& y = b.trace.records()[i];
    EXPECT_EQ(x.start, y.start);
    EXPECT_EQ(x.end, y.end);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.timeouts, y.timeouts);
    EXPECT_EQ(x.failed, y.failed);
  }
}

TEST(FaultScenario, FaultFeaturesWidenMonitoredWindows) {
  core::ScenarioConfig cfg = fault_scenario(10);
  cfg.monitors = true;
  cfg.cluster.client.rpc_deadline = 300 * sim::kMillisecond;
  cfg.cluster.client.retry_backoff = 50 * sim::kMillisecond;
  cfg.faults = stall_everywhere(8 * sim::kSecond);
  cfg.horizon = 60 * sim::kSecond;
  const core::ScenarioResult res = core::run_scenario(cfg);
  EXPECT_EQ(res.dim, monitor::MetricSchema::kPerServerDimFaults);
  ASSERT_FALSE(res.window_features.empty());
  // The fault block sits right after the 10 client features in every
  // per-server vector; a cluster-wide stall must light it up somewhere.
  double fault_mass = 0.0;
  const int dim = res.dim;
  for (std::size_t i = 0; i < res.window_features.size(); ++i) {
    const double* row = res.window_features.row(i);
    for (int srv = 0; srv < res.n_servers; ++srv) {
      for (int k = 0; k < monitor::MetricSchema::kFaultFeatures; ++k) {
        fault_mass += row[srv * dim + monitor::MetricSchema::kClientFeatures + k];
      }
    }
  }
  EXPECT_GT(fault_mass, 0.0);

  // The healthy twin keeps the historical 37-wide layout.
  core::ScenarioConfig healthy = fault_scenario(10);
  healthy.monitors = true;
  EXPECT_EQ(core::run_scenario(healthy).dim, monitor::MetricSchema::kPerServerDim);
}

// ---------------------------------------------------------------------------
// Late arrivals: an event still holding a finished op's handle is a no-op,
// also once the op's slot has been reused by a new op.
// ---------------------------------------------------------------------------

/// A 1 MiB read on OST 0, stalled for its first 20 ms, and optionally a
/// 1 MiB read on healthy OST 1 issued from the first read's callback —
/// either by the same client, so it takes over the finished op's slot, or
/// (the control) by a second client on the same node.
enum class FollowUp { kNone, kSameClient, kOtherClient };

struct LateRun {
  std::vector<trace::OpRecord> records;  ///< completion order
  sim::SimTime stale_at = -1;     ///< when the late event reached client 0
  std::size_t emitted_by_stale = 0;  ///< ops finished by then
  std::int64_t stale = 0;         ///< client 0's stale arrivals, whole run
  std::size_t slab = 0;           ///< client 0's op records
};

LateRun run_late(sim::SimDuration deadline, int max_retries, sim::SimDuration backoff,
                 FollowUp follow) {
  sim::Simulation s;
  ClusterConfig cfg;
  cfg.seed = 9;
  cfg.ost_disk.service_jitter = 0.0;
  cfg.client.rpc_deadline = deadline;
  cfg.client.rpc_max_retries = max_retries;
  cfg.client.retry_backoff = backoff;
  cfg.client.retry_jitter = 0.0;
  Cluster cluster(s, cfg);
  FaultPlan plan;
  plan.stalls.push_back({/*ost=*/0, /*start=*/0, /*duration=*/20 * sim::kMillisecond});
  FaultInjector injector(cluster, plan, 1);
  PfsClient& client = cluster.make_client(0, 0, 0);
  PfsClient& other = cluster.make_client(0, 1, 0);
  // Data ops need only a layout, so no metadata RPC shares the deadline.
  const FileLayout on_ost0(1, {0}, cfg.stripe_size, cfg.ost_disk.capacity_bytes);
  const FileLayout on_ost1(2, {1}, cfg.stripe_size, cfg.ost_disk.capacity_bytes);
  client.read(FileHandle{1, &on_ost0, 0}, 0, 1 << 20, [&] {
    if (follow == FollowUp::kNone) return;
    PfsClient& issuer = follow == FollowUp::kSameClient ? client : other;
    issuer.read(FileHandle{2, &on_ost1, 0}, 0, 1 << 20, [] {});
  });
  LateRun out;
  while (client.stale_arrivals() == 0 && s.pending() > 0) s.run_until(s.next_event_time());
  out.stale_at = s.now();
  out.emitted_by_stale = cluster.trace_log().size();
  s.run_all();
  for (const trace::OpRecord& r : cluster.trace_log().records()) out.records.push_back(r);
  out.stale = client.stale_arrivals();
  out.slab = client.op_slab_size();
  return out;
}

void expect_same_timing(const trace::OpRecord& a, const trace::OpRecord& b) {
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.failed, b.failed);
}

TEST(LateArrival, RetryTimerAfterTheResponseWonIsANoOp) {
  // The first attempt times out at 30 ms and backs off until 50 ms; its
  // response (the stall ends at 20 ms) wins at ~40 ms, so the backoff
  // timer fires after the op has finished.
  const auto run = [](FollowUp f) {
    return run_late(30 * sim::kMillisecond, 4, 20 * sim::kMillisecond, f);
  };
  const LateRun alone = run(FollowUp::kNone);
  ASSERT_EQ(alone.records.size(), 1u);
  const trace::OpRecord& first = alone.records[0];
  EXPECT_EQ(first.timeouts, 1);
  EXPECT_EQ(first.retries, 1);
  EXPECT_FALSE(first.failed);
  EXPECT_EQ(alone.stale, 1);
  EXPECT_EQ(alone.stale_at, 50 * sim::kMillisecond);
  EXPECT_GT(alone.stale_at, first.end);

  const LateRun reused = run(FollowUp::kSameClient);
  ASSERT_EQ(reused.records.size(), 2u);
  EXPECT_EQ(reused.slab, 1u);  // the second read took over the first's slot
  EXPECT_EQ(reused.stale, 1);
  EXPECT_EQ(reused.stale_at, 50 * sim::kMillisecond);
  EXPECT_EQ(reused.emitted_by_stale, 1u);  // the new op was in flight
  const trace::OpRecord& second = reused.records[1];
  EXPECT_EQ(second.start, first.end);
  EXPECT_GT(second.end, reused.stale_at);
  EXPECT_EQ(second.timeouts, 0);
  // The new op's record is exactly what it is on a slab of its own.
  const LateRun control = run(FollowUp::kOtherClient);
  ASSERT_EQ(control.records.size(), 2u);
  expect_same_timing(second, control.records[1]);
}

TEST(LateArrival, ResponseAfterEioIsANoOp) {
  // No retries: the op fails at its 30 ms deadline, and the stalled OST's
  // response straggles in at ~40 ms.
  const auto run = [](FollowUp f) {
    return run_late(30 * sim::kMillisecond, 0, 20 * sim::kMillisecond, f);
  };
  const LateRun alone = run(FollowUp::kNone);
  ASSERT_EQ(alone.records.size(), 1u);
  const trace::OpRecord& first = alone.records[0];
  EXPECT_TRUE(first.failed);
  EXPECT_EQ(first.timeouts, 1);
  EXPECT_EQ(first.end, 30 * sim::kMillisecond);
  EXPECT_EQ(alone.stale, 1);
  EXPECT_GT(alone.stale_at, first.end);

  const LateRun reused = run(FollowUp::kSameClient);
  ASSERT_EQ(reused.records.size(), 2u);
  EXPECT_EQ(reused.slab, 1u);
  EXPECT_EQ(reused.stale, 1);
  EXPECT_EQ(reused.stale_at, alone.stale_at);
  EXPECT_EQ(reused.emitted_by_stale, 1u);
  // The straggler must not complete the new op, whose first RPC carries
  // the same slot, RPC index and attempt number.
  const trace::OpRecord& second = reused.records[1];
  EXPECT_EQ(second.start, first.end);
  EXPECT_GT(second.end, reused.stale_at);
  EXPECT_FALSE(second.failed);
  const LateRun control = run(FollowUp::kOtherClient);
  ASSERT_EQ(control.records.size(), 2u);
  expect_same_timing(second, control.records[1]);
}

}  // namespace
}  // namespace qif::pfs::faults
