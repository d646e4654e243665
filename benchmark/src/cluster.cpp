// cluster-1008: one run_scenario on a 1008-client x 16-OSS x 8-OST cluster
// (128 OSTs).  The target is ior-easy-write on nodes {0,1}; each of the 1006
// remaining client nodes hosts one looping ior-easy-write instance.
// Monitors are off and the classic engine runs (lanes = 0), so event
// dispatch and the FairLink share of ~1000 flows are nearly all the work: no
// monitor, join, exec, ml or serve code runs, and an engine gain shows here
// without noise from the rest.  It is also the scenario of the --lanes
// question, which the traced run probes.
#include <algorithm>
#include <optional>

#include "bench.hpp"
#include "qif/sim/rng.hpp"
#include "stats.hpp"

namespace qif_bench {

namespace {

namespace core = qif::core;

core::ScenarioConfig cluster_config(std::uint64_t seed, bool smoke, int lanes) {
  core::ScenarioConfig cfg;
  cfg.cluster = core::testbed_cluster_config(seed);
  // Smoke keeps the shape (every client node but the target's loaded, more
  // OSS groups than lanes) at a size that runs in well under a second.
  cfg.cluster.n_client_nodes = smoke ? 64 : 1008;
  cfg.cluster.n_oss = smoke ? 4 : 16;
  cfg.cluster.osts_per_oss = smoke ? 2 : 8;
  cfg.target.workload = "ior-easy-write";
  cfg.target.nodes = {0, 1};
  cfg.target.procs_per_node = 2;
  cfg.target.seed = seed;
  cfg.target.scale = smoke ? 1.0 : 4.0;
  core::InterferenceSpec noise;
  noise.workload = "ior-easy-write";
  for (int n = 2; n < cfg.cluster.n_client_nodes; ++n) noise.nodes.push_back(n);
  noise.instances = static_cast<int>(noise.nodes.size());
  noise.seed = qif::sim::Rng::derive_seed(seed, "noise");
  cfg.interference = noise;
  cfg.monitors = false;
  cfg.lanes = lanes;
  return cfg;
}

struct ClusterRun {
  double wall_s = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  bool finished = false;
  PfsCounts pfs;
};

ClusterRun cluster_once(Context& ctx, int lanes, std::uint64_t seed) {
  const core::ScenarioConfig cfg = cluster_config(seed, ctx.opt.smoke, lanes);
  ClusterRun run;
  core::ScenarioResult result;
  {
    auto span = ctx.spans.scope(lanes == 0 ? "run_scenario" : "run_scenario(lanes)", "core",
                                &run.wall_s, lanes);
    result = core::run_scenario(cfg);
  }
  {
    auto span = ctx.spans.scope("trace_fingerprint", "trace");
    run.fingerprint = qif::trace::trace_fingerprint(result.trace);
  }
  run.events = result.events_executed;
  run.finished = result.target_finished;
  run.pfs.add(result.trace);
  ctx.report.count(1, run.finished ? 0 : 1);
  return run;
}

}  // namespace

void run_cluster_1008(Context& ctx) {
  // Set-up: the first scenario of the process, cold, on rep 0's input; it
  // doubles as the warm-up.
  const ClusterRun first = cluster_once(ctx, 0, ctx.opt.seed);
  if (ctx.finish_setup()) return;

  std::vector<double> wall;
  bool deterministic = true;
  int unfinished = first.finished ? 0 : 1;
  const auto loop_start = Clock::now();
  int k = 0;
  do {
    const ClusterRun run = cluster_once(ctx, 0, rep_seed(ctx.opt.seed, k));
    wall.push_back(run.wall_s);
    if (k == 0) {
      deterministic = run.fingerprint == first.fingerprint && run.events == first.events;
    }
    if (!run.finished) ++unfinished;
    ++k;
  } while (!ctx.opt.smoke && seconds_since(loop_start) < ctx.opt.seconds);
  ctx.report_ops(wall);
  std::fprintf(stderr, "cluster-1008: %zu timed scenarios, median %.3f s, %llu events\n",
               wall.size(), median(wall), static_cast<unsigned long long>(first.events));
  ctx.report.check("trace_identical_on_same_input", deterministic,
                   "fingerprint " + std::to_string(first.fingerprint));
  ctx.report.check("target_finished", unfinished == 0,
                   std::to_string(unfinished) + " runs hit the horizon");
  if (ctx.opt.trace_path.empty()) return;

  // (a) The body once, with a span around its one public call.
  ctx.spans.set_enabled(true);
  std::optional<ClusterRun> body;
  {
    auto span = ctx.spans.scope("e2e body", "bench");
    body.emplace(cluster_once(ctx, 0, ctx.opt.seed));
  }
  const double coverage = ctx.spans.coverage(ctx.spans.last_id("e2e body"));

  // (c) Lanes probe: L lanes against the one-lane reference.
  const int lanes = std::max(1, std::min(4, ctx.host_cores));
  std::optional<ClusterRun> laned;
  std::optional<ClusterRun> one_lane;
  {
    auto span = ctx.spans.scope("probes", "bench");
    laned.emplace(cluster_once(ctx, lanes, ctx.opt.seed));
    one_lane.emplace(lanes == 1 ? *laned : cluster_once(ctx, 1, ctx.opt.seed));
  }
  ctx.spans.set_enabled(false);

  ctx.report.check("lanes_fingerprint_equals_one_lane",
                   laned->fingerprint == one_lane->fingerprint,
                   std::to_string(lanes) + " lanes vs 1");
  Report& r = ctx.report;
  r.metric("sim.events", static_cast<double>(body->events));
  r.metric("sim.host_ns_per_event", body->wall_s * 1e9 / static_cast<double>(body->events));
  r.metric("sim.lanes_wall_s", laned->wall_s);
  r.metric("sim.lanes_speedup", body->wall_s / laned->wall_s);
  body->pfs.report(r);
  r.metric("bench.trace_overhead_frac", body->wall_s / wall.front() - 1.0);
  r.metric("bench.attribution_coverage", coverage);
}

}  // namespace qif_bench
