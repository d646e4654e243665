// mitigate-faulted: the on-vs-off mitigation study of
//   qif campaign custom --workload ior-easy-write --mitigate token:rate=64
//     --faults "slow:ost=0,start=2,dur=40,factor=6;stall:ost=1,start=10,dur=8"
// It drives the simulator through the fault injector, the client
// timeout/retry machine and the qif::ctrl admission gates, none of which
// run in the other workloads, so a gain on the healthy path that costs the
// faulted or gated path shows here.
#include <optional>

#include "bench.hpp"
#include "qif/ctrl/controller.hpp"
#include "qif/pfs/faults.hpp"
#include "stats.hpp"

namespace qif_bench {

namespace {

namespace core = qif::core;

constexpr const char* kTarget = "ior-easy-write";
constexpr const char* kMitigation = "token:rate=64";
constexpr const char* kFaults = "slow:ost=0,start=2,dur=40,factor=6;stall:ost=1,start=10,dur=8";

/// One side's aggregate over every campaign outcome, computed the way the
/// CLI's `campaign --mitigate` summary does.
struct SideTotals {
  double deg_sum = 0.0;  ///< sampled-window-weighted Level_degrade
  long long deg_windows = 0;
  double p99_sum = 0.0;  ///< per-case victim p99 sum
  long long cases = 0;
  long long throttle_waits = 0;
  double throttle_delay_s = 0.0;

  void add(const core::CampaignResult& result) {
    for (const core::CaseOutcome& o : result.outcomes) {
      if (!o.ok()) continue;
      deg_sum += o.mean_degradation * static_cast<double>(o.sampled_windows);
      deg_windows += static_cast<long long>(o.sampled_windows);
      p99_sum += o.victim_p99_ms;
      ++cases;
      throttle_waits += o.throttle_waits;
      throttle_delay_s += o.throttle_delay_s;
    }
  }
  [[nodiscard]] double mean_deg() const {
    return deg_windows > 0 ? deg_sum / static_cast<double>(deg_windows) : 1.0;
  }
  [[nodiscard]] double mean_p99() const {
    return cases > 0 ? p99_sum / static_cast<double>(cases) : 0.0;
  }
  bool operator==(const SideTotals&) const = default;
};

struct StudyRun {
  double wall_s = 0.0;
  SideTotals off;
  SideTotals on;
  qif::monitor::Dataset off_ds;
  qif::monitor::Dataset on_ds;
  std::string off_qds;  ///< filled by serialize(), which drops the datasets
  std::string on_qds;

  /// Replaces the datasets by their canonical bytes (outside any timing).
  void serialize() {
    if (!off_qds.empty()) return;  // already done
    off_qds = qds_bytes(off_ds);
    on_qds = qds_bytes(on_ds);
    off_ds = {};
    on_ds = {};
  }
};

struct Study {
  core::DatasetOptions base;
  qif::ctrl::MitigationConfig mitigation;
};

StudyRun study_once(Context& ctx, const Study& study, const core::CampaignRunFn& runner,
                    std::uint64_t seed) {
  StudyRun run;
  const auto t0 = Clock::now();
  core::DatasetOptions off = study.base;
  off.seed = seed;
  off.runner = runner;
  off.on_result = [&run](const std::string&, const core::CampaignResult& r) { run.off.add(r); };
  core::DatasetOptions on = off;
  on.mitigation = study.mitigation;
  on.on_result = [&run](const std::string&, const core::CampaignResult& r) { run.on.add(r); };
  {
    auto span = ctx.spans.scope("build_app_dataset(off)", "core");
    run.off_ds = core::build_app_dataset(kTarget, off);
  }
  {
    auto span = ctx.spans.scope("build_app_dataset(on)", "core");
    run.on_ds = core::build_app_dataset(kTarget, on);
  }
  run.wall_s = seconds_since(t0);
  return run;
}

bool same_outputs(const StudyRun& a, const StudyRun& b) {
  return a.off == b.off && a.on == b.on && a.off_qds == b.off_qds && a.on_qds == b.on_qds;
}

struct StudyChecks {
  std::optional<StudyRun> input0;  ///< the first study on rep 0's input
  int input0_runs = 0;
  int not_deterministic = 0;
  int studies = 0;
  int on_not_better = 0;

  /// `is_input0`: the study used rep 0's input, so its outputs must repeat.
  void add(StudyRun run, bool is_input0) {
    run.serialize();
    ++studies;
    const bool better = run.on.mean_deg() < run.off.mean_deg() &&
                        run.on.mean_p99() < run.off.mean_p99() && run.on.throttle_waits > 0;
    if (!better) ++on_not_better;
    if (!is_input0) return;
    ++input0_runs;
    if (!input0) {
      input0.emplace(std::move(run));
    } else if (!same_outputs(*input0, run)) {
      ++not_deterministic;
    }
  }

  void report(Report& r) const {
    r.check("study_identical_on_same_input", not_deterministic == 0 && input0_runs >= 2,
            std::to_string(input0_runs) + " studies on input 0");
    const StudyRun& ref = *input0;
    r.check("mitigation_on_beats_off", on_not_better == 0,
            std::to_string(studies - on_not_better) + " of " + std::to_string(studies) +
                " studies; input 0: deg " + std::to_string(ref.off.mean_deg()) + " -> " +
                std::to_string(ref.on.mean_deg()) + ", victim p99 " +
                std::to_string(ref.off.mean_p99()) + " -> " + std::to_string(ref.on.mean_p99()) +
                " ms, " + std::to_string(ref.on.throttle_waits) + " throttle waits");
  }
};

}  // namespace

void run_mitigate_faulted(Context& ctx) {
  Study study;
  study.base.richness = ctx.opt.smoke ? 0.5 : 4.0;
  study.base.faults = qif::pfs::faults::parse_fault_plan(kFaults);
  study.mitigation = qif::ctrl::parse_mitigation(kMitigation);
  // The study runs on the sequential driver (the CLI's default --jobs 1):
  // pipeline-io500 covers the parallel runner, and one worker keeps this
  // allocation-heavy workload's timing and peak memory steady.
  const core::CampaignRunFn runner = counted_runner(ctx, ctx.jobs);
  StudyChecks checks;

  // Set-up: the first study of the process, cold, on rep 0's input; it
  // doubles as the warm-up.
  checks.add(study_once(ctx, study, runner, ctx.opt.seed), true);
  if (ctx.finish_setup()) return;

  std::vector<double> wall;
  const auto loop_start = Clock::now();
  int k = 0;
  do {
    StudyRun run = study_once(ctx, study, runner, rep_seed(ctx.opt.seed, k));
    wall.push_back(run.wall_s);
    checks.add(std::move(run), k == 0);
    ++k;
  } while (!ctx.opt.smoke && seconds_since(loop_start) < ctx.opt.seconds);
  ctx.report_ops(wall);
  std::fprintf(stderr, "mitigate-faulted: %zu timed studies, median %.3f s\n", wall.size(),
               median(wall));

  if (ctx.opt.trace_path.empty()) {
    checks.report(ctx.report);
    return;
  }

  // (a) The body once, with spans at the public calls it already makes.
  ctx.spans.set_enabled(true);
  std::optional<StudyRun> body;
  {
    auto span = ctx.spans.scope("e2e body", "bench");
    body.emplace(study_once(ctx, study, runner, ctx.opt.seed));
  }
  body->serialize();

  // (b) Attribution pass: both sides at jobs 1, every campaign decomposed.
  Attribution attribution;
  std::optional<StudyRun> attributed;
  {
    auto span = ctx.spans.scope("attribution pass", "bench");
    attributed.emplace(
        study_once(ctx, study, attribution_runner(ctx, attribution), ctx.opt.seed));
  }
  attributed->serialize();
  const std::uint64_t pass = ctx.spans.last_id("attribution pass");
  ctx.report.check("attribution_dataset_identical", same_outputs(*body, *attributed),
                   std::to_string(body->off_qds.size() + body->on_qds.size()) + " bytes");

  // (c) Probes.
  double twins_s = 0.0;
  {
    auto span = ctx.spans.scope("probes", "bench");
    twins_s = monitors_off_twins_s(ctx, attribution);
  }
  ctx.spans.set_enabled(false);
  const double body_s = body->wall_s;
  checks.add(std::move(*body), true);

  report_attribution(ctx, attribution, twins_s, body_s);
  Report& r = ctx.report;
  r.metric("exec.campaign_s", median(wall));
  const StudyRun& ref = *checks.input0;
  r.metric("ctrl.overhead_s", attribution.case_s_mitigated - attribution.case_s_unmitigated);
  r.metric("ctrl.on_events", static_cast<double>(attribution.events_mitigated));
  r.metric("ctrl.off_events", static_cast<double>(attribution.events_unmitigated));
  r.metric("ctrl.throttle_waits", static_cast<double>(ref.on.throttle_waits));
  r.metric("ctrl.throttle_delay_s", ref.on.throttle_delay_s);
  r.metric("ctrl.on_victim_p99_ms", ref.on.mean_p99());
  r.metric("ctrl.off_victim_p99_ms", ref.off.mean_p99());
  r.metric("ctrl.on_mean_degradation", ref.on.mean_deg());
  r.metric("ctrl.off_mean_degradation", ref.off.mean_deg());
  r.metric("bench.trace_overhead_frac", body_s / wall.front() - 1.0);
  r.metric("bench.attribution_coverage", ctx.spans.coverage(pass));
  checks.report(r);
}

}  // namespace qif_bench
