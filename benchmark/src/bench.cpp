#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <sstream>
#include <stdexcept>

#include "json.hpp"
#include "qif/exec/parallel_runner.hpp"
#include "qif/ml/gemm.hpp"
#include "qif/monitor/export.hpp"
#include "qif/sim/rng.hpp"
#include "qif/trace/labeler.hpp"
#include "qif/trace/matcher.hpp"
#include "stats.hpp"

namespace qif_bench {

namespace core = qif::core;

const Catalogue& end_to_end_metrics() {
  static const Catalogue kMetrics = {
      {"setup_s", "s"},
      {"op_p50_ms", "ms"},
      {"peak_rss_mib", "MiB"},
  };
  return kMetrics;
}

const Catalogue& per_layer_metrics() {
  static const Catalogue kMetrics = [] {
    Catalogue c = {
        {"sim.events", "count"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.lanes_wall_s", "s"},
        {"sim.lanes_speedup", "ratio"},
        {"pfs.ops", "count"},
        {"pfs.bytes", "B"},
        {"pfs.retries", "count"},
        {"pfs.timeouts", "count"},
        {"pfs.failed_ops", "count"},
        {"monitor.overhead_s", "s"},
        {"monitor.qds_write_s", "s"},
        {"monitor.qds_map_s", "s"},
        {"monitor.qds_bytes", "B"},
        {"trace.records", "count"},
        {"trace.match_s", "s"},
        {"trace.label_s", "s"},
        {"core.baseline_s", "s"},
        {"core.case_s", "s"},
        {"core.join_self_s", "s"},
        {"core.stitch_s", "s"},
        {"core.max_case_s", "s"},
        {"core.windows", "count"},
        {"exec.campaign_s", "s"},
        {"exec.serial_s", "s"},
        {"exec.critical_path_s", "s"},
        {"exec.speedup", "ratio"},
        {"exec.efficiency", "ratio"},
        {"ml.train_s", "s"},
        {"ml.epochs", "count"},
        {"ml.s_per_epoch", "s"},
        {"ml.evaluate_s", "s"},
        {"ml.test_macro_f1", "ratio"},
        {"ml.gemm_gflops", "GFLOP/s"},
        {"serve.publish_s", "s"},
        {"serve.refresh_s", "s"},
        {"serve.predict_b1_us", "us"},
        {"serve.predict_b32_us", "us"},
    };
    for (const char* rate : {"10k", "50k", "200k"}) {
      const std::string r = rate;
      c.emplace_back("serve.p50_us." + r, "us");
      c.emplace_back("serve.p99_us." + r, "us");
      c.emplace_back("serve.batch_rows." + r, "rows");
      c.emplace_back("serve.timeout_frac." + r, "ratio");
      c.emplace_back("serve.rejected." + r, "count");
      c.emplace_back("serve.gen_late_us." + r, "us");
    }
    c.emplace_back("serve.p999_us.50k", "us");
    for (const auto& m : Catalogue{
             {"ctrl.overhead_s", "s"},
             {"ctrl.on_events", "count"},
             {"ctrl.off_events", "count"},
             {"ctrl.throttle_waits", "count"},
             {"ctrl.throttle_delay_s", "s"},
             {"ctrl.on_victim_p99_ms", "ms"},
             {"ctrl.off_victim_p99_ms", "ms"},
             {"ctrl.on_mean_degradation", "ratio"},
             {"ctrl.off_mean_degradation", "ratio"},
             {"bench.trace_overhead_frac", "ratio"},
             {"bench.attribution_coverage", "ratio"},
         }) {
      c.push_back(m);
    }
    return c;
  }();
  return kMetrics;
}

namespace {

const std::string* unit_of(const std::string& name) {
  for (const Catalogue* c : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& [n, unit] : *c) {
      if (n == name) return &unit;
    }
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::metric(const std::string& name, double value) {
  if (unit_of(name) == nullptr) throw std::logic_error("uncatalogued metric " + name);
  metrics_[name] = value;
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
  if (!ok) std::fprintf(stderr, "check %s FAILED: %s\n", name.c_str(), detail.c_str());
}

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::samples(const std::string& name, std::vector<double> values) {
  samples_[name] = std::move(values);
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  return std::all_of(checks_.begin(), checks_.end(), [](const Check& c) { return c.ok; });
}

void Report::write(std::ostream& os, const Options& opt,
                   const std::map<std::string, std::string>& provenance) const {
  os << "{\n  \"workload\": " << json_string(opt.workload) << ",\n  \"seed\": " << opt.seed
     << ",\n  \"seconds\": " << json_number(opt.seconds)
     << ",\n  \"smoke\": " << (opt.smoke ? "true" : "false")
     << ",\n  \"traced\": " << (opt.trace_path.empty() ? "false" : "true")
     << ",\n  \"provenance\": {";
  bool first = true;
  for (const auto& [k, v] : provenance) {
    os << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  os << "},\n  \"correct\": " << (correct() ? "true" : "false")
     << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": " << failed_
     << ",\n  \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": " << json_string(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": " << json_string(c.detail)
       << "}";
  }
  os << "\n  ],\n  \"metrics\": {";
  first = true;
  for (const auto& [name, value] : metrics_) {
    os << (first ? "\n" : ",\n") << "    " << json_string(name)
       << ": {\"value\": " << json_number(value) << ", \"unit\": " << json_string(*unit_of(name))
       << "}";
    first = false;
  }
  os << "\n  },\n  \"samples\": {";
  first = true;
  for (const auto& [name, values] : samples_) {
    os << (first ? "\n" : ",\n") << "    " << json_string(name) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i == 0 ? "" : ", ") << json_number(values[i]);
    }
    os << "]";
    first = false;
  }
  os << "\n  }\n}\n";
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

std::uint64_t rep_seed(std::uint64_t seed, int k) {
  return k == 0 ? seed : qif::sim::Rng::derive_seed(seed, "rep " + std::to_string(k));
}

bool Context::finish_setup() {
  const double own = seconds_since(t_main);
  if (opt.setup_only) {
    std::printf("%s\n", json_number(own).c_str());
    return true;
  }
  std::vector<double> all = opt.setup_samples;
  all.push_back(own);
  report.metric("setup_s", median(all));
  report.samples("setup_s", all);
  std::fprintf(stderr, "set-up done in %.3f s\n", own);
  return false;
}

void Context::report_ops(const std::vector<double>& op_seconds) {
  std::vector<double> ms;
  for (const double s : op_seconds) ms.push_back(s * 1e3);
  report.metric("op_p50_ms", median(ms));
  report.samples("op_ms", ms);
}

// ---------------------------------------------------------------------------
// Campaign helpers
// ---------------------------------------------------------------------------

void PfsCounts::add(const qif::trace::TraceLog& trace) {
  for (const qif::trace::OpRecord& rec : trace.records()) {
    ++ops;
    bytes += static_cast<std::uint64_t>(rec.bytes);
    retries += static_cast<std::uint64_t>(rec.retries);
    timeouts += static_cast<std::uint64_t>(rec.timeouts);
    failed += rec.failed ? 1 : 0;
  }
}

void PfsCounts::report(Report& r) const {
  r.metric("pfs.ops", static_cast<double>(ops));
  r.metric("pfs.bytes", static_cast<double>(bytes));
  r.metric("pfs.retries", static_cast<double>(retries));
  r.metric("pfs.timeouts", static_cast<double>(timeouts));
  r.metric("pfs.failed_ops", static_cast<double>(failed));
}

namespace {

void count_outcomes(Report& report, const core::CampaignResult& result) {
  const auto failed = static_cast<std::uint64_t>(std::count_if(
      result.outcomes.begin(), result.outcomes.end(),
      [](const core::CaseOutcome& o) { return !o.ok(); }));
  report.count(result.outcomes.size(), failed);
}

}  // namespace

core::CampaignRunFn counted_runner(Context& ctx, int jobs) {
  return [&ctx, inner = qif::exec::campaign_runner(jobs)](const core::CampaignConfig& cc) {
    core::CampaignResult result;
    {
      auto span = ctx.spans.scope("campaign " + cc.target_workload, "exec");
      result = inner(cc);
    }
    count_outcomes(ctx.report, result);
    return result;
  };
}

core::CampaignRunFn attribution_runner(Context& ctx, Attribution& t) {
  return [&ctx, &t](const core::CampaignConfig& cc) {
    auto campaign = ctx.spans.scope("campaign " + cc.target_workload, "exec");
    // Same order and error handling as core::run_campaign: each baseline
    // seed once, then every case in declaration order.
    std::map<std::uint64_t, core::CampaignBaseline> baselines;
    double longest_baseline = 0.0;
    for (const std::uint64_t seed : core::campaign_baseline_seeds(cc)) {
      core::CampaignBaseline base;
      double s = 0.0;
      {
        auto span = ctx.spans.scope("run_scenario(baseline)", "core", &s);
        try {
          core::ScenarioResult run = core::run_scenario(core::campaign_baseline_config(cc, seed));
          t.events += run.events_executed;
          base.trace = std::move(run.trace);
        } catch (const std::exception& e) {
          base.error = e.what();
        }
      }
      t.baseline_s += s;
      longest_baseline = std::max(longest_baseline, s);
      baselines.emplace(seed, std::move(base));
    }

    qif::trace::LabelerConfig lbl_cfg;
    lbl_cfg.window = cc.window;
    lbl_cfg.bin_thresholds = cc.bin_thresholds;
    lbl_cfg.min_ops_per_window = cc.min_ops_per_window;
    const qif::trace::Labeler labeler(lbl_cfg);
    const bool mitigated = !cc.mitigation.empty();

    std::vector<core::CaseResult> cases;
    cases.reserve(cc.cases.size());
    double longest_task = 0.0;
    for (std::size_t i = 0; i < cc.cases.size(); ++i) {
      const core::CaseSpec& cs = cc.cases[i];
      const core::CampaignBaseline& base = baselines.at(cs.seed);
      const auto tag = static_cast<std::int64_t>(i);
      core::ScenarioConfig sc = core::campaign_case_config(cc, cs);
      core::CaseResult cr;
      cr.outcome.spec = cs;
      if (!base.error.empty()) {
        cr.outcome.error = "baseline failed: " + base.error;
      } else {
        try {
          double run_s = 0.0;
          core::ScenarioResult run;
          {
            auto span = ctx.spans.scope("run_scenario(case)", "core", &run_s, tag);
            run = core::run_scenario(sc);
          }
          t.case_s += run_s;
          t.max_case_s = std::max(t.max_case_s, run_s);
          t.events += run.events_executed;
          (mitigated ? t.case_s_mitigated : t.case_s_unmitigated) += run_s;
          (mitigated ? t.events_mitigated : t.events_unmitigated) += run.events_executed;
          t.records += base.trace.size() + run.trace.size();
          t.pfs.add(run.trace);
          std::vector<qif::trace::MatchedOp> matched;
          {
            auto span = ctx.spans.scope("TraceMatcher::match", "trace", &t.match_s, tag);
            matched = qif::trace::TraceMatcher::match(base.trace, run.trace, /*job=*/0);
          }
          {
            auto span = ctx.spans.scope("Labeler::label", "trace", &t.label_s, tag);
            const auto labels = labeler.label(matched);
            t.windows += labels.size();
          }
          double join_s = 0.0;
          {
            auto span = ctx.spans.scope("join_case_result", "core", &join_s, tag);
            cr = core::join_case_result(cc, cs, base.trace, run);
          }
          t.join_s += join_s;
          longest_task = std::max(longest_task, run_s + join_s);
        } catch (const std::exception& e) {
          cr = core::CaseResult{};
          cr.outcome.spec = cs;
          cr.outcome.error = e.what();
        }
      }
      t.cases.push_back(std::move(sc));
      cases.push_back(std::move(cr));
    }

    double stitch_s = 0.0;
    core::CampaignResult result;
    {
      auto span = ctx.spans.scope("stitch_case_results", "core", &stitch_s);
      result = core::stitch_case_results(std::move(cases));
    }
    t.stitch_s += stitch_s;
    t.critical_path_s += longest_baseline + longest_task + stitch_s;
    count_outcomes(ctx.report, result);
    return result;
  };
}

double monitors_off_twins_s(Context& ctx, const Attribution& totals) {
  double total = 0.0;
  for (std::size_t i = 0; i < totals.cases.size(); ++i) {
    core::ScenarioConfig twin = totals.cases[i];
    twin.monitors = false;
    auto span = ctx.spans.scope("run_scenario(monitors off)", "monitor", &total,
                                static_cast<std::int64_t>(i));
    (void)core::run_scenario(twin);
  }
  return total;
}

void report_attribution(Context& ctx, const Attribution& a, double twins_s,
                        double parallel_s) {
  Report& r = ctx.report;
  const double scenario_s = a.baseline_s + a.case_s;
  r.metric("sim.events", static_cast<double>(a.events));
  r.metric("sim.host_ns_per_event",
           a.events > 0 ? scenario_s * 1e9 / static_cast<double>(a.events) : 0.0);
  a.pfs.report(r);
  r.metric("monitor.overhead_s", a.case_s - twins_s);
  r.metric("trace.records", static_cast<double>(a.records));
  r.metric("trace.match_s", a.match_s);
  r.metric("trace.label_s", a.label_s);
  r.metric("core.baseline_s", a.baseline_s);
  r.metric("core.case_s", a.case_s);
  // join_case_result repeats the match and label timed on their own above.
  r.metric("core.join_self_s", std::max(0.0, a.join_s - a.match_s - a.label_s));
  r.metric("core.stitch_s", a.stitch_s);
  r.metric("core.max_case_s", a.max_case_s);
  r.metric("core.windows", static_cast<double>(a.windows));
  r.metric("exec.serial_s", a.serial_s());
  r.metric("exec.critical_path_s", a.critical_path_s);
  const double speedup = parallel_s > 0 ? a.serial_s() / parallel_s : 0.0;
  r.metric("exec.speedup", speedup);
  r.metric("exec.efficiency", speedup / ctx.jobs);
}

std::string qds_bytes(const qif::monitor::Dataset& ds) {
  std::ostringstream out;
  qif::monitor::write_dataset_qds(out, ds);
  return out.str();
}

// ---------------------------------------------------------------------------
// Serving and ml probes
// ---------------------------------------------------------------------------

qif::serve::ServingModel serving_model(const qif::ml::KernelNet& net,
                                       const qif::ml::Standardizer& stdz, int n_classes) {
  qif::serve::ServingModel model;
  model.kind = qif::serve::ServingModel::Kind::kKernel;
  model.kernel = net;
  model.stdz = stdz;
  model.n_classes = n_classes;
  return model;
}

double predict_batch_us(const qif::serve::ServingModel& model,
                        const qif::monitor::TableView& rows, std::size_t batch, bool smoke) {
  std::deque<qif::serve::Request> requests(batch);
  std::vector<qif::serve::Request*> ptrs;
  for (auto& r : requests) ptrs.push_back(&r);
  qif::serve::PredictScratch scratch;
  const int calls = smoke ? 20 : (batch == 1 ? 3000 : 400);
  const int warm = 10;
  std::vector<double> us;
  std::size_t next = 0;
  for (int call = 0; call < warm + calls; ++call) {
    for (auto& r : requests) {
      r.reset();
      r.features = rows.row(next++ % rows.size());
      r.n_features = rows.width();
    }
    const std::int64_t t0 = steady_ns();
    qif::serve::predict_batch(model, ptrs.data(), batch, scratch);
    if (call >= warm) us.push_back(static_cast<double>(steady_ns() - t0) * 1e-3);
  }
  return median(us);
}

double gemm_gflops(bool smoke) {
  constexpr std::size_t kM = 448;  // a 64-window minibatch x 7 servers
  constexpr std::size_t kK = 37;   // per-server feature width
  constexpr std::size_t kN = 64;   // first kernel-MLP layer
  qif::sim::Rng rng(7);
  qif::ml::Matrix a(kM, kK);
  qif::ml::Matrix b(kK, kN);
  for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.uniform(-1.0, 1.0);
  qif::ml::Matrix c;
  const int calls = smoke ? 20 : 1000;
  const int warm = 20;
  std::vector<double> seconds;
  for (int call = 0; call < warm + calls; ++call) {
    const auto t0 = Clock::now();
    qif::ml::gemm_nn(a, b, c);
    if (call >= warm) seconds.push_back(seconds_since(t0));
  }
  return 2.0 * kM * kK * kN / median(seconds) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace qif_bench
