// Shared state of one qif_bench process: options, the result report, the
// span recorder, and the helpers more than one workload uses.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "qif/core/campaign.hpp"
#include "qif/core/datasets.hpp"
#include "qif/serve/batcher.hpp"
#include "spans.hpp"

namespace qif_bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 15.0;      ///< length of the timed loop
  bool smoke = false;         ///< minimum sizes, one rep; every check still runs
  bool setup_only = false;    ///< stop after set-up and print its seconds
  std::string trace_path;     ///< non-empty: traced run, Chrome trace written here
  std::string out_path;       ///< result JSON
  std::string work_dir;       ///< scratch files (.qds, model registry)
  std::string git_rev = "unknown";
  std::vector<double> setup_samples;  ///< set-up seconds of earlier fresh processes
};

/// Metric name -> unit, for the end-to-end and per-layer catalogues below.
using Catalogue = std::vector<std::pair<std::string, std::string>>;

/// Reported by every workload in every run.
[[nodiscard]] const Catalogue& end_to_end_metrics();
/// Reported by every workload in a traced run; a layer the workload does
/// not exercise reads 0.
[[nodiscard]] const Catalogue& per_layer_metrics();

class Report {
 public:
  /// Sets a catalogued metric; throws std::logic_error for unknown names so
  /// a typo cannot silently drop a metric.
  void metric(const std::string& name, double value);
  /// Records an output check; any failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  /// Adds operations attempted and failed (failed campaign cases, scenario
  /// runs whose target did not finish, requests not completed).
  void count(std::uint64_t attempted, std::uint64_t failed);
  /// Keeps a raw sample list in the result file, for audit.
  void samples(const std::string& name, std::vector<double> values);

  [[nodiscard]] bool correct() const;
  [[nodiscard]] bool has(const std::string& name) const { return metrics_.count(name) != 0; }

  /// Writes the result file: provenance, counts, checks, metrics, samples.
  void write(std::ostream& os, const Options& opt,
             const std::map<std::string, std::string>& provenance) const;

 private:
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::map<std::string, double> metrics_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::vector<double>> samples_;
};

/// Input seed of timed rep `k` of a run with --seed `seed`: rep 0 (and the
/// set-up and traced runs, which use the same input) gets the seed itself,
/// later reps derived ones, so one run's median spans several inputs and no
/// rep can be served from a cache of an earlier rep's results.
[[nodiscard]] std::uint64_t rep_seed(std::uint64_t seed, int k);

struct Context {
  Options opt;
  int jobs = 1;            ///< campaign workers the workload runs on (1: sequential driver)
  int host_cores = 1;
  Clock::time_point t_main;
  SpanRecorder spans{false};
  Report report;

  /// Ends set-up: records this process's set-up seconds (since main) and
  /// reports setup_s as the median with the earlier processes' samples.
  /// Returns true when the run should stop here (--setup-only).
  bool finish_setup();
  /// Reports op_p50_ms from the timed loop's per-op seconds.
  void report_ops(const std::vector<double>& op_seconds);
};

// ---------------------------------------------------------------------------
// Campaign helpers (pipeline-io500, mitigate-faulted)
// ---------------------------------------------------------------------------

/// Simulated pfs counts summed over trace records.
struct PfsCounts {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failed = 0;
  void add(const qif::trace::TraceLog& trace);
  void report(Report& report) const;
};

/// The end-to-end runner: exec::campaign_runner(jobs) with one span per
/// campaign, counting cases attempted and failed into the report.
[[nodiscard]] qif::core::CampaignRunFn counted_runner(Context& ctx, int jobs);

/// Totals gathered by the attribution runner.
struct Attribution {
  double baseline_s = 0.0;    ///< run_scenario(campaign_baseline_config)
  double case_s = 0.0;        ///< run_scenario(campaign_case_config)
  double match_s = 0.0;       ///< TraceMatcher::match, timed on its own
  double label_s = 0.0;       ///< Labeler::label, timed on its own
  double join_s = 0.0;        ///< join_case_result (repeats match + label)
  double stitch_s = 0.0;      ///< stitch_case_results
  double max_case_s = 0.0;    ///< longest single case scenario
  double critical_path_s = 0.0;  ///< per campaign: longest baseline + longest case task + stitch
  double case_s_mitigated = 0.0;    ///< case scenarios with a mitigation policy armed
  double case_s_unmitigated = 0.0;
  std::uint64_t events = 0;
  std::uint64_t events_mitigated = 0;
  std::uint64_t events_unmitigated = 0;
  std::uint64_t records = 0;  ///< trace records the matcher scanned
  std::uint64_t windows = 0;  ///< labelled windows
  PfsCounts pfs;              ///< over case runs
  std::vector<qif::core::ScenarioConfig> cases;  ///< for the monitors-off twins

  /// exec.serial_s: the work the sequential driver does.
  [[nodiscard]] double serial_s() const { return baseline_s + case_s + join_s + stitch_s; }
};

/// A jobs-1 runner that decomposes every campaign into its public calls,
/// with a span and a total for each; output equals the sequential driver's.
[[nodiscard]] qif::core::CampaignRunFn attribution_runner(Context& ctx, Attribution& totals);

/// Re-runs every attributed case with monitors off; returns their seconds.
[[nodiscard]] double monitors_off_twins_s(Context& ctx, const Attribution& totals);

/// Reports the sim, pfs, trace, core, exec (but exec.campaign_s) and
/// monitor.overhead_s metrics of an attribution pass.  `parallel_s` is the
/// same campaigns' time at J jobs, the base of exec.speedup.
void report_attribution(Context& ctx, const Attribution& a, double twins_s,
                        double parallel_s);

/// Canonical `.qds` bytes of a dataset (what write_dataset_qds emits).
[[nodiscard]] std::string qds_bytes(const qif::monitor::Dataset& ds);

// ---------------------------------------------------------------------------
// Serving and ml probes
// ---------------------------------------------------------------------------

/// Builds the serving bundle from a trained model, as core::OnlinePredictor does.
[[nodiscard]] qif::serve::ServingModel serving_model(const qif::ml::KernelNet& net,
                                                     const qif::ml::Standardizer& stdz,
                                                     int n_classes);

/// Median microseconds of one predict_batch call over `batch` rows of `rows`,
/// timed outside the service.
[[nodiscard]] double predict_batch_us(const qif::serve::ServingModel& model,
                                      const qif::monitor::TableView& rows, std::size_t batch,
                                      bool smoke);

/// GFLOP/s of gemm_nn at the kernel net's first-layer shape (448x37 . 37x64),
/// counted as 2*m*k*n operations per call over the median call time.
[[nodiscard]] double gemm_gflops(bool smoke);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

void run_pipeline_io500(Context& ctx);
void run_mitigate_faulted(Context& ctx);
void run_serve_openloop(Context& ctx);
void run_cluster_1008(Context& ctx);

}  // namespace qif_bench
