// Training-data campaigns (paper §III-D).
//
// "We collect high-quality labelled data by executing an application in the
// presence and absence of additional I/O workloads running on other
// computing nodes."  A campaign runs the target workload once per seed as a
// baseline, then once per interference case; matches the two traces op by
// op; computes per-window degradation labels; and joins them with the
// interference run's monitor features into a labelled dataset.
//
// The work decomposes into pure per-task functions (baseline runs and case
// runs) with no shared mutable state: every scenario owns its own
// sim::Simulation and derived RNG seed.  The free functions below are that
// task surface; Campaign::run() is the sequential driver over them, and
// qif::exec::ParallelCampaignRunner fans the same tasks across a thread
// pool with bit-identical results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qif/core/scenario.hpp"
#include "qif/monitor/features.hpp"
#include "qif/trace/labeler.hpp"

namespace qif::core {

/// One interference case: which background workload, how many concurrent
/// instances ("levels of interference"), and the seed that varies both the
/// target run and the background phase alignment.
struct CaseSpec {
  std::string interference_workload;  ///< empty = quiet case (negatives)
  int instances = 3;
  double intensity_scale = 1.0;
  std::uint64_t seed = 1;
};

struct CampaignConfig {
  std::string target_workload;
  int target_nodes = 2;            ///< leading nodes host the target...
  int target_procs_per_node = 2;
  double target_scale = 1.0;
  std::vector<CaseSpec> cases;     ///< ...remaining nodes host interference
  pfs::ClusterConfig cluster;      ///< topology template (seed overridden per run)
  sim::SimDuration window = sim::kSecond;
  sim::SimDuration horizon = 240 * sim::kSecond;
  std::vector<double> bin_thresholds = {2.0};  ///< {2} binary, {2,5} 3-class
  std::size_t min_ops_per_window = 1;
  /// Fault-injection schedule applied to every *case* run (the monitored,
  /// possibly-degraded executions).  Baseline runs always stay healthy: the
  /// label denominator is "this workload on an undisturbed cluster", so a
  /// degraded-OST case is measured against the same healthy yardstick as a
  /// contended one.  Empty = the historical healthy campaign, bit-identical
  /// to pre-fault builds.
  pfs::faults::FaultPlan faults;
  /// Mitigation policy armed on every *case* run (the fault-plan pattern:
  /// baselines stay untouched, so labels keep the same healthy yardstick).
  /// Empty = the historical unmitigated campaign, byte-identical to
  /// pre-mitigation builds.
  ctrl::MitigationConfig mitigation;
};

struct CaseOutcome {
  CaseSpec spec;
  std::size_t matched_ops = 0;
  std::size_t windows = 0;          ///< labelled windows
  std::size_t sampled_windows = 0;  ///< labelled windows that also had features
  /// Mean Level_degrade over the sampled windows (the windows that became
  /// dataset samples), 1.0 when no window was sampled.
  double mean_degradation = 0.0;
  /// p99 of the target job's op latencies in this case run (ms; computed
  /// for every case, mitigated or not, so on-vs-off twins compare directly).
  double victim_p99_ms = 0.0;
  // -- mitigation telemetry (zero when the case ran unmitigated) -----------
  std::int64_t throttle_waits = 0;
  std::int64_t throttled_bytes = 0;
  double throttle_delay_s = 0.0;
  double mean_admission_level = 0.0;
  bool target_finished = false;
  std::string error;                ///< non-empty when this case failed
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// One case's contribution: its bookkeeping plus its dataset shard.
struct CaseResult {
  CaseOutcome outcome;
  monitor::Dataset shard;
};

/// A whole campaign's output with the outcomes in case-declaration order.
struct CampaignResult {
  monitor::Dataset dataset;
  std::vector<CaseOutcome> outcomes;
};

/// One side's aggregate over every campaign outcome in a mitigation study
/// (two dataset passes over the same seeds, mitigation off then on, fed
/// through DatasetOptions::on_result).  Failed cases are skipped.
struct MitigationAggregate {
  double deg_sum = 0.0;  ///< sampled-window-weighted Level_degrade
  long long deg_windows = 0;
  double p99_sum = 0.0;  ///< per-case victim p99 sum
  long long cases = 0;
  long long throttle_waits = 0;
  double throttle_delay_s = 0.0;

  void add(const CampaignResult& result) {
    for (const CaseOutcome& o : result.outcomes) {
      if (!o.ok()) continue;
      deg_sum += o.mean_degradation * static_cast<double>(o.sampled_windows);
      deg_windows += static_cast<long long>(o.sampled_windows);
      p99_sum += o.victim_p99_ms;
      ++cases;
      throttle_waits += o.throttle_waits;
      throttle_delay_s += o.throttle_delay_s;
    }
  }
  void merge(const MitigationAggregate& other) {
    deg_sum += other.deg_sum;
    deg_windows += other.deg_windows;
    p99_sum += other.p99_sum;
    cases += other.cases;
    throttle_waits += other.throttle_waits;
    throttle_delay_s += other.throttle_delay_s;
  }
  [[nodiscard]] double mean_deg() const {
    return deg_windows > 0 ? deg_sum / static_cast<double>(deg_windows) : 1.0;
  }
  [[nodiscard]] double mean_p99() const {
    return cases > 0 ? p99_sum / static_cast<double>(cases) : 0.0;
  }
};

/// A baseline run's detached trace, or the error that prevented it.
struct CampaignBaseline {
  trace::TraceLog trace;
  std::string error;  ///< non-empty when the baseline scenario failed
};

/// Scenario config for the quiet baseline run of one target seed.
[[nodiscard]] ScenarioConfig campaign_baseline_config(const CampaignConfig& config,
                                                      std::uint64_t seed);

/// Scenario config for one interference case.
[[nodiscard]] ScenarioConfig campaign_case_config(const CampaignConfig& config,
                                                  const CaseSpec& cs);

/// Distinct baseline seeds referenced by the campaign's cases, in
/// first-appearance order.
[[nodiscard]] std::vector<std::uint64_t> campaign_baseline_seeds(
    const CampaignConfig& config);

/// Runs one baseline scenario; a throwing scenario is reported in `error`
/// instead of propagating.  Thread-safe: touches no shared state.
[[nodiscard]] CampaignBaseline run_campaign_baseline(const CampaignConfig& config,
                                                     std::uint64_t seed);

/// Matches an already-run case scenario against its baseline trace, labels
/// the windows and joins them with the captured features.  Pure; exposed
/// separately so the degradation accounting is unit-testable.
[[nodiscard]] CaseResult join_case_result(const CampaignConfig& config,
                                          const CaseSpec& cs,
                                          const trace::TraceLog& base_trace,
                                          const ScenarioResult& run);

/// Runs one case end to end against a precomputed baseline.  A throwing
/// scenario (or a failed baseline) is reported per-case via
/// CaseOutcome::error instead of aborting the campaign.  Thread-safe.
[[nodiscard]] CaseResult run_campaign_case(const CampaignConfig& config,
                                           const CaseSpec& cs,
                                           const CampaignBaseline& baseline);

/// Assembles per-case results (in declaration order) into one campaign
/// result: outcomes in order, successful shards block-appended into a
/// reserve-once dataset (O(shards) heap allocations regardless of window
/// count).  Shared by the sequential driver below and
/// exec::ParallelCampaignRunner's stitch phase.
[[nodiscard]] CampaignResult stitch_case_results(std::vector<CaseResult> cases);

/// Sequential driver: baselines first (each seed once), then every case in
/// declaration order.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

class Campaign {
 public:
  explicit Campaign(CampaignConfig config);

  /// Runs every case sequentially and returns the accumulated labelled
  /// dataset.  (For the parallel path see exec::ParallelCampaignRunner,
  /// whose output is bit-identical.)
  [[nodiscard]] monitor::Dataset run();

  [[nodiscard]] const std::vector<CaseOutcome>& outcomes() const { return outcomes_; }
  [[nodiscard]] const CampaignConfig& config() const { return config_; }

 private:
  CampaignConfig config_;
  std::vector<CaseOutcome> outcomes_;
};

}  // namespace qif::core
