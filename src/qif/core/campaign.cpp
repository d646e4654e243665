#include "qif/core/campaign.hpp"

#include <exception>
#include <map>
#include <utility>

#include "qif/trace/matcher.hpp"

namespace qif::core {
namespace {

workloads::JobSpec target_spec(const CampaignConfig& config, std::uint64_t seed) {
  workloads::JobSpec spec;
  spec.workload = config.target_workload;
  for (int n = 0; n < config.target_nodes; ++n) spec.nodes.push_back(n);
  spec.procs_per_node = config.target_procs_per_node;
  spec.job = 0;
  spec.seed = seed;
  spec.scale = config.target_scale;
  return spec;
}

std::vector<pfs::NodeId> interference_nodes(const CampaignConfig& config) {
  std::vector<pfs::NodeId> nodes;
  for (int n = config.target_nodes; n < config.cluster.n_client_nodes; ++n) {
    nodes.push_back(n);
  }
  return nodes;
}

}  // namespace

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {}

ScenarioConfig campaign_baseline_config(const CampaignConfig& config,
                                        std::uint64_t seed) {
  ScenarioConfig base;
  base.cluster = config.cluster;
  base.cluster.seed =
      sim::Rng::derive_seed(config.cluster.seed, "base" + std::to_string(seed));
  base.target = target_spec(config, seed);
  base.window = config.window;
  base.horizon = config.horizon;
  base.monitors = false;  // baseline only needs the trace
  return base;
}

ScenarioConfig campaign_case_config(const CampaignConfig& config, const CaseSpec& cs) {
  ScenarioConfig sc;
  sc.cluster = config.cluster;
  sc.cluster.seed = sim::Rng::derive_seed(
      config.cluster.seed, "case" + std::to_string(cs.seed) + cs.interference_workload);
  sc.target = target_spec(config, cs.seed);
  sc.window = config.window;
  sc.horizon = config.horizon;
  sc.monitors = true;
  sc.faults = config.faults;  // cases run degraded; baselines stay healthy
  sc.mitigation = config.mitigation;  // likewise: controllers gate cases only
  if (!cs.interference_workload.empty()) {
    InterferenceSpec spec;
    spec.workload = cs.interference_workload;
    spec.nodes = interference_nodes(config);
    spec.instances = cs.instances;
    spec.scale = cs.intensity_scale;
    spec.seed = sim::Rng::derive_seed(cs.seed, "noise" + cs.interference_workload);
    sc.interference = spec;
  }
  return sc;
}

std::vector<std::uint64_t> campaign_baseline_seeds(const CampaignConfig& config) {
  std::vector<std::uint64_t> seeds;
  for (const CaseSpec& cs : config.cases) {
    bool seen = false;
    for (const std::uint64_t s : seeds) seen = seen || s == cs.seed;
    if (!seen) seeds.push_back(cs.seed);
  }
  return seeds;
}

CampaignBaseline run_campaign_baseline(const CampaignConfig& config,
                                       std::uint64_t seed) {
  CampaignBaseline baseline;
  try {
    baseline.trace = run_scenario(campaign_baseline_config(config, seed)).trace;
  } catch (const std::exception& e) {
    baseline.error = e.what();
  } catch (...) {
    baseline.error = "unknown error";
  }
  return baseline;
}

CaseResult join_case_result(const CampaignConfig& config, const CaseSpec& cs,
                            const trace::TraceLog& base_trace,
                            const ScenarioResult& run) {
  trace::LabelerConfig lbl_cfg;
  lbl_cfg.window = config.window;
  lbl_cfg.bin_thresholds = config.bin_thresholds;
  lbl_cfg.min_ops_per_window = config.min_ops_per_window;
  const trace::Labeler labeler(lbl_cfg);

  trace::MatchStats mstats;
  const auto matched = trace::TraceMatcher::match(base_trace, run.trace, /*job=*/0, &mstats);
  const auto labels = labeler.label(matched);

  CaseResult result;
  result.outcome.spec = cs;
  result.outcome.matched_ops = mstats.matched;
  result.outcome.windows = labels.size();
  result.outcome.target_finished = run.target_finished;
  result.outcome.victim_p99_ms = ctrl::Mitigator::victim_p99_ms(run.trace);
  result.outcome.throttle_waits = run.ctrl.throttle_waits;
  result.outcome.throttled_bytes = run.ctrl.throttled_bytes;
  result.outcome.throttle_delay_s = run.ctrl.throttle_delay_s;
  result.outcome.mean_admission_level = run.ctrl.mean_admission_level;

  if (run.n_servers > 0) {
    result.shard.set_shape(run.n_servers, run.dim);
    result.shard.reserve(labels.size());
  }
  double deg_sum = 0.0;
  for (const trace::WindowLabel& lbl : labels) {
    // The scenario emits windows in ascending order, so the lookup is a
    // binary search over the window_index column.
    const std::size_t pos = run.window_features.find_window_sorted(lbl.window_index);
    if (pos == monitor::FeatureTable::npos) continue;  // no features captured
    result.shard.append_row(lbl.window_index, lbl.label, lbl.degradation,
                            run.window_features.row(pos));
    deg_sum += lbl.degradation;
  }
  // Average only over the windows actually summed: dividing by
  // labels.size() while skipping feature-less windows biased the headline
  // degradation number low.  labels.size() is still reported as `windows`.
  result.outcome.sampled_windows = result.shard.size();
  result.outcome.mean_degradation =
      result.shard.empty() ? 1.0
                           : deg_sum / static_cast<double>(result.shard.size());
  return result;
}

CaseResult run_campaign_case(const CampaignConfig& config, const CaseSpec& cs,
                             const CampaignBaseline& baseline) {
  CaseResult result;
  result.outcome.spec = cs;
  if (!baseline.error.empty()) {
    result.outcome.error = "baseline failed: " + baseline.error;
    return result;
  }
  try {
    const ScenarioResult run = run_scenario(campaign_case_config(config, cs));
    return join_case_result(config, cs, baseline.trace, run);
  } catch (const std::exception& e) {
    result.outcome.error = e.what();
  } catch (...) {
    result.outcome.error = "unknown error";
  }
  return result;
}

CampaignResult stitch_case_results(std::vector<CaseResult> cases) {
  CampaignResult result;
  // Reserve-once block assembly: size the table from the shards, adopt the
  // first successful shard's shape, then append each shard as one block
  // copy.  The whole stitch is O(shards) heap allocations, independent of
  // how many windows the campaign produced.
  std::size_t total_rows = 0;
  for (const CaseResult& cr : cases) {
    if (!cr.outcome.ok()) continue;
    total_rows += cr.shard.size();
    if (result.dataset.n_servers() == 0 && cr.shard.n_servers() != 0) {
      result.dataset.set_shape(cr.shard.n_servers(), cr.shard.dim());
    }
  }
  result.dataset.reserve(total_rows);
  result.outcomes.reserve(cases.size());
  for (CaseResult& cr : cases) {
    if (cr.outcome.ok()) result.dataset.append(cr.shard);
    result.outcomes.push_back(std::move(cr.outcome));
  }
  return result;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  std::map<std::uint64_t, CampaignBaseline> baselines;
  for (const std::uint64_t seed : campaign_baseline_seeds(config)) {
    baselines.emplace(seed, run_campaign_baseline(config, seed));
  }
  std::vector<CaseResult> cases;
  cases.reserve(config.cases.size());
  for (const CaseSpec& cs : config.cases) {
    cases.push_back(run_campaign_case(config, cs, baselines.at(cs.seed)));
  }
  return stitch_case_results(std::move(cases));
}

monitor::Dataset Campaign::run() {
  CampaignResult result = run_campaign(config_);
  outcomes_ = std::move(result.outcomes);
  return std::move(result.dataset);
}

}  // namespace qif::core
