// Standard training-data campaigns for the paper's three dataset families:
// IO500 (Figure 3a / Figure 4), DLIO (Figure 3b) and the real-application
// proxies AMReX / Enzo / OpenPMD (Figure 5).
//
// Scale note: the paper collected 11,638 (IO500) and 18,426 (DLIO) training
// windows over long testbed sessions; these campaigns generate a few
// thousand windows with the same class-balance character (IO500 majority
// positive, DLIO majority negative, OpenPMD small) so a full bench run
// stays in CPU-minutes.  `DatasetOptions::richness` scales the number of
// cases for users who want paper-sized datasets.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qif/core/campaign.hpp"
#include "qif/monitor/features.hpp"

namespace qif::core {

/// How a dataset builder executes one campaign.  The default (a null
/// function) is the sequential core::run_campaign; exec::campaign_runner(N)
/// supplies a thread-pool-backed runner with bit-identical output.  The
/// hook keeps qif_core free of any dependency on qif_exec.
using CampaignRunFn = std::function<CampaignResult(const CampaignConfig&)>;

struct DatasetOptions {
  std::vector<double> bin_thresholds = {2.0};  ///< {2} binary; {2,5} 3-class
  /// Multiplies the number of campaign cases (at least one per group).
  /// The builders throw std::invalid_argument unless it is positive and
  /// finite.
  double richness = 1.0;
  std::uint64_t seed = 42;
  bool verbose = false;     ///< print per-campaign progress to stdout
  /// Windows with fewer matched ops are dropped (Level_degrade over one or
  /// two ops is mostly noise; bursty loaders like DLIO need this).
  std::size_t min_ops_per_window = 1;
  CampaignRunFn runner;     ///< null = run campaigns sequentially
  /// Fault plan injected into every campaign's case runs (baselines stay
  /// healthy).  Empty = the historical healthy datasets.
  pfs::faults::FaultPlan faults;
  /// Mitigation policy armed on every campaign's case runs (baselines stay
  /// untouched).  Empty = the historical unmitigated datasets.
  ctrl::MitigationConfig mitigation;
  /// Called after each campaign finishes with the target workload's name
  /// and its full result (outcomes + dataset shard) — the CLI's mitigation
  /// study aggregates on-vs-off comparisons through this.
  std::function<void(const std::string& target, const CampaignResult& result)> on_result;
};

/// Windows from all 7 IO500 tasks under quiet/read/write/metadata noise at
/// two intensities.  Majority interference-positive, like the paper's
/// 8,647 / 2,991 split.
[[nodiscard]] monitor::Dataset build_io500_dataset(const DatasetOptions& options);

/// Windows from DLIO Unet3d + BERT loader runs.  Think-time structure makes
/// most windows negative, like the paper's 3,702 / 14,724 split.
[[nodiscard]] monitor::Dataset build_dlio_dataset(const DatasetOptions& options);

/// Windows for one application proxy ("amrex", "enzo", "openpmd"):
/// 1 quiet case plus runs with increasing amounts of concurrent IO500
/// interference, following the paper's real-application protocol.
/// OpenPMD's short metadata-bound runs yield few samples by construction.
[[nodiscard]] monitor::Dataset build_app_dataset(const std::string& app,
                                                 const DatasetOptions& options);

}  // namespace qif::core
