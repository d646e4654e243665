// Golden and determinism tests for mitigated campaigns.
//
// Mirrors test_campaign_faults' contracts for the mitigation layer:
//  1. A campaign with mitigation *off* stays byte-identical to the
//     pre-mitigation golden CSV — wiring qif::ctrl through the scenario
//     runner must not move a single unmitigated byte.
//  2. A mitigated campaign is deterministic: byte-identical CSV
//     sequentially and on 4 workers (the controllers' state never leaks
//     across the worker partition).
//  3. The mitigation-wins gate: the CLI's on-vs-off study (two dataset
//     passes over the same seeds, aggregated per side) measures less
//     degradation and a lower victim p99 with mitigation on than off.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "qif/core/campaign.hpp"
#include "qif/core/datasets.hpp"
#include "qif/exec/parallel_runner.hpp"
#include "qif/monitor/export.hpp"

namespace qif::core {
namespace {

/// The exact campaign the committed golden was generated from (see
/// test_campaign_faults.cpp; regenerate the golden before touching it).
CampaignConfig golden_config() {
  CampaignConfig cc;
  cc.target_workload = "ior-easy-write";
  cc.target_nodes = 2;
  cc.target_procs_per_node = 2;
  cc.target_scale = 1.0;
  cc.cluster = testbed_cluster_config(31);
  cc.horizon = 120 * sim::kSecond;
  cc.cases = {{"", 0, 1.0, 7},
              {"ior-easy-read", 3, 1.0, 7},
              {"ior-easy-read", 6, 1.0, 9},
              {"mdt-hard-write", 3, 1.0, 8}};
  return cc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string campaign_csv(const CampaignResult& result) {
  std::ostringstream os;
  monitor::write_dataset_csv(os, result.dataset);
  return os.str();
}

TEST(CampaignMitigate, OffCampaignMatchesPreMitigationGoldenByteExact) {
  const std::string golden =
      read_file(std::string(QIF_TEST_DATA_DIR) + "/campaign_prepr_golden.csv");
  ASSERT_GT(golden.size(), 1000u);
  const CampaignConfig cc = golden_config();
  ASSERT_TRUE(cc.mitigation.empty());
  EXPECT_EQ(campaign_csv(run_campaign(cc)), golden)
      << "mitigation-off campaign drifted from the pre-mitigation golden";
}

TEST(CampaignMitigate, MitigatedCampaignIsByteIdenticalAcrossJobCounts) {
  CampaignConfig cc = golden_config();
  cc.mitigation = ctrl::parse_mitigation("token");
  const CampaignResult sequential = run_campaign(cc);
  ASSERT_FALSE(sequential.dataset.empty());
  const std::string seq_csv = campaign_csv(sequential);

  const exec::ParallelCampaignRunner runner(cc, 4);
  EXPECT_EQ(seq_csv, campaign_csv(runner.run()));

  // And the controllers actually moved the data: the mitigated CSV differs
  // from the unmitigated golden, and the noisy cases saw throttling.
  const std::string golden =
      read_file(std::string(QIF_TEST_DATA_DIR) + "/campaign_prepr_golden.csv");
  EXPECT_NE(seq_csv, golden);
  std::int64_t waits = 0;
  for (const CaseOutcome& oc : sequential.outcomes) waits += oc.throttle_waits;
  EXPECT_GT(waits, 0);
}

TEST(CampaignMitigate, StudyShowsOnBeatsOffOnDegradationAndVictimTail) {
  // `qif campaign custom --workload ior-easy-write --richness 0.25 --seed 7
  // --mitigate token:rate=64`: an off pass, then an on pass over the same
  // seeds, each side aggregated through DatasetOptions::on_result.
  DatasetOptions opts;
  opts.richness = 0.25;
  opts.seed = 7;
  MitigationAggregate off;
  MitigationAggregate on;
  opts.on_result = [&off](const std::string&, const CampaignResult& r) { off.add(r); };
  (void)build_app_dataset("ior-easy-write", opts);
  opts.mitigation = ctrl::parse_mitigation("token:rate=64");
  opts.on_result = [&on](const std::string&, const CampaignResult& r) { on.add(r); };
  (void)build_app_dataset("ior-easy-write", opts);

  ASSERT_GT(off.cases, 0);
  ASSERT_EQ(on.cases, off.cases);
  EXPECT_EQ(off.throttle_waits, 0);
  EXPECT_GT(on.throttle_waits, 0);
  EXPECT_LT(on.mean_deg(), off.mean_deg());
  EXPECT_LT(on.mean_p99(), off.mean_p99());
}

}  // namespace
}  // namespace qif::core
