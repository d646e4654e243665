// Property sweep: every canonical workload must run end to end through
// the scenario pipeline — completing, tracing every rank, producing
// well-formed monitor features, and replaying deterministically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "qif/core/scenario.hpp"
#include "qif/workloads/registry.hpp"

namespace qif::core {
namespace {

class WorkloadScenarioTest : public ::testing::TestWithParam<std::string> {};

ScenarioConfig small_config(const std::string& workload) {
  ScenarioConfig cfg;
  cfg.cluster = testbed_cluster_config(31);
  cfg.target.workload = workload;
  cfg.target.nodes = {0, 1};
  cfg.target.procs_per_node = 2;
  cfg.target.seed = 5;
  cfg.target.scale = 0.25;
  cfg.horizon = 300 * sim::kSecond;
  return cfg;
}

TEST_P(WorkloadScenarioTest, RunsToCompletionAndTracesEveryRank) {
  const ScenarioResult res = run_scenario(small_config(GetParam()));
  ASSERT_TRUE(res.target_finished) << GetParam();
  EXPECT_GT(res.target_completion, 0);
  EXPECT_GE(res.target_body_start, 0);
  EXPECT_LE(res.target_body_start, res.target_completion);
  std::set<pfs::Rank> ranks;
  for (const auto& r : res.trace.records()) {
    EXPECT_GE(r.start, 0);
    EXPECT_GE(r.end, r.start);
    ranks.insert(r.rank);
  }
  EXPECT_EQ(ranks.size(), 4u) << GetParam();
}

TEST_P(WorkloadScenarioTest, OpIndicesAreDensePerRank) {
  const ScenarioResult res = run_scenario(small_config(GetParam()));
  const auto sorted = res.trace.sorted_for_job(0);
  pfs::Rank rank = -1;
  std::int64_t expected = 0;
  for (const trace::OpRecord* r : sorted) {
    if (r->rank != rank) {
      rank = r->rank;
      expected = 0;
    }
    EXPECT_EQ(r->op_index, expected) << GetParam() << " rank " << r->rank;
    ++expected;
  }
}

TEST_P(WorkloadScenarioTest, WindowFeaturesAreFiniteAndPlausible) {
  const ScenarioResult res = run_scenario(small_config(GetParam()));
  ASSERT_FALSE(res.window_features.empty()) << GetParam();
  const monitor::MetricSchema schema;
  for (std::size_t i = 0; i < res.window_features.size(); ++i) {
    const std::vector<double> f = res.window_features.row_vector(i);
    ASSERT_EQ(f.size(), 7u * static_cast<std::size_t>(schema.dim()));
    for (std::size_t j = 0; j < f.size(); ++j) {
      EXPECT_TRUE(std::isfinite(f[j])) << GetParam() << " feature " << j;
      // Counts, byte sums, times and their aggregates are all non-negative.
      EXPECT_GE(f[j], 0.0) << GetParam() << " feature " << j;
    }
  }
}

TEST_P(WorkloadScenarioTest, ReplayIsBitIdentical) {
  const ScenarioResult a = run_scenario(small_config(GetParam()));
  const ScenarioResult b = run_scenario(small_config(GetParam()));
  EXPECT_EQ(a.target_completion, b.target_completion);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace.records()[i].end, b.trace.records()[i].end);
  }
}

// Trace fingerprints of strided IOR transfers under looping noise, pinned:
// ior-hard-read steps its offsets by n_ranks transfers (stride != len) and
// ior-easy-write by one (stride == len).  Each runs as the target with the
// other looping as noise, so a program's body is replayed many times over.
TEST(StridedTransfers, LoopingNoiseFingerprintsArePinned) {
  const auto fingerprint = [](const std::string& target, const std::string& noise) {
    ScenarioConfig cfg = small_config(target);
    InterferenceSpec bg;
    bg.workload = noise;
    bg.nodes = {2, 3};
    bg.instances = 3;
    bg.scale = 0.25;
    cfg.interference = bg;
    const ScenarioResult res = run_scenario(cfg);
    EXPECT_TRUE(res.target_finished) << target;
    return trace::trace_fingerprint(res.trace);
  };
  const std::uint64_t hard_read = fingerprint("ior-hard-read", "ior-easy-write");
  const std::uint64_t easy_write = fingerprint("ior-easy-write", "ior-hard-read");
  EXPECT_EQ(hard_read, 13381527279156813857ull);
  EXPECT_EQ(easy_write, 898418919929659240ull);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadScenarioTest,
                         ::testing::ValuesIn(workloads::known_workloads()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace qif::core
