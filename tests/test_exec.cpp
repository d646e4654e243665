// Tests for the qif::exec subsystem: the fixed-size thread pool and the
// parallel campaign runner's bit-identical-to-sequential guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "qif/core/campaign.hpp"
#include "qif/core/scenario.hpp"
#include "qif/exec/parallel_runner.hpp"
#include "qif/exec/thread_pool.hpp"

namespace qif {
namespace {

TEST(ThreadPool, ClampsWorkerCountToAtLeastOne) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  exec::ThreadPool pool4(4);
  EXPECT_EQ(pool4.size(), 4);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  exec::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ForEachIndexCoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each_index(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachIndexRethrowsLowestIndexError) {
  exec::ThreadPool pool(4);
  // Indices 5 and 11 throw; the lowest one must win deterministically.
  try {
    pool.for_each_index(16, [](std::size_t i) {
      if (i == 11) throw std::runtime_error("error at 11");
      if (i == 5) throw std::runtime_error("error at 5");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "error at 5");
  }
}

TEST(ThreadPool, QueueKeepsFifoOrderAcrossWrapAndGrowth) {
  // One worker runs tasks in queue order.  Eleven tasks advance the ring's
  // head, then a blocked worker lets 40 tasks wrap the ring and grow it
  // twice with the head mid-buffer.
  exec::ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 11; ++i) pool.submit([&order, i] { order.push_back(i); });
  pool.wait_idle();
  std::mutex gate;
  std::unique_lock<std::mutex> hold(gate);
  pool.submit([&gate] { const std::lock_guard<std::mutex> wait_for_release(gate); });
  for (int i = 11; i < 51; ++i) pool.submit([&order, i] { order.push_back(i); });
  hold.unlock();
  pool.wait_idle();
  ASSERT_EQ(order.size(), 51u);
  for (int i = 0; i < 51; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) pool.submit([&count] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 32);
}

core::CampaignConfig small_campaign(std::uint64_t cluster_seed) {
  core::CampaignConfig cc;
  cc.target_workload = "ior-easy-write";
  cc.target_nodes = 1;
  cc.target_procs_per_node = 2;
  cc.target_scale = 0.5;
  cc.cluster = core::testbed_cluster_config(cluster_seed);
  cc.cases.push_back({"", 0, 1.0, 1});
  cc.cases.push_back({"ior-easy-read", 12, 1.0, 2});
  cc.cases.push_back({"mdt-easy-write", 6, 1.0, 1});  // shares seed 1's baseline
  cc.cases.push_back({"", 0, 1.0, 2});                // shares seed 2's baseline
  return cc;
}

void expect_identical(const core::CampaignResult& a, const core::CampaignResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const core::CaseOutcome& oa = a.outcomes[i];
    const core::CaseOutcome& ob = b.outcomes[i];
    EXPECT_EQ(oa.spec.interference_workload, ob.spec.interference_workload);
    EXPECT_EQ(oa.spec.seed, ob.spec.seed);
    EXPECT_EQ(oa.matched_ops, ob.matched_ops);
    EXPECT_EQ(oa.windows, ob.windows);
    EXPECT_EQ(oa.sampled_windows, ob.sampled_windows);
    EXPECT_EQ(oa.mean_degradation, ob.mean_degradation);  // bit-identical
    EXPECT_EQ(oa.target_finished, ob.target_finished);
    EXPECT_EQ(oa.error, ob.error);
  }
  EXPECT_EQ(a.dataset.n_servers(), b.dataset.n_servers());
  EXPECT_EQ(a.dataset.dim(), b.dataset.dim());
  ASSERT_EQ(a.dataset.size(), b.dataset.size());
  for (std::size_t i = 0; i < a.dataset.size(); ++i) {
    EXPECT_EQ(a.dataset.window_index(i), b.dataset.window_index(i));
    EXPECT_EQ(a.dataset.label(i), b.dataset.label(i));
    EXPECT_EQ(a.dataset.degradation(i), b.dataset.degradation(i));
    for (std::size_t j = 0; j < a.dataset.width(); ++j) {
      EXPECT_EQ(a.dataset.row(i)[j], b.dataset.row(i)[j])
          << "sample " << i << " feature " << j;
    }
  }
}

TEST(ParallelCampaignRunner, BitIdenticalToSequentialAtAnyJobCount) {
  const core::CampaignConfig cc = small_campaign(21);
  const core::CampaignResult sequential = core::run_campaign(cc);
  const core::CampaignResult one_job = exec::run_campaign_parallel(cc, 1);
  const core::CampaignResult four_jobs = exec::run_campaign_parallel(cc, 4);
  ASSERT_FALSE(sequential.dataset.empty());
  expect_identical(sequential, one_job);
  expect_identical(sequential, four_jobs);
}

TEST(ParallelCampaignRunner, ThrowingCaseIsReportedPerCaseNotFatal) {
  core::CampaignConfig cc = small_campaign(22);
  // An unknown interference workload makes run_scenario throw for exactly
  // this case; the campaign must still complete every other case.
  cc.cases[1].interference_workload = "no-such-workload";
  const core::CampaignResult result = exec::run_campaign_parallel(cc, 4);
  ASSERT_EQ(result.outcomes.size(), 4u);
  EXPECT_FALSE(result.outcomes[1].ok());
  EXPECT_NE(result.outcomes[1].error.find("no-such-workload"), std::string::npos);
  EXPECT_EQ(result.outcomes[1].windows, 0u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_TRUE(result.outcomes[i].ok()) << "case " << i;
    EXPECT_GT(result.outcomes[i].windows, 0u) << "case " << i;
  }
  EXPECT_FALSE(result.dataset.empty());

  // The sequential driver reports the same failure the same way.
  const core::CampaignResult sequential = core::run_campaign(cc);
  expect_identical(sequential, result);
}

TEST(ParallelCampaignRunner, FailedBaselinePoisonsOnlyItsCases) {
  core::CampaignConfig cc = small_campaign(23);
  cc.target_workload = "no-such-target";
  const core::CampaignResult result = exec::run_campaign_parallel(cc, 2);
  ASSERT_EQ(result.outcomes.size(), 4u);
  for (const auto& o : result.outcomes) {
    EXPECT_FALSE(o.ok());
    EXPECT_NE(o.error.find("baseline failed"), std::string::npos);
  }
  EXPECT_TRUE(result.dataset.empty());
}

TEST(ParallelCampaignRunner, CampaignRunnerHookDispatchesByJobs) {
  const core::CampaignConfig cc = small_campaign(24);
  const core::CampaignRunFn seq = exec::campaign_runner(1);
  const core::CampaignRunFn par = exec::campaign_runner(3);
  expect_identical(seq(cc), par(cc));
}

}  // namespace
}  // namespace qif
