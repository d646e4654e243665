// Integration tests for the core framework: scenarios, campaigns, the
// training server, and the online predictor.
#include <gtest/gtest.h>

#include <algorithm>

#include <sstream>

#include "qif/core/campaign.hpp"
#include "qif/core/online.hpp"
#include "qif/core/scenario.hpp"
#include "qif/core/report.hpp"
#include "qif/core/training_server.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/serve/batcher.hpp"

namespace qif::core {
namespace {

ScenarioConfig small_scenario(const std::string& workload, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.cluster = testbed_cluster_config(seed);
  cfg.target.workload = workload;
  cfg.target.nodes = {0};
  cfg.target.procs_per_node = 2;
  cfg.target.seed = seed;
  cfg.target.scale = 0.25;
  return cfg;
}

TEST(Scenario, BaselineRunCompletesAndTraces) {
  ScenarioConfig cfg = small_scenario("ior-easy-write", 1);
  cfg.monitors = false;
  const ScenarioResult res = run_scenario(cfg);
  EXPECT_TRUE(res.target_finished);
  EXPECT_GT(res.target_completion, 0);
  EXPECT_GT(res.events_executed, 0u);
  EXPECT_FALSE(res.trace.empty());
  EXPECT_TRUE(res.window_features.empty());  // monitors off
}

TEST(Scenario, MonitorsProduceWindowFeatures) {
  ScenarioConfig cfg = small_scenario("ior-easy-write", 2);
  const ScenarioResult res = run_scenario(cfg);
  EXPECT_EQ(res.n_servers, 7);
  EXPECT_EQ(res.dim, monitor::MetricSchema::kPerServerDim);
  ASSERT_FALSE(res.window_features.empty());
  EXPECT_EQ(res.window_features.n_servers(), 7);
  EXPECT_EQ(res.window_features.width(), 7u * monitor::MetricSchema::kPerServerDim);
  for (std::size_t i = 0; i < res.window_features.size(); ++i) {
    EXPECT_GE(res.window_features.window_index(i), 0);
    if (i > 0) {  // rows are appended in ascending window order
      EXPECT_LT(res.window_features.window_index(i - 1),
                res.window_features.window_index(i));
    }
  }
}

TEST(Scenario, IdenticalConfigIsDeterministic) {
  const ScenarioResult a = run_scenario(small_scenario("enzo", 3));
  const ScenarioResult b = run_scenario(small_scenario("enzo", 3));
  EXPECT_EQ(a.target_completion, b.target_completion);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.trace.size(), b.trace.size());
}

TEST(Scenario, InterferenceSlowsTarget) {
  ScenarioConfig solo = small_scenario("ior-easy-write", 4);
  solo.target.scale = 1.0;
  ScenarioConfig noisy = solo;
  InterferenceSpec spec;
  spec.workload = "ior-easy-read";
  spec.nodes = {2, 3, 4};
  spec.instances = 9;
  noisy.interference = spec;
  const auto t_solo = run_scenario(solo).target_completion;
  const auto t_noisy = run_scenario(noisy).target_completion;
  EXPECT_GT(static_cast<double>(t_noisy), 1.5 * static_cast<double>(t_solo));
}

TEST(Scenario, HorizonBoundsRuntime) {
  ScenarioConfig cfg = small_scenario("ior-easy-write", 5);
  cfg.target.scale = 50.0;  // would run for a long time
  InterferenceSpec spec;
  spec.workload = "ior-easy-write";
  spec.nodes = {2};
  spec.instances = 2;
  cfg.interference = spec;
  cfg.horizon = 2 * sim::kSecond;
  const ScenarioResult res = run_scenario(cfg);
  EXPECT_FALSE(res.target_finished);
}

TEST(Campaign, ProducesLabelledDatasetWithBothClasses) {
  CampaignConfig cc;
  cc.target_workload = "ior-easy-write";
  cc.target_nodes = 1;
  cc.target_procs_per_node = 2;
  cc.target_scale = 0.5;
  cc.cluster = testbed_cluster_config(6);
  cc.cases.push_back({"", 0, 1.0, 1});
  cc.cases.push_back({"ior-easy-read", 12, 1.0, 2});
  Campaign campaign(cc);
  const monitor::Dataset ds = campaign.run();
  ASSERT_FALSE(ds.empty());
  EXPECT_EQ(ds.n_servers(), 7);
  const auto hist = ds.class_histogram();
  EXPECT_GT(hist[0], 0u);  // quiet case yields negatives
  ASSERT_GE(hist.size(), 2u);
  EXPECT_GT(hist[1], 0u);  // noisy case yields positives
  // Bookkeeping.
  ASSERT_EQ(campaign.outcomes().size(), 2u);
  EXPECT_GT(campaign.outcomes()[0].matched_ops, 0u);
  EXPECT_LT(campaign.outcomes()[0].mean_degradation, 1.5);
  EXPECT_GT(campaign.outcomes()[1].mean_degradation, 1.5);
}

TEST(Campaign, MeanDegradationAveragesOnlySampledWindows) {
  // Regression: deg_sum skips windows with no captured features, so the
  // mean must divide by the number of windows actually summed — dividing
  // by labels.size() biased the headline degradation number low.
  CampaignConfig cc;  // window = 1 s, thresholds {2}
  CaseSpec cs;
  cs.interference_workload = "ior-easy-read";
  cs.seed = 5;

  trace::TraceLog base_log, noisy_log;
  const auto add = [](trace::TraceLog& log, std::int64_t idx, sim::SimTime start,
                      sim::SimDuration dur) {
    trace::OpRecord r;
    r.job = 0;
    r.rank = 0;
    r.op_index = idx;
    r.type = pfs::OpType::kWrite;
    r.bytes = 4096;
    r.start = start;
    r.end = start + dur;
    log.record(std::move(r));
  };
  // Three windows with degradations 2x, 3x and 10x (windowing follows the
  // interference op's start time).
  add(base_log, 0, 0, sim::kMillisecond);
  add(noisy_log, 0, 100 * sim::kMillisecond, 2 * sim::kMillisecond);
  add(base_log, 1, sim::kSecond, sim::kMillisecond);
  add(noisy_log, 1, sim::kSecond + 100 * sim::kMillisecond, 3 * sim::kMillisecond);
  add(base_log, 2, 2 * sim::kSecond, sim::kMillisecond);
  add(noisy_log, 2, 2 * sim::kSecond + 100 * sim::kMillisecond, 10 * sim::kMillisecond);

  ScenarioResult run;
  run.trace = noisy_log;
  run.target_finished = true;
  run.n_servers = 2;
  run.dim = 3;
  run.window_features.set_shape(2, 3);
  std::fill_n(run.window_features.append_row(0, 0, 1.0), 6, 1.0);
  std::fill_n(run.window_features.append_row(1, 0, 1.0), 6, 2.0);
  // Window 2 (the 10x one) deliberately has no captured features.

  const CaseResult cr = join_case_result(cc, cs, base_log, run);
  EXPECT_EQ(cr.outcome.windows, 3u);
  EXPECT_EQ(cr.outcome.sampled_windows, 2u);
  EXPECT_EQ(cr.shard.size(), 2u);
  // (2 + 3) / 2 over the sampled windows; the pre-fix code computed
  // (2 + 3) / 3 ≈ 1.67.
  EXPECT_DOUBLE_EQ(cr.outcome.mean_degradation, 2.5);
}

TEST(Campaign, ThrowingCaseIsCapturedPerCase) {
  CampaignConfig cc;
  cc.target_workload = "ior-easy-write";
  cc.target_nodes = 1;
  cc.target_procs_per_node = 2;
  cc.target_scale = 0.5;
  cc.cluster = testbed_cluster_config(31);
  cc.cases.push_back({"", 0, 1.0, 1});
  cc.cases.push_back({"no-such-workload", 6, 1.0, 1});
  Campaign campaign(cc);
  const monitor::Dataset ds = campaign.run();  // must not throw
  ASSERT_EQ(campaign.outcomes().size(), 2u);
  EXPECT_TRUE(campaign.outcomes()[0].ok());
  EXPECT_FALSE(campaign.outcomes()[1].ok());
  EXPECT_NE(campaign.outcomes()[1].error.find("no-such-workload"), std::string::npos);
  EXPECT_FALSE(ds.empty());  // the healthy case still contributed samples
}

TEST(Campaign, QuietCaseDegradationNearOne) {
  CampaignConfig cc;
  cc.target_workload = "mdt-easy-write";
  cc.target_nodes = 1;
  cc.target_procs_per_node = 1;
  cc.target_scale = 0.5;
  cc.cluster = testbed_cluster_config(7);
  cc.cases.push_back({"", 0, 1.0, 3});
  Campaign campaign(cc);
  const monitor::Dataset ds = campaign.run();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_LT(ds.degradation(i), 1.6) << "quiet window should not look degraded";
    EXPECT_EQ(ds.label(i), 0);
  }
}

monitor::Dataset tiny_training_set(std::uint64_t seed) {
  CampaignConfig cc;
  cc.target_workload = "ior-easy-write";
  cc.target_nodes = 1;
  cc.target_procs_per_node = 2;
  cc.target_scale = 3.0;
  cc.cluster = testbed_cluster_config(seed);
  for (std::uint64_t i = 0; i < 2; ++i) {
    cc.cases.push_back({"", 0, 1.0, 10 + i});
    cc.cases.push_back({"ior-easy-read", 12, 1.0, 20 + i});
  }
  Campaign campaign(cc);
  return campaign.run();
}

TEST(TrainingServer, FitPredictEvaluate) {
  const monitor::Dataset ds = tiny_training_set(8);
  ASSERT_GT(ds.size(), 10u);
  auto [train, test] = ml::split_dataset(ds, 0.25, 3);
  TrainingServerConfig cfg;
  cfg.n_classes = 2;
  TrainingServer server(cfg);
  const ml::TrainResult tr = server.fit(train);
  EXPECT_GT(tr.best_val_macro_f1, 0.5);
  const ml::ConfusionMatrix cm = server.evaluate(test);
  EXPECT_GT(cm.accuracy(), 0.7);

  // Single-sample prediction agrees with the serving path on the same
  // bundle, which also yields the probabilities and per-server scores.
  const std::vector<double> features = test.row_vector(0);
  serve::Request request;
  request.features = features.data();
  request.n_features = features.size();
  serve::Request* rp = &request;
  serve::PredictScratch scratch;
  serve::predict_batch(server.model(), &rp, 1, scratch);
  const auto& proba = request.probabilities;
  ASSERT_EQ(proba.size(), 2u);
  EXPECT_NEAR(proba[0] + proba[1], 1.0, 1e-9);
  EXPECT_EQ(server.predict(features), request.predicted_class);
  EXPECT_EQ(request.predicted_class, proba[1] > proba[0] ? 1 : 0);
  EXPECT_EQ(request.server_scores.size(), 7u);
}

TEST(TrainingServer, SaveLoadRoundTripPredictions) {
  const monitor::Dataset ds = tiny_training_set(9);
  TrainingServerConfig cfg;
  cfg.n_classes = 2;
  cfg.train.max_epochs = 10;
  TrainingServer server(cfg);
  server.fit(ds);
  std::stringstream ss;
  server.save(ss);
  TrainingServer loaded(TrainingServerConfig{});
  loaded.load(ss);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const std::vector<double> features = ds.row_vector(i);
    EXPECT_EQ(loaded.predict(features), server.predict(features));
  }
}

TEST(TrainingServer, RejectsEmptyDataset) {
  TrainingServer server(TrainingServerConfig{});
  const monitor::Dataset empty;
  EXPECT_THROW(server.fit(empty), std::invalid_argument);
}

TEST(TrainingServer, LoadThrowsOnTruncatedBundle) {
  // Regression: model loading used to ignore stream state, so a truncated
  // file silently produced a garbage model/standardizer.
  const monitor::Dataset ds = tiny_training_set(12);
  TrainingServerConfig cfg;
  cfg.n_classes = 2;
  cfg.train.max_epochs = 5;
  TrainingServer server(cfg);
  server.fit(ds);
  std::stringstream ss;
  server.save(ss);
  const std::string full = ss.str();
  // Cutting the .qifm anywhere must fail loudly and keep the old model.
  TrainingServer loaded(TrainingServerConfig{});
  for (const std::size_t len : {std::size_t{0}, full.size() / 2, full.size() - 1}) {
    std::stringstream truncated(full.substr(0, len));
    EXPECT_THROW(loaded.load(truncated), std::runtime_error) << "length " << len;
  }
  EXPECT_EQ(loaded.net().param_count(), 0u);
  std::stringstream garbage("not-a-model 1\n2\n");
  EXPECT_THROW(loaded.load(garbage), std::runtime_error);
}

TEST(TrainingServer, LoadRejectsAttentionBundle) {
  // The training server holds kernel models only; an attention .qifm is a
  // valid serving bundle but must not load into it.
  serve::ServingModel attention;
  attention.kind = serve::ServingModel::Kind::kAttention;
  attention.attention = ml::AttentionNet(ml::AttentionNetConfig{});
  const int d = attention.per_server_dim();
  attention.stdz = ml::Standardizer::from_moments(std::vector<double>(d, 0.0),
                                                  std::vector<double>(d, 1.0));
  std::stringstream ss;
  serve::save_model(attention, ss);
  TrainingServer server(TrainingServerConfig{});
  try {
    server.load(ss);
    FAIL() << "an attention bundle must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("attention model"), std::string::npos) << e.what();
  }
  EXPECT_EQ(server.net().param_count(), 0u);
}

TEST(OnlinePredictor, EmitsPredictionEveryWindow) {
  // Train a quick model, then deploy it against a live run.
  const monitor::Dataset ds = tiny_training_set(10);
  TrainingServerConfig tcfg;
  tcfg.n_classes = 2;
  tcfg.train.max_epochs = 15;
  TrainingServer server(tcfg);
  server.fit(ds);

  sim::Simulation s;
  pfs::ClusterConfig cc = testbed_cluster_config(11);
  pfs::Cluster cluster(s, cc);
  monitor::ClientMonitor cmon(0, sim::kSecond, cluster.n_servers(),
                              cluster.mdt_server_index());
  monitor::ServerMonitor smon(cluster, sim::kSecond);
  smon.start();
  cluster.trace_log().set_observer(
      [&](const trace::OpRecord& r) { cmon.observe(r); });

  workloads::JobSpec spec;
  spec.workload = "ior-easy-write";
  spec.nodes = {0};
  spec.procs_per_node = 2;
  spec.seed = 12;
  spec.scale = 2.0;
  workloads::JobInstance job(cluster, spec, /*loop=*/false);

  int callbacks = 0;
  OnlinePredictor predictor(cluster, server, cmon, smon, [&](const Prediction& p) {
    ++callbacks;
    EXPECT_EQ(p.probabilities.size(), 2u);
    EXPECT_EQ(p.server_scores.size(), 7u);
  });
  predictor.start();
  job.start(nullptr);
  s.run_until(4 * sim::kSecond);
  predictor.stop();
  EXPECT_EQ(callbacks, 4);
  ASSERT_EQ(predictor.history().size(), 4u);
  EXPECT_EQ(predictor.history()[0].window_index, 0);
  EXPECT_TRUE(predictor.history()[0].had_activity);
}

TEST(OnlinePredictor, HistoryRingEvictsOldestBeyondCapacity) {
  // Long scenarios used to grow history_ without bound; the ring keeps the
  // most recent history_capacity predictions and history_total() counts
  // every emission, evicted ones included.
  const monitor::Dataset ds = tiny_training_set(10);
  TrainingServerConfig tcfg;
  tcfg.n_classes = 2;
  tcfg.train.max_epochs = 15;
  TrainingServer server(tcfg);
  server.fit(ds);

  sim::Simulation s;
  pfs::ClusterConfig cc = testbed_cluster_config(11);
  pfs::Cluster cluster(s, cc);
  monitor::ClientMonitor cmon(0, sim::kSecond, cluster.n_servers(),
                              cluster.mdt_server_index());
  monitor::ServerMonitor smon(cluster, sim::kSecond);
  smon.start();
  cluster.trace_log().set_observer(
      [&](const trace::OpRecord& r) { cmon.observe(r); });

  workloads::JobSpec spec;
  spec.workload = "ior-easy-write";
  spec.nodes = {0};
  spec.procs_per_node = 2;
  spec.seed = 12;
  spec.scale = 2.0;
  workloads::JobInstance job(cluster, spec, /*loop=*/false);

  OnlinePredictorConfig pcfg;
  pcfg.history_capacity = 2;
  OnlinePredictor predictor(cluster, server, cmon, smon, nullptr, pcfg);
  predictor.start();
  job.start(nullptr);
  s.run_until(4 * sim::kSecond);
  predictor.stop();

  EXPECT_EQ(predictor.history_total(), 4u);
  ASSERT_EQ(predictor.history().size(), 2u);
  // Ring order after wrap: the two retained windows are the newest two.
  std::vector<std::int64_t> windows;
  for (const auto& p : predictor.history()) windows.push_back(p.window_index);
  std::sort(windows.begin(), windows.end());
  EXPECT_EQ(windows, (std::vector<std::int64_t>{2, 3}));

  OnlinePredictorConfig zero;
  zero.history_capacity = 0;
  EXPECT_THROW(OnlinePredictor(cluster, server, cmon, smon, nullptr, zero),
               std::invalid_argument);
}

TEST(TrainingServer, LoadRejectsFeatureWidthMismatchNamingBothWidths) {
  // Deployment guard: a bundle whose per-server width disagrees with the
  // serving schema (e.g. a 40-wide fault-features model against the
  // 37-wide healthy layout) must throw a diagnostic naming both widths and
  // leave the currently deployed model untouched.
  const monitor::Dataset ds = tiny_training_set(9);
  TrainingServerConfig cfg;
  cfg.n_classes = 2;
  cfg.train.max_epochs = 5;
  TrainingServer server(cfg);
  server.fit(ds);
  const int model_dim = server.net().config().per_server_dim;
  std::stringstream ss;
  server.save(ss);
  const std::string bundle = ss.str();

  TrainingServer deployed(TrainingServerConfig{});
  {
    std::stringstream ok(bundle);
    deployed.load(ok, model_dim);  // matching width: accepted
  }
  const auto before = deployed.net().snapshot();
  std::stringstream mismatched(bundle);
  try {
    deployed.load(mismatched, model_dim + 3);
    FAIL() << "width mismatch must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(model_dim)), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(model_dim + 3)), std::string::npos) << msg;
  }
  EXPECT_EQ(deployed.net().snapshot(), before)
      << "a rejected bundle must leave the deployed model unchanged";
  EXPECT_NO_THROW(deployed.model().validate_feature_width(0));
  EXPECT_THROW(deployed.model().validate_feature_width(model_dim + 1), std::runtime_error);
}

TEST(Report, TextTableAlignsColumns) {
  TextTable t;
  t.add_row({"a", "bbbb"});
  t.add_row({"cccc", "d"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);  // header rule
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Report, FmtFormatsPrecision) {
  EXPECT_EQ(fmt(2.71828, 2), "2.72");
  EXPECT_EQ(fmt(40.9234, 3), "40.923");
  EXPECT_EQ(fmt_rate(1536.0 * 1024), "1.5 MiB/s");
}

}  // namespace
}  // namespace qif::core
