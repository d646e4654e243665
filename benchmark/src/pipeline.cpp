// pipeline-io500: the user path, campaign -> .qds -> train -> evaluate ->
// publish -> serve, one pipeline at a time (closed loop).  The simulator,
// monitors, trace matching, campaign stitching, exec and ml layers all do
// real work here; the serving step is a small tail.
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "qif/core/training_server.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/monitor/export.hpp"
#include "qif/monitor/qds_file.hpp"
#include "qif/serve/registry.hpp"
#include "qif/serve/service.hpp"
#include "stats.hpp"

namespace qif_bench {

namespace {

namespace core = qif::core;
namespace fs = std::filesystem;

constexpr double kMinMacroF1 = 0.9;  // the paper's Fig 3 shape: F1 above 90%

struct PipelineRun {
  double wall_s = 0.0;
  double campaign_s = 0.0;
  double qds_write_s = 0.0;
  double qds_map_s = 0.0;
  double train_s = 0.0;
  double evaluate_s = 0.0;
  double publish_s = 0.0;
  double refresh_s = 0.0;
  double serve_s = 0.0;
  std::uint64_t qds_file_bytes = 0;
  int epochs = 0;
  double macro_f1 = 0.0;
  std::string dataset_qds;  ///< canonical bytes of the campaign's dataset
  // Serving tail.
  std::size_t requests = 0;
  std::size_t mismatches = 0;     ///< served class != TrainingServer::predict
  std::size_t wrong_version = 0;  ///< served by anything but the live version
  std::uint64_t served = 0;       ///< completions the service counted
  bool live_is_published = false;
  // Kept for the probes of the traced run.
  qif::monitor::Dataset dataset;
  std::optional<qif::serve::ServingModel> model;
};

PipelineRun pipeline_once(Context& ctx, const core::CampaignRunFn& runner,
                          std::uint64_t seed) {
  const fs::path work = ctx.opt.work_dir;
  PipelineRun run;
  const auto t0 = Clock::now();

  core::DatasetOptions opts;
  opts.richness = 1.0;
  opts.seed = seed;
  opts.runner = runner;
  {
    auto span = ctx.spans.scope("build_io500_dataset", "core", &run.campaign_s);
    run.dataset = core::build_io500_dataset(opts);
  }
  const fs::path qds = work / "io500.qds";
  {
    auto span = ctx.spans.scope("write_dataset_qds", "monitor", &run.qds_write_s);
    std::ofstream out(qds, std::ios::binary);
    qif::monitor::write_dataset_qds(out, run.dataset);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + qds.string());
  }
  std::optional<qif::monitor::MappedDataset> mapped;
  {
    auto span = ctx.spans.scope("map_dataset_qds", "monitor", &run.qds_map_s);
    mapped.emplace(qif::monitor::map_dataset_qds(qds.string()));
  }
  std::pair<qif::monitor::TableView, qif::monitor::TableView> split;
  {
    auto span = ctx.spans.scope("split_dataset", "ml");
    split = qif::ml::split_dataset(mapped->table, 0.2, 17);
  }
  const auto& [train, test] = split;

  core::TrainingServerConfig cfg;
  cfg.train.jobs = 1;
  core::TrainingServer server(cfg);
  qif::ml::TrainResult trained;
  {
    auto span = ctx.spans.scope("TrainingServer::fit", "ml", &run.train_s);
    trained = server.fit(train);
  }
  std::optional<qif::ml::ConfusionMatrix> cm;
  {
    auto span = ctx.spans.scope("TrainingServer::evaluate", "ml", &run.evaluate_s);
    cm.emplace(server.evaluate(test));
  }

  run.model = serving_model(server.net(), server.standardizer(), cfg.n_classes);
  const fs::path registry_dir = work / "registry";
  fs::remove_all(registry_dir);
  fs::create_directories(registry_dir);
  qif::serve::ModelRegistry registry(registry_dir.string(), mapped->table.dim());
  std::uint64_t published = 0;
  std::uint64_t live = 0;
  {
    auto span = ctx.spans.scope("ModelRegistry::publish", "serve", &run.publish_s);
    published = registry.publish(*run.model);
  }
  {
    auto span = ctx.spans.scope("ModelRegistry::refresh", "serve", &run.refresh_s);
    live = registry.refresh();
  }
  std::deque<qif::serve::Request> requests(test.size());
  {
    auto span = ctx.spans.scope("InferenceService replay", "serve", &run.serve_s);
    qif::serve::InferenceService service(registry.current(), qif::serve::ServiceConfig{});
    service.start();
    for (std::size_t k = 0; k < test.size(); ++k) {
      qif::serve::Request& r = requests[k];
      r.features = test.row(k);
      r.n_features = test.width();
      r.enqueue_ns = steady_ns();
      service.submit(&r);
    }
    for (const auto& r : requests) r.wait();
    service.stop();
    run.served = service.stats().requests.load();
  }
  run.wall_s = seconds_since(t0);

  // Outputs, checked outside the timed region.
  run.requests = requests.size();
  run.live_is_published = live == published && live != 0;
  for (std::size_t k = 0; k < test.size(); ++k) {
    if (requests[k].predicted_class != server.predict(test.row_vector(k))) ++run.mismatches;
    if (requests[k].model_version != live) ++run.wrong_version;
  }
  run.epochs = static_cast<int>(trained.history.size());
  run.macro_f1 = cm->macro_f1();
  run.qds_file_bytes = fs::file_size(qds);
  run.dataset_qds = qds_bytes(run.dataset);
  ctx.report.count(run.requests, run.requests - std::min<std::size_t>(run.requests, run.served));
  return run;
}

/// Accumulates the per-pipeline output checks into one verdict per check.
struct PipelineChecks {
  std::string input0_qds;  ///< dataset of the first pipeline on input 0
  int input0_runs = 0;
  int not_deterministic = 0;
  std::vector<double> f1;
  std::size_t mismatches = 0;
  std::size_t wrong_version = 0;
  std::size_t lost = 0;  ///< requests the service did not complete exactly once

  /// `input0`: the run used rep 0's input, so its dataset must repeat.
  void add(const PipelineRun& run, bool input0) {
    if (input0) {
      if (input0_runs++ == 0) input0_qds = run.dataset_qds;
      if (run.dataset_qds != input0_qds) ++not_deterministic;
    }
    f1.push_back(run.macro_f1);
    mismatches += run.mismatches;
    wrong_version += run.wrong_version + (run.live_is_published ? 0 : run.requests);
    lost += run.served == run.requests ? 0 : run.requests;
  }

  void report(Report& r) const {
    r.check("dataset_identical_on_same_input", not_deterministic == 0 && input0_runs >= 2,
            std::to_string(input0_runs) + " pipelines on input 0");
    // The Fig 3 shape is a claim about the typical input, so it is checked on
    // the median over this run's inputs.
    r.check("test_macro_f1_at_least_0.9", median(f1) >= kMinMacroF1,
            "median " + std::to_string(median(f1)) + " over " + std::to_string(f1.size()));
    r.check("served_class_equals_predict", mismatches == 0,
            std::to_string(mismatches) + " mismatches");
    r.check("served_on_live_version", wrong_version == 0,
            std::to_string(wrong_version) + " requests off the live version");
    r.check("every_request_completed_once", lost == 0, std::to_string(lost) + " lost");
  }
};

}  // namespace

void run_pipeline_io500(Context& ctx) {
  fs::create_directories(ctx.opt.work_dir);
  PipelineChecks checks;
  // The parallel runner on two workers: enough to exercise exec's fan-out,
  // while leaving cores free keeps run-to-run timing steadier than all four.
  ctx.jobs = std::min(2, ctx.host_cores);
  const core::CampaignRunFn runner = counted_runner(ctx, ctx.jobs);

  // Set-up: the first pipeline of the process, cold, on rep 0's input; it
  // doubles as the warm-up.
  checks.add(pipeline_once(ctx, runner, ctx.opt.seed), true);
  if (ctx.finish_setup()) return;

  std::vector<double> wall;
  std::vector<double> campaign, qds_write, qds_map, train, evaluate, publish, refresh;
  const auto loop_start = Clock::now();
  int k = 0;
  do {
    const PipelineRun run = pipeline_once(ctx, runner, rep_seed(ctx.opt.seed, k));
    checks.add(run, k == 0);
    ++k;
    wall.push_back(run.wall_s);
    campaign.push_back(run.campaign_s);
    qds_write.push_back(run.qds_write_s);
    qds_map.push_back(run.qds_map_s);
    train.push_back(run.train_s);
    evaluate.push_back(run.evaluate_s);
    publish.push_back(run.publish_s);
    refresh.push_back(run.refresh_s);
  } while (!ctx.opt.smoke && seconds_since(loop_start) < ctx.opt.seconds);
  ctx.report_ops(wall);
  ctx.report.samples("campaign_s", campaign);
  ctx.report.samples("train_s", train);
  std::fprintf(stderr, "pipeline-io500: %zu timed pipelines, median %.3f s\n", wall.size(),
               median(wall));

  if (ctx.opt.trace_path.empty()) {
    checks.report(ctx.report);
    return;
  }

  // (a) The body once, with spans at the public calls it already makes.
  ctx.spans.set_enabled(true);
  std::optional<PipelineRun> body;
  {
    auto span = ctx.spans.scope("e2e body", "bench");
    body.emplace(pipeline_once(ctx, runner, ctx.opt.seed));
  }
  checks.add(*body, true);

  // (b) Attribution pass: the same campaigns at jobs 1, decomposed.
  Attribution attribution;
  qif::monitor::Dataset attributed;
  {
    auto span = ctx.spans.scope("attribution pass", "bench");
    core::DatasetOptions opts;
    opts.richness = 1.0;
    opts.seed = ctx.opt.seed;
    opts.runner = attribution_runner(ctx, attribution);
    attributed = core::build_io500_dataset(opts);
  }
  const std::string attributed_qds = qds_bytes(attributed);
  const std::uint64_t pass = ctx.spans.last_id("attribution pass");
  ctx.report.check("attribution_dataset_identical", attributed_qds == body->dataset_qds,
                   std::to_string(attributed_qds.size()) + " bytes");

  // (c) Probes.
  double twins_s = 0.0;
  {
    auto span = ctx.spans.scope("probes", "bench");
    twins_s = monitors_off_twins_s(ctx, attribution);
    ctx.report.metric("serve.predict_b1_us",
                      predict_batch_us(*body->model, body->dataset, 1, ctx.opt.smoke));
    ctx.report.metric("serve.predict_b32_us",
                      predict_batch_us(*body->model, body->dataset, 32, ctx.opt.smoke));
    ctx.report.metric("ml.gemm_gflops", gemm_gflops(ctx.opt.smoke));
  }
  ctx.spans.set_enabled(false);

  report_attribution(ctx, attribution, twins_s, body->campaign_s);
  Report& r = ctx.report;
  r.metric("exec.campaign_s", median(campaign));
  r.metric("monitor.qds_write_s", median(qds_write));
  r.metric("monitor.qds_map_s", median(qds_map));
  r.metric("monitor.qds_bytes", static_cast<double>(body->qds_file_bytes));
  r.metric("ml.train_s", median(train));
  r.metric("ml.epochs", body->epochs);
  r.metric("ml.s_per_epoch", body->train_s / std::max(body->epochs, 1));
  r.metric("ml.evaluate_s", median(evaluate));
  r.metric("ml.test_macro_f1", body->macro_f1);
  r.metric("serve.publish_s", median(publish));
  r.metric("serve.refresh_s", median(refresh));
  r.metric("bench.trace_overhead_frac", body->wall_s / wall.front() - 1.0);
  r.metric("bench.attribution_coverage", ctx.spans.coverage(pass));
  checks.report(r);
}

}  // namespace qif_bench
