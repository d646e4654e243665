// serve-openloop: one generator thread replays a trained model's feature
// rows at fixed open-loop rates against a started InferenceService with the
// default ServiceConfig (max_batch 32, max_delay 200 us).  The ring, the
// batcher and the batched forward do all the work and the simulator does
// none.  The rates cover the batching regimes: at 10k and 50k req/s batches
// close on the delay timer, at 200k they close full.
//
// Open loop: request i is due at start + i/rate whatever the service is
// doing, and its latency runs from that due time to the batcher's
// completion stamp, so a stall also charges the requests queued behind it.
// How late the generator itself ran is reported per rate.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <numeric>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "qif/core/training_server.hpp"
#include "qif/serve/registry.hpp"
#include "qif/serve/service.hpp"
#include "qif/sim/rng.hpp"
#include "stats.hpp"

namespace qif_bench {

namespace {

namespace core = qif::core;
namespace fs = std::filesystem;

struct Rate {
  double per_second;
  const char* tag;
};
constexpr Rate kRates[] = {{10'000, "10k"}, {50'000, "50k"}, {200'000, "200k"}};
constexpr std::size_t kHeadline = 1;  // the 50k req/s rate feeds op_p50_ms

/// Request slots reused round-robin.  Far more than the service's 1024-deep
/// ring plus one batch can hold, so a slot is always finished before its
/// reuse unless the service has stalled for thousands of requests.
constexpr std::size_t kSlots = 8192;
/// Every Nth request of a traced pass is kept as a span.
constexpr std::uint64_t kSpanEvery = 256;

struct Segment {
  std::vector<double> latency_us;  ///< completed requests, due -> done
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;      ///< ring-full refusals the generator retried
  std::uint64_t completed = 0;
  std::uint64_t mismatched = 0;    ///< class != TrainingServer::predict
  std::uint64_t wrong_version = 0;
  double max_late_us = 0.0;        ///< generator lateness against the schedule
  std::uint64_t batches = 0;
  std::uint64_t timeout_batches = 0;
  std::uint64_t served = 0;        ///< service-counted completions
};

struct ServiceCounts {
  std::uint64_t requests, batches, timeout_batches, rejected;
  explicit ServiceCounts(const qif::serve::ServiceStats& s)
      : requests(s.requests.load()),
        batches(s.batches.load()),
        timeout_batches(s.timeout_batches.load()),
        rejected(s.rejected.load()) {}
};

/// The batcher marks a batch's requests done before it adds the batch to the
/// service's counters.  Waits (at most a second) until the counters have
/// caught up with `requests` served, so each segment's counts are its own.
void settle(const qif::serve::InferenceService& service, std::uint64_t requests) {
  const std::int64_t deadline = steady_ns() + 1'000'000'000;
  while (service.stats().requests.load() < requests && steady_ns() < deadline) {
    std::this_thread::yield();
  }
}

class OpenLoop {
 public:
  OpenLoop(qif::serve::InferenceService& service, const qif::monitor::Dataset& rows,
           std::vector<std::size_t> order, std::vector<int> expected,
           std::uint64_t live_version, SpanRecorder& spans)
      : service_(service),
        rows_(rows),
        order_(std::move(order)),
        expected_(std::move(expected)),
        live_(live_version),
        spans_(spans),
        slots_(kSlots),
        row_(kSlots),
        due_(kSlots),
        id_(kSlots),
        in_flight_(kSlots, 0) {}

  Segment run(double per_second, double seconds) {
    Segment seg;
    const ServiceCounts before(service_.stats());
    const auto n = static_cast<std::uint64_t>(std::max(1.0, per_second * seconds));
    seg.latency_us.reserve(n);
    const double period_ns = 1e9 / per_second;
    const std::int64_t start = steady_ns() + 100'000;  // 0.1 ms lead
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::size_t s = i % kSlots;
      if (in_flight_[s] != 0) harvest(s, seg);
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      std::int64_t now = steady_ns();
      while (now < due) now = steady_ns();
      seg.max_late_us = std::max(seg.max_late_us, static_cast<double>(now - due) * 1e-3);
      const std::size_t row = order_[next_++ % order_.size()];
      qif::serve::Request& r = slots_[s];
      r.reset();
      r.features = rows_.row(row);
      r.n_features = rows_.width();
      r.enqueue_ns = due;
      ++seg.attempted;
      // A full ring makes submit() retry; the wait lands in this and the
      // following requests' latency, which runs from their due times.
      service_.submit(&r);
      in_flight_[s] = 1;
      row_[s] = row;
      due_[s] = due;
      id_[s] = request_id_++;
    }
    for (std::size_t s = 0; s < kSlots; ++s) {
      if (in_flight_[s] != 0) harvest(s, seg);
    }
    settle(service_, before.requests + seg.completed);
    const ServiceCounts after(service_.stats());
    seg.served = after.requests - before.requests;
    seg.batches = after.batches - before.batches;
    seg.timeout_batches = after.timeout_batches - before.timeout_batches;
    seg.rejected = after.rejected - before.rejected;
    return seg;
  }

 private:
  void harvest(std::size_t s, Segment& seg) {
    const qif::serve::Request& r = slots_[s];
    r.wait();
    in_flight_[s] = 0;
    ++seg.completed;
    seg.latency_us.push_back(static_cast<double>(r.done_ns - due_[s]) * 1e-3);
    if (r.predicted_class != expected_[row_[s]]) ++seg.mismatched;
    if (r.model_version != live_) ++seg.wrong_version;
    if (id_[s] % kSpanEvery == 0) {
      spans_.record("request", "serve", due_[s], r.done_ns, static_cast<std::int64_t>(id_[s]));
    }
  }

  qif::serve::InferenceService& service_;
  const qif::monitor::Dataset& rows_;
  std::vector<std::size_t> order_;
  std::vector<int> expected_;
  std::uint64_t live_;
  SpanRecorder& spans_;
  std::deque<qif::serve::Request> slots_;  // Request holds an atomic: no vector
  std::vector<std::size_t> row_;
  std::vector<std::int64_t> due_;
  std::vector<std::uint64_t> id_;
  std::vector<char> in_flight_;
  std::size_t next_ = 0;
  std::uint64_t request_id_ = 0;
};

/// One pass: each rate for `seconds`, in ascending order.
using Pass = std::vector<Segment>;

Pass run_pass(OpenLoop& loop, SpanRecorder& spans, double seconds) {
  Pass pass;
  for (const Rate& rate : kRates) {
    auto span = spans.scope(std::string("open loop ") + rate.tag, "serve");
    pass.push_back(loop.run(rate.per_second, seconds));
  }
  return pass;
}

double percentile_us(std::vector<double> latencies, double p) {
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  return percentile_sorted(latencies, p);
}

/// Median over passes of one rate's percentile.
double across_passes(const std::vector<Pass>& passes, std::size_t rate, double p) {
  std::vector<double> values;
  for (const Pass& pass : passes) values.push_back(percentile_us(pass[rate].latency_us, p));
  return median(values);
}

}  // namespace

void run_serve_openloop(Context& ctx) {
  const fs::path work = ctx.opt.work_dir;
  fs::create_directories(work);

  // Set-up: make the inputs (an amrex campaign on the sequential driver and
  // a model fitted on it), publish the model, load it back, start the
  // service and serve one batch.
  core::DatasetOptions opts;
  opts.richness = 1.0;
  opts.seed = ctx.opt.seed;
  opts.runner = counted_runner(ctx, ctx.jobs);
  const qif::monitor::Dataset rows = core::build_app_dataset("amrex", opts);
  core::TrainingServerConfig cfg;
  cfg.train.jobs = 1;
  core::TrainingServer server(cfg);
  (void)server.fit(rows);
  const qif::serve::ServingModel model =
      serving_model(server.net(), server.standardizer(), cfg.n_classes);
  const fs::path registry_dir = work / "registry";
  fs::remove_all(registry_dir);
  fs::create_directories(registry_dir);
  qif::serve::ModelRegistry registry(registry_dir.string(), rows.dim());
  double publish_s = 0.0;
  double refresh_s = 0.0;
  std::uint64_t published = 0;
  std::uint64_t live = 0;
  {
    auto span = ctx.spans.scope("ModelRegistry::publish", "serve", &publish_s);
    published = registry.publish(model);
  }
  {
    auto span = ctx.spans.scope("ModelRegistry::refresh", "serve", &refresh_s);
    live = registry.refresh();
  }
  qif::serve::InferenceService service(registry.current(), qif::serve::ServiceConfig{});
  service.start();
  {
    qif::serve::Request first;
    first.features = rows.row(0);
    first.n_features = rows.width();
    service.submit(&first);
    first.wait();
    settle(service, 1);
  }
  if (ctx.finish_setup()) return;

  // Inputs of the loop: a seeded replay order and the reference classes.
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  qif::sim::Rng rng(qif::sim::Rng::derive_seed(ctx.opt.seed, "serve-openloop order"));
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = rng.uniform_int(0, static_cast<std::int64_t>(i) - 1);
    std::swap(order[i - 1], order[static_cast<std::size_t>(j)]);
  }
  std::vector<int> expected(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) expected[i] = server.predict(rows.row_vector(i));

  OpenLoop loop(service, rows, std::move(order), std::move(expected), live, ctx.spans);
  const int n_passes = ctx.opt.smoke ? 1 : 3;
  const double segment_s =
      ctx.opt.smoke ? 0.05 : ctx.opt.seconds / (n_passes * static_cast<double>(std::size(kRates)));
  const Segment warm_up = loop.run(kRates[kHeadline].per_second, ctx.opt.smoke ? 0.05 : 1.0);
  std::vector<Pass> passes;
  for (int p = 0; p < n_passes; ++p) passes.push_back(run_pass(loop, ctx.spans, segment_s));

  std::vector<double> headline_p50_ms;
  for (const Pass& pass : passes) {
    headline_p50_ms.push_back(percentile_us(pass[kHeadline].latency_us, 50.0) * 1e-3);
  }
  ctx.report.metric("op_p50_ms", median(headline_p50_ms));
  ctx.report.samples("op_p50_ms_by_pass", headline_p50_ms);
  std::fprintf(stderr, "serve-openloop: %d passes of %.2f s per rate, p50 at 50k %.1f us\n",
               n_passes, segment_s, median(headline_p50_ms) * 1e3);

  std::optional<Pass> traced;
  if (!ctx.opt.trace_path.empty()) {
    // (a) One more pass with spans (sampled requests on their own track).
    ctx.spans.set_enabled(true);
    {
      auto span = ctx.spans.scope("e2e body", "bench");
      traced = run_pass(loop, ctx.spans, segment_s);
    }
    // (c) Probes: predict_batch outside the service, and the GEMM kernel.
    {
      auto span = ctx.spans.scope("probes", "bench");
      ctx.report.metric("serve.predict_b1_us", predict_batch_us(model, rows, 1, ctx.opt.smoke));
      ctx.report.metric("serve.predict_b32_us",
                        predict_batch_us(model, rows, 32, ctx.opt.smoke));
      ctx.report.metric("ml.gemm_gflops", gemm_gflops(ctx.opt.smoke));
    }
    ctx.spans.set_enabled(false);
  }
  service.stop();
  // stop() joined the batcher, so its counters are final; less the set-up request.
  const std::uint64_t served = service.stats().requests.load() - 1;

  // Counts and checks over every segment, the traced pass included.
  std::vector<const Segment*> all = {&warm_up};
  for (const Pass& pass : passes) {
    for (const Segment& s : pass) all.push_back(&s);
  }
  if (traced) {
    for (const Segment& s : *traced) all.push_back(&s);
  }
  std::uint64_t attempted = 0, completed = 0, mismatched = 0, wrong_version = 0;
  for (const Segment* s : all) {
    attempted += s->attempted;
    completed += s->completed;
    mismatched += s->mismatched;
    wrong_version += s->wrong_version;
  }
  ctx.report.count(attempted, attempted - std::min(attempted, completed));
  ctx.report.check("served_class_equals_predict", mismatched == 0,
                   std::to_string(mismatched) + " of " + std::to_string(completed));
  ctx.report.check("served_on_live_version", wrong_version == 0 && live == published,
                   std::to_string(wrong_version) + " off version " + std::to_string(live));
  ctx.report.check("every_request_completed_once", completed == attempted && served == attempted,
                   std::to_string(completed) + " completed, " + std::to_string(served) +
                       " served, " + std::to_string(attempted) + " sent");

  if (!traced) return;
  Report& r = ctx.report;
  r.metric("serve.publish_s", publish_s);
  r.metric("serve.refresh_s", refresh_s);
  for (std::size_t k = 0; k < std::size(kRates); ++k) {
    const std::string tag = kRates[k].tag;
    std::uint64_t requests = 0, batches = 0, timeouts = 0, refused = 0;
    double late = 0.0;
    for (const Pass& pass : passes) {
      const Segment& s = pass[k];
      requests += s.served;
      batches += s.batches;
      timeouts += s.timeout_batches;
      refused += s.rejected;
      late = std::max(late, s.max_late_us);
    }
    r.metric("serve.p50_us." + tag, across_passes(passes, k, 50.0));
    r.metric("serve.p99_us." + tag, across_passes(passes, k, 99.0));
    r.metric("serve.batch_rows." + tag,
             batches > 0 ? static_cast<double>(requests) / static_cast<double>(batches) : 0.0);
    r.metric("serve.timeout_frac." + tag,
             batches > 0 ? static_cast<double>(timeouts) / static_cast<double>(batches) : 0.0);
    r.metric("serve.rejected." + tag, static_cast<double>(refused));
    r.metric("serve.gen_late_us." + tag, late);
  }
  r.metric("serve.p999_us.50k", across_passes(passes, kHeadline, 99.9));
  const double traced_p50 = percentile_us((*traced)[kHeadline].latency_us, 50.0) * 1e-3;
  r.metric("bench.trace_overhead_frac", traced_p50 / median(headline_p50_ms) - 1.0);
  r.metric("bench.attribution_coverage", ctx.spans.coverage(ctx.spans.last_id("e2e body")));
}

}  // namespace qif_bench
