// qif — command-line front end for the framework: campaign -> train ->
// eval -> serve.  The command table at the end of this file is the only
// declaration of the commands and their options; `qif` alone prints it.
//
// Formats: a dataset is written by its extension (.qds native binary,
// anything else interop CSV) and sniffed on read (.qds / .qdm magic vs
// CSV); a .qdm manifest names <prefix>.NNN.qds shards, and single .qds
// files are memory-mapped.  .qifm is the only model file.  dump-trace
// writes a DXT-style text trace; a .qwp is a checksummed per-rank
// workload program.
//
// Determinism: campaign and train write the same bytes for every --jobs
// count, and run/dump-trace print the same trace fingerprint for every
// --lanes count.  campaign --stream-out exits 1 unless its shards merge
// back byte-identically to the in-RAM dataset.
//
// The closed loop: workload names anywhere accept trace:FILE,
// ckpt:SIZE,BW,MTTI and qwp:FILE, so a dumped trace replays as a target
// or as noise (`qif run trace:enzo.dxt`).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qif/core/datasets.hpp"
#include "qif/core/report.hpp"
#include "qif/core/scenario.hpp"
#include "qif/core/training_server.hpp"
#include "qif/exec/parallel_runner.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/monitor/export.hpp"
#include "qif/monitor/qds_file.hpp"
#include "qif/serve/service.hpp"
#include "qif/sim/stats.hpp"
#include "qif/trace/dxt.hpp"
#include "qif/trace/matcher.hpp"
#include "qif/workloads/program_io.hpp"
#include "qif/workloads/registry.hpp"

#include "cli_options.hpp"

using namespace qif;
using cli::Args;

namespace {

/// Opens `path` for reading and returns `read(stream)`; any failure is
/// rethrown naming the path.
template <class Read>
auto read_file(const std::string& path, Read&& read) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  try {
    return read(in);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// Opens `path` for writing and runs `write(stream)`; throws naming the
/// path unless the file opened and every byte reached it.
template <class Write>
void write_file(const std::string& path, Write&& write) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  try {
    write(out);
    out.close();
  } catch (const std::exception& e) {
    throw std::runtime_error("cannot write " + path + ": " + e.what());
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Loads a dataset file, sniffing .qds magic vs CSV.
monitor::Dataset load_dataset(const std::string& path) {
  return read_file(path, [](std::istream& in) { return monitor::read_dataset_auto(in); });
}

/// Sniffs the leading bytes of `path` against a magic predicate.  An
/// empty or shorter-than-magic file is simply "not this format" here; the
/// actual loaders produce the precise error.
bool sniff_magic(const std::string& path, bool (*pred)(const char*, std::size_t)) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  return pred(magic, static_cast<std::size_t>(in.gcount()));
}

bool has_qds_extension(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".qds") == 0;
}

monitor::QdsWriteOptions qds_options(const Args& args) {
  monitor::QdsWriteOptions opts;
  if (args.has("compress")) opts.codec = monitor::QdsCodec::kQlz;
  return opts;
}

/// Writes a dataset; the extension picks the format (.qds binary, else CSV).
void save_dataset(const std::string& path, const monitor::Dataset& ds,
                  const monitor::QdsWriteOptions& opts = {}) {
  write_file(path, [&](std::ostream& out) {
    if (has_qds_extension(path)) {
      monitor::write_dataset_qds(out, ds, opts);
    } else {
      monitor::write_dataset_csv(out, ds);
    }
  });
}

/// Loads any dataset source into an owned table: a .qdm manifest is
/// stitched from its shards, everything else goes through the sniffing
/// reader.  (Where the rows are consumed in place, with_rows reads them.)
monitor::Dataset materialize_any(const std::string& path) {
  if (sniff_magic(path, monitor::is_qdm_magic)) {
    return monitor::ShardedDataset::open(path).materialize();
  }
  return load_dataset(path);
}

/// Whether `name` is a workload; if not, says why on stderr.
bool known_workload(const std::string& name) {
  if (workloads::is_known_workload(name)) return true;
  std::fprintf(stderr, "%s\n", workloads::workload_name_error(name).c_str());
  return false;
}

int cmd_workloads(const Args&) {
  for (const auto& w : workloads::known_workloads()) std::printf("%s\n", w.c_str());
  return 0;
}

int cmd_workloads_list(const Args& args) {
  cmd_workloads(args);
  for (const auto& [prefix, help] : workloads::known_workload_prefixes()) {
    std::printf("%s:%s\n", prefix.c_str(), help.c_str());
  }
  return 0;
}

int cmd_workloads_export(const Args& args) {
  const std::string& name = args.positional[0];
  if (!known_workload(name)) return 1;
  const int n_ranks = args.get<int>("ranks");
  const auto seed = static_cast<std::uint64_t>(args.get<int>("seed"));
  const double scale = args.get<double>("scale");
  workloads::WorkloadProgram prog;
  prog.workload = name;
  for (int r = 0; r < n_ranks; ++r) {
    prog.ranks.push_back(
        workloads::build_named_program(name, r, n_ranks, 0, seed, scale));
  }
  const std::string out_path = args.get("out");
  if (out_path.empty()) {
    workloads::write_qwp(std::cout, prog);
  } else {
    write_file(out_path, [&](std::ostream& out) { workloads::write_qwp(out, prog); });
    std::printf("wrote %d-rank program for '%s' to %s\n", n_ranks, name.c_str(),
                out_path.c_str());
  }
  return 0;
}

int cmd_workloads_lint(const Args& args) {
  const workloads::WorkloadProgram prog = workloads::read_qwp_file(args.positional[0]);
  std::size_t prologue_ops = 0;
  std::size_t body_ops = 0;
  for (const auto& r : prog.ranks) {
    prologue_ops += r.prologue.size();
    body_ops += r.body.size();
  }
  std::printf("%s: ok (workload '%s', %zu rank(s), %zu prologue + %zu body ops)\n",
              args.positional[0].c_str(), prog.workload.c_str(), prog.ranks.size(),
              prologue_ops, body_ops);
  return 0;
}

/// Applies `--replay-timing {original,asap,scale=X}` to a `trace:` workload
/// name that does not already carry an explicit `@policy` suffix.
std::string with_replay_timing(std::string name, const Args& args) {
  const std::string timing = args.get("replay-timing");
  if (timing.empty() || name.rfind("trace:", 0) != 0) return name;
  if (name.find('@', 6) != std::string::npos) return name;  // explicit suffix wins
  return name + "@" + timing;
}

/// The target-only scenario `run` and `dump-trace` share: `target` on
/// testbed nodes {0, 1} at two ranks each, monitors off.  `--topology
/// CxSxT` replaces the testbed cluster shape, and `--lanes N` selects the
/// parallel lane engine.  `--lanes 0` is rejected here — the library's
/// lanes == 0 means "classic single engine", which on the CLI is spelled
/// by omitting the flag, so an explicit 0 is a confused request for a lane
/// run with no lanes.  Lane counts above the OSS count are rejected by the
/// cluster layer (each data lane must own an OSS port); its message
/// reaches the user through the main() error path.
core::ScenarioConfig target_scenario(const std::string& target, const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get<int>("seed"));
  core::ScenarioConfig cfg;
  cfg.cluster = core::testbed_cluster_config(seed);
  cfg.target.workload = target;
  cfg.target.nodes = {0, 1};
  cfg.target.procs_per_node = 2;
  cfg.target.seed = seed;
  cfg.target.scale = args.get<double>("scale");
  cfg.monitors = false;
  const std::string topo = args.get("topology");
  if (!topo.empty()) {
    int clients = 0;
    int oss = 0;
    int osts = 0;
    char extra = 0;
    if (std::sscanf(topo.c_str(), "%dx%dx%d%c", &clients, &oss, &osts, &extra) != 3 ||
        clients < 2 || oss < 1 || osts < 1) {
      throw std::runtime_error(
          "bad --topology '" + topo +
          "': expected CLIENTSxOSSxOSTS_PER_OSS with >= 2 clients, e.g. 1008x16x8");
    }
    cfg.cluster.n_client_nodes = clients;
    cfg.cluster.n_oss = oss;
    cfg.cluster.osts_per_oss = osts;
  }
  if (args.has("lanes")) {
    const int lanes = args.get<int>("lanes");
    if (lanes < 1) {
      throw std::runtime_error(
          "--lanes " + args.get("lanes") +
          ": need at least 1 data lane (omit --lanes for the classic single engine)");
    }
    cfg.lanes = lanes;
  }
  return cfg;
}

/// Sums the fault-path counters a run left in its trace and prints them.
void print_fault_summary(const char* tag, const trace::TraceLog& trace) {
  long long retries = 0;
  long long timeouts = 0;
  long long failed = 0;
  for (const trace::OpRecord& rec : trace.records()) {
    retries += rec.retries;
    timeouts += rec.timeouts;
    failed += rec.failed ? 1 : 0;
  }
  std::printf("%s faults: %lld retries, %lld timeouts, %lld failed ops\n", tag,
              retries, timeouts, failed);
}

int cmd_run(const Args& args) {
  const std::string target = with_replay_timing(args.positional[0], args);
  if (!known_workload(target)) return 1;
  core::ScenarioConfig cfg = target_scenario(target, args);
  const std::string faults_spec = args.get("faults");
  if (!faults_spec.empty()) cfg.faults = pfs::faults::parse_fault_plan(faults_spec);
  cfg.mitigation = ctrl::parse_mitigation(args.get("mitigate"));

  const auto solo = core::run_scenario(cfg);
  std::printf("solo: %.2f s timed phase (%.2f s total, %llu events)\n",
              sim::to_seconds(solo.target_body_duration()),
              sim::to_seconds(solo.target_completion),
              static_cast<unsigned long long>(solo.events_executed));
  // The fingerprint line is what scripts diff to assert lane-count (and any
  // other supposedly-neutral knob) changed nothing about the simulation.
  std::printf("solo trace fp: %016llx\n",
              static_cast<unsigned long long>(trace::trace_fingerprint(solo.trace)));
  if (!cfg.faults.empty()) print_fault_summary("solo", solo.trace);

  const std::string noise = with_replay_timing(args.get("noise"), args);
  if (noise.empty()) return 0;
  if (!known_workload(noise)) return 1;
  core::InterferenceSpec spec;
  spec.workload = noise;
  // Every node the target does not occupy hosts interference ({2..6} on
  // the default testbed shape).
  spec.nodes.clear();
  for (pfs::NodeId n = 2; n < cfg.cluster.n_client_nodes; ++n) spec.nodes.push_back(n);
  spec.instances = args.get<int>("instances");
  spec.seed = 77;
  cfg.interference = spec;
  const auto mixed = core::run_scenario(cfg);
  std::printf("with %d x %s: %.2f s  -> slowdown %.2fx\n", spec.instances, noise.c_str(),
              sim::to_seconds(mixed.target_body_duration()),
              static_cast<double>(mixed.target_body_duration()) /
                  static_cast<double>(solo.target_body_duration()));
  // Same diff anchor as the solo line: mitigated runs must fingerprint
  // identically at every --lanes and --jobs count.
  std::printf("noisy trace fp: %016llx\n",
              static_cast<unsigned long long>(trace::trace_fingerprint(mixed.trace)));
  if (!cfg.faults.empty()) print_fault_summary("noisy", mixed.trace);
  if (mixed.ctrl.active()) {
    std::printf("mitigation %s: %d controllers, %lld throttle waits, %.1f MiB"
                " throttled, %.3f s total delay, mean level %.2f, victim p99 %.3f ms\n",
                mixed.ctrl.policy.c_str(), mixed.ctrl.controllers,
                static_cast<long long>(mixed.ctrl.throttle_waits),
                static_cast<double>(mixed.ctrl.throttled_bytes) / (1 << 20),
                mixed.ctrl.throttle_delay_s, mixed.ctrl.mean_admission_level,
                mixed.ctrl.victim_p99_ms);
  }

  const auto matched = trace::TraceMatcher::match(solo.trace, mixed.trace, 0);
  std::map<pfs::OpType, std::pair<sim::RunningStats, sim::RunningStats>> by_type;
  for (const auto& m : matched) {
    auto& [b, n] = by_type[m.base.type];
    b.add(sim::to_millis(m.base.duration()));
    n.add(sim::to_millis(m.interference.duration()));
  }
  core::TextTable table;
  table.add_row({"op", "count", "solo ms", "noisy ms", "slowdown"});
  for (const auto& [type, st] : by_type) {
    const auto& [b, n] = st;
    table.add_row({pfs::op_name(type), std::to_string(b.count()), core::fmt(b.mean(), 3),
                   core::fmt(n.mean(), 3),
                   core::fmt(b.mean() > 0 ? n.mean() / b.mean() : 0, 2) + "x"});
  }
  std::printf("\n%s", table.to_string().c_str());
  return 0;
}

int cmd_campaign(const Args& args) {
  const std::string family = args.positional[0];
  core::DatasetOptions opts;
  opts.richness = args.get<double>("richness");
  opts.seed = static_cast<std::uint64_t>(args.get<int>("seed"));
  opts.verbose = true;
  const std::string bins = args.get("bins");
  if (bins == "2,5") {
    opts.bin_thresholds = {2.0, 5.0};
  } else if (bins != "2") {
    throw std::runtime_error("bad --bins '" + bins + "': expected 2 or 2,5");
  }
  const int jobs = args.get<int>("jobs");
  opts.runner = exec::campaign_runner(jobs);
  const std::string faults_spec = args.get("faults");
  if (!faults_spec.empty()) opts.faults = pfs::faults::parse_fault_plan(faults_spec);

  // --stream-out: route every campaign through the parallel runner's
  // ordered case sink, so each case's windows hit a shard file the moment
  // the case (and its declaration-order predecessors) complete.  Campaigns
  // run one after another and the sink is serialized, so the single writer
  // sees chunks in exactly the stitched dataset's row order.
  const std::string stream_dir = args.get("stream-out");
  std::optional<monitor::ShardStreamWriter> stream;
  if (!stream_dir.empty()) {
    std::filesystem::create_directories(stream_dir);
    stream.emplace(stream_dir + "/" + family, qds_options(args));
    opts.runner = [&stream, jobs](const core::CampaignConfig& cc) {
      return exec::ParallelCampaignRunner(cc, jobs)
          .run([&stream](std::size_t, const core::CaseResult& cr) {
            stream->add(cr.shard);
          });
    };
  }

  std::string custom_workload;
  if (family == "custom") {
    custom_workload = with_replay_timing(args.get("workload"), args);
    if (custom_workload.empty()) {
      std::fprintf(stderr, "campaign custom needs --workload W\n");
      return 1;
    }
    if (!known_workload(custom_workload)) return 1;
  } else if (family != "io500" && family != "dlio" && family != "amrex" &&
             family != "enzo" && family != "openpmd") {
    std::fprintf(stderr, "unknown campaign family: %s\n", family.c_str());
    return 1;
  }
  const auto build_family = [&](const core::DatasetOptions& o) -> monitor::Dataset {
    if (family == "io500") return core::build_io500_dataset(o);
    if (family == "dlio") return core::build_dlio_dataset(o);
    if (family == "custom") return core::build_app_dataset(custom_workload, o);
    return core::build_app_dataset(family, o);
  };

  // --mitigate: on-vs-off twins over the same seeds.  The off pass runs
  // first (plain runner, nothing streamed or saved) purely for comparison;
  // the mitigated pass produces the dataset written to --out.
  const ctrl::MitigationConfig mitigation =
      ctrl::parse_mitigation(args.get("mitigate"));
  std::map<std::string, std::pair<core::MitigationAggregate, core::MitigationAggregate>> by_target;
  if (!mitigation.empty()) {
    core::DatasetOptions off_opts = opts;
    off_opts.runner = exec::campaign_runner(jobs);
    off_opts.on_result = [&by_target](const std::string& target,
                                      const core::CampaignResult& result) {
      by_target[target].first.add(result);
    };
    std::printf("mitigation study: off pass\n");
    (void)build_family(off_opts);
    std::printf("mitigation study: on pass (%s)\n", ctrl::to_spec(mitigation).c_str());
    opts.mitigation = mitigation;
    opts.on_result = [&by_target](const std::string& target,
                                  const core::CampaignResult& result) {
      by_target[target].second.add(result);
    };
  }

  const monitor::Dataset ds = build_family(opts);
  save_dataset(args.get("out"), ds, qds_options(args));
  const auto hist = ds.class_histogram();
  std::printf("wrote %zu windows to %s (classes:", ds.size(), args.get("out").c_str());
  for (std::size_t c = 0; c < hist.size(); ++c) std::printf(" %zu", hist[c]);
  std::printf(")\n");
  if (stream.has_value()) {
    const std::size_t n_shards = stream->n_shards();
    const std::string manifest = stream->finish();
    // Merge check: the streamed shards, stitched back through the manifest
    // reader, must serialize to the exact bytes of the in-RAM dataset.
    const monitor::Dataset merged = monitor::ShardedDataset::open(manifest).materialize();
    std::ostringstream in_ram;
    std::ostringstream from_shards;
    monitor::write_dataset_qds(in_ram, ds);
    monitor::write_dataset_qds(from_shards, merged);
    if (in_ram.str() != from_shards.str()) {
      std::fprintf(stderr,
                   "error: streamed shards in %s do not merge byte-identically to the"
                   " in-RAM dataset\n",
                   manifest.c_str());
      return 1;
    }
    std::printf("streamed %zu windows to %zu shard(s) behind %s"
                " (merge check: byte-identical)\n",
                stream->rows(), n_shards, manifest.c_str());
  }
  if (!mitigation.empty()) {
    core::TextTable table;
    table.add_row({"campaign", "deg off", "deg on", "victim p99 off", "victim p99 on"});
    core::MitigationAggregate off_all;
    core::MitigationAggregate on_all;
    for (const auto& [target, sides] : by_target) {
      table.add_row({target, core::fmt(sides.first.mean_deg(), 3),
                     core::fmt(sides.second.mean_deg(), 3),
                     core::fmt(sides.first.mean_p99(), 3),
                     core::fmt(sides.second.mean_p99(), 3)});
      off_all.merge(sides.first);
      on_all.merge(sides.second);
    }
    table.add_row({"ALL", core::fmt(off_all.mean_deg(), 3),
                   core::fmt(on_all.mean_deg(), 3), core::fmt(off_all.mean_p99(), 3),
                   core::fmt(on_all.mean_p99(), 3)});
    std::printf("\nmitigation on-vs-off (%s):\n%s", ctrl::to_spec(mitigation).c_str(),
                table.to_string().c_str());
    std::printf("mitigation totals (on): %lld throttle waits, %.3f s total delay\n",
                on_all.throttle_waits, on_all.throttle_delay_s);
  }
  return 0;
}

/// Runs `use(rows, note)` over any dataset source, read in place where it
/// can be: a .qdm manifest's shards stay on disk (mmap'ed, resident pages
/// capped at `budget_bytes` unless 0), a single .qds file is mmap'ed
/// (zero-copy for uncompressed version-2 images), and anything else is
/// read as CSV.  `note` says which.
template <class Use>
void with_rows(const std::string& path, std::size_t budget_bytes, Use&& use) {
  if (sniff_magic(path, monitor::is_qdm_magic)) {
    const monitor::ShardedDataset ds = monitor::ShardedDataset::open(path, budget_bytes);
    char note[64];
    std::snprintf(note, sizeof(note), " [%zu shards%s]", ds.n_shards(),
                  ds.zero_copy() ? ", mmap zero-copy" : "");
    use(ds, note);
  } else if (sniff_magic(path, monitor::is_qds_magic)) {
    const monitor::MappedDataset mapped = monitor::map_dataset_qds(path);
    const monitor::TableView view(mapped.table);
    use(monitor::ViewRows(view), mapped.zero_copy ? " [mmap zero-copy]" : " [mmap]");
  } else {
    const monitor::Dataset ds = load_dataset(path);
    const monitor::TableView view(ds);
    use(monitor::ViewRows(view), "");
  }
}

int cmd_train(const Args& args) {
  core::TrainingServerConfig cfg;
  cfg.n_classes = args.get<int>("classes");
  cfg.train.max_epochs = args.get<int>("epochs");
  cfg.train.jobs = args.get<int>("jobs");
  core::TrainingServer server(cfg);
  const auto budget = static_cast<std::size_t>(args.get<int>("memory-budget")) << 20;
  with_rows(args.get("data"), budget, [&](const monitor::RowAccess& ds, const char*) {
    // split_rows + SubsetRows are split_dataset's membership, so every
    // source trains the same model bytes.
    auto [train_idx, test_idx] = ml::split_rows(ds.size(), 0.2, 17);
    const monitor::SubsetRows train(ds, std::move(train_idx));
    const monitor::SubsetRows test(ds, std::move(test_idx));
    const ml::TrainResult tr = server.fit_rows(train);
    const ml::ConfusionMatrix cm = server.evaluate_rows(test);
    std::printf("trained on %zu windows (best epoch %d, val macro-F1 %.3f)\n", train.size(),
                tr.best_epoch, tr.best_val_macro_f1);
    std::printf("%s", cm.to_string().c_str());
  });
  const std::string out = args.get("out");
  write_file(out, [&](std::ostream& os) { server.save(os); });
  std::printf("model saved to %s\n", out.c_str());
  return 0;
}

int cmd_eval(const Args& args) {
  core::TrainingServer server(core::TrainingServerConfig{});
  read_file(args.get("model"), [&](std::istream& in) { server.load(in); });
  with_rows(args.get("data"), 0, [&](const monitor::RowAccess& ds, const char*) {
    std::printf("%s", server.evaluate_rows(ds).to_string().c_str());
  });
  return 0;
}

int cmd_dataset_info(const Args& args) {
  const std::string& path = args.positional[0];
  with_rows(path, 0, [&](const monitor::RowAccess& ds, const char* note) {
    const auto hist = ds.class_histogram();
    std::printf("%s: %zu windows, %d servers x %d features (row width %zu)%s\n",
                path.c_str(), ds.size(), ds.n_servers(), ds.dim(), ds.width(), note);
    std::printf("classes:");
    for (std::size_t c = 0; c < hist.size(); ++c) std::printf(" %zu", hist[c]);
    std::printf("\n");
    if (!ds.empty()) {
      double deg_sum = 0.0;
      for (std::size_t i = 0; i < ds.size(); ++i) deg_sum += ds.degradation(i);
      std::printf("windows %lld..%lld, mean degradation %.3f\n",
                  static_cast<long long>(ds.window_index(0)),
                  static_cast<long long>(ds.window_index(ds.size() - 1)),
                  deg_sum / static_cast<double>(ds.size()));
    }
  });
  return 0;
}

int cmd_dataset_head(const Args& args) {
  const auto rows = static_cast<std::size_t>(args.get<int>("rows"));
  with_rows(args.positional[0], 0, [&](const monitor::RowAccess& ds, const char*) {
    // Reuse the CSV writer on a head-sized copy so the column headers are
    // printed too.
    monitor::Dataset head;
    if (ds.n_servers() != 0) head.set_shape(ds.n_servers(), ds.dim());
    for (std::size_t i = 0; i < std::min(rows, ds.size()); ++i) {
      head.append_row(ds.window_index(i), ds.label(i), ds.degradation(i), ds.row(i));
    }
    std::ostringstream os;
    monitor::write_dataset_csv(os, head);
    std::printf("%s", os.str().c_str());
  });
  return 0;
}

int cmd_dataset_convert(const Args& args) {
  const std::string& out_path = args.positional[1];
  const monitor::Dataset ds = materialize_any(args.positional[0]);
  save_dataset(out_path, ds, qds_options(args));
  std::printf("wrote %zu windows to %s (%s)\n", ds.size(), out_path.c_str(),
              has_qds_extension(out_path) ? "binary .qds" : "CSV");
  return 0;
}

int cmd_dataset_shard(const Args& args) {
  const monitor::Dataset ds = materialize_any(args.positional[0]);
  if (ds.empty()) throw std::runtime_error("refusing to shard an empty dataset");
  auto rows_per_shard = static_cast<std::size_t>(args.get<int>("rows-per-shard"));
  if (args.has("shards")) {
    const auto n_shards = static_cast<std::size_t>(args.get<int>("shards"));
    rows_per_shard = (ds.size() + n_shards - 1) / n_shards;
  }
  const std::string manifest = monitor::write_sharded_dataset(args.positional[1], ds,
                                                              rows_per_shard, qds_options(args));
  const std::size_t n_shards = (ds.size() + rows_per_shard - 1) / rows_per_shard;
  std::printf("wrote %zu windows to %zu shard(s) behind %s\n", ds.size(), n_shards,
              manifest.c_str());
  return 0;
}

int cmd_dataset_merge(const Args& args) {
  const std::string& out_path = args.positional[1];
  const monitor::Dataset ds = monitor::ShardedDataset::open(args.positional[0]).materialize();
  save_dataset(out_path, ds, qds_options(args));
  std::printf("merged %zu windows into %s\n", ds.size(), out_path.c_str());
  return 0;
}

int cmd_dump_trace(const Args& args) {
  const std::string target = with_replay_timing(args.positional[0], args);
  if (!known_workload(target)) return 1;
  const core::ScenarioConfig cfg = target_scenario(target, args);
  const auto res = core::run_scenario(cfg);
  const std::string out = args.get("out");
  write_file(out, [&](std::ostream& os) { trace::write_dxt(os, res.trace); });
  std::printf("wrote %zu op records to %s\n", res.trace.size(), out.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// qif serve
// ---------------------------------------------------------------------------

std::int64_t serve_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Resolves the bundle to serve: an explicit .qifm file (what `qif train`
/// writes), the newest valid registry version, or — with neither — a
/// synthetic bundle so smoke/latency runs need no training step.
serve::ServingModel resolve_serving_model(const Args& args) {
  const std::string path = args.get("model");
  if (!path.empty()) {
    return read_file(path, [](std::istream& in) { return serve::load_model(in); });
  }
  const std::string dir = args.get("model-dir");
  if (!dir.empty()) {
    serve::ModelRegistry registry(dir);
    if (registry.refresh() == 0) {
      throw std::runtime_error("no valid model version in " + dir);
    }
    return *registry.current();
  }
  // Synthetic bundle: untrained weights (deterministic by --seed) and an
  // identity standardizer — predictions are meaningless but the compute
  // path is the real one, which is all latency and identity runs need.
  serve::ServingModel model;
  model.n_classes = args.get<int>("classes");
  const auto seed = static_cast<std::uint64_t>(args.get<int>("seed"));
  const std::string arch = args.get("arch");
  if (arch == "attention") {
    ml::AttentionNetConfig cfg;
    cfg.n_classes = model.n_classes;
    cfg.seed = seed;
    model.kind = serve::ServingModel::Kind::kAttention;
    model.attention = ml::AttentionNet(cfg);
  } else if (arch == "kernel") {
    ml::KernelNetConfig cfg;
    cfg.n_classes = model.n_classes;
    cfg.seed = seed;
    model.kind = serve::ServingModel::Kind::kKernel;
    model.kernel = ml::KernelNet(cfg);
  } else {
    throw std::runtime_error("unknown --arch '" + arch + "' (kernel|attention)");
  }
  const auto d = static_cast<std::size_t>(model.per_server_dim());
  model.stdz = ml::Standardizer::from_moments(std::vector<double>(d, 0.0),
                                              std::vector<double>(d, 1.0));
  model.version = 1;
  return model;
}

void fill_synthetic_features(sim::Rng& rng, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = rng.uniform(0.0, 4.0);
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(q * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return sorted[rank];
}

struct BenchOutcome {
  std::vector<double> latencies_us;  // sorted after merge
  double wall_s = 0.0;
  std::map<std::uint64_t, std::uint64_t> by_version;  // model version -> count
};

/// One closed-loop producer: keeps `inflight` requests in the air, reusing
/// its slots (and their feature buffers) until `n_requests` completed.
void run_producer(serve::InferenceService& service, std::size_t feat_dim,
                  std::size_t n_requests, std::size_t inflight, std::uint64_t seed,
                  int producer_id, BenchOutcome& out) {
  sim::Rng rng(sim::Rng::derive_seed(seed, "producer-" + std::to_string(producer_id)));
  std::deque<serve::Request> slots(inflight);
  std::vector<std::vector<double>> features(inflight, std::vector<double>(feat_dim));
  out.latencies_us.reserve(n_requests);
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::vector<bool> in_air(inflight, false);
  while (completed < n_requests) {
    bool progressed = false;
    for (std::size_t i = 0; i < inflight; ++i) {
      if (in_air[i]) {
        if (!slots[i].ready()) continue;
        out.latencies_us.push_back(
            static_cast<double>(slots[i].done_ns - slots[i].enqueue_ns) / 1e3);
        ++out.by_version[slots[i].model_version];
        in_air[i] = false;
        ++completed;
        progressed = true;
      }
      if (!in_air[i] && submitted < n_requests) {
        fill_synthetic_features(rng, features[i].data(), feat_dim);
        slots[i].reset();
        slots[i].features = features[i].data();
        slots[i].n_features = feat_dim;
        slots[i].enqueue_ns = serve_now_ns();
        service.submit(&slots[i]);
        in_air[i] = true;
        ++submitted;
        progressed = true;
      }
    }
    if (!progressed) std::this_thread::yield();
  }
}

BenchOutcome run_sync_bench(const serve::ServingModel& model, std::size_t n_requests,
                            std::uint64_t seed) {
  // The baseline the batched path is measured against: one request, one
  // forward, synchronously — exactly what a per-window OnlinePredictor
  // deployment does.
  const std::size_t feat = model.feature_dim();
  std::vector<double> features(feat);
  serve::PredictScratch scratch;
  serve::Request request;
  serve::Request* rp = &request;
  sim::Rng rng(sim::Rng::derive_seed(seed, "producer-0"));
  BenchOutcome out;
  out.latencies_us.reserve(n_requests);
  const auto t0 = serve_now_ns();
  for (std::size_t i = 0; i < n_requests; ++i) {
    fill_synthetic_features(rng, features.data(), feat);
    request.reset();
    request.features = features.data();
    request.n_features = feat;
    request.enqueue_ns = serve_now_ns();
    serve::predict_batch(model, &rp, 1, scratch);
    out.latencies_us.push_back(
        static_cast<double>(request.done_ns - request.enqueue_ns) / 1e3);
  }
  const auto t1 = serve_now_ns();
  out.wall_s = static_cast<double>(t1 - t0) / 1e9;
  std::sort(out.latencies_us.begin(), out.latencies_us.end());
  return out;
}

void print_bench_outcome(const char* mode, const BenchOutcome& o, std::uint64_t swaps,
                         const serve::ServiceStats* stats) {
  const std::size_t requests = o.latencies_us.size();
  const double rps = o.wall_s > 0 ? static_cast<double>(requests) / o.wall_s : 0.0;
  const double mean =
      o.latencies_us.empty()
          ? 0.0
          : std::accumulate(o.latencies_us.begin(), o.latencies_us.end(), 0.0) /
                static_cast<double>(o.latencies_us.size());
  std::printf("%s: %zu requests in %.3f s -> %.0f predictions/s\n", mode, requests, o.wall_s,
              rps);
  std::printf("latency us: mean %.1f  p50 %.1f  p99 %.1f  p999 %.1f  max %.1f\n", mean,
              percentile(o.latencies_us, 0.50), percentile(o.latencies_us, 0.99),
              percentile(o.latencies_us, 0.999),
              o.latencies_us.empty() ? 0.0 : o.latencies_us.back());
  if (stats != nullptr && stats->batches.load() > 0) {
    std::printf("batches: %llu (mean %.1f rows; %llu full, %llu timeout)\n",
                static_cast<unsigned long long>(stats->batches.load()),
                static_cast<double>(stats->requests.load()) /
                    static_cast<double>(stats->batches.load()),
                static_cast<unsigned long long>(stats->full_batches.load()),
                static_cast<unsigned long long>(stats->timeout_batches.load()));
  }
  if (swaps > 0) {
    std::printf("hot swaps under load: %llu (served by version:",
                static_cast<unsigned long long>(swaps));
    for (const auto& [v, c] : o.by_version) {
      std::printf(" v%llu=%llu", static_cast<unsigned long long>(v),
                  static_cast<unsigned long long>(c));
    }
    std::printf(")\n");
  }
}

/// Producer p's slice [first, first + count) of `requests`: an even split,
/// the first `requests % producers` producers taking one more each.
std::pair<std::size_t, std::size_t> producer_slice(std::size_t requests, int producers, int p) {
  const auto n = static_cast<std::size_t>(producers);
  const auto k = static_cast<std::size_t>(p);
  const std::size_t extra = requests % n;
  return {k * (requests / n) + std::min(k, extra), requests / n + (k < extra ? 1 : 0)};
}

int cmd_serve_bench(const Args& args) {
  const serve::ServingModel model = resolve_serving_model(args);
  const int producers = args.get<int>("producers");
  const auto requests = static_cast<std::size_t>(args.get<int>("requests"));
  const auto seed = static_cast<std::uint64_t>(args.get<int>("seed"));
  if (args.has("sync")) {
    const BenchOutcome o = run_sync_bench(model, requests, seed);
    print_bench_outcome("sync", o, 0, nullptr);
    return 0;
  }
  serve::ServiceConfig scfg;
  scfg.ring_capacity = static_cast<std::size_t>(args.get<int>("ring"));
  scfg.max_batch = static_cast<std::size_t>(args.get<int>("max-batch"));
  scfg.max_delay_us = args.get<int>("max-delay-us");
  const auto inflight = static_cast<std::size_t>(args.get<int>("inflight"));
  const int swap_every_ms = args.get<int>("swap-every-ms");

  auto live = std::make_shared<const serve::ServingModel>(model);
  serve::InferenceService service(live, scfg);
  service.start();
  std::atomic<bool> swapping{swap_every_ms > 0};
  std::thread swapper;
  std::atomic<std::uint64_t> swaps{0};
  if (swap_every_ms > 0) {
    auto alt = std::make_shared<const serve::ServingModel>([&] {
      serve::ServingModel copy = model;
      copy.version = model.version + 1;
      return copy;
    }());
    swapper = std::thread([&service, &swapping, &swaps, live, alt, swap_every_ms] {
      bool use_alt = true;
      while (swapping.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(swap_every_ms));
        service.swap_model(use_alt ? alt : live);
        use_alt = !use_alt;
        swaps.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const std::size_t feat = model.feature_dim();
  std::vector<BenchOutcome> partial(static_cast<std::size_t>(producers));
  const auto t0 = serve_now_ns();
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      run_producer(service, feat, producer_slice(requests, producers, p).second, inflight, seed,
                   p, partial[static_cast<std::size_t>(p)]);
    });
  }
  for (auto& t : threads) t.join();
  const auto t1 = serve_now_ns();
  if (swapper.joinable()) {
    swapping.store(false, std::memory_order_release);
    swapper.join();
  }
  service.stop();

  BenchOutcome merged;
  merged.wall_s = static_cast<double>(t1 - t0) / 1e9;
  for (auto& p : partial) {
    merged.latencies_us.insert(merged.latencies_us.end(), p.latencies_us.begin(),
                               p.latencies_us.end());
    for (const auto& [v, c] : p.by_version) merged.by_version[v] += c;
  }
  std::sort(merged.latencies_us.begin(), merged.latencies_us.end());
  print_bench_outcome("batched", merged, swaps.load(), &service.stats());
  return 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

int cmd_serve_verify(const Args& args) {
  const serve::ServingModel model = resolve_serving_model(args);
  const int producers = args.get<int>("producers");
  const auto requests = static_cast<std::size_t>(args.get<int>("requests"));
  const auto seed = static_cast<std::uint64_t>(args.get<int>("seed"));
  serve::ServiceConfig scfg;
  scfg.max_batch = static_cast<std::size_t>(args.get<int>("max-batch"));
  scfg.max_delay_us = args.get<int>("max-delay-us");

  // Batched pass: every request (and its feature row) is retained so the
  // sync replay below can recompute it on identical inputs.
  auto live = std::make_shared<const serve::ServingModel>(model);
  serve::InferenceService service(live, scfg);
  service.start();
  const std::size_t feat = model.feature_dim();
  std::deque<serve::Request> reqs(requests);
  std::vector<std::vector<double>> features(requests, std::vector<double>(feat));
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      sim::Rng rng(sim::Rng::derive_seed(seed, "producer-" + std::to_string(p)));
      const auto [base, count] = producer_slice(requests, producers, p);
      for (std::size_t i = 0; i < count; ++i) {
        fill_synthetic_features(rng, features[base + i].data(), feat);
        reqs[base + i].features = features[base + i].data();
        reqs[base + i].n_features = feat;
        reqs[base + i].enqueue_ns = serve_now_ns();
        service.submit(&reqs[base + i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& r : reqs) r.wait();
  service.stop();

  // Sync replay: the N=1 path on the same feature rows must reproduce
  // every batched output bit for bit.
  serve::PredictScratch scratch;
  serve::Request sync_req;
  serve::Request* rp = &sync_req;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    sync_req.reset();
    sync_req.features = features[i].data();
    sync_req.n_features = feat;
    serve::predict_batch(model, &rp, 1, scratch);
    if (sync_req.predicted_class != reqs[i].predicted_class ||
        !same_bits(sync_req.probabilities, reqs[i].probabilities) ||
        !same_bits(sync_req.server_scores, reqs[i].server_scores)) {
      ++mismatches;
    }
  }
  std::printf("verified %zu batched predictions against the sync path: %s"
              " (%llu batches, %zu mismatches)\n",
              requests, mismatches == 0 ? "bit-identical" : "MISMATCH",
              static_cast<unsigned long long>(service.stats().batches.load()), mismatches);
  return mismatches == 0 ? 0 : 1;
}

int cmd_serve_publish(const Args& args) {
  const serve::ServingModel model = resolve_serving_model(args);
  serve::ModelRegistry registry(args.get("model-dir"));
  const std::uint64_t v = registry.publish(model);
  std::printf("published %s as v%llu.qifm in %s\n", args.get("model").c_str(),
              static_cast<unsigned long long>(v), args.get("model-dir").c_str());
  return 0;
}

int cmd_serve_versions(const Args& args) {
  const serve::ModelRegistry registry(args.get("model-dir"));
  for (const auto v : registry.list_versions()) {
    std::printf("v%llu\n", static_cast<unsigned long long>(v));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The command table
// ---------------------------------------------------------------------------

using cli::Kind;

// Options several commands share.
const cli::Option kScale{"scale", Kind::kReal, "S", "multiply the workload's op counts", "1",
                        0, false, /*above_min=*/true};
const cli::Option kSeed{"seed", Kind::kInt, "K", "simulation seed", "1"};
const cli::Option kLanes{"lanes", Kind::kInt, "N", "parallel event lanes, 1 to the OSS count"};
const cli::Option kTopology{"topology", Kind::kText, "CxSxT", "cluster shape, e.g. 1008x16x8"};
const cli::Option kReplayTiming{"replay-timing", Kind::kText, "P",
                                "timing of trace: workloads: original, asap or scale=X"};
const cli::Option kFaults{"faults", Kind::kText, "SPEC",
                          "fault plan, e.g. slow:ost=0,start=2,dur=10,factor=4"};
const cli::Option kMitigate{"mitigate", Kind::kText, "POLICY",
                            "closed-loop mitigation: off, token[:k=v,...] or probe[:k=v,...]"};
const cli::Option kJobs{"jobs", Kind::kInt, "N", "worker threads; same bytes for every N", "1"};
const cli::Option kCompress{"compress", Kind::kFlag, "", "LZ-compress the .qds column blocks"};
const cli::Option kData{"data", Kind::kText, "F", "dataset: .csv, .qds or .qdm", "", {}, true};
const cli::Option kModelFile{"model", Kind::kText, "F.qifm", "the model file", "", {}, true};
const cli::Option kRegistry{"model-dir", Kind::kText, "D", "the registry", "", {}, true};
// `serve bench` and `serve verify` serve a model file, the registry's
// newest version, or with neither a synthetic model (untrained weights).
const cli::Option kModel{"model", Kind::kText, "F.qifm", "serve this model file"};
const cli::Option kModelDir{"model-dir", Kind::kText, "D", "serve the registry's newest version"};
const cli::Option kArch{"arch", Kind::kText, "A", "synthetic model: kernel|attention", "kernel"};
const cli::Option kClasses{"classes", Kind::kInt, "C", "synthetic model classes", "2", 2};
const cli::Option kServeSeed{"seed", Kind::kInt, "K", "synthetic model and request seed", "7"};
const cli::Option kMaxBatch{"max-batch", Kind::kInt, "B", "largest batch", "32", 1};

const std::vector<cli::Command>& commands() {
  static const std::vector<cli::Command> table = {
      {"qif workloads", "", 0, "list the workload names", {}, cmd_workloads},
      {"qif workloads list", "", 0, "list names and parameterized forms", {}, cmd_workloads_list},
      {"qif workloads export", "<name>", 1, "write a workload's rank programs as .qwp",
       {{"ranks", Kind::kInt, "N", "ranks", "4", 1},
        kSeed,
        kScale,
        {"out", Kind::kText, "F.qwp", "write here instead of stdout"}}, cmd_workloads_export},
      {"qif workloads lint", "<file.qwp>", 1, "parse a .qwp file", {}, cmd_workloads_lint},
      {"qif run", "<target>", 1, "run solo and under noise; print slowdowns per op type",
       {{"noise", Kind::kText, "W", "workload run beside the target"},
        {"instances", Kind::kInt, "N", "looping copies of the noise workload", "15", 0},
        kScale, kSeed, kFaults, kLanes, kTopology, kMitigate, kReplayTiming}, cmd_run},
      {"qif campaign", "<io500|dlio|amrex|enzo|openpmd|custom>", 1, "build a labelled dataset",
       {{"richness", Kind::kReal, "R", "campaign size multiplier", "1", 0, false, true},
        {"workload", Kind::kText, "W", "target of family custom (any workload name)"},
        {"bins", Kind::kText, "2|2,5", "degradation thresholds of the classes", "2"},
        {"seed", Kind::kInt, "K", "campaign seed", "42"},
        kJobs, kFaults,
        {"mitigate", Kind::kText, "POLICY", "compare on-vs-off twins over the same seeds"},
        kCompress,
        {"stream-out", Kind::kText, "DIR", "also stream shards behind DIR/<family>.qdm"},
        {"out", Kind::kText, "F.{csv,qds}", "the dataset", "", {}, true},
        kReplayTiming}, cmd_campaign},
      {"qif train", "", 0, "train the kernel-based model on 80% of a dataset",
       {kData,
        {"out", Kind::kText, "F.qifm", "the model file", "", {}, true},
        {"classes", Kind::kInt, "C", "output classes", "2"},
        {"epochs", Kind::kInt, "E", "most epochs", std::to_string(ml::TrainConfig{}.max_epochs)},
        kJobs,
        {"memory-budget", Kind::kInt, "MB", "cap on resident .qdm MiB; 0 is none", "0", 0}},
       cmd_train},
      {"qif eval", "", 0, "evaluate a model on a dataset", {kData, kModelFile}, cmd_eval},
      {"qif dataset info", "<file>", 1, "print shape, classes, degradation", {}, cmd_dataset_info},
      {"qif dataset head", "<file>", 1, "print the first rows as CSV",
       {{"rows", Kind::kInt, "N", "rows", "5", 0}}, cmd_dataset_head},
      {"qif dataset convert", "<in> <out>", 2, "rewrite in the format <out> names",
       {kCompress}, cmd_dataset_convert},
      {"qif dataset shard", "<in> <out-prefix>", 2, "split into shards behind <prefix>.qdm",
       {{"rows-per-shard", Kind::kInt, "R", "rows per shard", "65536", 1},
        {"shards", Kind::kInt, "N", "split into N shards instead", "", 1},
        kCompress}, cmd_dataset_shard},
      {"qif dataset merge", "<in.qdm> <out>", 2, "stitch a manifest's shards into one file",
       {kCompress}, cmd_dataset_merge},
      {"qif dump-trace", "<target>", 1, "run the target solo; write its DXT-style trace",
       {kScale, kSeed, kLanes, kTopology,
        {"out", Kind::kText, "F.dxt", "the trace file", "", {}, true},
        kReplayTiming}, cmd_dump_trace},
      {"qif serve bench", "", 0, "closed-loop load; print predictions/s and latency",
       {kModel, kModelDir, kArch, kClasses, kServeSeed,
        {"producers", Kind::kInt, "N", "producer threads", "4", 1},
        {"requests", Kind::kInt, "R", "requests in all", "20000", 1},
        kMaxBatch,
        {"max-delay-us", Kind::kInt, "U", "longest wait to fill a batch", "200", 0},
        {"ring", Kind::kInt, "CAP", "request ring capacity", "1024", 2},
        {"inflight", Kind::kInt, "W", "requests in flight per producer", "64", 1},
        {"sync", Kind::kFlag, "", "time the one-row synchronous path instead"},
        {"swap-every-ms", Kind::kInt, "M", "hot-swap the model; 0 is never", "0", 0}},
       cmd_serve_bench},
      {"qif serve verify", "", 0, "check batched predictions bit for bit against one-row ones",
       {kModel, kModelDir, kArch, kClasses, kServeSeed,
        {"producers", Kind::kInt, "N", "producer threads", "2", 1},
        {"requests", Kind::kInt, "R", "requests in all", "2000", 1},
        kMaxBatch,
        {"max-delay-us", Kind::kInt, "U", "longest wait to fill a batch", "100", 0}},
       cmd_serve_verify},
      {"qif serve publish", "", 0, "copy a model into the registry as v<N+1>.qifm",
       {kModelFile, kRegistry}, cmd_serve_publish},
      {"qif serve versions", "", 0, "list registry versions", {kRegistry}, cmd_serve_versions},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  // The longest command name the first words spell wins: `qif workloads
  // list` over `qif workloads`.
  const cli::Command* cmd = nullptr;
  int first = 1;
  std::string typed = "qif";
  for (int i = 1; i < argc && i <= 2; ++i) {
    typed += std::string(" ") + argv[i];
    for (const cli::Command& c : commands()) {
      if (c.name == typed) {
        cmd = &c;
        first = i + 1;
      }
    }
  }
  if (cmd == nullptr) {
    if (argc > 1) std::fprintf(stderr, "error: unknown command '%s'\n", argv[1]);
    std::fprintf(stderr, "usage: qif <command> [arguments] [options]\n\n");
    for (const cli::Command& c : commands()) cli::print_usage(stderr, c);
    return 2;
  }
  const Args args = cli::parse_or_exit(*cmd, argc, argv, first);
  try {
    return cmd->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
