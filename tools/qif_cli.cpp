// qif — command-line front end for the framework.
//
//   qif workloads [list]
//   qif workloads export <name> [--ranks N] [--seed K] [--scale S] [--out F.qwp]
//   qif workloads lint <file.qwp>
//       List the canonical workload names (`list` adds the parameterized
//       forms: trace:FILE, ckpt:SIZE,BW,MTTI, qwp:FILE).  `export`
//       serializes a named workload's per-rank programs as a checksummed
//       .qwp file; `lint` parses one and reports its shape.  Workload
//       names anywhere on the CLI accept the parameterized forms too, so
//       a dumped trace replays as a target or as interference:
//         qif run trace:run.dxt --replay-timing original
//
//   qif run <target> [--noise W] [--instances N] [--scale S] [--seed K]
//           [--faults SPEC] [--lanes N] [--topology CxSxT]
//           [--replay-timing original|asap|scale=X]
//       Run one scenario (solo, or under N looping copies of W) and print
//       completion time plus the per-op-type latency breakdown.  --faults
//       injects a fault plan (e.g. "slow:ost=0,start=2,dur=10,factor=4")
//       into every run and reports retry/timeout/failure counts.
//       --topology replaces the 7x3x2 testbed shape with CLIENTS x OSS x
//       OSTS_PER_OSS (e.g. 1008x16x8 for a 128-OST cluster).  --lanes N
//       partitions the cluster into N per-OSS-group event lanes plus a
//       metadata lane (see DESIGN.md "Parallel event lanes"); the printed
//       trace fingerprint is bit-identical for every N >= 1, which is how
//       scripts assert the partitioning changed nothing.  N must be at
//       least 1 and at most the OSS count.
//
//   qif campaign <io500|dlio|amrex|enzo|openpmd|custom> [--richness R]
//                [--workload W]
//                [--bins 2|2,5] [--seed K] [--jobs N] [--faults SPEC]
//                [--compress] [--stream-out DIR] --out data.{csv,qds}
//       Build a labelled training dataset; the --out extension picks the
//       format (.qds = native binary, anything else = interop CSV).
//       --jobs N fans the campaign's scenario simulations across N worker
//       threads (output is bit-identical to --jobs 1).  The `custom`
//       family labels an arbitrary --workload W (any registry name,
//       including trace:/ckpt:/qwp: forms) against the standard
//       interference sweep.  --compress writes
//       the .qds column blocks LZ-compressed.  --stream-out DIR
//       additionally streams every case's windows to DIR/<family>.NNN.qds
//       the moment the case (and its ordered predecessors) finish, seals a
//       DIR/<family>.qdm manifest, and verifies the shards merge back
//       byte-identically to the in-RAM dataset.
//
//   qif train --data data.{csv,qds,qdm} --out model.qifm [--classes C]
//             [--epochs E] [--jobs N] [--memory-budget MB]
//       Train the kernel-based model on a dataset (80/20 split) and save
//       it as a .qifm model file; prints the held-out confusion matrix.
//       --jobs N partitions the training GEMMs across N worker threads
//       (the .qifm is byte-identical to --jobs 1).  A .qdm manifest
//       streams its shards through the chunked ingestion path (same model
//       bytes as in-RAM); --memory-budget caps resident shard pages in MiB.
//
//   qif eval --data data.{csv,qds,qdm} --model model.qifm
//       Evaluate a saved model on a dataset.
//
//   qif dataset info <file>
//   qif dataset head <file> [--rows N]
//   qif dataset convert <in> <out> [--compress]
//       Inspect or convert dataset files; formats are sniffed on read
//       (.qds / .qdm magic vs CSV) and picked by extension on write.
//       Single .qds files are memory-mapped (zero-copy for uncompressed
//       version-2 images).
//
//   qif dataset shard <in> <out-prefix> [--rows-per-shard R | --shards N]
//                     [--compress]
//   qif dataset merge <in.qdm> <out>
//       Split a dataset into <prefix>.NNN.qds shards behind a
//       <prefix>.qdm manifest (deterministic row order), or stitch a
//       manifest back into one file.  shard -> merge round-trips the
//       dataset exactly.
//
//   qif dump-trace <target> [--scale S] [--seed K] [--lanes N]
//                  [--topology CxSxT] --out trace.txt
//       Run the target solo and dump its DXT-style op trace.
//
//   qif serve bench [--model F | --model-dir D] [--producers N] [--requests R]
//                   [--max-batch B] [--max-delay-us U] [--ring CAP]
//                   [--inflight W] [--sync] [--swap-every-ms M]
//   qif serve verify [--model F | --model-dir D] [--requests R] [--producers N]
//                    [--max-batch B]
//   qif serve publish --model F --model-dir D
//   qif serve versions --model-dir D
//       Online-inference service front end.  `bench` floods the service
//       with N closed-loop producers (W in-flight requests each) and
//       reports predictions/sec plus p50/p99/p999 queue->reply latency;
//       --sync measures the single-row synchronous baseline instead, and
//       --swap-every-ms hot-swaps the model under load.  `verify` replays
//       every batched prediction through the N=1 sync path and asserts
//       bit-identical outputs (the batching-changes-nothing contract).
//       `publish` copies a .qifm model (qif train output) into the
//       registry as v<N+1>.qifm.  Without a model a synthetic bundle is
//       generated (--arch kernel|attention, --classes C, --seed K) so
//       smoke runs need no training step.
//
// Every verb accepts only its own options (verb_options below); an unknown
// option, or a value option with no value, exits 2 naming it.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
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

using namespace qif;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::string get(const std::string& key, const std::string& dflt) const {
    auto it = options.find(key);
    return it == options.end() ? dflt : it->second;
  }
  [[nodiscard]] double get_double(const std::string& key, double dflt) const {
    return get_number(key, dflt);
  }
  [[nodiscard]] int get_int(const std::string& key, int dflt) const {
    return get_number(key, dflt);
  }

 private:
  /// The whole value must parse: `--jobs two` is an error, not 0.
  template <class T>
  [[nodiscard]] T get_number(const std::string& key, T dflt) const {
    auto it = options.find(key);
    if (it == options.end()) return dflt;
    const std::string& v = it->second;
    T out{};
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || end != v.data() + v.size()) {
      throw std::runtime_error("bad --" + key + " value '" + v + "': not a number");
    }
    return out;
  }
};

/// One option a verb accepts; a flag takes no value (presence == true).
struct OptionSpec {
  std::string_view name;
  bool flag = false;
};

/// The options each verb accepts, keyed by the verb as typed; the `serve`
/// sub-commands are verbs of their own.
const std::map<std::string, std::vector<OptionSpec>>& verb_options() {
  static const std::map<std::string, std::vector<OptionSpec>> table = {
      {"workloads", {{"ranks"}, {"seed"}, {"scale"}, {"out"}}},
      {"run",
       {{"noise"}, {"instances"}, {"scale"}, {"seed"}, {"faults"}, {"lanes"},
        {"topology"}, {"mitigate"}, {"replay-timing"}}},
      {"campaign",
       {{"richness"}, {"workload"}, {"bins"}, {"seed"}, {"jobs"}, {"faults"},
        {"mitigate"}, {"compress", true}, {"stream-out"}, {"out"}, {"replay-timing"}}},
      {"train", {{"data"}, {"out"}, {"classes"}, {"epochs"}, {"jobs"}, {"memory-budget"}}},
      {"eval", {{"data"}, {"model"}}},
      {"dataset", {{"rows"}, {"rows-per-shard"}, {"shards"}, {"compress", true}}},
      {"dump-trace",
       {{"scale"}, {"seed"}, {"lanes"}, {"topology"}, {"out"}, {"replay-timing"}}},
      {"serve bench",
       {{"model"}, {"model-dir"}, {"arch"}, {"classes"}, {"seed"}, {"producers"},
        {"requests"}, {"max-batch"}, {"max-delay-us"}, {"ring"}, {"inflight"},
        {"sync", true}, {"swap-every-ms"}}},
      {"serve verify",
       {{"model"}, {"model-dir"}, {"arch"}, {"classes"}, {"seed"}, {"producers"},
        {"requests"}, {"max-batch"}, {"max-delay-us"}}},
      {"serve publish", {{"model"}, {"model-dir"}}},
      {"serve versions", {{"model-dir"}}},
  };
  return table;
}

/// A command line that names an option its verb does not take, or leaves
/// a value option without its value; main() exits 2 on it.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Levenshtein distance, to suggest the accepted option nearest a typo.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), std::size_t{0});
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({up + 1, row[j - 1] + 1, diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

/// Splits argv[2..] into positionals and the options `verb` accepts.
Args parse(const std::string& verb, const std::vector<OptionSpec>& accepted, int argc,
           char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      args.positional.push_back(a);
      continue;
    }
    const std::string name = a.substr(2);
    const auto spec = std::find_if(accepted.begin(), accepted.end(),
                                   [&](const OptionSpec& o) { return o.name == name; });
    if (spec == accepted.end()) {
      const auto nearest = std::min_element(
          accepted.begin(), accepted.end(), [&](const OptionSpec& x, const OptionSpec& y) {
            return edit_distance(name, x.name) < edit_distance(name, y.name);
          });
      throw UsageError("unknown option " + a + " for `qif " + verb + "` (did you mean --" +
                       std::string(nearest->name) + "?)");
    }
    if (spec->flag) {
      args.options[name] = "1";
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[name] = argv[++i];
    } else {
      throw UsageError("option " + a + " needs a value");
    }
  }
  return args;
}

int usage() {
  std::fprintf(stderr,
               "usage: qif <command> [options]\n"
               "  workloads [list]                   list workload names (+ param forms)\n"
               "  workloads export <name> [--ranks N] [--seed K] [--scale S]"
               " [--out F.qwp]\n"
               "  workloads lint <file.qwp>          parse + summarize a .qwp program\n"
               "  run <target> [--noise W] [--instances N] [--scale S] [--seed K]"
               " [--faults SPEC]\n"
               "      [--lanes N] [--topology CxSxT] [--mitigate POLICY]"
               " [--replay-timing original|asap|scale=X]\n"
               "        <target>/<W> accept trace:FILE, ckpt:SIZE,BW,MTTI and"
               " qwp:FILE forms\n"
               "        --lanes N        run on N parallel event lanes (1 <= N <= OSS"
               " count;\n"
               "                         trace fingerprint is identical for every N)\n"
               "        --topology CxSxT CLIENTS x OSS x OSTS_PER_OSS cluster shape\n"
               "                         (default 7x3x2 testbed; e.g. 1008x16x8)\n"
               "        --mitigate POLICY closed-loop mitigation: off |"
               " token[:k=v,...] | probe[:k=v,...]\n"
               "                         (token: rate/burst MiB, cut, flag ns-per-byte;"
               " probe: init/min/max/step,tol;\n"
               "                         common: epoch seconds, scope=noise|all)\n"
               "  campaign <family> [--richness R] [--bins 2|2,5] [--seed K] [--jobs N]"
               " [--faults SPEC] [--mitigate POLICY]\n"
               "      [--compress] [--stream-out DIR] --out F.{csv,qds}\n"
               "      family `custom` labels any --workload W (trace:/ckpt:/qwp: too)\n"
               "      --mitigate P runs on-vs-off twins over the same seeds and prints"
               " the comparison\n"
               "  train --data F.{csv,qds,qdm} --out model.qifm [--classes C] [--epochs E]"
               " [--jobs N] [--memory-budget MB]\n"
               "  eval --data F.{csv,qds,qdm} --model model.qifm\n"
               "  dataset info|head|convert <file> [out] [--rows N] [--compress]\n"
               "  dataset shard <in> <out-prefix> [--rows-per-shard R | --shards N]"
               " [--compress]\n"
               "  dataset merge <in.qdm> <out>\n"
               "  dump-trace <target> [--scale S] [--seed K] [--lanes N]"
               " [--topology CxSxT] --out F.txt\n"
               "      (a dump replays via `run trace:F.txt` — the closed loop)\n"
               "  serve bench [--model F | --model-dir D] [--producers N]"
               " [--requests R]\n"
               "      [--max-batch B] [--max-delay-us U] [--ring CAP] [--inflight W]"
               " [--sync]\n"
               "      [--swap-every-ms M]\n"
               "  serve verify [--model F | --model-dir D] [--requests R]"
               " [--producers N] [--max-batch B]\n"
               "  serve publish --model F --model-dir D\n"
               "  serve versions --model-dir D\n");
  return 2;
}

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

bool is_manifest_file(const std::string& path) {
  return sniff_magic(path, monitor::is_qdm_magic);
}

bool is_qds_file(const std::string& path) {
  return sniff_magic(path, monitor::is_qds_magic);
}

bool has_qds_extension(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".qds") == 0;
}

monitor::QdsWriteOptions qds_options(const Args& args) {
  monitor::QdsWriteOptions opts;
  if (args.options.count("compress") != 0) opts.codec = monitor::QdsCodec::kQlz;
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
/// reader.  (The mmap fast path is used where the rows are consumed in
/// place — info/train/eval — not here, where a copy is the product.)
monitor::Dataset materialize_any(const std::string& path) {
  if (is_manifest_file(path)) {
    return monitor::ShardedDataset::open(path).materialize();
  }
  return load_dataset(path);
}

int cmd_workloads(const Args& args) {
  if (args.positional.empty() || args.positional[0] == "list") {
    for (const auto& w : workloads::known_workloads()) std::printf("%s\n", w.c_str());
    if (!args.positional.empty()) {
      // Explicit `list` also shows the parameterized families.
      for (const auto& [prefix, help] : workloads::known_workload_prefixes()) {
        std::printf("%s:%s\n", prefix.c_str(), help.c_str());
      }
    }
    return 0;
  }
  const std::string& verb = args.positional[0];
  if (verb == "export") {
    if (args.positional.size() < 2) return usage();
    const std::string& name = args.positional[1];
    if (!workloads::is_known_workload(name)) {
      std::fprintf(stderr, "%s\n", workloads::workload_name_error(name).c_str());
      return 1;
    }
    const int n_ranks = std::max(args.get_int("ranks", 4), 1);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const double scale = args.get_double("scale", 1.0);
    workloads::WorkloadProgram prog;
    prog.workload = name;
    for (int r = 0; r < n_ranks; ++r) {
      prog.ranks.push_back(
          workloads::build_named_program(name, r, n_ranks, 0, seed, scale));
    }
    const std::string out_path = args.get("out", "");
    if (out_path.empty()) {
      std::ostringstream os;
      workloads::write_qwp(os, prog);
      std::printf("%s", os.str().c_str());
    } else {
      write_file(out_path, [&](std::ostream& out) { workloads::write_qwp(out, prog); });
      std::printf("wrote %d-rank program for '%s' to %s\n", n_ranks, name.c_str(),
                  out_path.c_str());
    }
    return 0;
  }
  if (verb == "lint") {
    if (args.positional.size() < 2) return usage();
    const workloads::WorkloadProgram prog = workloads::read_qwp_file(args.positional[1]);
    std::size_t prologue_ops = 0;
    std::size_t body_ops = 0;
    for (const auto& r : prog.ranks) {
      prologue_ops += r.prologue.size();
      body_ops += r.body.size();
    }
    std::printf("%s: ok (workload '%s', %zu rank(s), %zu prologue + %zu body ops)\n",
                args.positional[1].c_str(), prog.workload.c_str(), prog.ranks.size(),
                prologue_ops, body_ops);
    return 0;
  }
  std::fprintf(stderr, "unknown workloads verb: %s (expected list, export or lint)\n",
               verb.c_str());
  return usage();
}

/// Applies `--replay-timing {original,asap,scale=X}` to a `trace:` workload
/// name that does not already carry an explicit `@policy` suffix.
std::string with_replay_timing(std::string name, const Args& args) {
  const std::string timing = args.get("replay-timing", "");
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
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  core::ScenarioConfig cfg;
  cfg.cluster = core::testbed_cluster_config(seed);
  cfg.target.workload = target;
  cfg.target.nodes = {0, 1};
  cfg.target.procs_per_node = 2;
  cfg.target.seed = seed;
  cfg.target.scale = args.get_double("scale", 1.0);
  cfg.monitors = false;
  const std::string topo = args.get("topology", "");
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
  if (args.options.count("lanes") != 0) {
    const int lanes = args.get_int("lanes", 0);
    if (lanes < 1) {
      throw std::runtime_error(
          "--lanes " + args.get("lanes", "") +
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
  if (args.positional.empty()) return usage();
  const std::string target = with_replay_timing(args.positional[0], args);
  if (!workloads::is_known_workload(target)) {
    std::fprintf(stderr, "%s\n", workloads::workload_name_error(target).c_str());
    return 1;
  }
  core::ScenarioConfig cfg = target_scenario(target, args);
  const std::string faults_spec = args.get("faults", "");
  if (!faults_spec.empty()) cfg.faults = pfs::faults::parse_fault_plan(faults_spec);
  cfg.mitigation = ctrl::parse_mitigation(args.get("mitigate", ""));

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

  const std::string noise = with_replay_timing(args.get("noise", ""), args);
  if (noise.empty()) return 0;
  if (!workloads::is_known_workload(noise)) {
    std::fprintf(stderr, "%s\n", workloads::workload_name_error(noise).c_str());
    return 1;
  }
  core::InterferenceSpec spec;
  spec.workload = noise;
  // Every node the target does not occupy hosts interference ({2..6} on
  // the default testbed shape).
  spec.nodes.clear();
  for (pfs::NodeId n = 2; n < cfg.cluster.n_client_nodes; ++n) spec.nodes.push_back(n);
  spec.instances = args.get_int("instances", 15);
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
  if (args.positional.empty() || args.options.count("out") == 0) return usage();
  const std::string family = args.positional[0];
  core::DatasetOptions opts;
  opts.richness = args.get_double("richness", 1.0);
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  opts.verbose = true;
  const std::string bins = args.get("bins", "2");
  if (bins == "2,5") {
    opts.bin_thresholds = {2.0, 5.0};
  } else if (bins != "2") {
    throw std::runtime_error("bad --bins '" + bins + "': expected 2 or 2,5");
  }
  const int jobs = args.get_int("jobs", 1);
  opts.runner = exec::campaign_runner(jobs);
  const std::string faults_spec = args.get("faults", "");
  if (!faults_spec.empty()) opts.faults = pfs::faults::parse_fault_plan(faults_spec);

  // --stream-out: route every campaign through the parallel runner's
  // ordered case sink, so each case's windows hit a shard file the moment
  // the case (and its declaration-order predecessors) complete.  Campaigns
  // run one after another and the sink is serialized, so the single writer
  // sees chunks in exactly the stitched dataset's row order.
  const std::string stream_dir = args.get("stream-out", "");
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
    custom_workload = with_replay_timing(args.get("workload", ""), args);
    if (custom_workload.empty()) {
      std::fprintf(stderr, "campaign custom needs --workload W\n");
      return 1;
    }
    if (!workloads::is_known_workload(custom_workload)) {
      std::fprintf(stderr, "%s\n", workloads::workload_name_error(custom_workload).c_str());
      return 1;
    }
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
      ctrl::parse_mitigation(args.get("mitigate", ""));
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
  save_dataset(args.get("out", ""), ds, qds_options(args));
  const auto hist = ds.class_histogram();
  std::printf("wrote %zu windows to %s (classes:", ds.size(), args.get("out", "").c_str());
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

int cmd_train(const Args& args) {
  if (args.options.count("data") == 0 || args.options.count("out") == 0) return usage();
  const std::string data = args.get("data", "");
  core::TrainingServerConfig cfg;
  cfg.n_classes = args.get_int("classes", 2);
  cfg.train.max_epochs = args.get_int("epochs", cfg.train.max_epochs);
  cfg.train.jobs = args.get_int("jobs", 1);
  core::TrainingServer server(cfg);

  ml::TrainResult tr;
  std::size_t n_train = 0;
  ml::ConfusionMatrix cm(cfg.n_classes);
  if (is_manifest_file(data)) {
    // Streaming path: shards stay on disk (mmap'ed, optionally under a
    // resident-page budget) and the chunked trainer reads rows in place.
    // split_rows + SubsetRows reproduce split_dataset's membership, so
    // the model bytes match the in-RAM path bit for bit.
    const std::size_t budget_mib =
        static_cast<std::size_t>(std::max(args.get_int("memory-budget", 0), 0));
    const monitor::ShardedDataset ds =
        monitor::ShardedDataset::open(data, budget_mib << 20);
    auto [train_idx, test_idx] = ml::split_rows(ds.size(), 0.2, 17);
    const monitor::SubsetRows train(ds, std::move(train_idx));
    const monitor::SubsetRows test(ds, std::move(test_idx));
    n_train = train.size();
    tr = server.fit_rows(train);
    cm = server.evaluate_rows(test);
  } else if (is_qds_file(data)) {
    // Single .qds files are mmap'ed; uncompressed version-2 images train
    // straight out of the page cache with zero copies.
    const monitor::MappedDataset mapped = monitor::map_dataset_qds(data);
    auto [train, test] = ml::split_dataset(mapped.table, 0.2, 17);
    n_train = train.size();
    tr = server.fit(train);
    cm = server.evaluate(test);
  } else {
    const monitor::Dataset ds = load_dataset(data);
    auto [train, test] = ml::split_dataset(ds, 0.2, 17);
    n_train = train.size();
    tr = server.fit(train);
    cm = server.evaluate(test);
  }
  std::printf("trained on %zu windows (best epoch %d, val macro-F1 %.3f)\n", n_train,
              tr.best_epoch, tr.best_val_macro_f1);
  std::printf("%s", cm.to_string().c_str());
  const std::string out = args.get("out", "");
  write_file(out, [&](std::ostream& os) { server.save(os); });
  std::printf("model saved to %s\n", out.c_str());
  return 0;
}

int cmd_eval(const Args& args) {
  if (args.options.count("data") == 0 || args.options.count("model") == 0) return usage();
  const std::string data = args.get("data", "");
  core::TrainingServer server(core::TrainingServerConfig{});
  read_file(args.get("model", ""), [&](std::istream& in) { server.load(in); });
  ml::ConfusionMatrix cm(server.config().n_classes);
  if (is_manifest_file(data)) {
    const monitor::ShardedDataset ds = monitor::ShardedDataset::open(data);
    cm = server.evaluate_rows(ds);
  } else if (is_qds_file(data)) {
    const monitor::MappedDataset mapped = monitor::map_dataset_qds(data);
    cm = server.evaluate(mapped.table);
  } else {
    const monitor::Dataset ds = load_dataset(data);
    cm = server.evaluate(ds);
  }
  std::printf("%s", cm.to_string().c_str());
  return 0;
}

/// `dataset info` body over any row source (in-RAM, mmap'ed, or sharded).
void print_dataset_info(const std::string& path, const monitor::RowAccess& ds,
                        const char* storage_note) {
  const auto hist = ds.class_histogram();
  std::printf("%s: %zu windows, %d servers x %d features (row width %zu)%s\n",
              path.c_str(), ds.size(), ds.n_servers(), ds.dim(), ds.width(),
              storage_note);
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
}

int cmd_dataset(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const std::string& verb = args.positional[0];
  const std::string& path = args.positional[1];
  if (verb == "info") {
    if (is_manifest_file(path)) {
      const monitor::ShardedDataset ds = monitor::ShardedDataset::open(path);
      char note[64];
      std::snprintf(note, sizeof(note), " [%zu shards%s]", ds.n_shards(),
                    ds.zero_copy() ? ", mmap zero-copy" : "");
      print_dataset_info(path, ds, note);
    } else if (is_qds_file(path)) {
      const monitor::MappedDataset mapped = monitor::map_dataset_qds(path);
      const monitor::TableView view(mapped.table);
      const monitor::ViewRows rows(view);
      print_dataset_info(path, rows, mapped.zero_copy ? " [mmap zero-copy]" : " [mmap]");
    } else {
      const monitor::Dataset ds = load_dataset(path);
      const monitor::TableView view(ds);
      const monitor::ViewRows rows(view);
      print_dataset_info(path, rows, "");
    }
    return 0;
  }
  if (verb == "head") {
    const auto rows = static_cast<std::size_t>(args.get_int("rows", 5));
    const monitor::Dataset ds = materialize_any(path);
    std::ostringstream os;
    // Reuse the CSV writer on a head-sized copy so the column headers are
    // printed too.
    monitor::Dataset head;
    if (ds.n_servers() != 0) head.set_shape(ds.n_servers(), ds.dim());
    for (std::size_t i = 0; i < std::min(rows, ds.size()); ++i) {
      head.append_row(ds.window_index(i), ds.label(i), ds.degradation(i), ds.row(i));
    }
    monitor::write_dataset_csv(os, head);
    std::printf("%s", os.str().c_str());
    return 0;
  }
  if (verb == "convert") {
    if (args.positional.size() < 3) return usage();
    const std::string& out_path = args.positional[2];
    const monitor::Dataset ds = materialize_any(path);
    save_dataset(out_path, ds, qds_options(args));
    std::printf("wrote %zu windows to %s (%s)\n", ds.size(), out_path.c_str(),
                has_qds_extension(out_path) ? "binary .qds" : "CSV");
    return 0;
  }
  if (verb == "shard") {
    if (args.positional.size() < 3) return usage();
    const std::string& prefix = args.positional[2];
    const monitor::Dataset ds = materialize_any(path);
    if (ds.empty()) throw std::runtime_error("refusing to shard an empty dataset");
    std::size_t rows_per_shard = 0;
    if (args.options.count("shards") != 0) {
      const auto n_shards = static_cast<std::size_t>(std::max(args.get_int("shards", 1), 1));
      rows_per_shard = (ds.size() + n_shards - 1) / n_shards;
    } else {
      rows_per_shard =
          static_cast<std::size_t>(std::max(args.get_int("rows-per-shard", 65536), 1));
    }
    const std::string manifest =
        monitor::write_sharded_dataset(prefix, ds, rows_per_shard, qds_options(args));
    const std::size_t n_shards = (ds.size() + rows_per_shard - 1) / rows_per_shard;
    std::printf("wrote %zu windows to %zu shard(s) behind %s\n", ds.size(), n_shards,
                manifest.c_str());
    return 0;
  }
  if (verb == "merge") {
    if (args.positional.size() < 3) return usage();
    const std::string& out_path = args.positional[2];
    const monitor::Dataset ds = monitor::ShardedDataset::open(path).materialize();
    save_dataset(out_path, ds, qds_options(args));
    std::printf("merged %zu windows into %s\n", ds.size(), out_path.c_str());
    return 0;
  }
  return usage();
}

int cmd_dump_trace(const Args& args) {
  if (args.positional.empty() || args.options.count("out") == 0) return usage();
  const std::string target = with_replay_timing(args.positional[0], args);
  if (!workloads::is_known_workload(target)) {
    std::fprintf(stderr, "%s\n", workloads::workload_name_error(target).c_str());
    return 1;
  }
  const core::ScenarioConfig cfg = target_scenario(target, args);
  const auto res = core::run_scenario(cfg);
  const std::string out = args.get("out", "");
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
  const std::string path = args.get("model", "");
  if (!path.empty()) {
    return read_file(path, [](std::istream& in) { return serve::load_model(in); });
  }
  const std::string dir = args.get("model-dir", "");
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
  model.n_classes = std::max(args.get_int("classes", 2), 2);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const std::string arch = args.get("arch", "kernel");
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
  std::uint64_t requests = 0;
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
    ++out.by_version[request.model_version];
  }
  const auto t1 = serve_now_ns();
  out.wall_s = static_cast<double>(t1 - t0) / 1e9;
  out.requests = n_requests;
  std::sort(out.latencies_us.begin(), out.latencies_us.end());
  return out;
}

void print_bench_outcome(const char* mode, const BenchOutcome& o, std::uint64_t swaps,
                         const serve::ServiceStats* stats) {
  const double rps = o.wall_s > 0 ? static_cast<double>(o.requests) / o.wall_s : 0.0;
  const double mean =
      o.latencies_us.empty()
          ? 0.0
          : std::accumulate(o.latencies_us.begin(), o.latencies_us.end(), 0.0) /
                static_cast<double>(o.latencies_us.size());
  std::printf("%s: %llu requests in %.3f s -> %.0f predictions/s\n", mode,
              static_cast<unsigned long long>(o.requests), o.wall_s, rps);
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

int cmd_serve_bench(const Args& args) {
  const serve::ServingModel model = resolve_serving_model(args);
  const int producers = std::max(args.get_int("producers", 4), 1);
  const auto requests =
      static_cast<std::size_t>(std::max(args.get_int("requests", 20000), 1));
  const std::size_t per_producer =
      (requests + static_cast<std::size_t>(producers) - 1) /
      static_cast<std::size_t>(producers);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  if (args.options.count("sync") != 0) {
    const BenchOutcome o = run_sync_bench(model, requests, seed);
    print_bench_outcome("sync", o, 0, nullptr);
    return 0;
  }
  serve::ServiceConfig scfg;
  scfg.ring_capacity = static_cast<std::size_t>(std::max(args.get_int("ring", 1024), 2));
  scfg.max_batch = static_cast<std::size_t>(std::max(args.get_int("max-batch", 32), 1));
  scfg.max_delay_us = std::max(args.get_int("max-delay-us", 200), 0);
  const auto inflight =
      static_cast<std::size_t>(std::max(args.get_int("inflight", 64), 1));
  const int swap_every_ms = std::max(args.get_int("swap-every-ms", 0), 0);

  // The service outlives the stats read below because run_batched_bench
  // joins everything before returning; stats are copied out via the
  // service inside.  Re-run with a local service to read stats:
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
      run_producer(service, feat, per_producer, inflight, seed, p,
                   partial[static_cast<std::size_t>(p)]);
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
    merged.requests += p.latencies_us.size();
    merged.latencies_us.insert(merged.latencies_us.end(), p.latencies_us.begin(),
                               p.latencies_us.end());
    for (const auto& [v, c] : p.by_version) merged.by_version[v] += c;
  }
  std::sort(merged.latencies_us.begin(), merged.latencies_us.end());
  print_bench_outcome("batched", merged, swaps.load(), &service.stats());
  return 0;
}

int cmd_serve_verify(const Args& args) {
  const serve::ServingModel model = resolve_serving_model(args);
  const int producers = std::max(args.get_int("producers", 2), 1);
  const auto requests =
      static_cast<std::size_t>(std::max(args.get_int("requests", 2000), 1));
  const std::size_t per_producer =
      (requests + static_cast<std::size_t>(producers) - 1) /
      static_cast<std::size_t>(producers);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  serve::ServiceConfig scfg;
  scfg.max_batch = static_cast<std::size_t>(std::max(args.get_int("max-batch", 32), 1));
  scfg.max_delay_us = std::max(args.get_int("max-delay-us", 100), 0);

  // Batched pass: every request (and its feature row) is retained so the
  // sync replay below can recompute it on identical inputs.
  auto live = std::make_shared<const serve::ServingModel>(model);
  serve::InferenceService service(live, scfg);
  service.start();
  const std::size_t feat = model.feature_dim();
  const std::size_t total = per_producer * static_cast<std::size_t>(producers);
  std::deque<serve::Request> reqs(total);
  std::vector<std::vector<double>> features(total, std::vector<double>(feat));
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      sim::Rng rng(sim::Rng::derive_seed(seed, "producer-" + std::to_string(p)));
      const std::size_t base = static_cast<std::size_t>(p) * per_producer;
      for (std::size_t i = 0; i < per_producer; ++i) {
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
  for (std::size_t i = 0; i < total; ++i) {
    sync_req.reset();
    sync_req.features = features[i].data();
    sync_req.n_features = feat;
    serve::predict_batch(model, &rp, 1, scratch);
    bool same = sync_req.predicted_class == reqs[i].predicted_class &&
                sync_req.probabilities.size() == reqs[i].probabilities.size() &&
                sync_req.server_scores.size() == reqs[i].server_scores.size();
    if (same) {
      same = std::memcmp(sync_req.probabilities.data(), reqs[i].probabilities.data(),
                         sync_req.probabilities.size() * sizeof(double)) == 0 &&
             std::memcmp(sync_req.server_scores.data(), reqs[i].server_scores.data(),
                         sync_req.server_scores.size() * sizeof(double)) == 0;
    }
    if (!same) ++mismatches;
  }
  std::printf("verified %zu batched predictions against the sync path: %s"
              " (%llu batches, %zu mismatches)\n",
              total, mismatches == 0 ? "bit-identical" : "MISMATCH",
              static_cast<unsigned long long>(service.stats().batches.load()), mismatches);
  return mismatches == 0 ? 0 : 1;
}

int cmd_serve(const Args& args) {
  if (args.positional.empty()) return usage();
  const std::string& mode = args.positional[0];
  if (mode == "bench") return cmd_serve_bench(args);
  if (mode == "verify") return cmd_serve_verify(args);
  if (mode == "publish") {
    if (args.options.count("model") == 0 || args.options.count("model-dir") == 0) {
      return usage();
    }
    const serve::ServingModel model = resolve_serving_model(args);
    serve::ModelRegistry registry(args.get("model-dir", ""));
    const std::uint64_t v = registry.publish(model);
    std::printf("published %s as v%llu.qifm in %s\n", args.get("model", "").c_str(),
                static_cast<unsigned long long>(v), args.get("model-dir", "").c_str());
    return 0;
  }
  if (mode == "versions") {
    if (args.options.count("model-dir") == 0) return usage();
    const serve::ModelRegistry registry(args.get("model-dir", ""));
    for (const auto v : registry.list_versions()) {
      std::printf("v%llu\n", static_cast<unsigned long long>(v));
    }
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::string verb = cmd == "serve" && argc > 2 ? cmd + " " + argv[2] : cmd;
  const auto accepted = verb_options().find(verb);
  if (accepted == verb_options().end()) return usage();
  try {
    const Args args = parse(verb, accepted->second, argc, argv);
    if (cmd == "workloads") return cmd_workloads(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "dataset") return cmd_dataset(args);
    if (cmd == "dump-trace") return cmd_dump_trace(args);
    return cmd_serve(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
