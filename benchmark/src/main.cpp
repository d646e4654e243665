// qif_bench: the benchmark driver.  One process runs one workload; see
// benchmark/README.md for the workloads, metrics and the traced run.
//
//   qif_bench --workload W --seed S --seconds T --out RESULT.json
//             [--trace TRACE.json] [--smoke] [--setup-only]
//             [--setup-samples A,B] [--work-dir DIR] [--rev GITREV]
//   qif_bench verdict   (reads "better bound p1,p2,... c1,c2,..." lines on
//                        stdin, writes one JSON verdict per line; the engine
//                        behind compare.py)
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "json.hpp"
#include "stats.hpp"

namespace {

using namespace qif_bench;

const std::map<std::string, std::function<void(Context&)>>& workloads() {
  static const std::map<std::string, std::function<void(Context&)>> kWorkloads = {
      {"pipeline-io500", run_pipeline_io500},
      {"mitigate-faulted", run_mitigate_faulted},
      {"serve-openloop", run_serve_openloop},
      {"cluster-1008", run_cluster_1008},
  };
  return kWorkloads;
}

/// Timing numbers from a debug or sanitizer build would be meaningless.
const char* unfit_build() {
#ifndef NDEBUG
  return "assertions are on (not a Release build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  if (std::string(QIF_BENCH_BUILD_TYPE) != "Release") return "not a Release build";
  return nullptr;
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::vector<double> parse_csv(const std::string& text) {
  std::vector<double> values;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) values.push_back(std::stod(item));
  }
  return values;
}

int verdict_main() {
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string better, bound, parent, change;
    if (!(in >> better >> bound >> parent >> change) ||
        (better != "lower" && better != "higher")) {
      std::fprintf(stderr, "verdict: expected 'lower|higher BOUND P1,P2,.. C1,C2,..', got '%s'\n",
                   line.c_str());
      return 2;
    }
    const Comparison c =
        compare_runs(parse_csv(parent), parse_csv(change),
                     better == "lower" ? Better::kLower : Better::kHigher, std::stod(bound));
    std::printf(
        "{\"parent\": [%s, %s, %s], \"change\": [%s, %s, %s], \"pairs\": %zu, \"wins\": %zu, "
        "\"losses\": %zu, \"spread\": %s, \"delta\": %s, \"verdict\": \"%s\"}\n",
        json_number(c.parent.q1).c_str(), json_number(c.parent.q2).c_str(),
        json_number(c.parent.q3).c_str(), json_number(c.change.q1).c_str(),
        json_number(c.change.q2).c_str(), json_number(c.change.q3).c_str(), c.pairs, c.wins,
        c.losses, json_number(c.spread).c_str(), json_number(c.delta).c_str(),
        to_string(c.verdict));
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: qif_bench --workload W --seed S --seconds T --out RESULT.json\n"
               "                 [--trace TRACE.json] [--smoke] [--setup-only]\n"
               "                 [--setup-samples A,B] [--work-dir DIR] [--rev GITREV]\n"
               "       qif_bench verdict < lines\n"
               "workloads: pipeline-io500 mitigate-faulted serve-openloop cluster-1008\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  ctx.t_main = Clock::now();
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "verdict") return verdict_main();

  Options& opt = ctx.opt;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw std::invalid_argument(a + " needs a value");
      return args[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace_path = value();
      else if (a == "--out") opt.out_path = value();
      else if (a == "--work-dir") opt.work_dir = value();
      else if (a == "--rev") opt.git_rev = value();
      else if (a == "--setup-samples") opt.setup_samples = parse_csv(value());
      else if (a == "--smoke") opt.smoke = true;
      else if (a == "--setup-only") opt.setup_only = true;
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "qif_bench: bad argument %s: %s\n", a.c_str(), e.what());
      return usage();
    }
  }
  const auto it = workloads().find(opt.workload);
  if (it == workloads().end() || (opt.out_path.empty() && !opt.setup_only)) return usage();
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "qif_bench: refusing to measure: %s\n", why);
    return 2;
  }
  if (opt.work_dir.empty()) opt.work_dir = "qif_bench_work/" + opt.workload;

  ctx.host_cores = host_cores();
  try {
    it->second(ctx);
    if (opt.setup_only) return 0;
    ctx.report.metric("peak_rss_mib", peak_rss_mib());
    if (!opt.trace_path.empty()) {
      // Layers a workload does not exercise read 0.
      for (const auto& [name, unit] : per_layer_metrics()) {
        if (!ctx.report.has(name)) ctx.report.metric(name, 0.0);
      }
      ctx.spans.write_chrome_trace(opt.trace_path);
    }
    const std::map<std::string, std::string> provenance = {
        {"host_cores", std::to_string(ctx.host_cores)},
        {"jobs", std::to_string(ctx.jobs)},
        {"compiler", QIF_BENCH_COMPILER},
        {"build_type", QIF_BENCH_BUILD_TYPE},
        {"git_rev", opt.git_rev},
        {"seed", std::to_string(opt.seed)},
    };
    std::ofstream out(opt.out_path);
    ctx.report.write(out, opt, provenance);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + opt.out_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qif_bench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  return ctx.report.correct() ? 0 : 1;
}
