// The paper's §II headline sentence, reproduced directly:
//
//   "an application that chronologically runs the 7 benchmarks one by one
//    will experience slowdown ranging from 1.0x to 40.9x under the same
//    ior-hard-write workload."
//
// This bench runs one application that executes the 7 IO500 tasks as
// consecutive phases (the "io500-suite" workload), alone and under a
// single fixed background workload, and reports the per-phase slowdown
// range — the quantitative argument for *per-window* interference
// prediction instead of uniform treatment.
#include <cstdio>
#include <map>
#include <string>

#include "qif/core/report.hpp"
#include "qif/core/scenario.hpp"
#include "qif/exec/thread_pool.hpp"
#include "qif/sim/stats.hpp"
#include "qif/trace/matcher.hpp"
#include "qif/workloads/registry.hpp"

#include "bench_common.hpp"
#include "cli_options.hpp"

using namespace qif;

const cli::Command kCommand{
    "phase_sweep", "", 0, "per-phase slowdown of io500-suite under one noise workload",
    {{"noise", cli::Kind::kText, "W", "the background workload", "ior-easy-write"},
     {"jobs", cli::Kind::kInt, "N", "worker threads", "1", 1}}};

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(kCommand, argc, argv);
  const std::string noise = args.get("noise");
  const int jobs = args.get<int>("jobs");
  std::printf("=== Phase sweep: one application, seven I/O phases, one noise ===\n");
  std::printf("(the io500-suite workload under %s; paper: 1.0x-40.9x spread)\n\n",
              noise.c_str());

  core::ScenarioConfig cfg = bench::solo_scenario("io500-suite", 2, 0.5);
  cfg.horizon = 1200 * sim::kSecond;

  core::ScenarioConfig noisy_cfg = cfg;
  core::InterferenceSpec spec;
  spec.workload = noise;
  spec.nodes = {2, 3, 4, 5, 6};
  spec.instances = 15;
  spec.seed = 7;
  noisy_cfg.interference = spec;

  // The solo and noisy runs are independent simulations; with --jobs > 1
  // they execute concurrently.
  core::ScenarioResult results[2];
  const core::ScenarioConfig* configs[2] = {&cfg, &noisy_cfg};
  exec::ThreadPool pool(jobs);
  pool.for_each_index(2, [&](std::size_t i) { results[i] = core::run_scenario(*configs[i]); });
  const auto& solo = results[0];
  const auto& mixed = results[1];

  // Phase boundaries are identifiable from the op sequence itself: each
  // IO500 task works under its own directory prefix, so bucket matched
  // ops by phase via the per-rank op index ranges recorded at build time.
  // Simpler and robust: bucket by the op's position in each rank's
  // sequence using the phase op counts from the generator.
  const auto matched = trace::TraceMatcher::match(solo.trace, mixed.trace, 0);
  const auto phase_names = workloads::io500_tasks();
  const auto ranges = workloads::io500_suite_phase_ranges(
      /*n_ranks=*/4, /*seed=*/cfg.target.seed, cfg.target.scale);

  std::map<int, std::pair<double, double>> phase_time;  // phase -> (base, noisy)
  for (const auto& m : matched) {
    // Find the phase whose per-rank op-index range contains this op.
    int phase = -1;
    for (std::size_t p = 0; p < ranges.size(); ++p) {
      if (m.base.op_index >= ranges[p].first && m.base.op_index < ranges[p].second) {
        phase = static_cast<int>(p);
        break;
      }
    }
    if (phase < 0) continue;
    auto& [b, n] = phase_time[phase];
    b += sim::to_seconds(m.base.duration());
    n += sim::to_seconds(m.interference.duration());
  }

  core::TextTable table;
  table.add_row({"phase", "solo I/O time (s)", "noisy I/O time (s)", "slowdown"});
  double min_slow = 1e9, max_slow = 0.0;
  for (const auto& [phase, t] : phase_time) {
    const auto& [b, n] = t;
    const double slow = b > 0 ? n / b : 1.0;
    min_slow = std::min(min_slow, slow);
    max_slow = std::max(max_slow, slow);
    table.add_row({phase_names[static_cast<std::size_t>(phase)], core::fmt(b, 2),
                   core::fmt(n, 2), core::fmt(slow, 2) + "x"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("one application, one background workload: per-phase slowdown spans"
              " %.1fx to %.1fx\n(the paper's motivating spread was 1.0x-40.9x under"
              " ior-hard-write)\n", min_slow, max_slow);
  return 0;
}
