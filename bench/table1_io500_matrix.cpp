// Reproduces Table I: the 7x7 IO500 cross-interference slowdown matrix.
//
// Methodology mirrors the paper: each of the 7 IO500 tasks runs standalone
// to get its baseline completion time, then once per background task with
// 3 concurrent instances of that task kept active on separate compute
// nodes for the whole run.  The cell (row=target task, col=noise task) is
// the target's completion-time slowdown.  (The paper averages 3 repeats;
// pass --repeats N to do the same; default 1 keeps the bench fast.)
//
// Every (target, noise, repeat) cell is an independent simulation, so the
// whole matrix fans out across a thread pool: pass --jobs N to use N
// workers.  Values are bit-identical for any job count.
//
// Expected shape (not exact values — our substrate is a simulator):
//   * read targets crushed by read noise, nearly untouched by data writes
//   * write targets slowed several-fold by read noise (flusher starvation)
//   * mdt-easy-write (pure namespace) insensitive to data noise
//   * mdt-hard-write (small data tails) crushed by ior write noise
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "qif/core/report.hpp"
#include "qif/core/scenario.hpp"
#include "qif/exec/thread_pool.hpp"
#include "qif/workloads/registry.hpp"

#include "bench_common.hpp"
#include "cli_options.hpp"

using namespace qif;

namespace {

// Per-task op-count scale so every task's standalone run lands in a
// comparable 8-20 simulated-second band (the IO500 "stonewall" spirit).
double task_scale(const std::string& task) {
  static const std::map<std::string, double> kScale = {
      {"ior-easy-read", 1.0},  {"ior-hard-read", 1.0},  {"mdt-hard-read", 2.0},
      {"ior-easy-write", 1.5}, {"ior-hard-write", 4.0}, {"mdt-easy-write", 8.0},
      {"mdt-hard-write", 6.0},
  };
  return kScale.at(task);
}

core::ScenarioConfig make_config(const std::string& target, std::uint64_t seed) {
  core::ScenarioConfig cfg = bench::solo_scenario(target, seed, task_scale(target));
  cfg.horizon = 600 * sim::kSecond;
  return cfg;
}

}  // namespace

const cli::Command kCommand{
    "table1_io500_matrix", "", 0, "Table I: the IO500 cross-interference slowdown matrix",
    {{"repeats", cli::Kind::kInt, "N", "runs averaged per cell", "1", 1},
     {"jobs", cli::Kind::kInt, "N", "worker threads", "1", 1}}};

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(kCommand, argc, argv);
  const int repeats = args.get<int>("repeats");
  const int jobs = args.get<int>("jobs");

  const auto& tasks = workloads::io500_tasks();
  const std::size_t n_tasks = tasks.size();
  const auto n_repeats = static_cast<std::size_t>(repeats);
  std::printf("=== Table I: IO500 task slowdown under cross-application interference ===\n");
  std::printf("rows: standalone task; columns: background task (3 concurrent instances"
              " on separate nodes); %d repeat(s), %d job(s)\n\n", repeats, jobs);

  exec::ThreadPool pool(jobs);
  const auto wall_start = std::chrono::steady_clock::now();

  // Baselines: one independent simulation per (task, repeat).
  std::vector<double> base_time(n_tasks * n_repeats);
  pool.for_each_index(base_time.size(), [&](std::size_t i) {
    const std::size_t t = i / n_repeats;
    const auto r = static_cast<std::uint64_t>(i % n_repeats);
    const auto res = core::run_scenario(make_config(tasks[t], 1 + r));
    base_time[i] = sim::to_seconds(res.target_body_duration());
  });
  std::map<std::string, double> baseline;
  for (std::size_t t = 0; t < n_tasks; ++t) {
    double total = 0.0;
    for (std::size_t r = 0; r < n_repeats; ++r) total += base_time[t * n_repeats + r];
    baseline[tasks[t]] = total / repeats;
    std::printf("baseline %-16s %7.2f s\n", tasks[t].c_str(), baseline[tasks[t]]);
  }
  std::printf("\n");

  // Cells: one independent simulation per (target, noise, repeat).
  std::vector<double> cell_time(n_tasks * n_tasks * n_repeats);
  pool.for_each_index(cell_time.size(), [&](std::size_t i) {
    const std::size_t t = i / (n_tasks * n_repeats);
    const std::size_t n = (i / n_repeats) % n_tasks;
    const auto r = static_cast<std::uint64_t>(i % n_repeats);
    core::ScenarioConfig cfg = make_config(tasks[t], 1 + r);
    core::InterferenceSpec spec;
    spec.workload = tasks[n];
    spec.nodes = {2, 3, 4, 5, 6};
    spec.instances = 15;  // the paper's 3 concurrent runs on each noise node
    spec.scale = 1.0;
    spec.seed = 77 + r;
    cfg.interference = spec;
    const auto res = core::run_scenario(cfg);
    cell_time[i] = sim::to_seconds(res.target_body_duration());
  });
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  core::TextTable table;
  {
    std::vector<std::string> header = {"target \\ noise"};
    for (const auto& t : tasks) header.push_back(t);
    table.add_row(std::move(header));
  }
  for (std::size_t t = 0; t < n_tasks; ++t) {
    std::vector<std::string> row = {tasks[t]};
    for (std::size_t n = 0; n < n_tasks; ++n) {
      double total = 0.0;
      for (std::size_t r = 0; r < n_repeats; ++r) {
        total += cell_time[(t * n_tasks + n) * n_repeats + r];
      }
      row.push_back(core::fmt(total / repeats / baseline[tasks[t]], 3));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("simulated %zu scenarios in %.2f s wall clock (%d worker%s)\n\n",
              base_time.size() + cell_time.size(), wall_seconds, jobs,
              jobs == 1 ? "" : "s");

  std::printf("paper's Table I for comparison:\n"
              "                 ior-e-rd ior-h-rd mdt-h-rd ior-e-wr ior-h-wr mdt-e-wr mdt-h-wr\n"
              "ior-easy-read      29.304   10.722   10.895    1.004    1.285    1.002    1.003\n"
              "ior-hard-read       5.747   15.156    5.789    3.593    1.000    3.394    0.998\n"
              "mdt-hard-read       1.058    1.394    1.199    1.009    1.010    2.106    3.961\n"
              "ior-easy-write      4.384    1.047    0.976    2.720    5.012    1.802    3.032\n"
              "ior-hard-write      3.383    0.956    1.291    2.946    4.252    1.273    1.586\n"
              "mdt-easy-write      1.441    1.018    1.022    1.044    1.032    1.465    1.539\n"
              "mdt-hard-write     11.145    4.211    1.190   26.219   40.923    1.480    1.496\n");
  return 0;
}
