// Reproduces Figure 1: per-operation I/O time of Enzo under different
// levels (a) and types (b) of background interference.
//
// The same op sequence (matched baseline <-> interference by rank +
// op index, exactly like the paper's Darshan DXT matching) is printed as
// aligned series over the first 50 seconds of the baseline execution, with
// the paper's moving-window smoothing.  Two properties must show:
//
//  (a) non-uniform impact — some ops barely move while others slow by an
//      order of magnitude under the *same* interference, and most (but not
//      all) impacted ops degrade more under more intense interference;
//  (b) type-dependent impact — data-intensive noise (ior-easy-write) and
//      metadata-intensive noise (mdt-easy-write) hurt *different* ops.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "qif/core/scenario.hpp"
#include "qif/sim/stats.hpp"
#include "qif/trace/matcher.hpp"

#include "bench_common.hpp"
#include "cli_options.hpp"

using namespace qif;

namespace {

constexpr double kWindowSeconds = 50.0;  // the paper's analysis horizon

core::ScenarioConfig enzo_config(std::uint64_t seed) {
  return bench::solo_scenario("enzo", seed, 8.0);  // enough timesteps to fill 50 s
}

// Durations (ms) of the target's ops that *started* within the first 50 s
// of the baseline run, in (rank, op_index) order.
std::vector<double> series_ms(const std::vector<trace::MatchedOp>& matched, bool noisy) {
  std::vector<double> out;
  for (const auto& m : matched) {
    if (sim::to_seconds(m.base.start) > kWindowSeconds) continue;
    out.push_back(sim::to_millis(noisy ? m.interference.duration() : m.base.duration()));
  }
  return out;
}

void print_series(const std::string& title, const std::vector<std::string>& names,
                  const std::vector<std::vector<double>>& cols) {
  std::printf("\n--- %s ---\n", title.c_str());
  std::printf("%-8s", "op_idx");
  for (const auto& n : names) std::printf(" %14s", n.c_str());
  std::printf("\n");
  std::size_t len = cols.front().size();
  for (const auto& c : cols) len = std::min(len, c.size());
  // Smooth like the paper, then downsample for a readable text figure.
  std::vector<std::vector<double>> smooth;
  smooth.reserve(cols.size());
  for (const auto& c : cols) smooth.push_back(sim::moving_average(c, 15));
  const std::size_t step = std::max<std::size_t>(1, len / 40);
  for (std::size_t i = 0; i < len; i += step) {
    std::printf("%-8zu", i);
    for (const auto& c : smooth) std::printf(" %14.3f", c[i]);
    std::printf("\n");
  }
}

void impact_summary(const char* label, const std::vector<trace::MatchedOp>& matched) {
  std::size_t unaffected = 0, mild = 0, severe = 0;
  sim::RunningStats ratio;
  for (const auto& m : matched) {
    if (sim::to_seconds(m.base.start) > kWindowSeconds) continue;
    const double r = static_cast<double>(std::max<sim::SimDuration>(
                         m.interference.duration(), 1)) /
                     static_cast<double>(std::max<sim::SimDuration>(m.base.duration(), 1));
    ratio.add(r);
    if (r < 1.5) ++unaffected;
    else if (r < 5.0) ++mild;
    else ++severe;
  }
  std::printf("%-28s ops=%4llu  ratio mean=%6.2f max=%8.1f  | <1.5x: %zu  1.5-5x: %zu"
              "  >5x: %zu   (non-uniform impact)\n",
              label, static_cast<unsigned long long>(ratio.count()), ratio.mean(),
              ratio.max(), unaffected, mild, severe);
}

}  // namespace

const cli::Command kCommand{"fig1_enzo_interference", "", 0,
                            "Figure 1: Enzo's per-op I/O time under interference", {}};

int main(int argc, char** argv) {
  (void)cli::parse_or_exit(kCommand, argc, argv);
  const std::uint64_t seed = 3;
  std::printf("=== Figure 1: Enzo per-op I/O time under interference ===\n");
  std::printf("(proxy Enzo run; first %.0f s of baseline; read/write/open/close/stat ops;"
              " moving-window smoothed)\n", kWindowSeconds);

  const auto baseline = core::run_scenario(enzo_config(seed));

  // (a) increasing amounts of ior-easy-write interference.
  std::vector<std::vector<double>> level_cols;
  std::vector<std::string> level_names = {"baseline_ms"};
  std::vector<trace::MatchedOp> matched_for_summary[3];
  {
    bool first = true;
    int idx = 0;
    for (const int instances : {2, 6, 15}) {
      core::ScenarioConfig cfg = enzo_config(seed);
      core::InterferenceSpec spec;
      spec.workload = "ior-easy-write";
      spec.nodes = {2, 3, 4, 5, 6};
      spec.instances = instances;
      spec.seed = 91;
      cfg.interference = spec;
      const auto run = core::run_scenario(cfg);
      const auto matched = trace::TraceMatcher::match(baseline.trace, run.trace, 0);
      if (first) {
        level_cols.push_back(series_ms(matched, /*noisy=*/false));
        first = false;
      }
      level_cols.push_back(series_ms(matched, /*noisy=*/true));
      level_names.push_back("ior-e-wr x" + std::to_string(instances));
      matched_for_summary[idx++] = matched;
    }
  }
  print_series("Figure 1(a): levels of data-write interference", level_names, level_cols);
  std::printf("\nimpact summaries (a):\n");
  impact_summary("ior-easy-write x2", matched_for_summary[0]);
  impact_summary("ior-easy-write x6", matched_for_summary[1]);
  impact_summary("ior-easy-write x15", matched_for_summary[2]);

  // (b) data-intensive vs. metadata-intensive interference.
  std::vector<std::vector<double>> type_cols;
  std::vector<std::string> type_names = {"baseline_ms"};
  std::vector<trace::MatchedOp> type_matched[2];
  {
    bool first = true;
    int idx = 0;
    for (const std::string noise : {"ior-easy-write", "mdt-easy-write"}) {
      core::ScenarioConfig cfg = enzo_config(seed);
      core::InterferenceSpec spec;
      spec.workload = noise;
      spec.nodes = {2, 3, 4, 5, 6};
      spec.instances = 15;
      spec.seed = 92;
      cfg.interference = spec;
      const auto run = core::run_scenario(cfg);
      const auto matched = trace::TraceMatcher::match(baseline.trace, run.trace, 0);
      if (first) {
        type_cols.push_back(series_ms(matched, false));
        first = false;
      }
      type_cols.push_back(series_ms(matched, true));
      type_names.push_back(noise);
      type_matched[idx++] = matched;
    }
  }
  print_series("Figure 1(b): data- vs metadata-intensive interference", type_names,
               type_cols);
  std::printf("\nimpact summaries (b):\n");
  impact_summary("data (ior-easy-write x15)", type_matched[0]);
  impact_summary("meta (mdt-easy-write x15)", type_matched[1]);

  // Count ops where the metadata noise hurt MORE than the data noise — the
  // paper's arrows in Fig. 1(b).
  {
    std::size_t meta_worse = 0, data_worse = 0, n = 0;
    const auto& a = type_matched[0];
    const auto& b = type_matched[1];
    const std::size_t len = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < len; ++i) {
      if (sim::to_seconds(a[i].base.start) > kWindowSeconds) continue;
      ++n;
      const auto da = a[i].interference.duration();
      const auto db = b[i].interference.duration();
      if (db > da * 3 / 2) ++meta_worse;
      if (da > db * 3 / 2) ++data_worse;
    }
    std::printf("\nof %zu matched ops: %zu hurt >1.5x more by metadata noise, %zu hurt"
                " >1.5x more by data noise\n", n, meta_worse, data_worse);
  }
  return 0;
}
