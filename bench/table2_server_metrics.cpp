// Reproduces Table II: the server-side metric catalogue, demonstrated live.
//
// Runs a mixed read/write/metadata load against the simulated cluster and
// prints, for every monitored server, one second's worth of each Table II
// metric (I/O speed, device sectors, read/write queue) exactly as the
// server-side monitor samples them, plus the window aggregates (sum, mean,
// std) the training server consumes.
#include <cstdio>

#include "qif/core/report.hpp"
#include "qif/monitor/schema.hpp"
#include "qif/monitor/server_monitor.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/workloads/driver.hpp"

#include "cli_options.hpp"

using namespace qif;

const cli::Command kCommand{"table2_server_metrics", "", 0,
                            "Table II: server-side metrics, sampled live", {}};

int main(int argc, char** argv) {
  (void)cli::parse_or_exit(kCommand, argc, argv);
  std::printf("=== Table II: server-side metrics, sampled live ===\n\n");
  std::printf("metric groups (paper Table II):\n"
              "  I/O speed      — completed read/write requests per window\n"
              "  device metrics — disk sectors read and written per window\n"
              "  read/write     — requests queued, merged requests, busy time,\n"
              "  queue            aggregate time-in-queue (weighted)\n\n");

  sim::Simulation simulation;
  pfs::ClusterConfig cc;
  cc.seed = 5;
  pfs::Cluster cluster(simulation, cc);
  monitor::ServerMonitor mon(cluster, /*window=*/5 * sim::kSecond);
  mon.start();

  // Mixed pressure: streaming writes, streaming reads, and a create storm.
  workloads::InterferenceDriver writes(cluster, "ior-easy-write", {0, 1}, 4,
                                       20 * sim::kSecond, 7, 1);
  workloads::InterferenceDriver reads(cluster, "ior-easy-read", {2, 3}, 4,
                                      20 * sim::kSecond, 8, 50);
  workloads::InterferenceDriver meta(cluster, "mdt-easy-write", {4}, 2,
                                     20 * sim::kSecond, 9, 100);
  writes.start();
  reads.start();
  meta.start();
  simulation.run_until(11 * sim::kSecond);

  const auto& names = monitor::MetricSchema::raw_server_metric_names();
  core::TextTable per_second;
  {
    std::vector<std::string> header = {"per-second sample"};
    for (int s = 0; s < cluster.n_servers(); ++s) {
      header.push_back(s == cluster.mdt_server_index() ? "mdt" : "ost" + std::to_string(s));
    }
    per_second.add_row(std::move(header));
  }
  for (int m = 0; m < monitor::MetricSchema::kRawServerMetrics; ++m) {
    std::vector<std::string> row = {names[static_cast<std::size_t>(m)]};
    for (int s = 0; s < cluster.n_servers(); ++s) {
      row.push_back(core::fmt(mon.last_sample(s)[static_cast<std::size_t>(m)], 2));
    }
    per_second.add_row(std::move(row));
  }
  std::printf("latest per-second deltas (t = 11 s):\n%s\n", per_second.to_string().c_str());

  // Window aggregates for window 1 (5-10 s) on one busy OST and the MDT.
  std::printf("window aggregates (window 1 = seconds 5..10), as fed to the model:\n");
  for (const int s : {0, cluster.mdt_server_index()}) {
    std::printf("  server %s:\n",
                s == cluster.mdt_server_index() ? "mdt" : ("ost" + std::to_string(s)).c_str());
    const auto* w = mon.window_data(1, s);
    for (int m = 0; m < monitor::MetricSchema::kRawServerMetrics; ++m) {
      if (w == nullptr) break;
      const auto& st = w->metrics[static_cast<std::size_t>(m)];
      std::printf("    %-22s sum=%14.2f mean=%12.2f std=%12.2f\n",
                  names[static_cast<std::size_t>(m)].c_str(), st.sum(), st.mean(),
                  st.stddev());
    }
  }

  monitor::MetricSchema schema;
  std::printf("\nfull per-server feature vector layout (%d features):\n", schema.dim());
  for (int i = 0; i < schema.dim(); ++i) {
    std::printf("  [%2d] %-34s group=%s\n", i, schema.at(i).name.c_str(),
                monitor::group_name(schema.at(i).group));
  }
  return 0;
}
