#include "qif/core/scenario.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "qif/monitor/client_monitor.hpp"
#include "qif/monitor/server_monitor.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::core {

pfs::ClusterConfig testbed_cluster_config(std::uint64_t seed) {
  pfs::ClusterConfig cfg;
  cfg.n_client_nodes = 7;
  cfg.n_oss = 3;
  cfg.osts_per_oss = 2;
  cfg.seed = seed;
  // Server page cache: the testbed machines carry 32-140 GB of RAM, so
  // recently written small files are read back from memory.  4 GiB per OST
  // models that OSS cache share (bench/ablation_server_cache measures how
  // this moves the read-back cells of Table I onto the paper's values).
  cfg.read_cache.capacity_bytes = 4ll << 30;
  // The MDT device serves latency-critical journal commits; starving them
  // behind inode-read storms would stall every create on the cluster, so
  // its write turns are far more generous than an OST's, and there are no
  // streaming readers to anticipate.
  cfg.mdt_disk.write_starve_limit = 20 * sim::kMillisecond;
  cfg.mdt_disk.write_turn_time = 10 * sim::kMillisecond;
  cfg.mdt_disk.anticipation_hold = 0;
  // Remaining fields keep their defaults, which already encode the paper's
  // hardware: 1 GB/s ports, 7200 rpm SATA disks, 1 MiB RPCs.
  return cfg;
}

/// Default per-RPC deadline for fault-injected runs whose config leaves the
/// timeout machinery unconfigured: long enough that healthy contention never
/// trips it (worst-case queueing in the paper's scenarios is well under a
/// second), short enough that a stalled OST turns into timeouts within the
/// monitor's window scale.
constexpr sim::SimDuration kDefaultFaultRpcDeadline = 5 * sim::kSecond;

ScenarioResult run_scenario(const ScenarioConfig& config) {
  if (config.lanes < 0) {
    throw std::invalid_argument("scenario: lanes must be >= 0 (got " +
                                std::to_string(config.lanes) +
                                "; 0 = classic single engine)");
  }
  const bool lane_mode = config.lanes >= 1;
  pfs::ClusterConfig cluster_config = config.cluster;
  if (!config.faults.empty() && cluster_config.client.rpc_deadline <= 0) {
    cluster_config.client.rpc_deadline = kDefaultFaultRpcDeadline;
  }
  // The lookahead is the fabric propagation latency: every cross-lane
  // interaction rides at least one network hop, except the zero-delay
  // note_size edge which the lane group's stage ordering covers.
  std::optional<sim::Simulation> simulation;
  std::optional<sim::LaneGroup> lane_group;
  std::optional<pfs::Cluster> cluster_storage;
  if (lane_mode) {
    lane_group.emplace(config.lanes, cluster_config.network.latency);
    cluster_storage.emplace(*lane_group, cluster_config);
  } else {
    simulation.emplace();
    cluster_storage.emplace(*simulation, cluster_config);
  }
  pfs::Cluster& cluster = *cluster_storage;
  const auto now_fn = [&]() {
    return lane_mode ? lane_group->now() : simulation->now();
  };
  const auto run_until = [&](sim::SimTime until) {
    return lane_mode ? lane_group->run_until(until) : simulation->run_until(until);
  };
  const auto pending = [&]() {
    return lane_mode ? lane_group->pending() : simulation->pending();
  };

  // Arm the fault plan before any workload starts so episodes starting at
  // t=0 are honoured.  The injector seeds its own RNG stream from the
  // cluster seed, so faulted runs stay exactly as reproducible as healthy
  // ones.
  std::optional<pfs::faults::FaultInjector> injector;
  if (!config.faults.empty()) {
    injector.emplace(cluster, config.faults,
                     sim::Rng::derive_seed(cluster_config.seed, "faults"));
  }

  // Arm mitigation before any workload starts so every client the job
  // layer creates passes through the gate factory.  Declared after the
  // cluster (destroyed first; its dtor uninstalls the factory).
  std::optional<ctrl::Mitigator> mitigator;
  if (!config.mitigation.empty()) {
    mitigator.emplace(cluster, config.mitigation);
  }

  // Monitors attach before any workload starts so window 0 is complete.
  std::optional<monitor::ClientMonitor> client_mon;
  std::optional<monitor::ServerMonitor> server_mon;
  if (config.monitors) {
    client_mon.emplace(/*job=*/0, config.window, cluster.n_servers(),
                       cluster.mdt_server_index());
    if (!lane_mode) {
      // Classic mode streams records into the monitor as they complete; in
      // lane mode the per-lane shards are merged post-run and replayed
      // below (observe() is a pure per-record fold, so replaying the merged
      // trace yields the same aggregates).
      cluster.trace_log().set_observer(
          [&m = *client_mon](const trace::OpRecord& rec) { m.observe(rec); });
    }
    server_mon.emplace(cluster, config.window);
    server_mon->start();
  }

  workloads::JobSpec target = config.target;
  target.job = 0;
  workloads::JobInstance target_job(cluster, target, /*loop=*/false);

  std::optional<workloads::InterferenceDriver> driver;
  if (config.interference.has_value()) {
    const InterferenceSpec& spec = *config.interference;
    driver.emplace(cluster, spec.workload, spec.nodes, spec.instances, config.horizon,
                   spec.seed, /*job_base=*/1, spec.scale);
    driver->start();
  }

  ScenarioResult result;
  // The completion flag is written on the target job's own engine (a worker
  // thread in lane mode) and read by this loop between windows; the lane
  // group's barrier orders those accesses.  The completion *time* comes
  // from the job itself, which stamps it on its own lane's clock.
  target_job.start([&] { result.target_finished = true; });

  // Step in window-sized chunks so we stop promptly once the target is
  // done; interference loops would otherwise keep the event queue alive
  // forever.
  while (!result.target_finished && now_fn() < config.horizon) {
    const sim::SimTime next = now_fn() + config.window;
    const std::uint64_t ran = run_until(next);
    if (ran == 0 && pending() == 0) break;  // everything drained
  }
  // Let the server monitor close the final (partial) window's samples.
  if (server_mon.has_value()) {
    run_until(((now_fn() / config.window) + 1) * config.window);
    server_mon->stop();
  }

  result.target_completion = target_job.completion_time();
  result.target_body_start = target_job.body_start_time();
  result.events_executed =
      lane_mode ? lane_group->events_executed() : simulation->events_executed();
  result.trace = cluster.take_trace();
  if (lane_mode && client_mon.has_value()) {
    for (const trace::OpRecord& rec : result.trace.records()) client_mon->observe(rec);
  }
  if (mitigator.has_value()) {
    result.ctrl = mitigator->report(result.trace, config.window);
  }
  if (config.monitors) {
    // Fault-injected runs widen every per-server vector with the fault
    // block; healthy runs keep the exact historical 37-wide layout.
    const bool with_faults = !config.faults.empty();
    result.n_servers = cluster.n_servers();
    result.dim = with_faults ? monitor::MetricSchema::kPerServerDimFaults
                             : monitor::MetricSchema::kPerServerDim;
    monitor::FeatureAssembler assembler(*client_mon, *server_mon, cluster.n_servers(),
                                        with_faults);
    const std::vector<std::int64_t> windows = client_mon->window_indices();
    result.window_features.set_shape(result.n_servers, result.dim);
    result.window_features.reserve(windows.size());
    // window_indices() is ascending, so the table's window column stays
    // sorted and the campaign join can binary-search it.
    for (const std::int64_t w : windows) {
      assembler.fill_window(w, result.window_features.append_row(w, 0, 1.0));
    }
  }
  return result;
}

}  // namespace qif::core
