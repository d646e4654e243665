// Cluster topology: the simulated counterpart of the paper's testbed.
//
// Default shape matches the evaluation platform: 11 machines — 7 compute
// nodes, 3 OSS hosting 2 OSTs each, and 1 combined MGS/MDS with one MDT —
// on 1 GB/s links with 7200 rpm SATA disks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "qif/pfs/client.hpp"
#include "qif/pfs/mdt.hpp"
#include "qif/pfs/network.hpp"
#include "qif/pfs/ost.hpp"
#include "qif/sim/lanes.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/trace/op_record.hpp"

namespace qif::pfs {

class AdmissionGate;

struct ClusterConfig {
  int n_client_nodes = 7;
  int n_oss = 3;
  int osts_per_oss = 2;
  std::int64_t stripe_size = 1 << 20;
  DiskParams ost_disk;
  WritebackParams writeback;
  ReadCacheParams read_cache;  ///< opt-in server page-cache model (0 = off)
  MdtParams mdt;
  DiskParams mdt_disk;   ///< MDT journal/inode device (same hardware class)
  NetworkParams network;
  ClientParams client;
  std::uint64_t seed = 42;

  /// Throws std::invalid_argument unless the cluster has at least one OSS
  /// and one OST per OSS, and at most INT16_MAX OSTs in all: trace records
  /// keep server ids in 16 bits (trace::TargetList).  Cluster checks this
  /// before it builds anything.
  void validate() const;
};

class Cluster {
 public:
  Cluster(sim::Simulation& sim, const ClusterConfig& config);

  /// Lane mode: the cluster's resources are spread over the group's data
  /// lanes — client node n lives on lane n*L/n_client_nodes, OSS port p on
  /// lane p*L/n_oss, and the MDS (plus the MDT behind it) on the dedicated
  /// meta lane.  Throws std::invalid_argument when the partition is invalid
  /// (no data lanes, or more lanes than OSS groups — a lane with no server
  /// port could never make progress against the lookahead bound).
  Cluster(sim::LaneGroup& lanes, const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Classic (single-engine) mode only.
  [[nodiscard]] sim::Simulation& sim() { return *single_sim_; }
  [[nodiscard]] bool lane_mode() const { return lanes_ != nullptr; }
  [[nodiscard]] sim::LaneGroup* lanes() { return lanes_; }
  [[nodiscard]] int lane_of_node(NodeId node) const {
    return lanes_ != nullptr ? node_lane_[static_cast<std::size_t>(node)] : 0;
  }
  [[nodiscard]] int lane_of_port(int port) const {
    return lanes_ != nullptr ? port_lane_[static_cast<std::size_t>(port)] : 0;
  }
  /// Entity-context ids for lane-mode key minting (simulation.hpp): client
  /// node n -> n, server port p -> n_client_nodes + p.  Must agree with
  /// NetworkFabric::node_ctx/port_ctx — one convention across the stack.
  [[nodiscard]] std::uint32_t ctx_of_node(NodeId node) const {
    return static_cast<std::uint32_t>(node);
  }
  [[nodiscard]] std::uint32_t ctx_of_port(int port) const {
    return static_cast<std::uint32_t>(config_.n_client_nodes + port);
  }
  /// The engine client node `node` runs on (the single engine in classic mode).
  [[nodiscard]] sim::Simulation& sim_for_node(NodeId node) {
    return lanes_ != nullptr ? lanes_->lane(lane_of_node(node)) : *single_sim_;
  }
  /// The engine that owns OST `ost` (its OSS port's lane).
  [[nodiscard]] sim::Simulation& sim_for_ost(OstId ost) {
    return lanes_ != nullptr ? lanes_->lane(lane_of_port(oss_port(ost))) : *single_sim_;
  }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  [[nodiscard]] int n_osts() const { return static_cast<int>(osts_.size()); }
  /// Monitored servers: all OSTs followed by the MDT.
  [[nodiscard]] int n_servers() const { return n_osts() + 1; }
  /// Index of the MDT in per-server vectors (== n_osts()).
  [[nodiscard]] int mdt_server_index() const { return n_osts(); }
  /// Resolves an OpRecord target id (OST id or trace::kMdtTarget) to a
  /// dense monitored-server index.
  [[nodiscard]] int server_index(std::int32_t target) const {
    return target == trace::kMdtTarget ? mdt_server_index() : target;
  }

  [[nodiscard]] Ost& ost(OstId id) { return *osts_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Ost& ost(OstId id) const { return *osts_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] MdtServer& mdt() { return *mdt_; }
  [[nodiscard]] const MdtServer& mdt() const { return *mdt_; }
  [[nodiscard]] NetworkFabric& net() { return *net_; }

  /// Network port hosting the given OST (OSTs share their OSS's port).
  [[nodiscard]] int oss_port(OstId ost) const { return ost / config_.osts_per_oss; }
  [[nodiscard]] int mds_port() const { return config_.n_oss; }

  /// Number of uniform raw counters exposed per monitored server.
  static constexpr int kNumRawCounters = 9;

  /// Uniform cumulative counters for monitored server `s` (OSTs then MDT),
  /// in the fixed order: completed reads, completed writes, sectors read,
  /// sectors written, read merges, write merges, queued arrivals, busy
  /// ticks (ns), weighted queue ticks (ns).  For the MDT, completions
  /// count metadata ops (non-modifying / modifying) and queue ticks fold
  /// in the MDS service-queue wait — the same "pressure" semantics at both
  /// server kinds, which is what lets one shared network kernel interpret
  /// any server's vector.
  [[nodiscard]] std::array<std::int64_t, kNumRawCounters> server_counters(int server) const;

  /// The run's trace log; every client op record lands here (classic mode).
  [[nodiscard]] trace::TraceLog& trace_log() { return trace_log_; }
  [[nodiscard]] const trace::TraceLog& trace_log() const { return trace_log_; }

  /// Sink for a completed client op.  Classic mode appends to the single
  /// trace log; lane mode appends to the executing lane's shard together
  /// with the executing event's key, so take_trace() can reconstruct the
  /// exact completion order the sequential engine would have produced.
  void record_client_op(NodeId node, trace::OpRecord rec);

  /// Hands the run's trace out by move, leaving the cluster's log empty.
  /// Classic mode moves the plain log out whole; no record is copied.  Lane
  /// mode moves the records out of the per-lane shards in sequential
  /// completion order — sorted by (event key, emit index within the
  /// event), which is precisely the order the single-engine run records
  /// them in.  Either way the returned log's last block is trimmed to fit
  /// (TraceLog::shrink_to_fit).  The returned log has no observer; the
  /// cluster's log keeps its own.
  [[nodiscard]] trace::TraceLog take_trace();

  /// Write-size bookkeeping on the MDT.  In classic mode this is the direct
  /// zero-delay call the sequential cluster always made; in lane mode it
  /// becomes a cross-lane message to the meta lane carrying the executing
  /// event's child key (same when, sub+1), delivered before the meta lane
  /// runs the window — the one legal zero-lookahead edge (see lanes.hpp).
  void post_note_size(NodeId node, FileId file, std::int64_t size);

  /// Creates a client for (node, rank) tagged with `job`.  Clients are owned
  /// by the cluster and live for the whole run.
  PfsClient& make_client(NodeId node, Rank rank, std::int32_t job);

  /// Per-client admission-gate factory (the mitigation layer's hook).  Runs
  /// once inside make_client for each new client; may return nullptr to
  /// leave that client ungated.  The returned gate must outlive the client
  /// (the ctrl::Mitigator owns its controllers for the whole run).  Unset —
  /// the default — means no client is gated and no admission code runs.
  using GateFactory = std::function<AdmissionGate*(PfsClient&)>;
  void set_gate_factory(GateFactory factory) { gate_factory_ = std::move(factory); }

 private:
  /// Per-lane trace shard: the lane's records plus, for each record, the key
  /// of the event that emitted it and the record's index within that event
  /// (one event may emit several records back-to-back).
  struct ShardKey {
    sim::EventKey key;
    std::uint32_t idx;
  };

  void build_servers(const ClusterConfig& config);
  /// The fabric's server side: runs `req` on its OST or on the MDS.
  void serve(RpcRequest req, RpcDone done);

  sim::Simulation* single_sim_ = nullptr;  // classic mode
  sim::LaneGroup* lanes_ = nullptr;        // lane mode
  ClusterConfig config_;
  std::vector<int> node_lane_;  // lane mode: client node -> data lane
  std::vector<int> port_lane_;  // lane mode: server port -> lane (MDS -> meta)
  std::vector<std::unique_ptr<Ost>> osts_;
  std::unique_ptr<MdtServer> mdt_;
  std::unique_ptr<NetworkFabric> net_;
  /// RpcDones of metadata RPCs inside the MDS, parked so the MDT callback
  /// captures only {this, slot}.  Touched only on the MDS's engine.
  std::vector<RpcDone> meta_done_;
  std::vector<std::uint32_t> meta_done_free_;
  std::vector<std::unique_ptr<PfsClient>> clients_;
  GateFactory gate_factory_;
  trace::TraceLog trace_log_;
  // Lane mode: one trace shard per data lane, and for each shard record
  // the key that orders it.
  std::vector<trace::TraceLog> shard_logs_;
  std::vector<std::vector<ShardKey>> shard_keys_;
};

}  // namespace qif::pfs
