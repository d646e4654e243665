#include "qif/pfs/cluster.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "qif/pfs/admission.hpp"

namespace qif::pfs {

void ClusterConfig::validate() const {
  if (n_oss < 1 || osts_per_oss < 1) {
    throw std::invalid_argument("cluster: need at least 1 OSS and 1 OST per OSS (got " +
                                std::to_string(n_oss) + " x " + std::to_string(osts_per_oss) +
                                ")");
  }
  const std::int64_t n_osts = std::int64_t{n_oss} * osts_per_oss;
  if (n_osts > std::numeric_limits<std::int16_t>::max()) {
    throw std::invalid_argument("cluster: " + std::to_string(n_osts) + " OSTs; at most " +
                                std::to_string(std::numeric_limits<std::int16_t>::max()) +
                                " fit the trace's 16-bit server ids");
  }
}

namespace {

const ClusterConfig& validated(const ClusterConfig& config) {
  config.validate();
  return config;
}

}  // namespace

Cluster::Cluster(sim::Simulation& sim, const ClusterConfig& config)
    : single_sim_(&sim), config_(validated(config)) {
  build_servers(config_);
  net_ = std::make_unique<NetworkFabric>(sim, config_.network, config_.n_client_nodes,
                                         config_.n_oss + 1);
  net_->set_server(
      [this](RpcRequest req, RpcDone done) { serve(std::move(req), std::move(done)); });
}

Cluster::Cluster(sim::LaneGroup& lanes, const ClusterConfig& config)
    : lanes_(&lanes), config_(validated(config)) {
  const int L = lanes.data_lanes();
  if (L < 1) {
    throw std::invalid_argument("lane partition: need at least 1 data lane");
  }
  if (L > config_.n_oss) {
    throw std::invalid_argument("lane partition: " + std::to_string(L) +
                                " data lanes but only " + std::to_string(config_.n_oss) +
                                " OSS groups (each data lane must own >= 1 OSS port)");
  }
  node_lane_.resize(static_cast<std::size_t>(config_.n_client_nodes));
  for (int n = 0; n < config_.n_client_nodes; ++n) {
    node_lane_[static_cast<std::size_t>(n)] = n * L / config_.n_client_nodes;
  }
  port_lane_.resize(static_cast<std::size_t>(config_.n_oss) + 1);
  for (int p = 0; p < config_.n_oss; ++p) {
    port_lane_[static_cast<std::size_t>(p)] = p * L / config_.n_oss;
  }
  port_lane_[static_cast<std::size_t>(config_.n_oss)] = lanes.meta_lane();
  shard_logs_.resize(static_cast<std::size_t>(L));
  shard_keys_.resize(static_cast<std::size_t>(L));
  build_servers(config_);
  net_ = std::make_unique<NetworkFabric>(lanes, config_.network, node_lane_, port_lane_);
  net_->set_server(
      [this](RpcRequest req, RpcDone done) { serve(std::move(req), std::move(done)); });
}

void Cluster::serve(RpcRequest req, RpcDone done) {
  switch (req.kind) {
    case RpcKind::kRead:
      ost(req.ost).read(req.disk_offset, req.len, std::move(done));
      return;
    case RpcKind::kWrite:
      ost(req.ost).write(req.disk_offset, req.len, std::move(done));
      return;
    case RpcKind::kWriteSync:
      ost(req.ost).write_sync(req.disk_offset, req.len, std::move(done));
      return;
    default:
      break;
  }
  std::uint32_t slot;
  if (!meta_done_free_.empty()) {
    slot = meta_done_free_.back();
    meta_done_free_.pop_back();
    meta_done_[slot] = std::move(done);
  } else {
    slot = static_cast<std::uint32_t>(meta_done_.size());
    meta_done_.push_back(std::move(done));
  }
  auto reply = [this, slot](const MetaResult& r) {
    RpcDone d = std::move(meta_done_[slot]);
    meta_done_free_.push_back(slot);
    d(r);
  };
  switch (req.kind) {
    case RpcKind::kCreate:
      mdt_->create(std::move(req.path), req.stripes, req.stripe_hint, reply);
      break;
    case RpcKind::kOpen:
      mdt_->open(std::move(req.path), reply);
      break;
    case RpcKind::kStat:
      mdt_->stat(std::move(req.path), reply);
      break;
    case RpcKind::kClose:
      mdt_->close(req.file, reply);
      break;
    case RpcKind::kUnlink:
      mdt_->unlink(std::move(req.path), reply);
      break;
    default:  // kMkdir
      mdt_->mkdir(std::move(req.path), reply);
      break;
  }
}

void Cluster::build_servers(const ClusterConfig& config) {
  const int n_osts = config.n_oss * config.osts_per_oss;
  osts_.reserve(static_cast<std::size_t>(n_osts));
  for (int i = 0; i < n_osts; ++i) {
    const int port = oss_port(static_cast<OstId>(i));
    sim::Simulation& s =
        lanes_ != nullptr ? lanes_->lane(lane_of_port(port)) : *single_sim_;
    // Anything a server schedules at construction time must mint under the
    // server's own entity context so the keys are partition-independent.
    if (lanes_ != nullptr) s.set_context(ctx_of_port(port));
    osts_.push_back(std::make_unique<Ost>(s, static_cast<OstId>(i), config.ost_disk,
                                          config.writeback, config.seed,
                                          config.read_cache));
  }
  sim::Simulation& mdt_sim = lanes_ != nullptr ? lanes_->meta() : *single_sim_;
  if (lanes_ != nullptr) mdt_sim.set_context(ctx_of_port(mds_port()));
  mdt_ = std::make_unique<MdtServer>(mdt_sim, config.mdt, config.mdt_disk, config.seed,
                                     n_osts, config.stripe_size);
}

std::array<std::int64_t, Cluster::kNumRawCounters> Cluster::server_counters(int server) const {
  std::array<std::int64_t, kNumRawCounters> out{};
  if (server < n_osts()) {
    const DiskCounters c = ost(static_cast<OstId>(server)).disk().counters();
    out = {c.reads_completed, c.writes_completed, c.sectors_read, c.sectors_written,
           c.read_merges,     c.write_merges,     c.queued_requests,
           c.io_ticks,        c.weighted_ticks};
  } else {
    const DiskCounters d = mdt_->disk().counters();
    const MdtCounters m = mdt_->counters();
    out = {m.ops_completed - m.modifying_ops,
           m.modifying_ops,
           d.sectors_read,
           d.sectors_written,
           d.read_merges,
           d.write_merges,
           m.queued_requests + d.queued_requests,
           d.io_ticks,
           d.weighted_ticks + m.queue_wait_total};
  }
  return out;
}

void Cluster::record_client_op(NodeId node, trace::OpRecord rec) {
  if (lanes_ == nullptr) {
    trace_log_.record(std::move(rec));
    return;
  }
  const auto lane = static_cast<std::size_t>(lane_of_node(node));
  std::vector<ShardKey>& keys = shard_keys_[lane];
  const sim::EventKey key = sim_for_node(node).current_key();
  std::uint32_t idx = 0;
  if (!keys.empty() && keys.back().key == key) idx = keys.back().idx + 1;
  keys.push_back(ShardKey{key, idx});
  shard_logs_[lane].record(std::move(rec));
}

trace::TraceLog Cluster::take_trace() {
  if (lanes_ == nullptr) {
    trace_log_.shrink_to_fit();
    return std::move(trace_log_);
  }
  // Gather (shard, position) pairs and sort by (event key, emit index).
  // Keys are globally unique per event (the origin word carries the entity
  // context, and each entity lives on exactly one engine), so the order is
  // total and identical for every lane count.
  std::vector<trace::TraceLog::RecordRef> order;
  std::size_t total = 0;
  for (const auto& log : shard_logs_) total += log.size();
  order.reserve(total);
  for (std::uint32_t s = 0; s < shard_logs_.size(); ++s) {
    for (std::uint32_t i = 0; i < shard_logs_[s].size(); ++i) order.push_back({s, i});
  }
  std::sort(order.begin(), order.end(),
            [this](const trace::TraceLog::RecordRef& a, const trace::TraceLog::RecordRef& b) {
              const ShardKey& ka = shard_keys_[a.log][a.index];
              const ShardKey& kb = shard_keys_[b.log][b.index];
              if (ka.key == kb.key) return ka.idx < kb.idx;
              return ka.key < kb.key;
            });
  for (auto& keys : shard_keys_) keys.clear();
  trace::TraceLog merged = trace::TraceLog::gather(shard_logs_, order);
  merged.shrink_to_fit();
  return merged;
}

void Cluster::post_note_size(NodeId node, FileId file, std::int64_t size) {
  if (lanes_ == nullptr) {
    mdt_->note_size(file, size);
    return;
  }
  // Zero-delay edge into the meta lane: inherit the executing event's key
  // with a bumped sub so the MDT applies sizes in exactly the order the
  // single-lane engine interleaves these calls with MDS RPC arrivals.
  lanes_->post(lane_of_node(node), lanes_->meta_lane(), sim_for_node(node).child_key(),
               ctx_of_port(mds_port()),
               [this, file, size] { mdt_->note_size(file, size); });
}

PfsClient& Cluster::make_client(NodeId node, Rank rank, std::int32_t job) {
  clients_.push_back(std::make_unique<PfsClient>(*this, node, rank, job));
  PfsClient& client = *clients_.back();
  if (gate_factory_) {
    if (AdmissionGate* gate = gate_factory_(client)) client.set_gate(gate);
  }
  return client;
}

}  // namespace qif::pfs
