// Cluster interconnect.
//
// Topology mirrors the paper's testbed: every compute node and every
// server owns a network port.  A node's egress is a FIFO Pipe (requests
// from ranks on one host serialize onto one NIC); each server's ingress
// and egress are FairLinks (concurrent flows from many hosts converge to
// fair shares, the TCP steady state).  An RPC is: request payload over
// client egress -> server ingress, server-side service, response payload
// over server egress.  Response delivery to the client NIC is not modeled
// as a bottleneck (7 clients never saturate their own ingress in any of
// the paper's scenarios), which keeps event counts proportional to RPCs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qif/pfs/mdt.hpp"
#include "qif/pfs/types.hpp"
#include "qif/sim/fair_link.hpp"
#include "qif/sim/inline_task.hpp"
#include "qif/sim/lanes.hpp"
#include "qif/sim/pipe.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {

struct NetworkParams {
  double bytes_per_second = 1e9;                       ///< per-port capacity
  sim::SimDuration latency = 60 * sim::kMicrosecond;   ///< per-message propagation
  std::int64_t rpc_header_bytes = 256;                 ///< framing per RPC message
};

enum class RpcKind : std::uint8_t {
  kRead,       ///< OST read
  kWrite,      ///< OST write through the write-back cache
  kWriteSync,  ///< OST write straight to the media (flush-on-close)
  kCreate,     ///< MDS namespace ops from here on
  kOpen,
  kStat,
  kClose,
  kUnlink,
  kMkdir,
};

/// Body of a metadata message, each way.
inline constexpr std::int64_t kMetaPayloadBytes = 256;

/// The server's half of an RPC.  It travels by value through every hop, so
/// the server side never reads memory its client may rewrite: a straggler
/// of a settled or superseded attempt that crosses an event-lane boundary
/// touches only its own copy.  Its kind fixes the wire payloads.
struct RpcRequest {
  RpcKind kind = RpcKind::kRead;
  OstId ost = 0;                 ///< data: target OST
  std::int64_t disk_offset = 0;  ///< data: address on the OST's disk
  std::int64_t len = 0;          ///< data: bytes moved
  // Metadata body.
  std::int32_t stripes = 0;       ///< create: stripe count (0 = all OSTs)
  std::int32_t stripe_hint = -1;  ///< create: first OST, -1 = hashed
  FileId file = kInvalidFile;     ///< close
  std::string path;               ///< every metadata kind but close

  [[nodiscard]] bool is_metadata() const { return kind >= RpcKind::kCreate; }
  /// Client -> server payload: the data of a write, or a metadata body.
  [[nodiscard]] std::int64_t request_payload() const {
    if (is_metadata()) return kMetaPayloadBytes;
    return kind == RpcKind::kRead ? 0 : len;
  }
  /// Server -> client payload: the data of a read, or a metadata body.
  [[nodiscard]] std::int64_t response_payload() const {
    if (is_metadata()) return kMetaPayloadBytes;
    return kind == RpcKind::kRead ? len : 0;
  }
};

/// Client continuation of an RPC, run on the client's engine when the
/// response lands.  The reply carries a metadata op's result by value (data
/// RPCs reply with an empty MetaResult).  Its 24-byte buffer holds a client
/// op handle; it must stay small because every hop's closure carries it.
using RpcReplyFn = sim::InlineFunction<void(const MetaResult&), 24>;

class NetworkFabric;

/// The server's handle on an in-flight RPC: calling it (once) sends the
/// response.  It is a plain value — the server may park it in a queue or
/// move it into an InlineTask.
class RpcDone {
 public:
  /// Responds with an empty reply (data RPCs).
  void operator()() { (*this)(MetaResult{}); }
  /// Responds with `reply` (metadata RPCs).
  void operator()(const MetaResult& reply);

 private:
  friend class NetworkFabric;
  RpcDone(NetworkFabric* fabric, NodeId client, int port, std::int64_t response_payload,
          RpcReplyFn on_reply)
      : fabric_(fabric),
        client_(client),
        port_(port),
        response_payload_(response_payload),
        on_reply_(std::move(on_reply)) {}

  NetworkFabric* fabric_;
  NodeId client_;
  int port_;
  std::int64_t response_payload_;
  RpcReplyFn on_reply_;
};

class NetworkFabric {
 public:
  /// `n_server_ports`: one per OSS plus one for the MDS.
  NetworkFabric(sim::Simulation& sim, const NetworkParams& params, int n_client_nodes,
                int n_server_ports);

  /// Lane mode: every port's resources live on the engine of its owning
  /// lane (`node_lane[i]` for client node i's egress pipe, `port_lane[p]`
  /// for server port p's ingress/egress links), and the two propagation
  /// hops that may cross lanes — request delivery at the end of client-side
  /// serialization, response delivery after server egress — become
  /// timestamped cross-lane messages keyed exactly like the local events
  /// the sequential fabric schedules.
  NetworkFabric(sim::LaneGroup& lanes, const NetworkParams& params,
                std::vector<int> node_lane, std::vector<int> port_lane);

  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  /// Server side of every port: invoked on the port's engine once a
  /// request has arrived, with the request and the RpcDone to call when the
  /// work completes.  Installed once at setup (the cluster dispatches to
  /// its OSTs and MDS).
  using Server = std::function<void(RpcRequest request, RpcDone done)>;
  void set_server(Server server) { server_ = std::move(server); }

  /// Runs a full RPC: the request payload over the client's egress pipe
  /// and the port's ingress link, the server's work, the response payload
  /// over the port's egress link, then `on_reply` on the client's engine
  /// (an empty `on_reply` makes a fire-and-forget RPC).
  void rpc(NodeId client, int server_port, RpcRequest request, RpcReplyFn on_reply);

  [[nodiscard]] int n_client_nodes() const { return static_cast<int>(client_egress_.size()); }
  [[nodiscard]] int n_server_ports() const { return static_cast<int>(server_ingress_.size()); }

  /// Entity-context ids for the lane engines' partition-independent key
  /// minting (simulation.hpp): client node n -> n, server port p ->
  /// n_client_nodes + p.  One convention shared by the fabric's delivery
  /// re-tagging and the cluster's setup-time contexts.
  [[nodiscard]] std::uint32_t node_ctx(NodeId node) const {
    return static_cast<std::uint32_t>(node);
  }
  [[nodiscard]] std::uint32_t port_ctx(int port) const {
    return static_cast<std::uint32_t>(n_client_nodes() + port);
  }
  [[nodiscard]] std::size_t server_ingress_flows(int port) const {
    return server_ingress_[port]->active();
  }
  [[nodiscard]] std::size_t server_egress_flows(int port) const {
    return server_egress_[port]->active();
  }

  /// Fault injection: installs `gate` as the message-loss gate on every
  /// client egress pipe and every server ingress/egress link.  Each resource
  /// consults the gate independently per message.
  void set_loss_gate(const std::function<bool()>& gate);

  /// Fault injection, per-resource form: `make_gate(resource, sim)` is
  /// called once per fabric resource with a stable resource name and the
  /// engine that owns the resource, and must return that resource's gate.
  /// This is the lane-safe shape — each gate draws from its own stream, so
  /// the drop sequence a resource sees depends only on its own traffic and
  /// is identical however the cluster is partitioned.
  void install_loss_gates(
      const std::function<std::function<bool()>(const std::string& resource,
                                                sim::Simulation& sim)>& make_gate);

  /// Total messages dropped by loss gates across all fabric resources.
  [[nodiscard]] std::uint64_t messages_dropped() const;

 private:
  [[nodiscard]] sim::Simulation& node_sim(NodeId node);
  [[nodiscard]] sim::Simulation& port_sim(int port);
  /// Posts `fn` to `dst_lane` as the event the executing lane's
  /// schedule_after(latency, fn) would have been: when = now + latency,
  /// birth = now, origin freshly consumed from the source engine.  The
  /// delivered event executes under entity context `ctx`.
  void post_cross(int src_lane, int dst_lane, std::uint32_t ctx,
                  sim::SimDuration latency, sim::InlineTask fn);
  /// RpcDone's body: the response transfer and the delivery back to the
  /// client.
  void respond(NodeId client, int server_port, std::int64_t response_payload,
               const MetaResult& reply, RpcReplyFn on_reply);
  friend class RpcDone;

  sim::Simulation* sim_ = nullptr;  // classic mode: the single engine
  sim::LaneGroup* lanes_ = nullptr;
  NetworkParams params_;
  std::vector<int> node_lane_;  // lane mode only
  std::vector<int> port_lane_;
  std::vector<std::unique_ptr<sim::Pipe>> client_egress_;
  std::vector<std::unique_ptr<sim::FairLink>> server_ingress_;
  std::vector<std::unique_ptr<sim::FairLink>> server_egress_;
  Server server_;
};

inline void RpcDone::operator()(const MetaResult& reply) {
  fabric_->respond(client_, port_, response_payload_, reply, std::move(on_reply_));
}

}  // namespace qif::pfs
