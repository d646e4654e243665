#include "qif/pfs/network.hpp"

#include <cassert>
#include <utility>

namespace qif::pfs {

NetworkFabric::NetworkFabric(sim::Simulation& sim, const NetworkParams& params,
                             int n_client_nodes, int n_server_ports)
    : sim_(&sim), params_(params) {
  client_egress_.reserve(static_cast<std::size_t>(n_client_nodes));
  for (int i = 0; i < n_client_nodes; ++i) {
    client_egress_.push_back(
        std::make_unique<sim::Pipe>(sim, params_.bytes_per_second, params_.latency));
  }
  server_ingress_.reserve(static_cast<std::size_t>(n_server_ports));
  server_egress_.reserve(static_cast<std::size_t>(n_server_ports));
  for (int i = 0; i < n_server_ports; ++i) {
    server_ingress_.push_back(std::make_unique<sim::FairLink>(sim, params_.bytes_per_second));
    server_egress_.push_back(std::make_unique<sim::FairLink>(sim, params_.bytes_per_second));
  }
}

NetworkFabric::NetworkFabric(sim::LaneGroup& lanes, const NetworkParams& params,
                             std::vector<int> node_lane, std::vector<int> port_lane)
    : lanes_(&lanes),
      params_(params),
      node_lane_(std::move(node_lane)),
      port_lane_(std::move(port_lane)) {
  client_egress_.reserve(node_lane_.size());
  for (std::size_t i = 0; i < node_lane_.size(); ++i) {
    const int src = node_lane_[i];
    auto pipe = std::make_unique<sim::Pipe>(lanes_->lane(src), params_.bytes_per_second,
                                            params_.latency);
    // Request delivery: the destination *port* rides in the message's route
    // tag; the route resolves its lane and entity context.  Same lane mints
    // the same key a cross-lane post would (schedule_after_ctx consumes one
    // origin, exactly like post_cross), so partitioning never changes keys.
    pipe->set_delivery_route(
        [this, src](sim::SimDuration latency, std::int32_t port, sim::InlineTask fn) {
          const int dst = port_lane_[static_cast<std::size_t>(port)];
          const std::uint32_t ctx = port_ctx(port);
          if (dst == src) {
            lanes_->lane(src).schedule_after_ctx(latency, ctx, std::move(fn));
          } else {
            post_cross(src, dst, ctx, latency, std::move(fn));
          }
        });
    client_egress_.push_back(std::move(pipe));
  }
  server_ingress_.reserve(port_lane_.size());
  server_egress_.reserve(port_lane_.size());
  for (std::size_t p = 0; p < port_lane_.size(); ++p) {
    sim::Simulation& s = lanes_->lane(port_lane_[p]);
    server_ingress_.push_back(std::make_unique<sim::FairLink>(s, params_.bytes_per_second));
    server_egress_.push_back(std::make_unique<sim::FairLink>(s, params_.bytes_per_second));
  }
}

sim::Simulation& NetworkFabric::node_sim(NodeId node) {
  return lanes_ != nullptr ? lanes_->lane(node_lane_[static_cast<std::size_t>(node)])
                           : *sim_;
}

sim::Simulation& NetworkFabric::port_sim(int port) {
  return lanes_ != nullptr ? lanes_->lane(port_lane_[static_cast<std::size_t>(port)])
                           : *sim_;
}

void NetworkFabric::post_cross(int src_lane, int dst_lane, std::uint32_t ctx,
                               sim::SimDuration latency, sim::InlineTask fn) {
  sim::Simulation& src = lanes_->lane(src_lane);
  const sim::SimTime t = src.now();
  lanes_->post(src_lane, dst_lane,
               sim::EventKey{t + latency, t, src.consume_origin(), 0}, ctx,
               std::move(fn));
}

void NetworkFabric::set_loss_gate(const std::function<bool()>& gate) {
  for (auto& p : client_egress_) p->set_loss_gate(gate);
  for (auto& l : server_ingress_) l->set_loss_gate(gate);
  for (auto& l : server_egress_) l->set_loss_gate(gate);
}

void NetworkFabric::install_loss_gates(
    const std::function<std::function<bool()>(const std::string& resource,
                                              sim::Simulation& sim)>& make_gate) {
  for (std::size_t i = 0; i < client_egress_.size(); ++i) {
    client_egress_[i]->set_loss_gate(
        make_gate("egress-pipe/" + std::to_string(i), node_sim(static_cast<NodeId>(i))));
  }
  for (std::size_t p = 0; p < server_ingress_.size(); ++p) {
    server_ingress_[p]->set_loss_gate(
        make_gate("ingress-link/" + std::to_string(p), port_sim(static_cast<int>(p))));
    server_egress_[p]->set_loss_gate(
        make_gate("egress-link/" + std::to_string(p), port_sim(static_cast<int>(p))));
  }
}

std::uint64_t NetworkFabric::messages_dropped() const {
  std::uint64_t n = 0;
  for (const auto& p : client_egress_) n += p->messages_dropped();
  for (const auto& l : server_ingress_) n += l->messages_dropped();
  for (const auto& l : server_egress_) n += l->messages_dropped();
  return n;
}

void NetworkFabric::rpc(NodeId client, int server_port, RpcRequest request,
                        RpcReplyFn on_reply) {
  assert(client >= 0 && client < n_client_nodes());
  assert(server_port >= 0 && server_port < n_server_ports());
  const std::int32_t dst_tag = lanes_ != nullptr ? server_port : -1;
  client_egress_[client]->send(
      request.request_payload() + params_.rpc_header_bytes, dst_tag,
      [this, client, server_port, request = std::move(request),
       on_reply = std::move(on_reply)]() mutable {
        // From here on everything runs on the server port's engine, until
        // the response propagation hop crosses back to the client.
        server_ingress_[server_port]->transfer(
            request.request_payload() + params_.rpc_header_bytes,
            [this, client, server_port, request = std::move(request),
             on_reply = std::move(on_reply)]() mutable {
              const std::int64_t response_payload = request.response_payload();
              server_(std::move(request), RpcDone(this, client, server_port,
                                                  response_payload, std::move(on_reply)));
            });
      });
}

void NetworkFabric::respond(NodeId client, int server_port, std::int64_t response_payload,
                            const MetaResult& reply, RpcReplyFn on_reply) {
  server_egress_[server_port]->transfer(
      response_payload + params_.rpc_header_bytes,
      [this, client, server_port, reply, on_reply = std::move(on_reply)]() mutable {
        // Response propagation back to the client host, delivered under the
        // client node's entity context.
        auto deliver = [reply, on_reply = std::move(on_reply)]() mutable {
          if (on_reply) on_reply(reply);
        };
        if (lanes_ != nullptr) {
          const int src = port_lane_[static_cast<std::size_t>(server_port)];
          const int dst = node_lane_[static_cast<std::size_t>(client)];
          const std::uint32_t ctx = node_ctx(client);
          if (src != dst) {
            post_cross(src, dst, ctx, params_.latency, std::move(deliver));
          } else {
            lanes_->lane(src).schedule_after_ctx(params_.latency, ctx, std::move(deliver));
          }
          return;
        }
        port_sim(server_port).schedule_after(params_.latency, std::move(deliver));
      });
}

}  // namespace qif::pfs
