// Tests for the RPC fabric: request/response sequencing, port fan-in,
// and contention behaviour.
#include <gtest/gtest.h>

#include <vector>

#include "qif/pfs/network.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {
namespace {

NetworkParams fast_params() {
  NetworkParams p;
  p.bytes_per_second = 1e9;
  p.latency = 100 * sim::kMicrosecond;
  return p;
}

// Requests whose kind fixes the wire payloads: a read returns `len` bytes,
// a write sends them, a metadata op sends 256 bytes each way.
RpcRequest request(RpcKind kind, std::int64_t len) {
  RpcRequest r;
  r.kind = kind;
  r.len = len;
  return r;
}
RpcRequest read_of(std::int64_t len) { return request(RpcKind::kRead, len); }
RpcRequest write_of(std::int64_t len) { return request(RpcKind::kWrite, len); }
RpcRequest meta_op() { return request(RpcKind::kStat, 0); }

// A server that answers every request at once.
void serve_instantly(NetworkFabric& net) {
  net.set_server([](RpcRequest, RpcDone done) { done(); });
}

TEST(NetworkFabric, RpcRunsServeBetweenTransfers) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 2, 2);
  std::vector<int> order;
  net.set_server([&](RpcRequest, RpcDone done) {
    order.push_back(1);  // serve
    s.schedule_after(sim::kMillisecond, std::move(done));
  });
  net.rpc(0, 1, read_of(0), [&](const MetaResult&) { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(NetworkFabric, SmallRpcLatencyIsBounded) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 1, 1);
  serve_instantly(net);
  sim::SimTime done = 0;
  net.rpc(0, 0, meta_op(), [&](const MetaResult&) { done = s.now(); });
  s.run_all();
  // Two propagation hops + tiny serializations: well under a millisecond.
  EXPECT_GT(done, 2 * fast_params().latency);
  EXPECT_LT(sim::to_millis(done), 1.0);
}

TEST(NetworkFabric, LargePayloadPaysSerialization) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 1, 1);
  serve_instantly(net);
  sim::SimTime small_done = 0, big_done = 0;
  {
    sim::Simulation s2;
    NetworkFabric net2(s2, fast_params(), 1, 1);
    serve_instantly(net2);
    net2.rpc(0, 0, read_of(256), [&](const MetaResult&) { small_done = s2.now(); });
    s2.run_all();
  }
  net.rpc(0, 0, read_of(100 << 20), [&](const MetaResult&) { big_done = s.now(); });
  s.run_all();
  // 100 MiB at 1 GB/s ~ 105 ms of response serialization.
  EXPECT_GT(sim::to_millis(big_done) - sim::to_millis(small_done), 90.0);
}

TEST(NetworkFabric, ClientEgressSerializesRanksOnOneNode) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 1, 1);
  serve_instantly(net);
  std::vector<sim::SimTime> done;
  for (int i = 0; i < 2; ++i) {
    net.rpc(0, 0, write_of(50 << 20), [&](const MetaResult&) { done.push_back(s.now()); });
  }
  s.run_all();
  ASSERT_EQ(done.size(), 2u);
  // The second request's 50 MiB must wait for the first on the shared
  // node NIC: clearly serialized, not overlapped.
  EXPECT_GT(sim::to_millis(done[1]), sim::to_millis(done[0]) + 40.0);
}

TEST(NetworkFabric, ServerIngressSharesFairlyAcrossNodes) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 2, 1);
  serve_instantly(net);
  std::vector<sim::SimTime> done(2);
  for (int node = 0; node < 2; ++node) {
    net.rpc(node, 0, write_of(100 << 20), [&, node](const MetaResult&) {
      done[static_cast<std::size_t>(node)] = s.now();
    });
  }
  s.run_all();
  // Two equal flows from different nodes converge on one ingress: both
  // finish around 2x the solo time, and close to each other.
  const double a = sim::to_millis(done[0]);
  const double b = sim::to_millis(done[1]);
  EXPECT_NEAR(a, b, 30.0);
  EXPECT_GT(std::max(a, b), 180.0);  // ~2 x 105 ms
}

TEST(NetworkFabric, FlowGaugesTrackActivity) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 1, 2);
  serve_instantly(net);
  net.rpc(0, 1, write_of(40 << 20), nullptr);
  // Nothing in flight on port 0; port 1 becomes active once the request
  // clears the client NIC (~42 ms serialization) and enters the ingress.
  s.run_until(45 * sim::kMillisecond);
  EXPECT_EQ(net.server_ingress_flows(0), 0u);
  EXPECT_EQ(net.server_ingress_flows(1), 1u);
  s.run_all();
  EXPECT_EQ(net.server_ingress_flows(1), 0u);
}

TEST(NetworkFabric, ManyConcurrentRpcsAllComplete) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 4, 3);
  net.set_server([&s](RpcRequest, RpcDone d) { s.schedule_after(10, std::move(d)); });
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    net.rpc(i % 4, i % 3, read_of(4096), [&](const MetaResult&) { ++done; });
  }
  s.run_all();
  EXPECT_EQ(done, 200);
}

TEST(NetworkFabric, ReplyCarriesTheServerResultByValue) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 1, 1);
  net.set_server([](RpcRequest req, RpcDone done) {
    MetaResult r;  // dies with this frame; the reply must carry a copy
    r.ok = req.path == "/a/b";
    r.file = 7;
    r.size = 4096;
    done(r);
  });
  RpcRequest req = meta_op();
  req.path = "/a/b";
  MetaResult got;
  net.rpc(0, 0, std::move(req), [&](const MetaResult& r) { got = r; });
  s.run_all();
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.file, 7);
  EXPECT_EQ(got.size, 4096);
}

}  // namespace
}  // namespace qif::pfs
