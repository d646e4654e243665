// FIFO store-and-forward resource.
//
// A Pipe serializes messages one at a time at a fixed byte rate with a fixed
// per-message latency — the model we use for a client host's NIC egress and
// for RPC framing overhead.  Unlike FairLink (which models converged fair
// sharing at a contended port), a Pipe preserves strict arrival order, which
// matters for per-rank op streams: a rank's requests may not overtake each
// other.
//
// Allocation discipline: messages live in a grow-once power-of-two ring
// (a deque would allocate/free blocks as it marches).  send() builds the
// delivery callback in place in its ring cell; the head cell is the
// message serializing, and at serialization end its callback moves
// straight into the delivery event (or the lane route).  A callback is
// thus built once and moved once on its way to the engine, and after
// warm-up a pipe performs zero heap allocations per message (asserted by
// test_sim_alloc).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "qif/sim/simulation.hpp"

namespace qif::sim {

class Pipe {
 public:
  /// `bytes_per_second` — serialization rate; `latency` — fixed per-message
  /// propagation delay added after serialization.
  Pipe(Simulation& sim, double bytes_per_second, SimDuration latency)
      : sim_(sim), bytes_per_second_(bytes_per_second), latency_(latency) {}

  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  /// Enqueues a message; `on_delivered` (a void() callable, built in place
  /// in the ring) fires once the message has fully serialized (in FIFO
  /// order) and propagated.  `route_tag` is opaque to the pipe: it is
  /// handed to the delivery route (lane mode) so the fabric knows which
  /// lane the far end lives in; untagged sends carry -1.
  template <typename F>
  void send(std::int64_t bytes, F&& on_delivered) {
    send(bytes, -1, std::forward<F>(on_delivered));
  }
  template <typename F>
  void send(std::int64_t bytes, std::int32_t route_tag, F&& on_delivered) {
    if (loss_gate_ && loss_gate_()) {
      ++messages_dropped_;
      return;  // dropped on the wire: no link time, callback never built
    }
    if (count_ == ring_.size()) grow();
    Message& msg = ring_[(head_ + count_) & (ring_.size() - 1)];
    msg.on_delivered.emplace(std::forward<F>(on_delivered));  // may throw: not queued
    msg.bytes = bytes < 0 ? 0 : bytes;
    msg.route_tag = route_tag;
    if (++count_ == 1) start_head();
  }

  /// Messages queued, the one serializing included.
  [[nodiscard]] std::size_t queue_depth() const { return count_; }
  [[nodiscard]] std::int64_t bytes_sent() const { return bytes_sent_; }

  /// Fault injection: when set, the gate is consulted on every send(); a
  /// `true` return drops the message on the floor (no link time consumed,
  /// the delivery callback is destroyed unfired).  Unset by default — the
  /// healthy path takes no branch cost beyond one bool test.
  void set_loss_gate(std::function<bool()> gate) { loss_gate_ = std::move(gate); }
  [[nodiscard]] std::uint64_t messages_dropped() const { return messages_dropped_; }

  /// Lane mode: when the far end of this pipe may live in a different event
  /// lane, the delivery callback must become a cross-lane message instead of
  /// a local event.  The route is invoked at serialization end with the
  /// propagation latency, the message's route tag, and the callback; it
  /// must either schedule locally (same lane) or hand the callback to the
  /// lane fabric, which stamps the key from this pipe's engine and posts
  /// it.  Unset by default — the classic path schedules locally.
  using DeliveryRoute =
      std::function<void(SimDuration latency, std::int32_t route_tag, InlineTask fn)>;
  void set_delivery_route(DeliveryRoute route) { route_ = std::move(route); }

 private:
  struct Message {
    std::int64_t bytes = 0;
    std::int32_t route_tag = -1;
    InlineTask on_delivered;
  };

  void grow();
  void start_head();
  void on_serialized();

  Simulation& sim_;
  double bytes_per_second_;
  SimDuration latency_;

  // Power-of-two ring of messages: ring_[head_] (when count_ > 0) is the
  // one serializing, the count_ - 1 after it are waiting.
  std::vector<Message> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;

  std::int64_t bytes_sent_ = 0;
  std::function<bool()> loss_gate_;
  DeliveryRoute route_;
  std::uint64_t messages_dropped_ = 0;
};

}  // namespace qif::sim
