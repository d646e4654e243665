// Processor-sharing bandwidth model.
//
// A FairLink models a network port (e.g. a storage server's 1 GB/s NIC)
// whose capacity is shared equally among all in-flight transfers, the way
// long-lived TCP flows converge under a shared bottleneck.  This is the
// mechanism behind network-level I/O interference: every additional
// concurrent client stretches everyone's transfer time.
//
// Implementation: classic fluid-flow event-driven processor sharing.  Each
// transfer tracks its remaining bytes; whenever the active set changes we
// debit elapsed work from every transfer and re-arm the single "next
// completion" event.  O(n) per membership change, exact (integer bytes,
// nanosecond clock) and deterministic.
//
// Churn reduction (this is the engine's single heaviest cancel customer —
// every arriving transfer used to cancel and re-schedule the completion
// event unconditionally):
//   * the minimum remaining-bytes value is maintained incrementally —
//     settling debits every flow by the same amount, so the min just moves
//     with them and arrivals only take a min() against the new flow;
//   * when the recomputed completion time equals the already-armed one,
//     the pending event is kept instead of being cancelled and re-armed
//     (guarded to strictly-future times so same-tick event ordering, and
//     with it trace bit-identity, is preserved);
//   * the per-completion callback buffer is a reused member, not a fresh
//     vector per completion;
//   * a moved deadline re-keys the armed event in place (Simulation::rearm,
//     the same key cancel + schedule_after would mint), and the event is
//     cancelled only when the last flow drains;
//   * per-flow remaining bytes live in their own dense array, swap-removed
//     in step with the flows, so settle and the drained-flow scan stride
//     over 8-byte values instead of whole flows with their closures.
// None of this changes the settle arithmetic, so traces stay bit-identical
// to the pre-rebuild engine (pinned by test_sim_golden).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "qif/sim/simulation.hpp"

namespace qif::sim {

class FairLink {
 public:
  /// `bytes_per_second` is the full-duplex direction capacity of this port.
  FairLink(Simulation& sim, double bytes_per_second)
      : sim_(sim), bytes_per_second_(bytes_per_second) {}

  FairLink(const FairLink&) = delete;
  FairLink& operator=(const FairLink&) = delete;

  /// Starts a transfer of `bytes`; `on_done` (a void() callable, built in
  /// place in the flow) fires when the last byte has been serviced.
  /// Zero-byte transfers complete on the next event cycle.
  template <typename F>
  void transfer(std::int64_t bytes, F&& on_done) {
    if (loss_gate_ && loss_gate_()) {
      ++messages_dropped_;
      return;  // dropped on the wire: no link time, callback never built
    }
    settle();
    const std::int64_t clamped = bytes < 0 ? 0 : bytes;
    Flow& flow = flows_.emplace_back();
    flow.total_bytes = clamped;
    try {
      flow.on_done.emplace(std::forward<F>(on_done));
    } catch (...) {
      flows_.pop_back();  // keep flows_ and remaining_ index-aligned
      throw;
    }
    add_remaining(static_cast<double>(clamped));
  }

  /// Number of transfers currently in flight.
  [[nodiscard]] std::size_t active() const { return flows_.size(); }

  /// Total bytes fully delivered so far (monitoring counter).
  [[nodiscard]] std::int64_t bytes_delivered() const { return bytes_delivered_; }

  /// Completion events skipped because the re-armed deadline would have
  /// been identical (monitoring counter for the churn optimisation).
  [[nodiscard]] std::uint64_t reschedules_elided() const { return reschedules_elided_; }

  /// Fault injection: when set, the gate is consulted on every transfer();
  /// a `true` return drops the message (no link time consumed, `on_done`
  /// destroyed unfired).  Unset by default.
  void set_loss_gate(std::function<bool()> gate) { loss_gate_ = std::move(gate); }
  [[nodiscard]] std::uint64_t messages_dropped() const { return messages_dropped_; }

  /// Instantaneous per-flow rate in bytes/second (capacity / active flows).
  [[nodiscard]] double per_flow_rate() const {
    return flows_.empty() ? bytes_per_second_
                          : bytes_per_second_ / static_cast<double>(flows_.size());
  }

 private:
  struct Flow {
    std::int64_t total_bytes = 0;  // original size, credited to bytes_delivered()
    InlineTask on_done;
  };

  void add_remaining(double remaining);  // second half of transfer()
  void settle();      // debit elapsed work from all flows
  void reschedule();  // re-arm the next-completion event
  void on_completion();

  Simulation& sim_;
  double bytes_per_second_;
  std::vector<Flow> flows_;
  /// Bytes left per flow, index-aligned with flows_; double because shares
  /// are fractional.
  std::vector<double> remaining_;
  /// min over remaining_; only meaningful while !flows_.empty().
  double min_remaining_ = 0.0;
  SimTime last_settle_ = 0;
  EventId pending_event_ = kInvalidEvent;
  SimTime pending_fire_ = 0;  ///< absolute time pending_event_ fires at
  std::int64_t bytes_delivered_ = 0;
  std::uint64_t reschedules_elided_ = 0;
  std::vector<InlineTask> done_;  ///< reused per-completion callback buffer
  std::function<bool()> loss_gate_;
  std::uint64_t messages_dropped_ = 0;
};

}  // namespace qif::sim
