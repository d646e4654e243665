#include "qif/sim/fair_link.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace qif::sim {

void FairLink::add_remaining(double remaining) {
  remaining_.push_back(remaining);
  // Incremental min maintenance: an arrival can only lower the minimum.
  min_remaining_ = remaining_.size() == 1 ? remaining : std::min(min_remaining_, remaining);
  reschedule();
}

void FairLink::settle() {
  const SimTime now = sim_.now();
  if (now == last_settle_ || flows_.empty()) {
    last_settle_ = now;
    return;
  }
  const double elapsed_s = to_seconds(now - last_settle_);
  const double per_flow = elapsed_s * bytes_per_second_ / static_cast<double>(flows_.size());
  for (double& r : remaining_) r = std::max(0.0, r - per_flow);
  // Every flow was debited by the same amount through the same expression,
  // and x -> max(0, x - p) is monotone, so the minimum moves with its flow:
  // this stays bit-identical to a full rescan.
  min_remaining_ = std::max(0.0, min_remaining_ - per_flow);
  last_settle_ = now;
}

void FairLink::reschedule() {
  if (flows_.empty()) {
    if (pending_event_ != kInvalidEvent) {
      sim_.cancel(pending_event_);
      pending_event_ = kInvalidEvent;
    }
    return;
  }
  const double per_flow_bps = bytes_per_second_ / static_cast<double>(flows_.size());
  const double eta_s = min_remaining_ / per_flow_bps;
  // Ceil to whole nanoseconds so the flow is guaranteed drained at the event.
  const auto delay = static_cast<SimDuration>(std::ceil(eta_s * 1e9));
  const SimTime fire = sim_.now() + delay;
  if (pending_event_ != kInvalidEvent) {
    // Keep the armed event when the deadline did not move.  Restricted to
    // strictly-future deadlines: re-arming a same-tick event would give it
    // a fresh (larger) sequence number, so keeping the old one could fire
    // it earlier among simultaneous events — only elide when no other
    // event can legally sit between the two deadlines.
    if (fire == pending_fire_ && fire > sim_.now()) {
      ++reschedules_elided_;
      return;
    }
    // Otherwise move it: rearm mints the key cancel + schedule_after would.
    sim_.rearm(pending_event_, fire);
    pending_fire_ = fire;
    return;
  }
  pending_fire_ = fire;
  pending_event_ = sim_.schedule_after(delay, [this] { on_completion(); });
}

void FairLink::on_completion() {
  pending_event_ = kInvalidEvent;
  settle();
  // Collect every flow that has drained (several may finish simultaneously)
  // into the reused callback buffer.  Epsilon covers the sub-nanosecond
  // residue left by the ceil in reschedule.
  constexpr double kEps = 1e-6;
  done_.clear();
  // The drained flows were the minimum; the same pass takes the survivors'.
  double survivors_min = 0.0;
  bool any_survivor = false;
  for (std::size_t i = 0; i < remaining_.size();) {
    if (remaining_[i] <= kEps) {
      bytes_delivered_ += flows_[i].total_bytes;
      done_.push_back(std::move(flows_[i].on_done));
      flows_[i] = std::move(flows_.back());
      flows_.pop_back();
      remaining_[i] = remaining_.back();
      remaining_.pop_back();
    } else {
      survivors_min = any_survivor ? std::min(survivors_min, remaining_[i]) : remaining_[i];
      any_survivor = true;
      ++i;
    }
  }
  if (any_survivor) min_remaining_ = survivors_min;
  reschedule();
  // Fire callbacks after internal state is consistent; callbacks routinely
  // start new transfers on this same link (they never re-enter this method
  // synchronously — completions only run from the event loop).
  for (auto& fn : done_) {
    if (fn) fn();
  }
  done_.clear();  // destroy captured state promptly; keeps capacity
}

}  // namespace qif::sim
