#include "qif/sim/pipe.hpp"

#include <cmath>
#include <utility>

namespace qif::sim {

void Pipe::grow() {
  // Double and re-pack in FIFO order; steady state never re-enters.  No
  // event refers to a cell by address, so the serializing head may move.
  std::vector<Message> bigger(ring_.empty() ? 16 : ring_.size() * 2);
  for (std::size_t i = 0; i < count_; ++i) {
    bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

void Pipe::start_head() {
  const auto serialize = static_cast<SimDuration>(
      std::ceil(static_cast<double>(ring_[head_].bytes) / bytes_per_second_ * 1e9));
  // The pipe frees up after serialization; propagation overlaps with the
  // next message (cut-through at the far end).
  sim_.schedule_after(serialize, [this] { on_serialized(); });
}

void Pipe::on_serialized() {
  Message& msg = ring_[head_];
  bytes_sent_ += msg.bytes;
  if (route_) {
    // Cross-lane delivery: the lane fabric turns the callback into a
    // timestamped message keyed exactly like the local delivery event the
    // classic branch below would have scheduled.
    route_(latency_, msg.route_tag, std::move(msg.on_delivered));
  } else {
    // Deliver after the propagation latency, independently of pipe state.
    // An empty callback still schedules its (empty) event, so the origins
    // minted after it do not shift.
    sim_.schedule_after(latency_, std::move(msg.on_delivered));
  }
  head_ = (head_ + 1) & (ring_.size() - 1);
  if (--count_ > 0) start_head();
}

}  // namespace qif::sim
