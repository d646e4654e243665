#include "qif/sim/simulation.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace qif::sim {

// ---------------------------------------------------------------------------
// Slot slab
// ---------------------------------------------------------------------------

std::uint32_t Simulation::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    slots_[idx].next_free = kNil;
    return idx;
  }
  assert(slots_.size() < kNil && "slot slab exhausted");
  slots_.emplace_back();
  heap_pos_.push_back(kNil);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulation::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.fn.reset();
  heap_pos_[idx] = kNil;
  ++s.gen;  // invalidate every outstanding EventId pointing here
  s.next_free = free_head_;
  free_head_ = idx;
}

// ---------------------------------------------------------------------------
// 4-ary heap keyed on (when, birth, origin, sub)
// ---------------------------------------------------------------------------

void Simulation::place(std::uint32_t pos, HeapEntry entry) {
  heap_[pos] = entry;
  heap_pos_[entry.slot] = pos;
}

void Simulation::sift_up(std::uint32_t pos, HeapEntry entry) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!precedes(entry, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void Simulation::sift_down(std::uint32_t pos, HeapEntry entry) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint64_t first = std::uint64_t{pos} * 4 + 1;
    if (first >= n) break;
    std::uint32_t best = static_cast<std::uint32_t>(first);
    const auto last = static_cast<std::uint32_t>(std::min<std::uint64_t>(first + 4, n));
    for (std::uint32_t c = best + 1; c < last; ++c) {
      if (precedes(heap_[c], heap_[best])) best = c;
    }
    if (!precedes(heap_[best], entry)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, entry);
}

void Simulation::heap_erase(std::uint32_t pos) {
  assert(pos < heap_.size());
  const HeapEntry tail = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // erased the last entry
  // Re-seat the tail entry at `pos`; it may need to move either direction.
  if (pos > 0 && precedes(tail, heap_[(pos - 1) / 4])) {
    sift_up(pos, tail);
  } else {
    sift_down(pos, tail);
  }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

EventId Simulation::push_event(const HeapEntry& proto, std::uint32_t ctx,
                               InlineTask fn) {
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.ctx = ctx;
  HeapEntry entry = proto;
  entry.slot = idx;
  heap_.emplace_back();  // sift_up writes the real entry
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1), entry);
  return (static_cast<EventId>(idx) + 1) << 32 | s.gen;
}

EventId Simulation::schedule_at(SimTime when, InlineTask fn) {
  assert(when >= now_ && "cannot schedule into the past");
  return push_event(HeapEntry{when, now_, mint_origin(), 0, 0}, ctx_,
                    std::move(fn));
}

EventId Simulation::schedule_after_ctx(SimDuration delay, std::uint32_t ctx,
                                       InlineTask fn) {
  return push_event(HeapEntry{now_ + delay, now_, mint_origin(), 0, 0}, ctx,
                    std::move(fn));
}

EventId Simulation::inject(const EventKey& key, InlineTask fn) {
  return inject(key, static_cast<std::uint32_t>(key.origin >> kLaneShift),
                std::move(fn));
}

EventId Simulation::inject(const EventKey& key, std::uint32_t ctx, InlineTask fn) {
  assert(key.when >= now_ && "cannot inject into the past");
  return push_event(HeapEntry{key.when, key.birth, key.origin, 0, key.sub}, ctx,
                    std::move(fn));
}

void Simulation::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const auto idx = static_cast<std::uint32_t>((id >> 32) - 1);
  if (idx >= slots_.size()) return;  // never a live handle of this engine
  Slot& s = slots_[idx];
  if (s.gen != static_cast<std::uint32_t>(id)) return;  // fired/cancelled/reused
  assert(heap_pos_[idx] != kNil && "live generation must be queued");
  heap_erase(heap_pos_[idx]);
  release_slot(idx);
}

std::uint64_t Simulation::run_until(SimTime until) {
  std::uint64_t ran = 0;
  while (!heap_.empty() && heap_.front().when <= until) {
    const std::uint32_t idx = heap_.front().slot;
    now_ = heap_.front().when;
    cur_birth_ = heap_.front().birth;
    cur_origin_ = heap_.front().origin;
    cur_sub_ = heap_.front().sub;
    ctx_ = slots_[idx].ctx;  // mint everything this event schedules under it
    // Move the closure out and retire the slot *before* firing so the
    // closure may freely schedule, cancel, and reuse this very slot.  Its
    // own id dies with the generation bump, so self-cancel is a no-op.
    InlineTask fn = std::move(slots_[idx].fn);
    heap_erase(0);
    release_slot(idx);
    fn();
    ++executed_;
    ++ran;
  }
  // If we stopped because of the horizon (not queue exhaustion), advance the
  // clock to the horizon so back-to-back run_until calls tile cleanly.
  if (!heap_.empty() && until != std::numeric_limits<SimTime>::max() && until > now_) {
    now_ = until;
  }
  ctx_ = setup_ctx_;  // driver-thread scheduling resumes under the setup context
  return ran;
}

bool Simulation::check_invariants() const {
  // Heap property + back-pointers.
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (i > 0 && precedes(heap_[i], heap_[(i - 1) / 4])) return false;
    const HeapEntry& e = heap_[i];
    if (e.slot >= slots_.size()) return false;
    if (heap_pos_[e.slot] != i) return false;
  }
  // Free list: every entry unqueued, no cycles, and the counts add up.
  std::size_t free_count = 0;
  for (std::uint32_t idx = free_head_; idx != kNil; idx = slots_[idx].next_free) {
    if (idx >= slots_.size() || heap_pos_[idx] != kNil) return false;
    if (++free_count > slots_.size()) return false;  // cycle
  }
  return heap_.size() + free_count == slots_.size();
}

}  // namespace qif::sim
