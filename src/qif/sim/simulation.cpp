#include "qif/sim/simulation.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace qif::sim {

// ---------------------------------------------------------------------------
// Slots
// ---------------------------------------------------------------------------

void Simulation::grow_slot() {
  assert(meta_.size() < kNil && "slot space exhausted");
  const auto idx = static_cast<std::uint32_t>(meta_.size());
  if ((idx & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<InlineTask[]>(std::size_t{kChunkMask} + 1));
  }
  meta_.emplace_back().next_free = free_head_;
  free_head_ = idx;
}

void Simulation::release_slot(std::uint32_t idx) {
  closure(idx).reset();
  SlotMeta& m = meta_[idx];
  m.heap_pos = kNil;
  ++m.gen;  // invalidate every outstanding EventId pointing here
  m.next_free = free_head_;
  free_head_ = idx;
}

void Simulation::retire_running(std::uint32_t idx) {
  // The generation was bumped when the event started; only the closure and
  // the free-list link remain.
  closure(idx).reset();
  meta_[idx].next_free = free_head_;
  free_head_ = idx;
  running_ = kNil;
}

std::uint32_t Simulation::live_slot(EventId id) const {
  if (id == kInvalidEvent) return kNil;
  const auto idx = static_cast<std::uint32_t>((id >> 32) - 1);
  if (idx >= meta_.size()) return kNil;  // never a live handle of this engine
  if (meta_[idx].gen != static_cast<std::uint32_t>(id)) return kNil;  // fired/cancelled/reused
  assert(meta_[idx].heap_pos != kNil && "live generation must be queued");
  return idx;
}

// ---------------------------------------------------------------------------
// 4-ary heap keyed on (when, birth, origin, sub)
// ---------------------------------------------------------------------------

// place and sift_up are inline so their callers keep the 32-byte entry in
// registers: passed by value out of line it goes through the stack, and
// re-reading it there stalls behind the caller's pending stores.
inline void Simulation::place(std::uint32_t pos, const HeapEntry& entry) {
  heap_[pos] = entry;
  meta_[entry.slot].heap_pos = pos;
}

inline void Simulation::sift_up(std::uint32_t pos, HeapEntry entry) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!precedes(entry, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

inline std::uint32_t Simulation::min_child(std::uint32_t pos, std::uint32_t n) const {
  const std::uint64_t first = std::uint64_t{pos} * 4 + 1;
  if (first >= n) return n;
  auto best = static_cast<std::uint32_t>(first);
  const auto last = static_cast<std::uint32_t>(std::min<std::uint64_t>(first + 4, n));
  for (std::uint32_t c = best + 1; c < last; ++c) {
    if (precedes(heap_[c], heap_[best])) best = c;
  }
  return best;
}

void Simulation::sift_down(std::uint32_t pos, HeapEntry entry) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t best = min_child(pos, n);
    if (best == n || !precedes(heap_[best], entry)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, entry);
}

void Simulation::reseat(std::uint32_t pos, HeapEntry entry) {
  if (pos > 0 && precedes(entry, heap_[(pos - 1) / 4])) {
    sift_up(pos, entry);
  } else {
    sift_down(pos, entry);
  }
}

void Simulation::pop_root() {
  const HeapEntry tail = heap_.back();
  heap_.pop_back();
  const auto n = static_cast<std::uint32_t>(heap_.size());
  if (n == 0) return;  // the root was the only entry
  // Walk the hole from the root down the min-child path to a leaf, then
  // seat the tail there and sift it up.  Keys are unique, so the heap pops
  // in the same order as with a top-down sift of the tail.
  std::uint32_t pos = 0;
  for (std::uint32_t best = min_child(pos, n); best != n; best = min_child(pos, n)) {
    place(pos, heap_[best]);
    pos = best;
  }
  sift_up(pos, tail);
}

void Simulation::heap_erase(std::uint32_t pos) {
  assert(pos < heap_.size());
  const HeapEntry tail = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // erased the last entry
  reseat(pos, tail);  // the tail may need to move either direction
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

EventId Simulation::commit(SimTime when, SimTime birth, std::uint64_t origin,
                           std::uint32_t sub, std::uint32_t ctx) {
  const std::uint32_t idx = free_head_;
  SlotMeta& m = meta_[idx];
  free_head_ = m.next_free;
  m.next_free = kNil;
  m.ctx = ctx;
  const EventId id = (static_cast<EventId>(idx) + 1) << 32 | m.gen;
  heap_.emplace_back();  // sift_up writes the real entry
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1), HeapEntry{when, birth, origin, idx, sub});
  return id;
}

void Simulation::cancel(EventId id) {
  const std::uint32_t idx = live_slot(id);
  if (idx == kNil) return;
  heap_erase(meta_[idx].heap_pos);
  release_slot(idx);
}

bool Simulation::rearm(EventId id, SimTime when) {
  assert(when >= now_ && "cannot rearm into the past");
  const std::uint32_t idx = live_slot(id);
  if (idx == kNil) return false;
  // The key and context cancel + schedule_at would mint: birth now, a fresh
  // origin under the active context.
  meta_[idx].ctx = ctx_;
  reseat(meta_[idx].heap_pos, HeapEntry{when, now_, mint_origin(), idx, 0});
  return true;
}

std::uint64_t Simulation::run_until(SimTime until) {
  assert(running_ == kNil && "run_until must not be called from inside an event");
  std::uint64_t ran = 0;
  while (!heap_.empty() && heap_.front().when <= until) {
    const HeapEntry& top = heap_.front();
    const std::uint32_t idx = top.slot;
    now_ = top.when;
    cur_birth_ = top.birth;
    cur_origin_ = top.origin;
    cur_sub_ = top.sub;
    pop_root();
    // Run the closure where it was built.  Its slot is on neither the heap
    // nor the free list while it runs, so the closure may schedule (into
    // other slots, growing new chunks if need be — this one never moves)
    // and cancel freely; its own id dies with the generation bump, so
    // self-cancel is a no-op.
    SlotMeta& m = meta_[idx];  // not held across the call: meta_ may grow
    ctx_ = m.ctx;  // mint everything this event schedules under it
    m.heap_pos = kNil;
    ++m.gen;
    running_ = idx;
    InlineTask& fn = closure(idx);
    try {
      if (fn) fn();
    } catch (...) {
      retire_running(idx);
      throw;
    }
    retire_running(idx);
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
  const std::size_t slots = meta_.size();
  // Heap property + back-pointers.
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (i > 0 && precedes(heap_[i], heap_[(i - 1) / 4])) return false;
    const HeapEntry& e = heap_[i];
    if (e.slot >= slots || e.slot == running_) return false;
    if (meta_[e.slot].heap_pos != i) return false;
  }
  // Free list: every entry unqueued and empty, not the running slot, no
  // cycles, and the counts add up.
  std::size_t free_count = 0;
  for (std::uint32_t idx = free_head_; idx != kNil; idx = meta_[idx].next_free) {
    if (idx >= slots || idx == running_ || meta_[idx].heap_pos != kNil) return false;
    if (closure(idx)) return false;
    if (++free_count > slots) return false;  // cycle
  }
  std::size_t running = 0;
  if (running_ != kNil) {
    if (running_ >= slots || meta_[running_].heap_pos != kNil) return false;
    running = 1;
  }
  return heap_.size() + free_count + running == slots;
}

}  // namespace qif::sim
