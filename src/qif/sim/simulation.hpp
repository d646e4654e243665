// The discrete-event simulation core.
//
// A Simulation owns the virtual clock and a pooled 4-ary min-heap of
// pending events.  Components schedule closures at absolute or relative
// times; run() pops events in key order so simultaneous events fire in
// their scheduling order, which makes every run fully deterministic.
//
// Event keys are (when, birth, origin, sub):
//   * `when`   — the firing time.
//   * `birth`  — the clock value at the moment the event was created (the
//                generating event's own firing time; 0 for setup-time
//                scheduling before the clock moves).
//   * `origin` — a creation counter.  In the default (classic) mode it is
//                a single per-engine counter tagged with the engine's lane
//                id in the high bits; with enable_entity_contexts() it is
//                a per-*entity* counter tagged with the entity's id (see
//                below).
//   * `sub`    — 0 for ordinary events; used by cross-lane messages that
//                inherit their parent event's key (see sim/lanes.hpp).
// In classic mode `birth` is non-decreasing and `origin` strictly
// increasing over creation order, so for same-`when` events the key order
// collapses to creation order — exactly the historical (when, seq) FIFO
// contract, byte-identical traces included.
//
// Entity contexts (enable_entity_contexts) exist for the partitioned
// multi-lane engine (sim::LaneGroup).  A global creation counter cannot be
// reconstructed when lanes execute concurrently, so instead every event is
// minted under a *context* — the id of the topology entity (client node,
// OSS port, metadata server) the event runs on behalf of.  The origin
// becomes (context << kLaneShift) | ++seq[context].  Contexts are
// partition-independent: each entity lives on exactly one engine in every
// partition, its counter advances in that engine's deterministic execution
// order, and cross-engine deliveries re-tag the context at the boundary
// (Simulation::inject with an explicit context / schedule_after_ctx).  The
// result: every lane count N >= 1 produces bit-identical merged event
// orders.  The entity-ordered tie-break differs from the classic global
// counter for *cross-entity* ties, so the lane family is internally
// consistent but not byte-identical to the classic engine; run_scenario
// keeps classic as the default (lanes = 0) precisely so existing goldens
// never move.
//
// Engine layout (the campaign hot path — see DESIGN.md "Event engine
// internals"):
//   * Closures live in InlineTask slots held in fixed-size chunks that never
//     move.  schedule_* builds the caller's closure directly in a free slot
//     (InlineFunction::emplace — one move of the caller's lambda), and
//     run_until invokes it in place: an event's closure is constructed once
//     and never relocated.  Freed slots are recycled through a free list,
//     so scheduling never heap-allocates in steady state.
//   * The heap itself holds 32-byte (when, birth, origin, slot, sub)
//     entries, so sift operations move small PODs and comparisons never
//     touch the slots.  4-ary layout halves the tree depth vs. a binary
//     heap and keeps the children of a node in one cache line.  The root
//     is popped bottom-up: the hole walks the min-child path to a leaf and
//     the tail entry sifts up from there (the tail is almost always among
//     the latest events, so this saves a comparison per level).
//   * cancel() is a true O(log n) heap removal via a back-pointer into the
//     heap — no tombstone list to scan at pop time, and nothing
//     accumulates for ids cancelled after their event already fired.  The
//     back-pointers, generations, free-list links and contexts live in a
//     dense 16-byte-per-slot array, not beside the closures, so a sift hop
//     or a schedule never touches a cold 144-byte closure cell.  rearm()
//     moves a pending event to a new time in place, minting the key
//     cancel + schedule_at would have minted.
//   * An EventId packs (slot index + 1, slot generation); a stale id —
//     already fired, already cancelled, or slot since reused — fails the
//     generation check and cancel() is a no-op, preserving the historical
//     "cancel after fire is safe" contract.  The generation is bumped
//     before a closure runs, so an event cancelling itself is a no-op too.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "qif/sim/inline_task.hpp"
#include "qif/sim/time.hpp"

namespace qif::sim {

/// Handle for a scheduled event; lets the scheduler cancel it later.
/// Handles are unique within one Simulation until a single slot has been
/// reused 2^32 times (far beyond any campaign's event count).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Full ordering key of an event (see the header comment).  Exposed so the
/// lane engine can carry keys across engines as plain data.
struct EventKey {
  SimTime when = 0;
  SimTime birth = 0;
  std::uint64_t origin = 0;
  std::uint32_t sub = 0;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.birth != b.birth) return a.birth < b.birth;
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.sub < b.sub;
  }
  friend bool operator==(const EventKey& a, const EventKey& b) {
    return a.when == b.when && a.birth == b.birth && a.origin == b.origin &&
           a.sub == b.sub;
  }
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` (any void() callable, an InlineTask, or nullptr for an
  /// event that only advances the clock) to run at absolute simulated time
  /// `when` (must be >= now()).  The closure is constructed directly in its
  /// event slot.  Returns a handle usable with cancel() and rearm().
  template <typename F>
  EventId schedule_at(SimTime when, F&& fn) {
    assert(when >= now_ && "cannot schedule into the past");
    const std::uint64_t origin = mint_origin();
    stage(std::forward<F>(fn));
    return commit(when, now_, origin, 0, ctx_);
  }

  /// Schedules `fn` to run `delay` nanoseconds from now.
  template <typename F>
  EventId schedule_after(SimDuration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event in O(log n).  Safe to call with an id that
  /// already fired or was already cancelled (it becomes a no-op); this is
  /// how timeouts are torn down.
  void cancel(EventId id);

  /// Moves pending event `id` to fire at `when` (>= now()) in O(log n),
  /// keeping its closure and its id.  The new key — and the context the
  /// event executes under — are exactly what cancel(id) followed by
  /// schedule_at(when, same closure) would produce, so the event order is
  /// identical; only the closure's round trip through a fresh slot is
  /// saved.  Returns false (and does nothing) for a stale id.
  bool rearm(EventId id, SimTime when);

  /// Runs events until the queue is empty or the clock passes `until`.
  /// Events at exactly `until` still fire.  Returns the number of events
  /// executed.
  std::uint64_t run_until(SimTime until);

  /// Runs until the event queue drains completely.
  std::uint64_t run_all() { return run_until(std::numeric_limits<SimTime>::max()); }

  /// Number of events that have ever been executed.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending.  Cancelled events leave the queue
  /// immediately, so this is exact (the old engine counted cancelled-but-
  /// unswept tombstones here).
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Slots ever allocated (pending + free-listed + the one running).
  /// Bounded by the peak number of simultaneously live events — exposed so
  /// tests can assert that cancel churn and stale cancels do not grow the
  /// engine.
  [[nodiscard]] std::size_t slot_slab_size() const { return meta_.size(); }

  /// Full structural self-check: heap property, back-pointer consistency,
  /// free-list integrity, and the running event's slot (on neither the
  /// heap nor the free list).  O(n); used by tests and debug assertions,
  /// and valid inside an executing closure.
  [[nodiscard]] bool check_invariants() const;

  // --- Lane-engine surface (sim/lanes.hpp). -------------------------------
  // A standalone engine never needs any of these; they default to the
  // historical sequential behaviour (lane 0, no injected events).

  /// Tags every subsequently created origin with `lane` in the high bits so
  /// keys created concurrently in different lanes stay distinct and order
  /// deterministically.  Call once, before any event is scheduled.
  void set_lane(std::uint32_t lane) {
    assert(next_seq_ == 0 && "set_lane must precede all scheduling");
    lane_tag_ = static_cast<std::uint64_t>(lane) << kLaneShift;
  }

  /// Switches origin minting from the engine-global counter to per-entity
  /// counters (see the header comment).  Call once, before any event is
  /// scheduled.  Irreversible for the engine's lifetime.
  void enable_entity_contexts() {
    assert(next_seq_ == 0 && "enable_entity_contexts must precede scheduling");
    entity_mode_ = true;
  }

  /// Entity context used for scheduling done *outside* event execution
  /// (setup-time wiring; re-wiring between run_until calls).  During event
  /// execution the executing event's stored context applies instead.
  /// Sticky until the next call.  Has no effect in classic mode.
  void set_context(std::uint32_t ctx) {
    setup_ctx_ = ctx;
    ctx_ = ctx;
  }

  /// Context currently in effect for minting (the executing event's context
  /// inside an event closure; the setup context otherwise).
  [[nodiscard]] std::uint32_t context() const { return ctx_; }

  /// Consumes one origin value, exactly as scheduling an event here would.
  /// The lane fabric uses this to stamp an outgoing cross-lane message with
  /// the key the equivalent local schedule_after call would have produced.
  [[nodiscard]] std::uint64_t consume_origin() { return mint_origin(); }

  /// Firing time of the earliest pending event, or SimTime max when idle.
  /// The lane group's lower-bound-on-time-stamp computation reads this.
  [[nodiscard]] SimTime next_event_time() const {
    return heap_.empty() ? std::numeric_limits<SimTime>::max() : heap_.front().when;
  }

  /// Schedules `fn` under an externally produced key (a cross-lane message
  /// carrying its creator's stamp).  `key.when` must be >= now().  The
  /// delivered event executes under the context packed into the key's high
  /// origin bits (its creator's context).
  template <typename F>
  EventId inject(const EventKey& key, F&& fn) {
    return inject(key, static_cast<std::uint32_t>(key.origin >> kLaneShift),
                  std::forward<F>(fn));
  }

  /// Like inject(), but the delivered event executes under `ctx` — the
  /// destination entity's context.  The lane fabric re-tags every delivery
  /// at the engine boundary with this overload so everything the delivered
  /// hop schedules is minted against the destination entity, independent of
  /// which engine the sender lived on.
  template <typename F>
  EventId inject(const EventKey& key, std::uint32_t ctx, F&& fn) {
    assert(key.when >= now_ && "cannot inject into the past");
    stage(std::forward<F>(fn));
    return commit(key.when, key.birth, key.origin, key.sub, ctx);
  }

  /// Schedules `fn` to run `delay` from now, executing under `ctx` instead
  /// of inheriting the scheduler's context.  The minted key is identical to
  /// schedule_after's, which is in turn identical to the consume_origin +
  /// inject pair the fabric uses for a cross-engine hop — so a hop delivers
  /// with the same key and context whether or not it crosses engines.
  template <typename F>
  EventId schedule_after_ctx(SimDuration delay, std::uint32_t ctx, F&& fn) {
    const std::uint64_t origin = mint_origin();
    stage(std::forward<F>(fn));
    return commit(now_ + delay, now_, origin, 0, ctx);
  }

  /// Key of the event currently executing (valid inside an event closure).
  [[nodiscard]] EventKey current_key() const {
    return EventKey{now_, cur_birth_, cur_origin_, cur_sub_};
  }

  /// Key for a zero-delay child that must sort immediately after the
  /// executing event but before every event created later: same (when,
  /// birth, origin), bumped `sub`.  Used for synchronous cross-lane effects
  /// (an MDS size update piggybacking on a client-side completion).  Such a
  /// child must not mint further children of its own — sub is a single
  /// per-parent counter, not a path.
  [[nodiscard]] EventKey child_key() {
    return EventKey{now_, cur_birth_, cur_origin_, ++cur_sub_};
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Origin layout: high bits lane id, low bits the per-engine counter.
  /// 44 bits ≈ 17e12 events per lane before overflow — far beyond any run.
  static constexpr unsigned kLaneShift = 44;
  /// Closure cells per chunk (256 x 144 bytes = 36 KiB).  Chunks never
  /// move, so a running closure stays put while it schedules into fresh
  /// chunks.
  static constexpr unsigned kChunkShift = 8;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  struct HeapEntry {
    SimTime when;
    SimTime birth;
    std::uint64_t origin;  // lane-tagged creation order; FIFO tie-break
    std::uint32_t slot;
    std::uint32_t sub;
  };

  /// Per-slot bookkeeping, kept dense beside the closure cells: the free
  /// list, the id check and every sift hop touch these 16 bytes and never
  /// a cold closure cell, which only its own event's construction and
  /// invocation reach.
  struct SlotMeta {
    std::uint32_t heap_pos = kNil;   // position in heap_, kNil when not queued
    std::uint32_t gen = 0;           // bumped on release; validates EventIds
    std::uint32_t next_free = kNil;
    std::uint32_t ctx = 0;           // entity context the event executes under
  };

  static bool precedes(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    // Among simultaneous events: creation order.  birth is non-decreasing
    // and origin strictly increasing over one engine's creation sequence,
    // so within a single engine this is the historical FIFO tie-break.
    if (a.birth != b.birth) return a.birth < b.birth;
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.sub < b.sub;
  }

  [[nodiscard]] InlineTask& closure(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }
  [[nodiscard]] const InlineTask& closure(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }

  /// Builds `fn` in the (empty) slot at the head of the free list, growing
  /// the slots when the list is empty.  The slot stays on the free list
  /// until commit(), so a throwing closure constructor strands no slot.
  template <typename F>
  void stage(F&& fn) {
    if (free_head_ == kNil) grow_slot();
    closure(free_head_).emplace(std::forward<F>(fn));
  }
  /// Takes the staged slot off the free list and queues it under the key
  /// (when, birth, origin, sub), to execute under `ctx`.  Scalar arguments
  /// travel in registers; a by-value HeapEntry would take a trip through
  /// the stack on every schedule.
  EventId commit(SimTime when, SimTime birth, std::uint64_t origin, std::uint32_t sub,
                 std::uint32_t ctx);
  void grow_slot();
  void release_slot(std::uint32_t idx);
  void retire_running(std::uint32_t idx);
  void place(std::uint32_t pos, const HeapEntry& entry);  // write entry + back-pointer
  void sift_up(std::uint32_t pos, HeapEntry entry);
  void sift_down(std::uint32_t pos, HeapEntry entry);
  /// Index of the smallest child of `pos` among the first `n` entries, or
  /// `n` when `pos` has none.
  [[nodiscard]] std::uint32_t min_child(std::uint32_t pos, std::uint32_t n) const;
  /// Seats `entry` at `pos`, sifting up or down as its key requires.
  void reseat(std::uint32_t pos, HeapEntry entry);
  void pop_root();
  void heap_erase(std::uint32_t pos);
  /// Slot index of `id` if it names a pending event, else kNil.
  [[nodiscard]] std::uint32_t live_slot(EventId id) const;

  /// Mints the next origin under the active context (entity mode) or the
  /// engine-global lane-tagged counter (classic mode — byte-identical to
  /// the historical behaviour).
  std::uint64_t mint_origin() {
    if (!entity_mode_) return lane_tag_ | ++next_seq_;
    if (ctx_ >= eseq_.size()) eseq_.resize(static_cast<std::size_t>(ctx_) + 1, 0);
    return (static_cast<std::uint64_t>(ctx_) << kLaneShift) | ++eseq_[ctx_];
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t lane_tag_ = 0;
  std::uint64_t executed_ = 0;
  // Entity-context state (enable_entity_contexts).  ctx_ tracks the minting
  // context: the executing event's context inside run_until, the setup
  // context otherwise.  eseq_ holds one counter per entity; it only grows
  // while new contexts first appear (topology-bounded), never in steady
  // state.
  bool entity_mode_ = false;
  std::uint32_t ctx_ = 0;
  std::uint32_t setup_ctx_ = 0;
  std::vector<std::uint64_t> eseq_;
  // Key of the event currently executing (run_until loads these at pop).
  SimTime cur_birth_ = 0;
  std::uint64_t cur_origin_ = 0;
  std::uint32_t cur_sub_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<InlineTask[]>> chunks_;  // closure cells
  std::vector<SlotMeta> meta_;                         // one per slot
  std::uint32_t free_head_ = kNil;
  std::uint32_t running_ = kNil;  // slot of the executing event, kNil outside run_until
};

}  // namespace qif::sim
