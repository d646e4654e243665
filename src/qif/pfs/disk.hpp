// Mechanical disk model with an elevator queue.
//
// This is the component that *generates* cross-application I/O interference
// in the simulator, through the same mechanisms as a real 7200 rpm SATA
// drive behind a Lustre OST:
//
//  * positioning cost — a request that continues the head's current
//    position streams at media rate; a request elsewhere pays a seek plus
//    rotational latency.  Two interleaved sequential streams therefore
//    degrade far more than 2x (seek storm), which is what makes
//    read-vs-read the most violent cell family in Table I.
//  * read priority — like the kernel's deadline/CFQ heritage, synchronous
//    reads are dispatched ahead of (writeback) writes, with a starvation
//    limit so writes still trickle out.  This is why background *writes*
//    barely move a read workload while background *reads* throttle writers.
//  * request merging — physically contiguous queued requests of the same
//    kind coalesce up to a cap, mirroring the block layer; the merge
//    counters feed the Table II "read/write queue" metrics.
//
// The model also maintains /proc/diskstats-style cumulative counters
// (completions, sectors, merges, busy ticks, weighted queue ticks) that the
// server-side monitor samples once per simulated second.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "qif/sim/rng.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {

struct DiskParams {
  double media_rate_bps = 150e6;       ///< sequential transfer rate, bytes/s
  sim::SimDuration track_seek = 700 * sim::kMicrosecond;  ///< short/near seek
  sim::SimDuration avg_seek = 8 * sim::kMillisecond;      ///< random seek
  double rpm = 7200;                    ///< spindle speed (rot latency = 30/rpm s)
  std::int64_t sector_bytes = 512;      ///< sector size for sector counters
  std::int64_t max_merge_bytes = 4 << 20;      ///< block-layer merge cap
  std::int64_t near_seek_span = 64ll << 20;    ///< |gap| below this => short seek
  /// With reads pending, writes only run in rate-limited "turns": at most
  /// one turn of `write_turn_bytes` per `write_starve_limit`.  This is the
  /// deadline-scheduler compromise — readers keep strict priority, but
  /// writeback and sync writes are guaranteed a trickle and cannot starve
  /// forever.  With no reads pending, writes flow at full speed.
  sim::SimDuration write_starve_limit = 100 * sim::kMillisecond;
  sim::SimDuration write_turn_time = 20 * sim::kMillisecond;
  /// Anticipatory hold: after a read completes, writes are held back this
  /// long in case the (synchronous) reader immediately issues its next
  /// request — the deadline/CFQ behaviour that keeps background writeback
  /// from ambushing a streaming reader between its requests.
  sim::SimDuration anticipation_hold = 5 * sim::kMillisecond;
  double service_jitter = 0.05;         ///< +/- fraction of service time
  std::int64_t capacity_bytes = 1ll << 40;     ///< 1 TB addressable span
};

/// Cumulative counters in the style of /proc/diskstats.  All values only
/// ever increase; the monitor computes per-second deltas.
struct DiskCounters {
  std::int64_t reads_completed = 0;
  std::int64_t writes_completed = 0;
  std::int64_t sectors_read = 0;
  std::int64_t sectors_written = 0;
  std::int64_t read_merges = 0;
  std::int64_t write_merges = 0;
  std::int64_t queued_requests = 0;       ///< arrivals into the queue
  sim::SimDuration io_ticks = 0;          ///< time the device was busy
  sim::SimDuration weighted_ticks = 0;    ///< integral of (queued+in-flight) over time
};

class DiskModel {
 public:
  DiskModel(sim::Simulation& sim, DiskParams params, std::uint64_t seed,
            std::string name = "disk");

  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  /// Submits a request for `[offset, offset+len)`.  `on_complete` fires when
  /// the media transfer finishes.  Requests may be merged with physically
  /// contiguous queued requests of the same kind.
  void submit(bool is_write, std::int64_t offset, std::int64_t len,
              sim::InlineTask on_complete);

  /// Snapshot of the cumulative counters, with time-integrals settled to
  /// the current instant.
  [[nodiscard]] DiskCounters counters() const;

  /// Queue gauges (instantaneous).
  [[nodiscard]] std::size_t read_queue_depth() const { return read_queue_.size(); }
  [[nodiscard]] std::size_t write_queue_depth() const { return write_queue_.size(); }
  [[nodiscard]] bool busy() const { return busy_; }

  [[nodiscard]] const DiskParams& params() const { return params_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Fault injection: multiply every service time by `m` (slow-disk
  /// episode).  Exactly 1.0 restores the healthy fast path.
  void set_fault_multiplier(double m) { fault_multiplier_ = m; }
  [[nodiscard]] double fault_multiplier() const { return fault_multiplier_; }

  /// Fault injection: stall/blackout the device.  While stalled, nothing
  /// dispatches (the in-flight request, if any, still completes); clearing
  /// the stall resumes dispatch immediately.
  void set_stalled(bool stalled);
  [[nodiscard]] bool stalled() const { return stalled_; }

 private:
  /// One pooled completion callback; a request's callbacks form a list
  /// through `next` (more than one when merged).
  struct Completion {
    sim::InlineTask fn;
    std::uint32_t next = kNoCompletion;
  };
  static constexpr std::uint32_t kNoCompletion = 0xffffffffu;

  struct Request {
    std::int64_t offset = 0;
    std::int64_t len = 0;
    sim::SimTime arrival = 0;
    std::uint32_t first = kNoCompletion;  ///< completion list, submit order
    std::uint32_t last = kNoCompletion;
    std::uint32_t count = 0;
  };
  // Keyed by start offset for elevator order and O(log n) merge lookup.
  using Queue = std::multimap<std::int64_t, Request>;

  void settle_time_integrals();
  void append_completion(Request& req, sim::InlineTask fn);
  bool try_merge(Queue& q, bool is_write, std::int64_t offset, std::int64_t len,
                 sim::InlineTask& on_complete);
  /// Inserts `req` under its offset, reusing a spare queue node if any.
  void enqueue(Queue& q, const Request& req);
  void maybe_dispatch();
  Queue::iterator pick_elevator(Queue& q);
  sim::SimDuration service_time(const Request& req);
  void finish(bool is_write, const Request& req);

  sim::Simulation& sim_;
  DiskParams params_;
  sim::Rng rng_;
  std::string name_;

  Queue read_queue_;
  Queue write_queue_;
  // Steady state allocates nothing: dispatched queue nodes are kept for the
  // next submit, and completions live in a free-listed pool.
  std::vector<Queue::node_type> spare_nodes_;
  std::vector<Completion> completions_;
  std::uint32_t free_completion_ = kNoCompletion;
  bool busy_ = false;
  sim::SimTime last_read_completion_ = std::numeric_limits<sim::SimTime>::min();
  bool anticipation_armed_ = false;  ///< a deferred write-dispatch is scheduled
  std::int64_t head_pos_ = 0;        ///< byte address just past the last transfer
  sim::SimDuration write_credit_time_ = 0;  ///< service time left in the write turn
  sim::SimTime next_write_turn_ = 0;     ///< earliest start of the next write turn
  sim::SimTime oldest_write_arrival_ = 0;
  double fault_multiplier_ = 1.0;  ///< slow-disk episode factor (1.0 = healthy)
  bool stalled_ = false;           ///< blackout: dispatch suspended

  DiskCounters counters_;
  sim::SimTime last_integral_update_ = 0;
};

}  // namespace qif::pfs
