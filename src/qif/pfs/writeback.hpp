// Server-side write-back cache with dirty throttling.
//
// On a real OSS, client writes land in the page cache and are acknowledged
// long before they reach the platter; a background flusher pushes dirty
// data to disk in large sequential batches.  Two consequences shape the
// paper's Table I:
//
//  * as long as the flusher keeps up, write workloads are nearly immune to
//    each other and invisible to readers (writes are absorbed in RAM);
//  * once dirty data hits the throttle threshold — either because writes
//    outrun the disk or because prioritized reads starve the flusher —
//    every incoming write must wait for flush progress.  Small synchronous
//    writes (mdtest-hard's 3901-byte file bodies) then queue behind
//    megabyte-scale flush batches, producing the 26x/40.9x cells.
#pragma once

#include <cstdint>
#include <vector>

#include "qif/pfs/disk.hpp"
#include "qif/pfs/extent_map.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {

// NOTE on scale: the simulator runs workloads ~100x smaller than the
// testbed's multi-hundred-GB IO500 runs to keep event counts tractable, so
// the cache is scaled down by the same factor (real dirty limits are
// gigabytes).  The *ratios* — cache vs. sustained write volume — are what
// produce the paper's throttling dynamics, and those are preserved.
struct WritebackParams {
  std::int64_t dirty_limit_bytes = 48ll << 20;   ///< throttle threshold ("dirty_ratio")
  std::int64_t dirty_target_bytes = 32ll << 20;  ///< flusher backs off below this
  std::int64_t flush_chunk_bytes = 1 << 20;      ///< flush batch size
  int max_flush_inflight = 4;                    ///< concurrent flush requests
  double memcpy_rate_bps = 4e9;                  ///< RAM absorb rate for acks
  sim::SimDuration ack_overhead = 30 * sim::kMicrosecond;
  /// Dirty-expiry laziness: below the target, flushing starts this long
  /// after dirtying so small writes coalesce into big sequential flushes.
  sim::SimDuration background_flush_delay = 100 * sim::kMillisecond;
};

class WritebackCache {
 public:
  WritebackCache(sim::Simulation& sim, DiskModel& disk, WritebackParams params);

  WritebackCache(const WritebackCache&) = delete;
  WritebackCache& operator=(const WritebackCache&) = delete;

  /// Accepts a write of `len` bytes destined for `disk_offset`.
  /// `on_durable_ack` fires when the write would be acknowledged to the
  /// client: after a RAM copy if the cache has room, or after enough flush
  /// progress if the cache is throttled.
  void write(std::int64_t disk_offset, std::int64_t len, sim::InlineTask on_durable_ack);

  /// Discards still-dirty bytes in [disk_offset, disk_offset+len) — used
  /// by the synchronous flush-on-close path, which writes those bytes to
  /// the media itself.
  void forget(std::int64_t disk_offset, std::int64_t len);

  [[nodiscard]] std::int64_t dirty_bytes() const { return dirty_bytes_; }
  [[nodiscard]] bool throttled() const { return !throttle_queue_.empty(); }
  [[nodiscard]] std::size_t throttled_writers() const { return throttle_queue_.size(); }
  [[nodiscard]] std::int64_t total_absorbed() const { return total_absorbed_; }
  [[nodiscard]] std::int64_t total_flushed() const { return total_flushed_; }

 private:
  struct PendingWrite {
    std::int64_t disk_offset;
    std::int64_t len;
    sim::InlineTask on_durable_ack;
    std::int64_t credit = 0;  ///< flush-progress share earned while waiting
  };

  void admit(std::int64_t disk_offset, std::int64_t len, sim::InlineTask&& on_durable_ack);
  void kick_flusher();
  void start_flushes();
  void on_flush_done(std::int64_t chunk);
  void drain_throttle_queue();

  sim::Simulation& sim_;
  DiskModel& disk_;
  WritebackParams params_;

  std::int64_t dirty_bytes_ = 0;
  int flush_inflight_ = 0;
  /// Dirty extents, coalesced by disk offset.  Offset-ordered coalescing is
  /// load-bearing: concurrent writers interleave their appends in arrival
  /// order, and flushing in that order would pay a seek per chunk; merged
  /// per-file runs flush sequentially, a seek only when switching files.
  ExtentMap dirty_extents_;
  std::int64_t flush_cursor_ = 0;  ///< C-SCAN position over dirty extents
  bool lazy_flush_armed_ = false;  ///< a delayed background flush is scheduled
  std::vector<PendingWrite> throttle_queue_;  ///< arrival order; short

  std::int64_t total_absorbed_ = 0;
  std::int64_t total_flushed_ = 0;
};

}  // namespace qif::pfs
