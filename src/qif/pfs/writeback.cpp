#include "qif/pfs/writeback.hpp"

#include <algorithm>
#include <utility>

namespace qif::pfs {

WritebackCache::WritebackCache(sim::Simulation& sim, DiskModel& disk, WritebackParams params)
    : sim_(sim), disk_(disk), params_(params) {}

void WritebackCache::write(std::int64_t disk_offset, std::int64_t len,
                           sim::InlineTask on_durable_ack) {
  // Fairness: once anyone is throttled, newcomers queue too.
  if (!throttle_queue_.empty() || dirty_bytes_ + len > params_.dirty_limit_bytes) {
    throttle_queue_.push_back(PendingWrite{disk_offset, len, std::move(on_durable_ack), 0});
    kick_flusher();
    // If nothing is in flight (e.g. the very first write is oversized),
    // no flush completion will ever run the admission logic — run it now.
    drain_throttle_queue();
    return;
  }
  admit(disk_offset, len, std::move(on_durable_ack));
}

void WritebackCache::admit(std::int64_t disk_offset, std::int64_t len,
                           sim::InlineTask&& on_durable_ack) {
  total_absorbed_ += len;
  // Coalesce into the offset-ordered extent map (back- and front-merges,
  // absorbing every overlapped successor).  dirty_bytes_ must track the
  // *extent* bytes, not the sum of write sizes: an overlapping rewrite
  // adds no new dirty data, and counting it twice would never drain.
  std::int64_t off = disk_offset;
  std::int64_t ext = len;  // the merged extent's length
  std::int64_t erased = 0;
  if (auto it = dirty_extents_.lower_bound(off); it != dirty_extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second >= off) {
      erased += prev->second;
      ext = std::max(prev->first + prev->second, off + ext) - prev->first;
      off = prev->first;
      dirty_extents_.erase(prev);
    }
  }
  for (auto it = dirty_extents_.lower_bound(off);
       it != dirty_extents_.end() && it->first <= off + ext;
       it = dirty_extents_.lower_bound(off)) {
    erased += it->second;
    ext = std::max(off + ext, it->first + it->second) - off;
    dirty_extents_.erase(it);
  }
  dirty_extents_.set(off, ext);
  dirty_bytes_ += ext - erased;
  // The ack is always scheduled, callback or not (an empty one is an event
  // that only advances the clock).
  const auto copy_time = sim::from_seconds(static_cast<double>(len) / params_.memcpy_rate_bps);
  sim_.schedule_after(params_.ack_overhead + copy_time, std::move(on_durable_ack));
  kick_flusher();
}

void WritebackCache::forget(std::int64_t disk_offset, std::int64_t len) {
  // Drop any still-dirty bytes of [disk_offset, disk_offset+len): the
  // caller is about to write them synchronously (fsync / commit-on-close),
  // so background-flushing them too would double the disk traffic.
  dirty_bytes_ -= dirty_extents_.erase_range(disk_offset, disk_offset + len);
}

void WritebackCache::kick_flusher() {
  // Background laziness: while dirty data is below the flusher's target,
  // hold off briefly (the dirty-expiry timer) so consecutive small writes
  // coalesce into large sequential flushes instead of trickling out one
  // RPC-sized request at a time.  Under pressure (dirty >= target) the
  // flusher runs immediately.
  if (dirty_bytes_ < params_.dirty_target_bytes && throttle_queue_.empty() &&
      params_.background_flush_delay > 0 && !dirty_extents_.empty()) {
    if (!lazy_flush_armed_) {
      lazy_flush_armed_ = true;
      sim_.schedule_after(params_.background_flush_delay, [this] {
        lazy_flush_armed_ = false;
        start_flushes();
      });
    }
    return;
  }
  start_flushes();
}

void WritebackCache::start_flushes() {
  while (flush_inflight_ < params_.max_flush_inflight && !dirty_extents_.empty()) {
    // C-SCAN over extents: continue from the last flushed position, wrap at
    // the end.  Without the cursor the flusher ping-pongs between the
    // lowest extent and whichever one just refilled, paying a seek per
    // chunk; with it, each extent is drained once per sweep and seeks are
    // amortized over the whole backlog.
    auto it = dirty_extents_.lower_bound(flush_cursor_);
    if (it == dirty_extents_.end()) it = dirty_extents_.begin();
    const std::int64_t chunk = std::min<std::int64_t>(it->second, params_.flush_chunk_bytes);
    const std::int64_t chunk_off = it->first;
    if (it->second == chunk) {
      dirty_extents_.erase(it);
    } else {
      // Trim the head in place: the rest still starts before the next extent.
      *it = {it->first + chunk, it->second - chunk};
    }
    flush_cursor_ = chunk_off + chunk;
    ++flush_inflight_;
    disk_.submit(/*is_write=*/true, chunk_off, chunk, [this, chunk] { on_flush_done(chunk); });
  }
}

void WritebackCache::on_flush_done(std::int64_t chunk) {
  --flush_inflight_;
  dirty_bytes_ -= chunk;
  total_flushed_ += chunk;
  // Deficit round robin: every flushed byte is shared equally among the
  // throttled writers as admission credit, so a writer's wait scales with
  // *its own* write size — Linux's IO-less dirty throttling pauses light
  // writers briefly and heavy writers long, instead of making a 47 kB
  // write queue behind fifteen 1 MiB writes FIFO-style.
  if (!throttle_queue_.empty()) {
    const std::int64_t share =
        chunk / static_cast<std::int64_t>(throttle_queue_.size());
    for (auto& w : throttle_queue_) w.credit += share;
  }
  drain_throttle_queue();
  kick_flusher();
}

void WritebackCache::drain_throttle_queue() {
  // Admit every waiter whose earned credit covers its write.  The fallback
  // clause admits the head when nothing is left to flush, so oversized or
  // under-credited writes cannot deadlock the queue.
  for (std::size_t i = 0; i < throttle_queue_.size();) {
    if (throttle_queue_[i].credit >= throttle_queue_[i].len) {
      PendingWrite w = std::move(throttle_queue_[i]);
      throttle_queue_.erase(throttle_queue_.begin() + static_cast<std::ptrdiff_t>(i));
      admit(w.disk_offset, w.len, std::move(w.on_durable_ack));
    } else {
      ++i;
    }
  }
  if (!throttle_queue_.empty() && flush_inflight_ == 0 && dirty_extents_.empty()) {
    PendingWrite w = std::move(throttle_queue_.front());
    throttle_queue_.erase(throttle_queue_.begin());
    admit(w.disk_offset, w.len, std::move(w.on_durable_ack));
  }
}

}  // namespace qif::pfs
