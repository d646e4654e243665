#include "qif/pfs/disk.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace qif::pfs {

DiskModel::DiskModel(sim::Simulation& sim, DiskParams params, std::uint64_t seed,
                     std::string name)
    : sim_(sim),
      params_(params),
      rng_(sim::Rng::derive_seed(seed, name)),
      name_(std::move(name)) {}

void DiskModel::settle_time_integrals() {
  const sim::SimTime now = sim_.now();
  const sim::SimDuration dt = now - last_integral_update_;
  if (dt <= 0) return;
  const auto outstanding =
      static_cast<std::int64_t>(read_queue_.size() + write_queue_.size() + (busy_ ? 1 : 0));
  counters_.weighted_ticks += outstanding * dt;
  if (busy_) counters_.io_ticks += dt;
  last_integral_update_ = now;
}

void DiskModel::append_completion(Request& req, sim::InlineTask fn) {
  std::uint32_t idx;
  if (free_completion_ != kNoCompletion) {
    idx = free_completion_;
    free_completion_ = completions_[idx].next;
    completions_[idx].fn = std::move(fn);
    completions_[idx].next = kNoCompletion;
  } else {
    idx = static_cast<std::uint32_t>(completions_.size());
    completions_.push_back(Completion{std::move(fn), kNoCompletion});
  }
  if (req.last == kNoCompletion) {
    req.first = idx;
  } else {
    completions_[req.last].next = idx;
  }
  req.last = idx;
  ++req.count;
}

void DiskModel::enqueue(Queue& q, const Request& req) {
  if (spare_nodes_.empty()) {
    q.emplace(req.offset, req);
    return;
  }
  Queue::node_type node = std::move(spare_nodes_.back());
  spare_nodes_.pop_back();
  node.key() = req.offset;
  node.mapped() = req;
  q.insert(std::move(node));
}

bool DiskModel::try_merge(Queue& q, bool is_write, std::int64_t offset, std::int64_t len,
                          sim::InlineTask& on_complete) {
  // Back merge: an existing request ends exactly where the new one starts.
  if (auto it = q.lower_bound(offset); it != q.begin()) {
    auto prev = std::prev(it);
    Request& r = prev->second;
    if (r.offset + r.len == offset && r.len + len <= params_.max_merge_bytes) {
      r.len += len;
      append_completion(r, std::move(on_complete));
      (is_write ? counters_.write_merges : counters_.read_merges) += 1;
      return true;
    }
  }
  // Front merge: the new request ends exactly where an existing one starts.
  if (auto it = q.find(offset + len); it != q.end()) {
    if (it->second.len + len <= params_.max_merge_bytes) {
      // Re-key the queued node in place of an erase + insert.
      Queue::node_type node = q.extract(it);
      Request& moved = node.mapped();
      moved.offset = offset;
      moved.len += len;
      append_completion(moved, std::move(on_complete));
      (is_write ? counters_.write_merges : counters_.read_merges) += 1;
      node.key() = offset;
      q.insert(std::move(node));
      return true;
    }
  }
  return false;
}

void DiskModel::submit(bool is_write, std::int64_t offset, std::int64_t len,
                       sim::InlineTask on_complete) {
  settle_time_integrals();
  Queue& q = is_write ? write_queue_ : read_queue_;
  counters_.queued_requests += 1;
  if (is_write && write_queue_.empty()) oldest_write_arrival_ = sim_.now();
  if (!try_merge(q, is_write, offset, len, on_complete)) {
    Request req;
    req.offset = offset;
    req.len = len;
    req.arrival = sim_.now();
    append_completion(req, std::move(on_complete));
    enqueue(q, req);
  }
  maybe_dispatch();
}

DiskModel::Queue::iterator DiskModel::pick_elevator(Queue& q) {
  // C-SCAN: first request at or past the head, wrapping to the lowest.
  auto it = q.lower_bound(head_pos_);
  if (it == q.end()) it = q.begin();
  return it;
}

sim::SimDuration DiskModel::service_time(const Request& req) {
  sim::SimDuration positioning = 0;
  const std::int64_t gap = std::abs(req.offset - head_pos_);
  const auto rot_avg = sim::from_seconds(30.0 / params_.rpm);  // half revolution
  if (gap == 0) {
    positioning = 0;  // pure sequential continuation
  } else if (gap <= params_.near_seek_span) {
    positioning = params_.track_seek + rot_avg / 2;
  } else {
    positioning = params_.avg_seek + rot_avg;
  }
  const auto transfer = sim::from_seconds(static_cast<double>(req.len) / params_.media_rate_bps);
  double total = static_cast<double>(positioning + transfer);
  if (params_.service_jitter > 0) {
    total *= 1.0 + rng_.uniform(-params_.service_jitter, params_.service_jitter);
  }
  // Slow-disk episode: scale the whole media service.  Gated on != 1.0 so
  // a healthy disk takes the exact pre-fault arithmetic path.
  if (fault_multiplier_ != 1.0) total *= fault_multiplier_;
  return std::max<sim::SimDuration>(1, static_cast<sim::SimDuration>(total));
}

void DiskModel::set_stalled(bool stalled) {
  if (stalled_ == stalled) return;
  stalled_ = stalled;
  if (!stalled_) maybe_dispatch();
}

void DiskModel::maybe_dispatch() {
  if (busy_ || stalled_) return;
  if (read_queue_.empty() && write_queue_.empty()) return;
  settle_time_integrals();

  bool pick_write;
  bool free_flow_write = false;
  if (read_queue_.empty()) {
    pick_write = true;
    free_flow_write = true;  // nothing to prioritize; no turn accounting
  } else if (write_queue_.empty()) {
    pick_write = false;
  } else if (write_credit_time_ > 0) {
    pick_write = true;  // finish the granted write turn
  } else if (sim_.now() >= next_write_turn_ &&
             sim_.now() - oldest_write_arrival_ > params_.write_starve_limit) {
    // Anti-starvation: grant one bounded, rate-limited write turn.  The
    // rate limit matters: with a standing writeback backlog the oldest
    // write is *always* past the limit, and without it writes would win
    // every other dispatch and erase read priority entirely.  The budget
    // is service *time*, not bytes — a turn of seek-bound small writes
    // must not cost the readers more than a turn of streaming flushes.
    write_credit_time_ = params_.write_turn_time;
    next_write_turn_ = sim_.now() + params_.write_starve_limit;
    pick_write = true;
  } else {
    pick_write = false;  // reads have priority
  }

  // Anticipation: a read just completed and its issuer is very likely about
  // to send the next one — hold free-flowing writes back briefly rather
  // than committing the head to a multi-millisecond write+seek.
  if (pick_write && free_flow_write && params_.anticipation_hold > 0) {
    const sim::SimTime hold_until = last_read_completion_ + params_.anticipation_hold;
    if (sim_.now() < hold_until) {
      if (!anticipation_armed_) {
        anticipation_armed_ = true;
        sim_.schedule_at(hold_until, [this] {
          anticipation_armed_ = false;
          maybe_dispatch();
        });
      }
      return;
    }
  }

  Queue& q = pick_write ? write_queue_ : read_queue_;
  Queue::node_type node = q.extract(pick_elevator(q));
  const Request req = node.mapped();
  spare_nodes_.push_back(std::move(node));

  busy_ = true;
  const sim::SimDuration svc = service_time(req);
  head_pos_ = req.offset + req.len;
  if (pick_write) {
    if (!free_flow_write) {
      write_credit_time_ = std::max<sim::SimDuration>(0, write_credit_time_ - svc);
    }
    // Track the true oldest arrival among the remaining writes.
    oldest_write_arrival_ = sim_.now();
    for (const auto& [off, r] : write_queue_) {
      (void)off;
      oldest_write_arrival_ = std::min(oldest_write_arrival_, r.arrival);
    }
  }
  sim_.schedule_after(svc, [this, pick_write, req] { finish(pick_write, req); });
}

void DiskModel::finish(bool is_write, const Request& req) {
  settle_time_integrals();
  busy_ = false;
  const std::int64_t sectors = (req.len + params_.sector_bytes - 1) / params_.sector_bytes;
  if (is_write) {
    counters_.writes_completed += req.count;
    counters_.sectors_written += sectors;
  } else {
    counters_.reads_completed += req.count;
    counters_.sectors_read += sectors;
    last_read_completion_ = sim_.now();
  }
  maybe_dispatch();
  // A callback may submit again and grow the pool: move each one out and
  // free its entry before invoking it, touching the pool by index only.
  for (std::uint32_t idx = req.first; idx != kNoCompletion;) {
    sim::InlineTask fn = std::move(completions_[idx].fn);
    const std::uint32_t next = completions_[idx].next;
    completions_[idx].next = free_completion_;
    free_completion_ = idx;
    idx = next;
    if (fn) fn();
  }
}

DiskCounters DiskModel::counters() const {
  // Settle the integrals into a copy so the accessor stays const.
  DiskCounters snap = counters_;
  const sim::SimDuration dt = sim_.now() - last_integral_update_;
  if (dt > 0) {
    const auto outstanding =
        static_cast<std::int64_t>(read_queue_.size() + write_queue_.size() + (busy_ ? 1 : 0));
    snap.weighted_ticks += outstanding * dt;
    if (busy_) snap.io_ticks += dt;
  }
  return snap;
}

}  // namespace qif::pfs
