#include "qif/pfs/mdt.hpp"

#include <algorithm>
#include <utility>

namespace qif::pfs {

MdtServer::MdtServer(sim::Simulation& sim, MdtParams params, DiskParams disk_params,
                     std::uint64_t seed, std::int64_t n_osts,
                     std::int64_t default_stripe_size)
    : sim_(sim),
      params_(params),
      disk_(sim, disk_params, sim::Rng::derive_seed(seed, "mdt-disk"), "mdt-disk"),
      rng_(sim::Rng::derive_seed(seed, "mdt")),
      n_osts_(n_osts),
      default_stripe_size_(default_stripe_size) {
  dirs_["/"] = 0;
  ost_objects_.assign(static_cast<std::size_t>(n_osts), 0);
}

std::string MdtServer::parent_dir(const std::string& path) const {
  const auto pos = path.find_last_of('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

void MdtServer::create(std::string path, int stripe_count, int stripe_hint,
                       Callback cb) {
  enqueue(Task{Kind::kCreate, std::move(path), kInvalidFile, stripe_count, stripe_hint, sim_.now(),
               std::move(cb)});
}
void MdtServer::open(std::string path, Callback cb) {
  enqueue(Task{Kind::kOpen, std::move(path), kInvalidFile, 0, -1, sim_.now(), std::move(cb)});
}
void MdtServer::stat(std::string path, Callback cb) {
  enqueue(Task{Kind::kStat, std::move(path), kInvalidFile, 0, -1, sim_.now(), std::move(cb)});
}
void MdtServer::close(FileId file, Callback cb) {
  enqueue(Task{Kind::kClose, {}, file, 0, -1, sim_.now(), std::move(cb)});
}
void MdtServer::unlink(std::string path, Callback cb) {
  enqueue(Task{Kind::kUnlink, std::move(path), kInvalidFile, 0, -1, sim_.now(), std::move(cb)});
}
void MdtServer::mkdir(std::string path, Callback cb) {
  enqueue(Task{Kind::kMkdir, std::move(path), kInvalidFile, 0, -1, sim_.now(), std::move(cb)});
}

void MdtServer::note_size(FileId file, std::int64_t new_size) {
  if (file < 0 || static_cast<std::size_t>(file) >= by_id_.size()) return;
  if (Inode* ino = by_id_[static_cast<std::size_t>(file)]) {
    ino->size = std::max(ino->size, new_size);
  }
}

void MdtServer::enqueue(Task t) {
  counters_.queued_requests += 1;
  queue_.push_back(std::move(t));
  dispatch();
}

void MdtServer::dispatch() {
  while (busy_threads_ < params_.service_threads && !queue_.empty()) {
    Task t = std::move(queue_.front());
    queue_.pop_front();
    counters_.queue_wait_total += sim_.now() - t.arrival;
    ++busy_threads_;
    sim::SimDuration cost = cpu_cost(t.kind);
    // Shared-directory contention: every sibling op queued on the MDS adds
    // a lock-hold to pay (the mdtest-hard pattern).
    const std::string dir = t.path.empty() ? std::string{} : parent_dir(t.path);
    if (!dir.empty()) {
      std::int64_t siblings = 0;
      for (const auto& q : queue_) {
        if (!q.path.empty() && parent_dir(q.path) == dir) ++siblings;
      }
      cost += siblings * params_.dirlock_penalty;
    }
    sim_.schedule_after(cost, [this, t = std::move(t)]() mutable { run_task(std::move(t)); });
  }
}

sim::SimDuration MdtServer::cpu_cost(Kind k) {
  sim::SimDuration base = 0;
  switch (k) {
    case Kind::kCreate: base = params_.cpu_create; break;
    case Kind::kOpen: base = params_.cpu_open; break;
    case Kind::kStat: base = params_.cpu_stat; break;
    case Kind::kClose: base = params_.cpu_close; break;
    case Kind::kUnlink: base = params_.cpu_unlink; break;
    case Kind::kMkdir: base = params_.cpu_mkdir; break;
  }
  const double jitter = 1.0 + rng_.uniform(-params_.cpu_jitter, params_.cpu_jitter);
  return std::max<sim::SimDuration>(1, static_cast<sim::SimDuration>(
                                           static_cast<double>(base) * jitter));
}

void MdtServer::run_task(Task t) {
  MetaResult result;
  bool modifying = false;
  bool needs_inode_read = false;

  switch (t.kind) {
    case Kind::kCreate: {
      modifying = true;
      auto [it, inserted] = inodes_.try_emplace(t.path);
      if (inserted) {
        Inode& ino = it->second;
        ino.id = next_file_++;
        int count = t.stripe_count <= 0 ? static_cast<int>(n_osts_)
                                        : std::min<int>(t.stripe_count, static_cast<int>(n_osts_));
        // Stripe placement starts at a hash of the path.  Two properties
        // matter: (1) it spreads a job's file-per-process files across
        // OSTs like Lustre's balanced allocator, and (2) it is *identical
        // between a baseline run and an interference run* — with a shared
        // round-robin cursor, interleaved creates from background jobs
        // would reshuffle the target's placement and contaminate the
        // baseline/interference op matching with placement luck.
        std::int64_t start;
        if (t.stripe_hint >= 0) {
          start = t.stripe_hint % n_osts_;
        } else {
          std::uint64_t h = 1469598103934665603ull;
          for (const char c : t.path) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 1099511628211ull;
          }
          start = static_cast<std::int64_t>(h % static_cast<std::uint64_t>(n_osts_));
        }
        std::vector<OstId> osts;
        osts.reserve(static_cast<std::size_t>(count));
        for (int i = 0; i < count; ++i) {
          const auto ost = static_cast<OstId>((start + i) % n_osts_);
          osts.push_back(ost);
          ost_objects_[static_cast<std::size_t>(ost)] += 1;
        }
        ino.layout = FileLayout(ino.id, std::move(osts), default_stripe_size_,
                                disk_.params().capacity_bytes);
        if (static_cast<std::size_t>(ino.id) >= by_id_.size()) {
          by_id_.resize(static_cast<std::size_t>(ino.id) + 1, nullptr);
        }
        by_id_[static_cast<std::size_t>(ino.id)] = &ino;
        dirs_[parent_dir(t.path)] += 1;
      }
      result.ok = true;
      result.file = it->second.id;
      result.size = it->second.size;
      result.layout = &it->second.layout;
      break;
    }
    case Kind::kOpen:
    case Kind::kStat: {
      auto it = inodes_.find(t.path);
      if (it != inodes_.end()) {
        result.ok = true;
        result.file = it->second.id;
        result.size = it->second.size;
        result.layout = &it->second.layout;
      } else {
        // Missing paths still "succeed" at the protocol level for stat of
        // directories; report ok for known dirs.
        result.ok = dirs_.count(t.path) > 0;
      }
      needs_inode_read = rng_.chance(params_.attr_cache_miss);
      break;
    }
    case Kind::kClose: {
      result.ok = true;
      result.file = t.file;
      break;
    }
    case Kind::kUnlink: {
      modifying = true;
      auto it = inodes_.find(t.path);
      if (it != inodes_.end()) {
        dirs_[parent_dir(t.path)] -= 1;
        by_id_[static_cast<std::size_t>(it->second.id)] = nullptr;
        inodes_.erase(it);
        result.ok = true;
      }
      break;
    }
    case Kind::kMkdir: {
      modifying = true;
      result.ok = dirs_.try_emplace(t.path, 0).second;
      break;
    }
  }

  if (needs_inode_read) {
    // Attribute cache miss: fetch the inode block from the MDT disk before
    // replying.  Placement hashes on the path length + id for spread.
    const std::int64_t block =
        (static_cast<std::int64_t>(t.path.size()) * 2654435761ll + result.file * 4096) %
        (disk_.params().capacity_bytes / 2);
    disk_.submit(/*is_write=*/false, std::max<std::int64_t>(block, 0),
                 params_.inode_block_bytes,
                 [this, cb = std::move(t.cb), result, modifying]() mutable {
                   finish_task(std::move(cb), result, modifying);
                 });
    return;
  }
  finish_task(std::move(t.cb), result, modifying);
}

void MdtServer::finish_task(Callback cb, const MetaResult& result, bool modifying) {
  if (modifying) {
    counters_.modifying_ops += 1;
    // The service thread stays pinned until the transaction's group commit
    // reaches the journal — the ldiskfs/jbd2 behaviour that lets a create
    // storm starve metadata *reads* of service threads (Table I row 3's
    // sensitivity to mdt write noise).
    await_commit([this, result, cb = std::move(cb)]() {
      counters_.ops_completed += 1;
      if (cb) cb(result);
      --busy_threads_;
      dispatch();
    });
    return;
  }
  counters_.ops_completed += 1;
  if (cb) cb(result);
  --busy_threads_;
  dispatch();
}

void MdtServer::await_commit(std::function<void()> on_committed) {
  commit_waiters_.push_back(std::move(on_committed));
  if (static_cast<int>(commit_waiters_.size()) >= params_.commit_batch_limit) {
    // Batch full: commit immediately.
    do_commit();
    return;
  }
  if (!commit_scheduled_) {
    commit_scheduled_ = true;
    sim_.schedule_after(params_.commit_interval, [this] {
      if (commit_scheduled_) do_commit();
    });
  }
}

void MdtServer::do_commit() {
  commit_scheduled_ = false;
  if (commit_waiters_.empty()) return;
  // Swap the waiters into a pooled batch buffer (keeping both vectors'
  // capacity) so steady-state commits allocate nothing.
  std::uint32_t b;
  if (!commit_batch_free_.empty()) {
    b = commit_batch_free_.back();
    commit_batch_free_.pop_back();
  } else {
    b = static_cast<std::uint32_t>(commit_batch_pool_.size());
    commit_batch_pool_.emplace_back();
  }
  commit_batch_pool_[b].swap(commit_waiters_);
  const std::int64_t bytes =
      static_cast<std::int64_t>(commit_batch_pool_[b].size()) * params_.journal_txn_bytes;
  counters_.commits += 1;
  // The journal is a sequential region at the front of the MDT device.
  const std::int64_t off = journal_cursor_;
  journal_cursor_ = (journal_cursor_ + bytes) % (128ll << 20);
  disk_.submit(/*is_write=*/true, off, bytes, [this, b] {
    // No references across the calls: a waiter's continuation can re-enter
    // do_commit() synchronously and grow the pool, so index every access
    // and move each callback out before invoking it.
    for (std::size_t i = 0; i < commit_batch_pool_[b].size(); ++i) {
      std::function<void()> fn = std::move(commit_batch_pool_[b][i]);
      if (fn) fn();
    }
    commit_batch_pool_[b].clear();
    commit_batch_free_.push_back(b);
  });
}

}  // namespace qif::pfs
