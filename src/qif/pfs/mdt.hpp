// Metadata server (MDS) with its metadata target (MDT).
//
// Models the namespace authority of the file system: a bounded pool of
// service threads, per-op CPU costs, a cache-miss path that reads 4 KiB
// inode blocks from the MDT disk, and — crucially for metadata-vs-metadata
// interference — a group-commit journal.  Namespace-modifying operations
// (create/unlink/mkdir) only complete when their journal transaction
// batch has been written to the MDT disk, so a create storm (mdtest-easy)
// inflates the commit latency every other metadata workload observes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "qif/pfs/disk.hpp"
#include "qif/pfs/layout.hpp"
#include "qif/sim/rng.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {

struct MdtParams {
  int service_threads = 16;
  sim::SimDuration cpu_create = 250 * sim::kMicrosecond;
  sim::SimDuration cpu_open = 120 * sim::kMicrosecond;
  sim::SimDuration cpu_stat = 80 * sim::kMicrosecond;
  sim::SimDuration cpu_close = 40 * sim::kMicrosecond;
  sim::SimDuration cpu_unlink = 220 * sim::kMicrosecond;
  sim::SimDuration cpu_mkdir = 250 * sim::kMicrosecond;
  double cpu_jitter = 0.15;             ///< +/- fraction of CPU cost
  /// P(stat/open reads an inode block from the MDT disk).  Low because the
  /// benchmarks touch recently-created, hot dentries; even 1% of a stat
  /// storm is a meaningful random-read load on a SATA MDT.
  double attr_cache_miss = 0.01;
  std::int64_t inode_block_bytes = 4096;
  sim::SimDuration commit_interval = 2500 * sim::kMicrosecond;  ///< group commit cadence
  int commit_batch_limit = 256;         ///< txns that force an early commit
  std::int64_t journal_txn_bytes = 4096;
  /// Directory entries beyond which shared-directory ops pay a lock
  /// contention penalty per queued sibling op (mdtest-hard's shared dir).
  sim::SimDuration dirlock_penalty = 15 * sim::kMicrosecond;
};

/// Result of a metadata operation.
struct MetaResult {
  bool ok = false;
  FileId file = kInvalidFile;
  std::int64_t size = 0;
  const FileLayout* layout = nullptr;  ///< valid until unlink; owned by the MDT
};

/// Cumulative MDS counters for the server-side monitor.
struct MdtCounters {
  std::int64_t ops_completed = 0;
  std::int64_t modifying_ops = 0;
  std::int64_t commits = 0;
  std::int64_t queued_requests = 0;
  sim::SimDuration queue_wait_total = 0;
};

class MdtServer {
 public:
  using Callback = std::function<void(const MetaResult&)>;

  MdtServer(sim::Simulation& sim, MdtParams params, DiskParams disk_params,
            std::uint64_t seed, std::int64_t n_osts, std::int64_t default_stripe_size);

  MdtServer(const MdtServer&) = delete;
  MdtServer& operator=(const MdtServer&) = delete;

  // -- Namespace operations (asynchronous; callbacks run at completion) ----
  /// Creates `path` striped over `stripe_count` OSTs (0 = all).
  /// `stripe_hint` >= 0 pins the starting OST (the `lfs setstripe -i`
  /// convention IOR deployments use to balance file-per-process runs);
  /// -1 hashes the path, which is balanced in expectation and — unlike a
  /// shared round-robin cursor — independent of concurrent jobs' creates.
  void create(std::string path, int stripe_count, int stripe_hint, Callback cb);
  void open(std::string path, Callback cb);
  void stat(std::string path, Callback cb);
  void close(FileId file, Callback cb);
  void unlink(std::string path, Callback cb);
  void mkdir(std::string path, Callback cb);

  /// Records a size update (piggybacked on client writes; no MDS queueing).
  void note_size(FileId file, std::int64_t new_size);

  // -- Introspection --------------------------------------------------------
  [[nodiscard]] MdtCounters counters() const { return counters_; }
  [[nodiscard]] DiskModel& disk() { return disk_; }
  [[nodiscard]] const DiskModel& disk() const { return disk_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t files() const { return inodes_.size(); }

 private:
  enum class Kind { kCreate, kOpen, kStat, kClose, kUnlink, kMkdir };

  struct Inode {
    FileId id;
    std::int64_t size = 0;
    FileLayout layout;
  };
  struct Task {
    Kind kind;
    std::string path;
    FileId file = kInvalidFile;
    int stripe_count = 0;
    int stripe_hint = -1;
    sim::SimTime arrival = 0;
    Callback cb;
  };

  void enqueue(Task t);
  void dispatch();
  void run_task(Task t);
  void finish_task(Callback cb, const MetaResult& result, bool modifying);
  void await_commit(std::function<void()> on_committed);
  void do_commit();
  sim::SimDuration cpu_cost(Kind k);
  std::string parent_dir(const std::string& path) const;

  sim::Simulation& sim_;
  MdtParams params_;
  DiskModel disk_;
  sim::Rng rng_;
  std::int64_t n_osts_;
  std::int64_t default_stripe_size_;

  std::map<std::string, Inode> inodes_;
  /// Inode of each live file, indexed by FileId (ids are dense from 1);
  /// null once unlinked.  Node pointers are stable in std::map.
  std::vector<Inode*> by_id_;
  std::map<std::string, std::int64_t> dirs_;  ///< dir path -> entry count
  FileId next_file_ = 1;
  std::vector<std::int64_t> ost_objects_;  ///< allocated objects per OST

  std::deque<Task> queue_;
  int busy_threads_ = 0;

  std::vector<std::function<void()>> commit_waiters_;
  /// Recycled commit-batch buffers: a journal flush hands its waiters to a
  /// pooled buffer (several commits can be in flight on a slow MDT disk)
  /// and returns the buffer after firing, so steady-state commits stop
  /// allocating a fresh vector per batch.
  std::vector<std::vector<std::function<void()>>> commit_batch_pool_;
  std::vector<std::uint32_t> commit_batch_free_;
  bool commit_scheduled_ = false;
  std::int64_t journal_cursor_ = 0;

  MdtCounters counters_;
};

}  // namespace qif::pfs
