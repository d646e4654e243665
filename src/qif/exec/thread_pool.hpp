// Fixed-size thread pool for campaign-scale fan-out.
//
// Campaigns are embarrassingly parallel: every scenario owns its own
// sim::Simulation, cluster and derived RNG streams, so tasks never share
// mutable state and results are bit-identical regardless of which worker
// runs them or in what order they finish.  The pool is deliberately
// work-stealing-free: a single FIFO queue guarded by one mutex is ample
// when each task is a multi-millisecond discrete-event simulation, and it
// keeps the execution model simple enough to reason about under TSan.
// The queue is a grow-once ring, and for_each_index keeps its batch state
// on the caller's stack, so the training GEMM's per-layer fan-out
// allocates nothing once the ring has reached its working size.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qif::exec {

class ThreadPool {
 public:
  /// Spawns `n_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int n_threads);
  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task.  Tasks must not throw — wrap fallible work in
  /// for_each_index (which captures exceptions) or catch inside the task.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no worker is mid-task.
  void wait_idle();

  /// Runs fn(0) .. fn(n - 1) across the pool and blocks until all complete.
  /// Each index runs exactly once.  If any invocation throws, the exception
  /// thrown for the *lowest* index is rethrown after every task has
  /// finished, so error reporting is deterministic regardless of worker
  /// interleaving.  Allocation-free when no task throws.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  // Both require mu_ held; push_locked also requires a free slot.
  void push_locked(std::function<void()> task);
  void grow_queue();

  std::vector<std::thread> workers_;
  // FIFO ring: queue_size_ tasks starting at queue_[queue_head_]; doubles
  // when full and never shrinks.
  std::vector<std::function<void()>> queue_;
  std::size_t queue_head_ = 0;
  std::size_t queue_size_ = 0;
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signalled on submit / stop
  std::condition_variable idle_cv_;   ///< signalled when the pool drains
  std::size_t active_ = 0;            ///< workers currently inside a task
  bool stop_ = false;
};

}  // namespace qif::exec
