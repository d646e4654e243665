#include "qif/exec/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace qif::exec {

ThreadPool::ThreadPool(int n_threads) {
  const int n = std::max(1, n_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (queue_size_ == queue_.size()) grow_queue();
    push_locked(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::push_locked(std::function<void()> task) {
  queue_[(queue_head_ + queue_size_) % queue_.size()] = std::move(task);
  ++queue_size_;
}

void ThreadPool::grow_queue() {
  std::vector<std::function<void()>> bigger(std::max<std::size_t>(16, 2 * queue_.size()));
  for (std::size_t i = 0; i < queue_size_; ++i) {
    bigger[i] = std::move(queue_[(queue_head_ + i) % queue_.size()]);
  }
  queue_.swap(bigger);
  queue_head_ = 0;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_size_ == 0 && active_ == 0; });
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // The batch lives on this frame.  Each task updates it under `mu` and
  // the wait below needs `mu` to return, so the frame outlives every
  // task's last touch.  A task captures two words, which std::function
  // stores inline: a call allocates nothing.
  struct Batch {
    const std::function<void(std::size_t)>* fn;
    std::size_t remaining;
    std::size_t first_error;  ///< lowest failing index; n when none failed
    std::exception_ptr error;
    std::mutex mu;
    std::condition_variable done_cv;
  } batch{&fn, n, n, nullptr, {}, {}};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // Grow before queuing anything: a failed allocation then leaves no
    // task pointing into this frame.
    while (queue_.size() - queue_size_ < n) grow_queue();
    for (std::size_t i = 0; i < n; ++i) {
      push_locked([b = &batch, i] {
        std::exception_ptr error;
        try {
          (*b->fn)(i);
        } catch (...) {
          error = std::current_exception();
        }
        const std::lock_guard<std::mutex> guard(b->mu);
        if (error && i < b->first_error) {
          b->first_error = i;
          b->error = std::move(error);
        }
        if (--b->remaining == 0) b->done_cv.notify_all();
      });
    }
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(batch.mu);
  batch.done_cv.wait(lock, [&] { return batch.remaining == 0; });
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || queue_size_ != 0; });
      if (queue_size_ == 0) return;  // stop_ set and nothing left to run
      task = std::move(queue_[queue_head_]);
      queue_[queue_head_] = nullptr;  // release the captures now, not on reuse
      queue_head_ = (queue_head_ + 1) % queue_.size();
      --queue_size_;
      ++active_;
    }
    task();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_size_ == 0 && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace qif::exec
