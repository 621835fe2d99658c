#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/faults.hpp"
#include "util/watchdog.hpp"

namespace deterrent::util {

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) n_threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // Carry the submitter's watchdog deadline into the worker, so a stage
  // timeout keeps ticking on every thread doing that stage's work.
  auto deadline = WatchdogScope::current();
  {
    std::lock_guard lock(mutex_);
    queue_.push([task = std::move(task), deadline] {
      WatchdogScope::Adopt adopt(deadline);
      DETERRENT_FAULT_POINT("threadpool.task");
      task();
    });
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  // Rethrow on the submitting thread once the batch has fully drained — the
  // pool stays consistent and reusable, and the failure surfaces where the
  // retry/quarantine layers can see it instead of std::terminate-ing a
  // worker.
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  parallel_chunks(n, [&fn](std::size_t /*thread*/, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::parallel_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t n_chunks = std::min(n, thread_count());
  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  std::atomic<std::size_t> next_chunk{0};
  for (std::size_t t = 0; t < n_chunks; ++t) {
    submit([&, t] {
      // Claims whole chunks. There are never more chunks than tasks, so
      // nothing is stolen: a task that finishes early idles, and the chunk
      // boundaries depend only on (n, thread_count()).
      while (true) {
        std::size_t c = next_chunk.fetch_add(1);
        std::size_t begin = c * chunk;
        if (begin >= n) return;
        std::size_t end = std::min(n, begin + chunk);
        fn(t, begin, end);
      }
    });
  }
  wait_idle();
}

}  // namespace deterrent::util
