#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace deterrent::util {

/// Fixed-size worker pool. The paper parallelizes the offline pairwise
/// compatibility computation across 64 processes (§3.3) and uses 16 parallel
/// environments for MIPS training (§4.1); this pool backs both.
///
/// **Failure containment.** A task that throws (a real I/O error, an
/// injected fault, a watchdog timeout) does not take the worker thread down:
/// the first in-flight exception is captured and rethrown from the next
/// wait_idle() — i.e. on the thread that submitted the work — after every
/// other task has drained, so the pool is always reusable afterwards and a
/// faulting batch can never deadlock or std::terminate the process. Each
/// task also runs under the submitting thread's util::WatchdogScope deadline
/// (captured at submit time), keeping stage watchdogs in force across the
/// fan-out. The `threadpool.task` fault site fires before every task.
class ThreadPool {
 public:
  /// n_threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task; wait_idle() blocks until all enqueued tasks ran.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle, then rethrows
  /// the first exception any task raised since the previous wait_idle().
  void wait_idle();

  /// Runs fn(i) for i in [0, n) across the pool, blocking until done.
  /// fn must be safe to invoke concurrently for distinct i. Work is handed
  /// out in contiguous chunks to keep cache behaviour predictable.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs fn(thread_index, begin, end) over chunked ranges — for workloads
  /// that want per-chunk scratch state (e.g. one SAT solver per chunk).
  /// [0, n) is split into min(n, thread_count()) contiguous chunks of equal
  /// size (the last may be shorter), one call each. The plan depends only on
  /// (n, thread_count()) and there is no work stealing, so a chunk whose
  /// work runs long leaves the other threads idle at the end.
  void parallel_chunks(std::size_t n,
                       const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;  ///< first task failure, rethrown by wait_idle
};

}  // namespace deterrent::util
