#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/faults.hpp"

namespace deterrent::util {

namespace {

constexpr std::uint64_t kChunkMask = 0xffffffffULL;  // low half of epoch_ and claim_

/// How long an idle worker polls the epoch, and a joining caller the
/// pending count, before it blocks: long enough to bridge the trainer's
/// serial stretches between forks and its uneven chunk ends, short enough
/// that an idle pool or a long region soon stops burning cores.
constexpr auto kSpin = std::chrono::microseconds(200);

inline void cpu_relax() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) n_threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i)
    workers_.emplace_back([this, i, n_threads] { worker_loop(i, i + 1 < n_threads); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  cv_spare_.notify_all();
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
  cv_spare_.notify_one();
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

void ThreadPool::worker_loop(std::size_t index, bool joins_regions) {
  // A region of n chunks has the caller plus n - 1 workers, so worker
  // `index` joins only regions of more than index + 1 chunks: the busy
  // threads never outnumber thread_count(), and the last worker
  // (joins_regions false) serves submit() alone. It waits on its own
  // condition variable: a region's wake-up never reaches it, so a fork
  // never waits for it to be scheduled (glibc's broadcast waits for the
  // waiters it woke before).
  std::condition_variable& cv = joins_regions ? cv_task_ : cv_spare_;
  std::uint64_t seen = 0;
  const auto joins = [&](std::uint64_t word) {
    return word != seen && index + 1 < (word & kChunkMask);
  };
  auto spin_until = std::chrono::steady_clock::time_point::min();  // after a region
  while (true) {
    std::uint64_t word = epoch_.load(std::memory_order_acquire);
    while (!joins(word) && std::chrono::steady_clock::now() < spin_until) {
      cpu_relax();
      word = epoch_.load(std::memory_order_acquire);
    }
    std::function<void()> task;
    if (!joins(word)) {
      std::unique_lock lock(mutex_);
      cv.wait(lock, [&] {
        word = epoch_.load(std::memory_order_acquire);
        return joins(word) || !queue_.empty() || stop_;
      });
      if (!joins(word)) {
        if (queue_.empty()) return;  // stop_
        task = std::move(queue_.front());
        queue_.pop();
        ++active_;
      }
    }

    if (task) {
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
      spin_until = std::chrono::steady_clock::time_point::min();
      continue;
    }

    seen = word;
    claim_chunks(word >> 32, word & kChunkMask);
    spin_until = std::chrono::steady_clock::now() + kSpin;
  }
}

void ThreadPool::claim_chunks(std::uint64_t seq, std::uint64_t n_chunks) {
  // The claim word carries the region's sequence number, so a worker that
  // wakes after its region ended cannot claim a chunk of the next one.
  std::uint64_t claim = claim_.load(std::memory_order_acquire);
  while ((claim >> 32) == seq && (claim & kChunkMask) < n_chunks) {
    if (!claim_.compare_exchange_weak(claim, claim + 1, std::memory_order_acq_rel)) continue;
    run_chunk(claim & kChunkMask);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) pending_.notify_one();
    claim = claim_.load(std::memory_order_acquire);
  }
}

void ThreadPool::run_chunk(std::size_t c) {
  try {
    WatchdogScope::Adopt adopt(region_deadline_);
    DETERRENT_FAULT_POINT("threadpool.task");
    const std::size_t begin = c * region_chunk_;
    (*region_fn_)(c, begin, std::min(region_n_, begin + region_chunk_));
  } catch (...) {
    std::lock_guard lock(mutex_);
    if (!region_error_) region_error_ = std::current_exception();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  parallel_chunks(n, [&fn](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::parallel_chunks(std::size_t n, const ChunkFn& fn) {
  if (n == 0) return;
  const std::size_t parts = std::min(n, thread_count());
  const std::size_t chunk = (n + parts - 1) / parts;
  const std::size_t n_chunks = (n + chunk - 1) / chunk;

  std::lock_guard region(region_mutex_);
  region_fn_ = &fn;
  region_n_ = n;
  region_chunk_ = chunk;
  region_deadline_ = WatchdogScope::current();
  if (n_chunks > 1) {
    const std::uint64_t seq = (epoch_.load(std::memory_order_relaxed) >> 32) + 1;
    pending_.store(static_cast<std::uint32_t>(n_chunks - 1), std::memory_order_relaxed);
    claim_.store((seq << 32) | 1, std::memory_order_relaxed);
    {
      // Published under the mutex, so a worker between its predicate check
      // and its wait cannot miss the wake-up.
      std::lock_guard lock(mutex_);
      epoch_.store((seq << 32) | n_chunks, std::memory_order_release);
    }
    cv_task_.notify_all();  // no system call while every joiner spins
    run_chunk(0);
    // Chunks no worker has started yet run here, so a descheduled worker
    // delays nobody.
    claim_chunks(seq, n_chunks);
    // The chunks reference the caller's stack (fn and what it captures), so
    // nothing returns or throws before every one of them has finished.
    const auto spin_until = std::chrono::steady_clock::now() + kSpin;
    std::uint32_t left = pending_.load(std::memory_order_acquire);
    for (; left != 0 && std::chrono::steady_clock::now() < spin_until;
         left = pending_.load(std::memory_order_acquire))
      cpu_relax();
    for (; left != 0; left = pending_.load(std::memory_order_acquire))
      pending_.wait(left, std::memory_order_acquire);
  } else {
    run_chunk(0);
  }
  if (region_error_) std::rethrow_exception(std::exchange(region_error_, nullptr));
}

void parallel_chunks(ThreadPool* pool, std::size_t n, const ThreadPool::ChunkFn& fn) {
  if (pool != nullptr)
    pool->parallel_chunks(n, fn);
  else if (n > 0)
    fn(0, 0, n);
}

}  // namespace deterrent::util
