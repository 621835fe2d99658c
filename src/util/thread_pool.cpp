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
  workers_.reserve(n_threads - 1);
  for (std::size_t i = 0; i + 1 < n_threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  // A region of n chunks has the caller plus n - 1 workers, so worker
  // `index` joins only regions of more than index + 1 chunks: the busy
  // threads never outnumber thread_count().
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
    if (!joins(word)) {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] {
        word = epoch_.load(std::memory_order_acquire);
        return joins(word) || stop_;
      });
      if (!joins(word)) return;  // stop_
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
    cv_.notify_all();  // no system call while every joiner spins
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
