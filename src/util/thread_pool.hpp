#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "util/watchdog.hpp"

namespace deterrent::util {

/// Fixed-size fork-join pool. The paper parallelizes the offline pairwise
/// compatibility computation across 64 processes (§3.3) and trains on
/// parallel environments (§4.1); this pool backs both. The calling thread is
/// one of the pool's threads: a pool of n threads starts n - 1 workers.
///
/// **Failure containment.** A chunk that throws (a real I/O error, an
/// injected fault, a watchdog timeout) does not take its thread down: the
/// first exception is captured and rethrown on the calling thread once every
/// chunk of the region has finished, so the pool is always reusable
/// afterwards and a faulting region can never deadlock or std::terminate the
/// process. Each chunk runs under the caller's util::WatchdogScope deadline,
/// keeping stage watchdogs in force across the fan-out. The
/// `threadpool.task` fault site fires before every chunk.
class ThreadPool {
 public:
  using ChunkFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// n_threads == 0 selects hardware_concurrency (at least 1). The caller
  /// counts as one thread, so n_threads - 1 workers start.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The workers plus the calling thread.
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs fn(i) for i in [0, n) across the pool, blocking until done.
  /// fn must be safe to invoke concurrently for distinct i. Work is handed
  /// out in contiguous chunks to keep cache behaviour predictable.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Fork-join: runs fn(c, begin, end) for each chunk c of [0, n), split into
  /// min(n, thread_count()) contiguous chunks of equal size (the last may be
  /// shorter); c < thread_count() can index per-chunk scratch. The plan
  /// depends only on (n, thread_count()), never on which thread runs a chunk.
  ///
  /// The caller runs chunk 0, then any chunk no worker has claimed, and
  /// waits for the rest, spinning briefly before it blocks. Only the workers
  /// a region needs join it, so it keeps at most thread_count() threads
  /// busy; idle workers spin briefly on an atomic epoch before they block,
  /// so a fork costs about a microsecond. The `threadpool.task` fault site
  /// fires once per chunk, every chunk runs under the caller's watchdog
  /// deadline, and the first exception is rethrown once every chunk has
  /// finished. Concurrent callers take turns; a chunk must not call back
  /// into the same pool.
  void parallel_chunks(std::size_t n, const ChunkFn& fn);

 private:
  void worker_loop(std::size_t index);
  /// Claims and runs chunks of region `seq` until none is left.
  void claim_chunks(std::uint64_t seq, std::uint64_t n_chunks);
  /// Runs chunk c of the posted region, recording its failure.
  void run_chunk(std::size_t c);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;  ///< idle workers wait here for a region or stop_
  bool stop_ = false;

  // The posted fork-join region. The epoch and claim words pack a region
  // sequence number (high half) with the region's chunk count and its next
  // unclaimed chunk (low halves). Only a thread that claimed a chunk reads
  // the fields below, and the caller waits for those chunks before it can
  // post again.
  std::mutex region_mutex_;  ///< one region at a time
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::uint32_t> pending_{0};  ///< worker chunks not yet finished
  const ChunkFn* region_fn_ = nullptr;
  std::size_t region_n_ = 0;
  std::size_t region_chunk_ = 0;
  std::optional<WatchdogScope::Deadline> region_deadline_;
  std::exception_ptr region_error_;  ///< first chunk failure, under mutex_
};

/// pool->parallel_chunks(n, fn), or one inline fn(0, 0, n) when `pool` is
/// null — the form every pass that takes an optional pool runs in.
void parallel_chunks(ThreadPool* pool, std::size_t n, const ThreadPool::ChunkFn& fn);

}  // namespace deterrent::util
