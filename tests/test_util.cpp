#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "util/assert.hpp"
#include "util/bitvec.hpp"
#include "util/env.hpp"
#include "util/faults.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/watchdog.hpp"

#include "../bench/common.hpp"

namespace deterrent::util {
namespace {

// ---------------------------------------------------------------- Rng ------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_word(), b.next_word());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_word() == b.next_word()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    auto idx = rng.sample_indices(20, 8);
    ASSERT_EQ(idx.size(), 8u);
    std::set<std::uint32_t> s(idx.begin(), idx.end());
    EXPECT_EQ(s.size(), 8u);
    for (const auto i : s) EXPECT_LT(i, 20u);
  }
}

TEST(Rng, SampleIndicesFullRange) {
  Rng rng(29);
  auto idx = rng.sample_indices(5, 5);
  std::set<std::uint32_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 5u);
}

TEST(Rng, ForkDecorrelates) {
  Rng a(31);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_word() == b.next_word()) ++same;
  EXPECT_LT(same, 2);
}

// ------------------------------------------------------------- BitVec ------

TEST(BitVec, StartsEmpty) {
  BitVec bv(100);
  EXPECT_EQ(bv.size(), 100u);
  EXPECT_EQ(bv.count(), 0u);
  EXPECT_TRUE(bv.none());
  EXPECT_FALSE(bv.any());
}

TEST(BitVec, SetAndTest) {
  BitVec bv(130);
  bv.set(0);
  bv.set(64);
  bv.set(129);
  EXPECT_TRUE(bv.test(0));
  EXPECT_TRUE(bv.test(64));
  EXPECT_TRUE(bv.test(129));
  EXPECT_FALSE(bv.test(1));
  EXPECT_EQ(bv.count(), 3u);
  bv.reset(64);
  EXPECT_FALSE(bv.test(64));
  EXPECT_EQ(bv.count(), 2u);
}

TEST(BitVec, SetAllRespectsSize) {
  for (std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    BitVec bv(n);
    bv.set_all();
    EXPECT_EQ(bv.count(), n) << "n=" << n;
  }
}

TEST(BitVec, FindFirstNext) {
  BitVec bv(200);
  bv.set(5);
  bv.set(63);
  bv.set(64);
  bv.set(199);
  EXPECT_EQ(bv.find_first(), 5u);
  EXPECT_EQ(bv.find_next(6), 63u);
  EXPECT_EQ(bv.find_next(64), 64u);
  EXPECT_EQ(bv.find_next(65), 199u);
  EXPECT_EQ(bv.find_next(200), 200u);  // off the end
}

TEST(BitVec, ToIndicesRoundTrip) {
  Rng rng(37);
  BitVec bv(300);
  std::set<std::uint32_t> expected;
  for (int i = 0; i < 40; ++i) {
    const auto idx = static_cast<std::uint32_t>(rng.below(300));
    bv.set(idx);
    expected.insert(idx);
  }
  const auto got = bv.to_indices();
  EXPECT_EQ(std::set<std::uint32_t>(got.begin(), got.end()), expected);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(BitVec, SubsetAndIntersect) {
  BitVec a(100);
  BitVec b(100);
  a.set(3);
  a.set(50);
  b.set(3);
  b.set(50);
  b.set(99);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  BitVec c(100);
  c.set(42);
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(c.is_subset_of(c));
}

TEST(BitVec, BitwiseOps) {
  BitVec a(70);
  BitVec b(70);
  a.set(1);
  a.set(69);
  b.set(69);
  b.set(2);
  const BitVec andv = a & b;
  EXPECT_EQ(andv.count(), 1u);
  EXPECT_TRUE(andv.test(69));
  const BitVec orv = a | b;
  EXPECT_EQ(orv.count(), 3u);
  const BitVec xorv = a ^ b;
  EXPECT_EQ(xorv.count(), 2u);
  EXPECT_FALSE(xorv.test(69));
}

TEST(BitVec, EqualityAndHash) {
  BitVec a(100);
  BitVec b(100);
  a.set(10);
  b.set(10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(11);
  EXPECT_NE(a, b);
}

TEST(BitVec, HashDistinguishesSizes) {
  BitVec a(64);
  BitVec b(65);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(BitVec, ToString) {
  BitVec bv(5);
  bv.set(0);
  bv.set(3);
  EXPECT_EQ(bv.to_string(), "10010");
}

// --------------------------------------------------------- ThreadPool ------

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelChunksPartition) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_chunks(997, [&](std::size_t, std::size_t b, std::size_t e) {
    total += e - b;
  });
  EXPECT_EQ(total.load(), 997u);
}

TEST(ThreadPool, CallerIsOneOfTheThreads) {
  // n threads are the caller plus n - 1 workers, so a one-thread pool starts
  // no thread and runs every region on the caller.
  const auto process_threads = [] {
    const std::filesystem::path tasks = "/proc/self/task";
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const bool can_count = std::filesystem::exists("/proc/self/task");
  const auto before = can_count ? process_threads() : 0;
  {
    ThreadPool single(1);
    EXPECT_EQ(single.thread_count(), 1u);
    if (can_count) EXPECT_EQ(process_threads(), before);
    std::vector<std::thread::id> ids;
    single.parallel_chunks(5, [&](std::size_t c, std::size_t b, std::size_t e) {
      EXPECT_EQ(c, 0u);
      EXPECT_EQ(b, 0u);
      EXPECT_EQ(e, 5u);
      ids.push_back(std::this_thread::get_id());
    });
    EXPECT_EQ(ids, std::vector<std::thread::id>{std::this_thread::get_id()});
  }
  ThreadPool three(3);
  EXPECT_EQ(three.thread_count(), 3u);
  if (can_count) EXPECT_EQ(process_threads(), before + 2);
}

// ------------------------------------------------ ThreadPool fork-join ----

using Chunk = std::tuple<std::size_t, std::size_t, std::size_t>;  // index, begin, end

TEST(ThreadPoolForkJoin, CallerRunsChunkZeroAndWorkersTheRest) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::vector<Chunk> chunks;
  std::vector<std::thread::id> threads(3);
  std::atomic<bool> worker_started{false};
  pool.parallel_chunks(10, [&](std::size_t c, std::size_t b, std::size_t e) {
    {
      std::lock_guard lock(mutex);
      chunks.emplace_back(c, b, e);
      threads[c] = std::this_thread::get_id();
    }
    // Chunk 0 holds the caller until a worker has started another chunk,
    // which only a second thread can do.
    if (c != 0) worker_started = true;
    for (int i = 0; c == 0 && !worker_started && i < 5000; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks, (std::vector<Chunk>{{0, 0, 4}, {1, 4, 8}, {2, 8, 10}}));
  EXPECT_EQ(threads[0], std::this_thread::get_id());
  EXPECT_TRUE(threads[1] != threads[0] || threads[2] != threads[0])
      << "no worker ran a chunk";

  // One chunk runs inline on the caller; the plan is (n, thread_count()) only.
  std::thread::id single;
  pool.parallel_chunks(1, [&](std::size_t c, std::size_t b, std::size_t e) {
    EXPECT_EQ(c, 0u);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 1u);
    single = std::this_thread::get_id();
  });
  EXPECT_EQ(single, std::this_thread::get_id());
}

TEST(ThreadPoolForkJoin, RegionsKeepAtMostThreadCountThreadsBusy) {
  // The caller is one of the region's threads, so only thread_count() - 1
  // workers ever join; chunks are slow enough that idle joiners would claim
  // some.
  ThreadPool pool(3);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  for (int round = 0; round < 100; ++round) {
    pool.parallel_chunks(3, [&](std::size_t, std::size_t, std::size_t) {
      {
        std::lock_guard lock(mutex);
        ids.insert(std::this_thread::get_id());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    });
    if (round % 10 == 9) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ids.erase(std::this_thread::get_id());
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u);
}

TEST(ThreadPoolForkJoin, BackToBackRegionsCoverEveryIndexOnce) {
  // Alternates bursts (workers still spinning) with pauses long enough for
  // them to block, so both wake-up paths run.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  for (int round = 0; round < 400; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round * 37) % hits.size();
    pool.parallel_for(n, [&](std::size_t i) { hits[i]++; });
    if (round % 50 == 49) std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  int total = 0;
  for (const auto& h : hits) total += h.load();
  int expected = 0;
  for (int round = 0; round < 400; ++round)
    expected += 1 + (round * 37) % static_cast<int>(hits.size());
  EXPECT_EQ(total, expected);
}

TEST(ThreadPoolForkJoin, ExceptionSurfacesOnlyAfterEveryChunkFinished) {
  ThreadPool pool(3);
  for (const std::size_t thrower : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "throwing chunk " << thrower);
    std::vector<std::atomic<bool>> finished(3);
    EXPECT_THROW(
        pool.parallel_chunks(3,
                             [&](std::size_t c, std::size_t, std::size_t) {
                               if (c == thrower) throw PermanentError("chunk failed");
                               std::this_thread::sleep_for(std::chrono::milliseconds(20));
                               finished[c] = true;
                             }),
        PermanentError);
    for (std::size_t c = 0; c < 3; ++c)
      if (c != thrower) EXPECT_TRUE(finished[c].load()) << "chunk " << c;
  }

  // Reusable afterwards, and the error does not stick.
  std::atomic<std::size_t> total{0};
  EXPECT_NO_THROW(pool.parallel_chunks(
      100, [&](std::size_t, std::size_t b, std::size_t e) { total += e - b; }));
  EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPoolForkJoin, FaultSiteFiresOncePerChunk) {
  struct Disarm {
    ~Disarm() { faults::disarm_all(); }
  } disarm;
  ThreadPool pool(3);
  faults::FaultSpec never;
  never.action = faults::Action::Throw;
  never.nth = 1000000;
  faults::arm("threadpool.task", never);
  pool.parallel_chunks(10, [](std::size_t, std::size_t, std::size_t) {});
  EXPECT_EQ(faults::hit_count("threadpool.task"), 3u);
  pool.parallel_chunks(1, [](std::size_t, std::size_t, std::size_t) {});
  EXPECT_EQ(faults::hit_count("threadpool.task"), 4u);

  faults::FaultSpec second;
  second.action = faults::Action::Throw;
  second.nth = 2;
  faults::arm("threadpool.task", second);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_chunks(3, [&](std::size_t, std::size_t, std::size_t) { ++ran; }),
               FaultInjectedError);
  EXPECT_EQ(faults::fired_count("threadpool.task"), 1u);
  EXPECT_EQ(ran.load(), 2);  // the faulted chunk never ran its body
}

TEST(ThreadPoolForkJoin, WorkerChunksRunUnderTheCallersWatchdog) {
  ThreadPool pool(2);
  WatchdogScope scope(0.05);
  EXPECT_THROW(pool.parallel_chunks(2,
                                    [](std::size_t c, std::size_t, std::size_t) {
                                      if (c == 0) return;
                                      for (int i = 0; i < 1000; ++i) {
                                        WatchdogScope::poll("worker chunk");
                                        std::this_thread::sleep_for(
                                            std::chrono::milliseconds(2));
                                      }
                                    }),
               TimeoutError);
}

TEST(ThreadPoolForkJoin, ConcurrentCallersTakeTurns) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  const auto caller = [&] {
    for (int round = 0; round < 200; ++round)
      pool.parallel_for(64, [&](std::size_t i) { sum += static_cast<long>(i); });
  };
  std::thread other(caller);
  caller();
  other.join();
  EXPECT_EQ(sum.load(), 2L * 200 * (63 * 64 / 2));
}

TEST(ThreadPoolForkJoin, OptionalPoolRunsInlineWithoutOne) {
  std::vector<Chunk> chunks;
  parallel_chunks(nullptr, 7, [&](std::size_t c, std::size_t b, std::size_t e) {
    chunks.emplace_back(c, b, e);
  });
  EXPECT_EQ(chunks, (std::vector<Chunk>{{0, 0, 7}}));
  parallel_chunks(nullptr, 0, [](std::size_t, std::size_t, std::size_t) {
    FAIL() << "must not be called";
  });
}

// -------------------------------------------------------------- Table ------

TEST(Table, AlignsColumns) {
  Table t({"Design", "Cov"});
  t.add_row({"c2670", "100"});
  t.add_row({"mips16_like", "97"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Design      | Cov"), std::string::npos);
  EXPECT_NE(s.find("c2670       | 100"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::num(169.677, 1), "169.7");
}

TEST(Table, RowCount) {
  Table t({"a"});
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({"x"});
  EXPECT_EQ(t.row_count(), 1u);
}

// ---------------------------------------------------------------- env ------

TEST(EnvConfig, BenchModeDefault) {
  // Without the env var set, mode falls back to Default.
  unsetenv("DETERRENT_BENCH_MODE");
  EXPECT_EQ(bench_mode_from_env(), BenchMode::Default);
  setenv("DETERRENT_BENCH_MODE", "quick", 1);
  EXPECT_EQ(bench_mode_from_env(), BenchMode::Quick);
  setenv("DETERRENT_BENCH_MODE", "full", 1);
  EXPECT_EQ(bench_mode_from_env(), BenchMode::Full);
  setenv("DETERRENT_BENCH_MODE", "garbage", 1);
  EXPECT_EQ(bench_mode_from_env(), BenchMode::Default);
  unsetenv("DETERRENT_BENCH_MODE");
}

// ------------------------------------------------------ bench JSON -------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(BenchJson, RewritingAMiddleBlockKeepsTheOthersInPlace) {
  // The layout the bench binaries write into BENCH_sim.json: one block per
  // binary, each at two-space indentation.
  const std::string first = "{\n  \"bench\": \"micro_sim\",\n  \"results\": [\n    1\n  ],";
  const std::string middle = "\n  \"sat\": {\n    \"queries\": [1, 2],\n    \"note\": \"a},b\"\n  }";
  const std::string last = ",\n  \"ppo\": {\n    \"lanes\": 8\n  }\n}\n";
  const std::string path = testing::TempDir() + "bench_json_splice.json";
  std::ofstream(path) << first << middle << last;

  const bench::JsonSplice splice = bench::json_splice(path, "sat");
  EXPECT_EQ(splice.head, first);
  EXPECT_EQ(splice.tail, last);
  std::ofstream(path) << splice.head << "\n  \"sat\": {\n    \"queries\": 3\n  }"
                      << splice.tail;
  EXPECT_EQ(read_file(path), first + "\n  \"sat\": {\n    \"queries\": 3\n  }" + last);

  // A block the file does not hold yet goes last.
  const std::string rewritten = read_file(path);
  const bench::JsonSplice added = bench::json_splice(path, "new");
  EXPECT_EQ(added.head, rewritten.substr(0, rewritten.size() - 3) + ",");
  EXPECT_EQ(added.tail, "\n}\n");

  std::remove(path.c_str());
  const bench::JsonSplice fresh = bench::json_splice(path, "sat");
  EXPECT_EQ(fresh.head, "{");
  EXPECT_EQ(fresh.tail, "\n}\n");
}

}  // namespace
}  // namespace deterrent::util
