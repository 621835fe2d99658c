// util::faults / util::WatchdogScope / ThreadPool failure-containment unit
// tests: deterministic firing, the DETERRENT_FAULTS grammar, hang-to-timeout
// conversion, and exception propagation out of pool workers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/faults.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/watchdog.hpp"

namespace deterrent::util {
namespace {

/// Every test leaves the process-wide registry disarmed, pass or fail.
struct DisarmGuard {
  ~DisarmGuard() { faults::disarm_all(); }
};

TEST(Faults, DisarmedByDefaultAndCheap) {
  faults::disarm_all();
  EXPECT_FALSE(faults::armed());
  // A disarmed fault point is a no-op: no counting, no firing.
  for (int i = 0; i < 1000; ++i) DETERRENT_FAULT_POINT("sat.query");
  EXPECT_EQ(faults::hit_count("sat.query"), 0u);
  EXPECT_EQ(faults::fired_count("sat.query"), 0u);
}

TEST(Faults, ThrowOnNthHitExactly) {
  DisarmGuard guard;
  faults::FaultSpec spec;
  spec.action = faults::Action::Throw;
  spec.nth = 3;
  faults::arm("sat.query", spec);
  EXPECT_TRUE(faults::armed());

  DETERRENT_FAULT_POINT("sat.query");
  DETERRENT_FAULT_POINT("sat.query");
  EXPECT_THROW(DETERRENT_FAULT_POINT("sat.query"), FaultInjectedError);
  DETERRENT_FAULT_POINT("sat.query");  // only the Nth hit fires
  EXPECT_EQ(faults::hit_count("sat.query"), 4u);
  EXPECT_EQ(faults::fired_count("sat.query"), 1u);
  // Other sites stay untouched.
  DETERRENT_FAULT_POINT("threadpool.task");
  EXPECT_EQ(faults::fired_count("threadpool.task"), 0u);

  faults::disarm_all();
  EXPECT_FALSE(faults::armed());
  EXPECT_EQ(faults::hit_count("sat.query"), 0u);
}

TEST(Faults, ProbabilisticFiringIsSeedDeterministic) {
  DisarmGuard guard;
  const auto fired_pattern = [](std::uint64_t seed) {
    faults::disarm_all();
    faults::FaultSpec spec;
    spec.action = faults::Action::Throw;
    spec.probability = 0.3;
    faults::arm("sat.query", spec, seed);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      bool threw = false;
      try {
        DETERRENT_FAULT_POINT("sat.query");
      } catch (const FaultInjectedError&) {
        threw = true;
      }
      fired.push_back(threw);
    }
    return fired;
  };
  const auto a = fired_pattern(42);
  const auto b = fired_pattern(42);
  EXPECT_EQ(a, b);  // same seed → identical hit numbers fire
  std::size_t n_fired = 0;
  for (const bool f : a) n_fired += f ? 1 : 0;
  EXPECT_GT(n_fired, 20u);  // p=0.3 over 200 hits: ~60 expected
  EXPECT_LT(n_fired, 120u);
  EXPECT_NE(a, fired_pattern(43));  // ~zero chance of colliding
}

TEST(Faults, GrammarParsesAndArms) {
  DisarmGuard guard;
  faults::arm_from_string(
      "seed=7;sat.query=throw@2;serialize.write_artifact=torn-flip@1;"
      "threadpool.task=throw%0.5;pipeline.stage_boundary=hang@1:10");
  EXPECT_TRUE(faults::armed());
  DETERRENT_FAULT_POINT("sat.query");
  EXPECT_THROW(DETERRENT_FAULT_POINT("sat.query"), FaultInjectedError);
  // A short hang with no watchdog resolves on its own.
  DETERRENT_FAULT_POINT("pipeline.stage_boundary");
  EXPECT_EQ(faults::fired_count("pipeline.stage_boundary"), 1u);
}

TEST(Faults, MalformedGrammarThrowsPermanentError) {
  DisarmGuard guard;
  for (const char* bad :
       {"sat.query", "sat.query=", "sat.query=explode@1", "sat.query=throw@",
        "sat.query=throw@x", "seed=notanumber", "sat.query=throw%1.5",
        "sat.query=torn-flip%0.5", "=throw@1"}) {
    faults::disarm_all();
    EXPECT_THROW(faults::arm_from_string(bad), PermanentError) << bad;
  }
}

TEST(Faults, TornActionsAreInertAtPlainSites) {
  DisarmGuard guard;
  faults::FaultSpec spec;
  spec.action = faults::Action::TornTruncate;
  spec.nth = 1;
  faults::arm("sat.query", spec);
  // Torn writes only mean something to writers (on_write); a plain site
  // counts the hit and carries on.
  EXPECT_NO_THROW(DETERRENT_FAULT_POINT("sat.query"));
  EXPECT_EQ(faults::hit_count("sat.query"), 1u);
}

TEST(Faults, KnownSitesCoverTheCompiledRegistry) {
  const auto& sites = faults::known_sites();
  EXPECT_EQ(sites.size(), 7u);
  for (const char* expected :
       {"serialize.write_artifact", "session.load_artifact", "sat.query",
        "pipeline.stage_boundary", "threadpool.task",
        "cache.fetch", "cache.store"}) {
    bool found = false;
    for (const auto& s : sites) found = found || s == expected;
    EXPECT_TRUE(found) << expected;
  }
}

// ------------------------------------------------------------ watchdog -----

TEST(Watchdog, PollThrowsPastDeadline) {
  EXPECT_FALSE(WatchdogScope::current().has_value());
  WatchdogScope scope(0.02);
  EXPECT_TRUE(WatchdogScope::current().has_value());
  EXPECT_NO_THROW(WatchdogScope::poll("test"));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(WatchdogScope::expired());
  EXPECT_THROW(WatchdogScope::poll("test"), TimeoutError);
}

TEST(Watchdog, ZeroIsUnlimitedAndNestedScopesOnlyTighten) {
  WatchdogScope unlimited(0.0);
  EXPECT_FALSE(WatchdogScope::current().has_value());
  {
    WatchdogScope outer(60.0);
    const auto outer_deadline = WatchdogScope::current();
    {
      WatchdogScope inner(0.001);
      ASSERT_TRUE(WatchdogScope::current().has_value());
      EXPECT_LT(*WatchdogScope::current(), *outer_deadline);
      {
        // A looser nested scope must not extend the tighter deadline.
        WatchdogScope loose(120.0);
        EXPECT_LE(*WatchdogScope::current(), *outer_deadline);
      }
    }
    EXPECT_EQ(WatchdogScope::current(), outer_deadline);
  }
  EXPECT_FALSE(WatchdogScope::current().has_value());
}

TEST(Watchdog, HangFaultConvertsToTimeout) {
  DisarmGuard guard;
  faults::FaultSpec spec;
  spec.action = faults::Action::Hang;
  spec.nth = 1;
  spec.hang_ms = 60'000;  // would stall a minute without a watchdog
  faults::arm("sat.query", spec);

  WatchdogScope scope(0.05);
  util::Stopwatch watch;
  EXPECT_THROW(DETERRENT_FAULT_POINT("sat.query"), TimeoutError);
  EXPECT_LT(watch.elapsed_seconds(), 5.0);  // woke at the deadline, not the hang
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, ParallelForPropagatesFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 13) throw PermanentError("unlucky");
                                 }),
               PermanentError);
}

}  // namespace
}  // namespace deterrent::util
