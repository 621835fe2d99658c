#pragma once

#include <chrono>
#include <optional>

#include "util/assert.hpp"

namespace deterrent::util {

/// Cooperative per-thread stage deadline — the watchdog behind
/// StageStatus::TimedOut.
///
/// A scope installs a steady-clock deadline in thread-local storage; long
/// running primitives call poll() at their natural cancellation points (SAT
/// queries, fault-injected hangs, artifact I/O) and get a deterrent::
/// TimeoutError once the deadline has passed. The pipeline catches that at
/// the stage boundary and converts it into a clean StageStatus::TimedOut, so
/// a hung stage degrades into a reported timeout instead of wedging a worker
/// thread forever.
///
/// The deadline is *cooperative*: nothing preempts a loop that never polls.
/// util::ThreadPool propagates the forking thread's deadline into its
/// workers, so a stage that fans work out across the pool keeps its deadline
/// on every thread that executes for it. Scopes nest; an inner scope may only
/// tighten (never extend) the surrounding deadline.
class WatchdogScope {
 public:
  using Clock = std::chrono::steady_clock;
  using Deadline = Clock::time_point;

  /// Installs `now + seconds` for this thread; seconds <= 0 is a no-op scope
  /// (the surrounding deadline, if any, stays in force).
  explicit WatchdogScope(double seconds);
  ~WatchdogScope();

  WatchdogScope(const WatchdogScope&) = delete;
  WatchdogScope& operator=(const WatchdogScope&) = delete;

  /// Deadline currently in force on this thread (nullopt = none).
  static std::optional<Deadline> current();
  /// True when a deadline is installed and has passed. Cheap: one TLS read
  /// plus a clock read when armed.
  static bool expired();
  /// Throws deterrent::TimeoutError naming `where` when expired().
  static void poll(const char* where);

  /// RAII adoption of another thread's deadline — how util::ThreadPool hands
  /// the forking thread's deadline to the worker running one of its chunks.
  class Adopt {
   public:
    explicit Adopt(std::optional<Deadline> deadline);
    ~Adopt();
    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;

   private:
    std::optional<Deadline> prev_;
    bool installed_ = false;
  };

 private:
  std::optional<Deadline> prev_;
  bool installed_ = false;
};

}  // namespace deterrent::util
