#pragma once

#include <chrono>

namespace deterrent::util {

/// Wall-clock stopwatch used by training-rate measurements (Table 1, Fig. 2)
/// and the benchmark harnesses.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace deterrent::util
