#pragma once

#include <string>

namespace deterrent::util {

/// Benchmark effort scaling shared by every harness in bench/. All harnesses
/// preserve the paper's qualitative shape in every mode; higher modes tighten
/// the quantitative match at the cost of runtime.
enum class BenchMode {
  Quick,    ///< seconds per bench — smoke-level training budgets
  Default,  ///< minutes per bench — the shape-faithful default
  Full,     ///< tens of minutes — closest quantitative reproduction
};

/// Reads DETERRENT_BENCH_MODE (quick|default|full); unset or unknown → Default.
BenchMode bench_mode_from_env();

const char* to_string(BenchMode mode);

}  // namespace deterrent::util
