#include "util/env.hpp"

#include <cstdlib>
#include <cstring>

namespace deterrent::util {

BenchMode bench_mode_from_env() {
  const char* env = std::getenv("DETERRENT_BENCH_MODE");
  if (!env) return BenchMode::Default;
  if (std::strcmp(env, "quick") == 0) return BenchMode::Quick;
  if (std::strcmp(env, "full") == 0) return BenchMode::Full;
  return BenchMode::Default;
}

const char* to_string(BenchMode mode) {
  switch (mode) {
    case BenchMode::Quick: return "quick";
    case BenchMode::Default: return "default";
    case BenchMode::Full: return "full";
  }
  return "?";
}

}  // namespace deterrent::util
