#include "util/kernel_policy.hpp"

#include <cstdlib>
#include <string>

#include "util/assert.hpp"

namespace deterrent::util {

const char* to_string(Isa isa) {
  constexpr const char* kNames[] = {"scalar", "neon", "avx2", "avx512"};
  return kNames[static_cast<std::size_t>(isa)];
}

std::optional<Isa> parse_isa(std::string_view name) {
  for (const Isa isa : kAllIsas)
    if (name == to_string(isa)) return isa;
  return std::nullopt;
}

bool cpu_supports(Isa isa) {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  if (isa == Isa::Avx2) return __builtin_cpu_supports("avx2") != 0;
  if (isa == Isa::Avx512) return __builtin_cpu_supports("avx512f") != 0;
#elif defined(__aarch64__)
  if (isa == Isa::Neon) return true;
#endif
  return isa == Isa::Scalar;
}

std::optional<Isa> forced_isa() {
  const char* env = std::getenv(kForceIsaEnv);
  if (env == nullptr || *env == '\0') return std::nullopt;
  if (const auto isa = parse_isa(env)) return isa;
  throw Error(std::string(kForceIsaEnv) + ": unknown ISA '" + env +
              "' (expected scalar|neon|avx2|avx512)");
}

void require_runnable(const char* family, Isa isa, bool compiled) {
  if (compiled && cpu_supports(isa)) return;
  throw Error(std::string(family) + " backend '" + to_string(isa) + "' is not " +
              (compiled ? "supported by this CPU" : "compiled into this binary"));
}

}  // namespace deterrent::util
