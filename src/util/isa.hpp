#pragma once

#include <cstdint>

// The instruction-set tag of every SIMD kernel table. Minimal on purpose —
// no standard-library containers, no inline code — because the per-ISA
// backend TUs include it and are compiled with ISA-specific flags: they must
// not instantiate code that could be comdat-folded with normally-compiled
// copies (a wide instruction leaking into shared code would SIGILL on older
// hosts). The selection policy lives in util/kernel_policy.hpp.

namespace deterrent::util {

/// Kernel backends, narrowest first; auto-detection prefers the widest.
enum class Isa : std::uint8_t {
  Scalar = 0,  ///< plain loops at base flags (always available)
  Neon = 1,    ///< 128-bit NEON (aarch64)
  Avx2 = 2,    ///< 256-bit AVX2 (x86-64)
  Avx512 = 3,  ///< 512-bit AVX-512F (x86-64)
};

}  // namespace deterrent::util
