// NEON backend: 128-bit registers, 2 value words per operation. NEON is
// architecturally mandatory on aarch64, so no extra compile flag is needed —
// the TU simply compiles to a nullptr factory on non-ARM targets.
//
// Validated against the scalar reference by the same differential suite as
// the x86 backends; hardware soak on a real ARM server is a noted follow-on
// in ROADMAP.md.
#include "sim/kernels/kernel_table.hpp"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)

#include <arm_neon.h>

#include "sim/kernels/kernels_impl.hpp"

namespace deterrent::sim::kernels {
namespace {

struct NeonVec {
  static constexpr std::size_t lanes = 2;
  using Reg = uint64x2_t;
  static Reg load(const std::uint64_t* p) { return vld1q_u64(p); }
  static void store(std::uint64_t* p, Reg v) { vst1q_u64(p, v); }
  static Reg zero() { return vdupq_n_u64(0); }
  static Reg ones() { return vdupq_n_u64(~0ULL); }
  static Reg and_(Reg a, Reg b) { return vandq_u64(a, b); }
  static Reg or_(Reg a, Reg b) { return vorrq_u64(a, b); }
  static Reg xor_(Reg a, Reg b) { return veorq_u64(a, b); }
  static Reg not_(Reg a) { return veorq_u64(a, ones()); }
};

// constinit for uniformity with the x86 backends (NEON is architecturally
// mandatory on aarch64, so there is no SIGILL hazard here — see
// kernels_avx512.cpp for why the x86 TUs require it).
constinit const KernelTable kTable{Isa::Neon, "neon",
                                   &run_program_entry<NeonVec>,
                                   &eval_op_entry<NeonVec>};

}  // namespace

const KernelTable* neon_table() { return &kTable; }

}  // namespace deterrent::sim::kernels

#else  // !NEON

namespace deterrent::sim::kernels {
const KernelTable* neon_table() { return nullptr; }
}  // namespace deterrent::sim::kernels

#endif
