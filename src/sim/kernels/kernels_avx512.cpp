// AVX-512 backend: 512-bit registers, 8 value words per operation — the
// engine's default W=8 sweep is a single register per net. This TU is
// compiled with -mavx512f (see the per-source flags in CMakeLists.txt); when
// the flag is unavailable the TU degrades to a nullptr factory and runtime
// dispatch never offers the backend.
//
// Tails (W not a multiple of 8) finish with one k-masked wide op (see the
// masked-tail traits in kernels_impl.hpp) — bit-identical to the scalar tail,
// since masked stores never touch inactive lanes.
#include "sim/kernels/kernel_table.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include "sim/kernels/kernels_impl.hpp"

namespace deterrent::sim::kernels {
namespace {

struct Avx512Vec {
  static constexpr std::size_t lanes = 8;
  using Reg = __m512i;
  static Reg load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
  static void store(std::uint64_t* p, Reg v) { _mm512_storeu_si512(p, v); }
  static Reg zero() { return _mm512_setzero_si512(); }
  static Reg ones() { return _mm512_set1_epi64(-1); }
  static Reg and_(Reg a, Reg b) { return _mm512_and_si512(a, b); }
  static Reg or_(Reg a, Reg b) { return _mm512_or_si512(a, b); }
  static Reg xor_(Reg a, Reg b) { return _mm512_xor_si512(a, b); }
  // NOT via one ternary-logic op (0x55 = ~a) instead of xor-with-ones: saves
  // materializing the all-ones constant in the NAND/NOR/XNOR kernels.
  static Reg not_(Reg a) { return _mm512_ternarylogic_epi64(a, a, a, 0x55); }
  // Masked-tail support: ragged W finishes with one predicated op. Masked
  // loads zero-fill inactive lanes; masked stores leave them untouched.
  using Mask = __mmask8;
  static Mask tail_mask(std::size_t n) {
    return static_cast<Mask>((1u << n) - 1u);
  }
  static Reg mask_load(Mask m, const std::uint64_t* p) {
    return _mm512_maskz_loadu_epi64(m, p);
  }
  static void mask_store(std::uint64_t* p, Mask m, Reg v) {
    _mm512_mask_storeu_epi64(p, m, v);
  }
};

// constinit: the factory below runs on EVERY host during ISA detection
// (table_or_null is asked before cpu_supports), and this TU is compiled
// with -mavx512f — a dynamic initializer or lazy static-init path emitted
// here could itself contain AVX instructions and SIGILL a pre-AVX host. With
// compile-time initialization the only AVX-512 code in the object sits
// behind the two table function pointers, which dispatch hands out only to
// capable CPUs. scripts/check_isa_isolation.sh verifies this shape in CI.
constinit const KernelTable kTable{util::Isa::Avx512, "avx512",
                                   &run_program_entry<Avx512Vec>,
                                   &eval_op_entry<Avx512Vec>};

}  // namespace

const KernelTable* avx512_table() { return &kTable; }

}  // namespace deterrent::sim::kernels

#else  // !defined(__AVX512F__)

namespace deterrent::sim::kernels {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace deterrent::sim::kernels

#endif
