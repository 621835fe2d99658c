// AVX2 backend: 256-bit registers, 4 value words per operation. This TU is
// compiled with -mavx2 (see the per-source flags in CMakeLists.txt); when the
// flag is unavailable the TU degrades to a nullptr factory and runtime
// dispatch never offers the backend.
#include "sim/kernels/kernel_table.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "sim/kernels/kernels_impl.hpp"

namespace deterrent::sim::kernels {
namespace {

struct Avx2Vec {
  static constexpr std::size_t lanes = 4;
  using Reg = __m256i;
  static Reg load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, Reg v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Reg zero() { return _mm256_setzero_si256(); }
  static Reg ones() { return _mm256_set1_epi64x(-1); }
  static Reg and_(Reg a, Reg b) { return _mm256_and_si256(a, b); }
  static Reg or_(Reg a, Reg b) { return _mm256_or_si256(a, b); }
  static Reg xor_(Reg a, Reg b) { return _mm256_xor_si256(a, b); }
  static Reg not_(Reg a) { return _mm256_xor_si256(a, ones()); }
};

// constinit: the factory runs on every host during ISA detection, so this
// -mavx2 TU must emit no initialization code — see kernels_avx512.cpp.
constinit const KernelTable kTable{Isa::Avx2, "avx2",
                                   &run_program_entry<Avx2Vec>,
                                   &eval_op_entry<Avx2Vec>};

}  // namespace

const KernelTable* avx2_table() { return &kTable; }

}  // namespace deterrent::sim::kernels

#else  // !defined(__AVX2__)

namespace deterrent::sim::kernels {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace deterrent::sim::kernels

#endif
