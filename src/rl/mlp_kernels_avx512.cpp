// AVX-512 MLP batch kernels: 16-float registers, masked at the tails.
// Compiled with -mavx512f -ffp-contract=off (see CMakeLists.txt):
// AVX-512F includes FMA encodings, so contraction MUST be off — every
// multiply and add here rounds separately via explicit mul/add intrinsics,
// bit-identical to the scalar table. When the flag is unavailable the TU
// degrades to a nullptr factory.
#include "rl/mlp_kernel_table.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include "rl/mlp_tanh_lanes.hpp"

namespace deterrent::rl::kernels {
namespace {

// The first min(n, 16) lanes.
__mmask16 lanes(std::size_t n) {
  return static_cast<__mmask16>(n >= 16 ? 0xFFFFu : (1u << n) - 1);
}

// One term of a sum: coef · row[j] for every j.
struct Term {
  float coef;
  const float* row;
};

// acc[j .. j + 16·R) += Σ_k term(k).coef·term(k).row[j ..], k ascending,
// with the R accumulators in registers for the whole k loop. Lanes outside
// `mask` (the len tail) are neither loaded nor stored.
template <int R, typename TermFn>
void sum_block(TermFn term, std::size_t terms, std::size_t j, float* acc,
               __mmask16 mask) {
  __m512 a[R];
  for (int r = 0; r < R; ++r) a[r] = _mm512_maskz_loadu_ps(mask, acc + j + 16 * r);
  for (std::size_t k = 0; k < terms; ++k) {
    const Term t = term(k);
    const __m512 c = _mm512_set1_ps(t.coef);
    for (int r = 0; r < R; ++r)
      a[r] = _mm512_add_ps(
          a[r], _mm512_mul_ps(c, _mm512_maskz_loadu_ps(mask, t.row + j + 16 * r)));
  }
  for (int r = 0; r < R; ++r) _mm512_mask_storeu_ps(acc + j + 16 * r, mask, a[r]);
}

// sum_block over acc[0, len). Four registers per block keep both FP ports
// busy while covering the add latency.
template <typename TermFn>
void sum_rows(TermFn term, std::size_t terms, float* acc, std::size_t len) {
  std::size_t j = 0;
  for (; j + 64 <= len; j += 64) sum_block<4>(term, terms, j, acc, 0xFFFF);
  for (; j < len; j += 16) sum_block<1>(term, terms, j, acc, lanes(len - j));
}

void axpy_rows_avx512(const float* coef, std::size_t stride, const float* m,
                      std::size_t ld, std::size_t terms, float* acc,
                      std::size_t len) {
  sum_rows([=](std::size_t k) { return Term{coef[k * stride], m + k * ld}; },
           terms, acc, len);
}

void axpy_indexed_avx512(const float* coef, const std::uint32_t* idx,
                         std::size_t terms, const float* m, std::size_t ld,
                         float* acc, std::size_t len) {
  sum_rows([=](std::size_t k) { return Term{coef[k], m + idx[k] * ld}; }, terms,
           acc, len);
}

std::size_t nonzero_indices_avx512(const float* x, std::size_t n,
                                   std::uint32_t* idx) {
  __m512i index =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; i += 16) {
    // NEQ_UQ is the C++ `!=`: true for NaN, false for ±0. The compressed
    // indices are stored through a mask, so idx never grows past n entries.
    const __mmask16 live = lanes(n - i);
    const __mmask16 nz = _mm512_mask_cmp_ps_mask(
        live, _mm512_maskz_loadu_ps(live, x + i), _mm512_setzero_ps(), _CMP_NEQ_UQ);
    const auto found = static_cast<std::size_t>(__builtin_popcount(nz));
    _mm512_mask_storeu_epi32(idx + count, lanes(found),
                             _mm512_maskz_compress_epi32(nz, index));
    count += found;
    index = _mm512_add_epi32(index, _mm512_set1_epi32(16));
  }
  return count;
}

// GCC 12 flags the undefined merge operand inside the masked header
// implementations of _mm512_cvttps_epi32, _mm512_slli_epi32, _mm512_cvtps_pd,
// _mm512_sqrt_pd and others (PR105593); the operand is dead under the
// all-ones mask. Scoped suppression, for the tanh lanes and the Adam step.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// tanh_lanes (mlp_tanh_lanes.hpp) on 16 lanes with mask registers.
struct Avx512Lanes {
  using F = __m512;
  using I = __m512i;
  using M = __mmask16;
  static F setf(float v) { return _mm512_set1_ps(v); }
  static I seti(std::int32_t v) { return _mm512_set1_epi32(v); }
  static I bits(F v) { return _mm512_castps_si512(v); }
  static F flt(I v) { return _mm512_castsi512_ps(v); }
  static F add(F a, F b) { return _mm512_add_ps(a, b); }
  static F sub(F a, F b) { return _mm512_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F div(F a, F b) { return _mm512_div_ps(a, b); }
  static I and_i(I a, I b) { return _mm512_and_si512(a, b); }
  static I xor_i(I a, I b) { return _mm512_xor_si512(a, b); }
  static I add_i(I a, I b) { return _mm512_add_epi32(a, b); }
  static I sub_i(I a, I b) { return _mm512_sub_epi32(a, b); }
  static I shl23(I v) { return _mm512_slli_epi32(v, 23); }
  static I srlv(I v, I n) { return _mm512_srlv_epi32(v, n); }
  static I cvtt(F v) { return _mm512_cvttps_epi32(v); }
  static F cvt(I v) { return _mm512_cvtepi32_ps(v); }
  static M gt(I a, I b) { return _mm512_cmpgt_epi32_mask(a, b); }
  static M eq(I a, I b) { return _mm512_cmpeq_epi32_mask(a, b); }
  static M and_m(M a, M b) { return _mm512_kand(a, b); }
  static F pick(F a, M m, F b) { return _mm512_mask_mov_ps(a, m, b); }
  static I pick_i(I a, M m, I b) { return _mm512_mask_mov_epi32(a, m, b); }
};

void tanh_avx512(float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 live = lanes(n - i);
    _mm512_mask_storeu_ps(v + i, live,
                          tanh_lanes<Avx512Lanes>(_mm512_maskz_loadu_ps(live, v + i)));
  }
}

// lr·(m/bias1) / (sqrt(v/bias2) + eps) for one 8-double half of a zmm of
// moments. div, sqrt, and the float↔double conversions are all correctly
// rounded, so the half matches the scalar element sequence bit for bit.
__m256 adam_update_half(__m256 m_ps, __m256 v_ps, __m512d bias1, __m512d bias2,
                        __m512d lr, __m512d eps) {
  const __m512d m_hat = _mm512_div_pd(_mm512_cvtps_pd(m_ps), bias1);
  const __m512d v_hat = _mm512_div_pd(_mm512_cvtps_pd(v_ps), bias2);
  const __m512d denom = _mm512_add_pd(_mm512_sqrt_pd(v_hat), eps);
  return _mm512_cvtpd_ps(_mm512_div_pd(_mm512_mul_pd(lr, m_hat), denom));
}

void adam_step_avx512(float* values, float* m, float* v, const float* grads,
                      std::size_t n, const MlpKernelTable::AdamArgs& a) {
  // 8 floats per iteration: the float moment updates run 256-bit, the
  // expensive double part (div, sqrt, div) runs full 512-bit width in
  // adam_update_half. Widening the float half to 16 lanes would need
  // 512↔256 lane shuffles that cost more than the two cheap mul/adds save.
  const __m256 scale = _mm256_set1_ps(a.scale);
  const __m256 b1 = _mm256_set1_ps(a.beta1);
  const __m256 omb1 = _mm256_set1_ps(1.0f - a.beta1);
  const __m256 b2 = _mm256_set1_ps(a.beta2);
  const __m256 omb2 = _mm256_set1_ps(1.0f - a.beta2);
  const __m512d bias1 = _mm512_set1_pd(a.bias1);
  const __m512d bias2 = _mm512_set1_pd(a.bias2);
  const __m512d lr = _mm512_set1_pd(static_cast<double>(a.lr));
  const __m512d eps = _mm512_set1_pd(static_cast<double>(a.eps));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_mul_ps(_mm256_loadu_ps(grads + i), scale);
    const __m256 mv = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(omb1, g));
    const __m256 vv = _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                                    _mm256_mul_ps(_mm256_mul_ps(omb2, g), g));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 upd = adam_update_half(mv, vv, bias1, bias2, lr, eps);
    _mm256_storeu_ps(values + i,
                     _mm256_sub_ps(_mm256_loadu_ps(values + i), upd));
  }
  for (; i < n; ++i) {
    const float g = grads[i] * a.scale;
    m[i] = a.beta1 * m[i] + (1.0f - a.beta1) * g;
    v[i] = a.beta2 * v[i] + (1.0f - a.beta2) * g * g;
    const double m_hat = m[i] / a.bias1;
    const double v_hat = v[i] / a.bias2;
    values[i] -=
        static_cast<float>(a.lr * m_hat / (__builtin_sqrt(v_hat) + a.eps));
  }
}

#pragma GCC diagnostic pop

// constinit: the factory runs on every host during backend detection, so
// this -mavx512f TU must emit no initialization code.
constinit const MlpKernelTable kTable{
    util::Isa::Avx512,       "avx512",     &axpy_rows_avx512, &axpy_indexed_avx512,
    &nonzero_indices_avx512, &tanh_avx512, &adam_step_avx512};

}  // namespace

const MlpKernelTable* mlp_avx512_table() { return &kTable; }

}  // namespace deterrent::rl::kernels

#else  // !defined(__AVX512F__)

namespace deterrent::rl::kernels {
const MlpKernelTable* mlp_avx512_table() { return nullptr; }
}  // namespace deterrent::rl::kernels

#endif
