// AVX2 MLP batch kernels: 8-float registers. Compiled with -mavx2
// -ffp-contract=off (see CMakeLists.txt) — AVX2 alone enables no FMA
// instructions and contraction is off for the scalar tails, so every
// multiply and add rounds separately, exactly like the scalar table. When
// the flag is unavailable the TU degrades to a nullptr factory.
#include "rl/mlp_kernel_table.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "rl/mlp_tanh_lanes.hpp"

namespace deterrent::rl::kernels {
namespace {

// The first min(n, 8) lanes, as a maskload/maskstore mask.
__m256i lanes(std::size_t n) {
  const auto live = static_cast<std::int32_t>(n >= 8 ? 8 : n);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(live),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// One term of a sum: coef · row[j] for every j.
struct Term {
  float coef;
  const float* row;
};

// acc[j .. j + 8·R) += Σ_k term(k).coef·term(k).row[j ..], k ascending, with
// the R accumulators in registers for the whole k loop. A masked block
// (R = 1, the len tail) neither loads nor stores the lanes outside `mask`.
template <int R, bool Masked, typename TermFn>
void sum_block(TermFn term, std::size_t terms, std::size_t j, float* acc,
               __m256i mask) {
  const auto load = [mask](const float* p) {
    return Masked ? _mm256_maskload_ps(p, mask) : _mm256_loadu_ps(p);
  };
  __m256 a[R];
  for (int r = 0; r < R; ++r) a[r] = load(acc + j + 8 * r);
  for (std::size_t k = 0; k < terms; ++k) {
    const Term t = term(k);
    const __m256 c = _mm256_set1_ps(t.coef);
    for (int r = 0; r < R; ++r)
      a[r] = _mm256_add_ps(a[r], _mm256_mul_ps(c, load(t.row + j + 8 * r)));
  }
  for (int r = 0; r < R; ++r) {
    if constexpr (Masked)
      _mm256_maskstore_ps(acc + j + 8 * r, mask, a[r]);
    else
      _mm256_storeu_ps(acc + j + 8 * r, a[r]);
  }
}

// sum_block over acc[0, len). Eight registers per block keep both FP ports
// busy while covering the add latency.
template <typename TermFn>
void sum_rows(TermFn term, std::size_t terms, float* acc, std::size_t len) {
  const __m256i all = _mm256_set1_epi32(-1);
  std::size_t j = 0;
  for (; j + 64 <= len; j += 64) sum_block<8, false>(term, terms, j, acc, all);
  for (; j + 8 <= len; j += 8) sum_block<1, false>(term, terms, j, acc, all);
  if (j < len) sum_block<1, true>(term, terms, j, acc, lanes(len - j));
}

void axpy_rows_avx2(const float* coef, std::size_t stride, const float* m,
                    std::size_t ld, std::size_t terms, float* acc,
                    std::size_t len) {
  sum_rows([=](std::size_t k) { return Term{coef[k * stride], m + k * ld}; },
           terms, acc, len);
}

void axpy_indexed_avx2(const float* coef, const std::uint32_t* idx,
                       std::size_t terms, const float* m, std::size_t ld,
                       float* acc, std::size_t len) {
  sum_rows([=](std::size_t k) { return Term{coef[k], m + idx[k] * ld}; }, terms,
           acc, len);
}

// tanh_lanes (mlp_tanh_lanes.hpp) on 8 lanes; a mask is an all-ones or
// all-zeros int32 lane, selected with blendv.
struct Avx2Lanes {
  using F = __m256;
  using I = __m256i;
  using M = __m256i;
  static F setf(float v) { return _mm256_set1_ps(v); }
  static I seti(std::int32_t v) { return _mm256_set1_epi32(v); }
  static I bits(F v) { return _mm256_castps_si256(v); }
  static F flt(I v) { return _mm256_castsi256_ps(v); }
  static F add(F a, F b) { return _mm256_add_ps(a, b); }
  static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F div(F a, F b) { return _mm256_div_ps(a, b); }
  static I and_i(I a, I b) { return _mm256_and_si256(a, b); }
  static I xor_i(I a, I b) { return _mm256_xor_si256(a, b); }
  static I add_i(I a, I b) { return _mm256_add_epi32(a, b); }
  static I sub_i(I a, I b) { return _mm256_sub_epi32(a, b); }
  static I shl23(I v) { return _mm256_slli_epi32(v, 23); }
  static I srlv(I v, I n) { return _mm256_srlv_epi32(v, n); }
  static I cvtt(F v) { return _mm256_cvttps_epi32(v); }
  static F cvt(I v) { return _mm256_cvtepi32_ps(v); }
  static M gt(I a, I b) { return _mm256_cmpgt_epi32(a, b); }
  static M eq(I a, I b) { return _mm256_cmpeq_epi32(a, b); }
  static M and_m(M a, M b) { return _mm256_and_si256(a, b); }
  static F pick(F a, M m, F b) { return _mm256_blendv_ps(a, b, _mm256_castsi256_ps(m)); }
  static I pick_i(I a, M m, I b) { return _mm256_blendv_epi8(a, b, m); }
};

void tanh_avx2(float* v, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(v + i, tanh_lanes<Avx2Lanes>(_mm256_loadu_ps(v + i)));
  for (; i < n; ++i) v[i] = tanhf_fdlibm(v[i]);
}

// lr·(m/bias1) / (sqrt(v/bias2) + eps) for one 4-double half of a ymm of
// moments. div, sqrt, and the float↔double conversions are all correctly
// rounded, so the half matches the scalar element sequence bit for bit.
__m128 adam_update_half(__m128 m_ps, __m128 v_ps, __m256d bias1, __m256d bias2,
                        __m256d lr, __m256d eps) {
  const __m256d m_hat = _mm256_div_pd(_mm256_cvtps_pd(m_ps), bias1);
  const __m256d v_hat = _mm256_div_pd(_mm256_cvtps_pd(v_ps), bias2);
  const __m256d denom = _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps);
  return _mm256_cvtpd_ps(_mm256_div_pd(_mm256_mul_pd(lr, m_hat), denom));
}

void adam_step_avx2(float* values, float* m, float* v, const float* grads,
                    std::size_t n, const MlpKernelTable::AdamArgs& a) {
  const __m256 scale = _mm256_set1_ps(a.scale);
  const __m256 b1 = _mm256_set1_ps(a.beta1);
  const __m256 omb1 = _mm256_set1_ps(1.0f - a.beta1);
  const __m256 b2 = _mm256_set1_ps(a.beta2);
  const __m256 omb2 = _mm256_set1_ps(1.0f - a.beta2);
  const __m256d bias1 = _mm256_set1_pd(a.bias1);
  const __m256d bias2 = _mm256_set1_pd(a.bias2);
  const __m256d lr = _mm256_set1_pd(static_cast<double>(a.lr));
  const __m256d eps = _mm256_set1_pd(static_cast<double>(a.eps));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_mul_ps(_mm256_loadu_ps(grads + i), scale);
    const __m256 mv = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(omb1, g));
    const __m256 vv = _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                                    _mm256_mul_ps(_mm256_mul_ps(omb2, g), g));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m128 lo =
        adam_update_half(_mm256_castps256_ps128(mv), _mm256_castps256_ps128(vv),
                         bias1, bias2, lr, eps);
    const __m128 hi =
        adam_update_half(_mm256_extractf128_ps(mv, 1),
                         _mm256_extractf128_ps(vv, 1), bias1, bias2, lr, eps);
    const __m256 upd = _mm256_set_m128(hi, lo);
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

// constinit: the factory runs on every host during backend detection, so
// this -mavx2 TU must emit no initialization code.
// The scan reuses the scalar (base-flag) function: a movemask bit loop
// measured slower than its branchless compaction.
constinit const MlpKernelTable kTable{
    MlpIsa::Avx2,            "avx2",     &axpy_rows_avx2, &axpy_indexed_avx2,
    &nonzero_indices_scalar, &tanh_avx2, &adam_step_avx2};

}  // namespace

const MlpKernelTable* mlp_avx2_table() { return &kTable; }

}  // namespace deterrent::rl::kernels

#else  // !defined(__AVX2__)

namespace deterrent::rl::kernels {
const MlpKernelTable* mlp_avx2_table() { return nullptr; }
}  // namespace deterrent::rl::kernels

#endif
