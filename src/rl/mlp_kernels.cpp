// Scalar MLP batch kernels and the MLP family's backend switch. The wide
// backends live in their own ISA-flagged TUs (mlp_kernels_avx2.cpp,
// mlp_kernels_avx512.cpp); this TU is compiled with base flags and
// -ffp-contract=off, so the scalar loops here round exactly like rl::Mlp's
// per-sample loops on every host.
#include "rl/mlp_kernels.hpp"

#include <bit>
#include <cmath>

namespace deterrent::rl::kernels {

std::size_t nonzero_indices_scalar(const float* x, std::size_t n,
                                   std::uint32_t* idx) {
  // Branchless: always write the candidate, advance only past a nonzero.
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    idx[count] = static_cast<std::uint32_t>(i);
    count += x[i] != 0.0f ? 1 : 0;
  }
  return count;
}

namespace {

/// fdlibm's expm1f (s_expm1f.c), restricted to the arguments tanhf_fdlibm
/// passes: -2|x| for |x| in [2^-55, 1) and 2|x| for |x| in [1, 22). No
/// argument reaches the |x| >= 27·ln2 overflow/saturation filter with a
/// result other than falling through, so it is left out; k lies in [-3, 63],
/// and k = +1 (which needs a positive argument below 1.5·ln2) never occurs.
float expm1f_fdlibm(float x) {
  constexpr float one = 1.0f;
  constexpr float huge = 1.0e+30f;
  constexpr float ln2_hi = 6.9313812256e-01f;  // 0x3f317180
  constexpr float ln2_lo = 9.0580006145e-06f;  // 0x3717f7d1
  constexpr float invln2 = 1.4426950216e+00f;  // 0x3fb8aa3b
  constexpr float Q1 = -3.3333335072e-02f;     // 0xbd088889
  constexpr float Q2 = 1.5873016091e-03f;      // 0x3ad00d01
  constexpr float Q3 = -7.9365076090e-05f;     // 0xb8a670cd
  constexpr float Q4 = 4.0082177293e-06f;      // 0x36867e54
  constexpr float Q5 = -2.0109921195e-07f;     // 0xb457edbb

  const auto bits = std::bit_cast<std::uint32_t>(x);
  const bool negative = (bits & 0x80000000u) != 0;
  const std::uint32_t hx = bits & 0x7fffffffu;

  // Argument reduction: x = k·ln2 + (hi − lo), with c the rounding error.
  std::int32_t k = 0;
  float c = 0.0f;
  if (hx > 0x3eb17218u) {    // |x| > 0.5·ln2
    float hi;
    float lo;
    if (hx < 0x3f851592u) {  // and |x| < 1.5·ln2, so x < 0 here
      hi = x + ln2_hi;
      lo = -ln2_lo;
      k = -1;
    } else {
      k = static_cast<std::int32_t>(invln2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * ln2_hi;  // t·ln2_hi is exact here
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: return x
    const float t = huge + x;
    return x - (t - huge);
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 = one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  // Adds k to y's exponent field.
  const auto scale = [k](float y) {
    return std::bit_cast<float>(std::bit_cast<std::int32_t>(y) + (k << 23));
  };
  if (k <= -2 || k > 56) return scale(one - (e - x)) - one;
  if (k < 23) {
    t = std::bit_cast<float>(0x3f800000 - (0x1000000 >> k));  // 1 − 2^-k
    return scale(t - (e - x));
  }
  t = std::bit_cast<float>((0x7f - k) << 23);  // 2^-k
  float y = x - (e + t);
  y += one;
  return scale(y);
}

}  // namespace

float tanhf_fdlibm(float x) {
  constexpr float one = 1.0f;
  constexpr float two = 2.0f;
  constexpr float tiny = 1.0e-30f;

  const auto jx = std::bit_cast<std::int32_t>(x);
  const std::int32_t ix = jx & 0x7fffffff;
  if (ix >= 0x7f800000) return jx >= 0 ? one / x + one : one / x - one;  // inf, NaN

  float z;
  if (ix < 0x41b00000) {      // |x| < 22
    if (ix == 0) return x;    // ±0
    if (ix < 0x24000000) return x * (one + x);  // |x| < 2^-55
    if (ix >= 0x3f800000) {   // |x| >= 1
      const float t = expm1f_fdlibm(two * std::fabs(x));
      z = one - two / (t + two);
    } else {
      const float t = expm1f_fdlibm(-two * std::fabs(x));
      z = -t / (t + two);
    }
  } else {                    // |x| >= 22: ±1
    z = one - tiny;
  }
  return jx >= 0 ? z : -z;
}

namespace {

void tanh_scalar(float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] = tanhf_fdlibm(v[i]);
}

void axpy_rows_scalar(const float* coef, std::size_t stride, const float* m,
                      std::size_t ld, std::size_t terms, float* acc,
                      std::size_t len) {
  for (std::size_t k = 0; k < terms; ++k) {
    const float c = coef[k * stride];
    const float* row = m + k * ld;
    for (std::size_t j = 0; j < len; ++j) acc[j] += c * row[j];
  }
}

void axpy_indexed_scalar(const float* coef, const std::uint32_t* idx,
                         std::size_t terms, const float* m, std::size_t ld,
                         float* acc, std::size_t len) {
  for (std::size_t k = 0; k < terms; ++k) {
    const float c = coef[k];
    const float* row = m + idx[k] * ld;
    for (std::size_t j = 0; j < len; ++j) acc[j] += c * row[j];
  }
}

void adam_step_scalar(float* values, float* m, float* v, const float* grads,
                      std::size_t n, const MlpKernelTable::AdamArgs& a) {
  for (std::size_t i = 0; i < n; ++i) {
    const float g = grads[i] * a.scale;
    m[i] = a.beta1 * m[i] + (1.0f - a.beta1) * g;
    v[i] = a.beta2 * v[i] + (1.0f - a.beta2) * g * g;
    const double m_hat = m[i] / a.bias1;
    const double v_hat = v[i] / a.bias2;
    values[i] -= static_cast<float>(a.lr * m_hat / (std::sqrt(v_hat) + a.eps));
  }
}

constinit const MlpKernelTable kScalarTable{
    util::Isa::Scalar,       "scalar",     &axpy_rows_scalar, &axpy_indexed_scalar,
    &nonzero_indices_scalar, &tanh_scalar, &adam_step_scalar};

}  // namespace

const MlpKernelTable* mlp_scalar_table() { return &kScalarTable; }

const MlpKernelTable* table_or_null(util::Isa isa) {
  switch (isa) {
    case util::Isa::Scalar:
    case util::Isa::Neon: return mlp_scalar_table();
    case util::Isa::Avx2: return mlp_avx2_table();
    case util::Isa::Avx512: return mlp_avx512_table();
  }
  return nullptr;
}

const MlpKernelTable& select_mlp_kernels(std::optional<util::Isa> forced) {
  return util::select_table("MLP kernel", table_or_null, forced);
}

}  // namespace deterrent::rl::kernels
