#pragma once

#include <cstddef>
#include <cstdint>

#include "util/isa.hpp"

// Kernel-table core shared by rl::Mlp's batched passes and the per-ISA
// backend TUs (mlp_kernels_scalar section of mlp_kernels.cpp,
// mlp_kernels_avx2.cpp, mlp_kernels_avx512.cpp). Deliberately minimal for the
// same reason as sim/kernels/kernel_table.hpp: the backend TUs are compiled
// with ISA-specific flags and must not instantiate code that could be
// comdat-folded with normally-compiled copies.
//
// Bit-exactness contract: every kernel computes each output element as the
// SAME sequence of separate multiplies and adds the scalar loops perform —
// vectorization runs across independent elements (vector indices), never
// across the terms of one accumulation chain, and no backend may contract a
// multiply-add into an FMA. This is what keeps the batched trainer
// bit-identical to the scalar one on every backend, and all backends
// bit-identical to each other. The tanh entry follows the same rule: every
// backend evaluates tanhf_fdlibm's sequence of correctly rounded IEEE
// + − × ÷ and exponent-field integer steps per lane, computing the results
// of all of its branches and selecting per lane instead of branching.

namespace deterrent::rl::kernels {

struct MlpKernelTable {
  util::Isa isa;
  const char* name;

  /// For k ascending in [0, terms): acc[j] += coef[k*stride] * m[k*ld + j]
  /// for j in [0, len), with the accumulator block held in registers across
  /// all k. Every dense batched sum.
  void (*axpy_rows)(const float* coef, std::size_t stride, const float* m,
                    std::size_t ld, std::size_t terms, float* acc, std::size_t len);

  /// axpy_rows over an index list: for k ascending in [0, terms),
  /// acc[j] += coef[k] * m[idx[k]*ld + j] for j in [0, len). Every sparse
  /// batched sum: layer 0's forward pass and weight gradient, and the output
  /// layer's input gradient, over the nonzero terms only.
  void (*axpy_indexed)(const float* coef, const std::uint32_t* idx,
                       std::size_t terms, const float* m, std::size_t ld,
                       float* acc, std::size_t len);

  /// Writes the indices i in [0, n) with x[i] != 0.0f (±0 are zero, NaN is
  /// not), ascending, to idx (room for n) and returns their count.
  std::size_t (*nonzero_indices)(const float* x, std::size_t n, std::uint32_t* idx);

  /// v[i] = tanhf_fdlibm(v[i]) for i in [0, n), in place — the hidden
  /// activation of every batched forward pass.
  void (*tanh)(float* v, std::size_t n);

  /// Per-step constants of the Adam update, precomputed once per step() call.
  struct AdamArgs {
    float scale;    ///< gradient clip scale (1 when clipping is off/inactive)
    float beta1;
    float beta2;
    float lr;
    float eps;
    double bias1;   ///< 1 - beta1^t
    double bias2;   ///< 1 - beta2^t
  };

  /// One Adam update over n independent elements, replicating exactly the
  /// scalar sequence per element (float moment updates, double bias
  /// correction / sqrt / divisions, final round to float). Every operation is
  /// elementwise and correctly rounded (IEEE div and sqrt included), so wide
  /// backends are bit-identical to the scalar loop.
  void (*adam_step)(float* values, float* m, float* v, const float* grads,
                    std::size_t n, const AdamArgs& args);
};

/// tanh(x) by fdlibm's s_tanhf.c over s_expm1f.c, ported op for op
/// (mlp_kernels.cpp): the reference every tanh table entry reproduces, and
/// the activation of Mlp::forward(). It rounds like glibc 2.36's tanhf,
/// which is that same code, on every input, and does not depend on the
/// host's libm.
float tanhf_fdlibm(float x);

/// The base-flag nonzero_indices (mlp_kernels.cpp), shared by tables
/// without a faster scan.
std::size_t nonzero_indices_scalar(const float* x, std::size_t n, std::uint32_t* idx);

/// Backend factories; a factory returns nullptr when its TU was compiled
/// without the required flags. Defined in mlp_kernels.cpp (scalar) and the
/// per-ISA TUs.
const MlpKernelTable* mlp_scalar_table();
const MlpKernelTable* mlp_avx2_table();
const MlpKernelTable* mlp_avx512_table();

}  // namespace deterrent::rl::kernels
