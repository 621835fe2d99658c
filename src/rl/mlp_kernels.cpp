// Scalar MLP batch kernels + backend dispatch. The wide backends live in
// their own ISA-flagged TUs (mlp_kernels_avx2.cpp, mlp_kernels_avx512.cpp);
// this TU is compiled with base flags only, so the scalar loops here round
// exactly like rl::Mlp's per-sample loops on the same host.
#include "rl/mlp_kernels.hpp"

#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>

#include "util/assert.hpp"

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

void axpy_scalar(float g, const float* x, float* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += g * x[i];
}

void axpy_rows_scalar(const float* coef, std::size_t stride, const float* m,
                      std::size_t ld, std::size_t terms, float* acc,
                      std::size_t len) {
  for (std::size_t k = 0; k < terms; ++k)
    axpy_scalar(coef[k * stride], m + k * ld, acc, len);
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
    MlpIsa::Scalar,          "scalar",         &axpy_scalar, &axpy_rows_scalar,
    &nonzero_indices_scalar, &adam_step_scalar};

const MlpKernelTable* table_or_null(MlpIsa isa) {
  switch (isa) {
    case MlpIsa::Scalar: return mlp_scalar_table();
    case MlpIsa::Avx2: return mlp_avx2_table();
    case MlpIsa::Avx512: return mlp_avx512_table();
  }
  return nullptr;
}

bool cpu_supports(MlpIsa isa) {
  switch (isa) {
    case MlpIsa::Scalar:
      return true;
    case MlpIsa::Avx2:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case MlpIsa::Avx512:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

const MlpKernelTable* mlp_scalar_table() { return &kScalarTable; }

const char* to_string(MlpIsa isa) {
  switch (isa) {
    case MlpIsa::Scalar: return "scalar";
    case MlpIsa::Avx2: return "avx2";
    case MlpIsa::Avx512: return "avx512";
  }
  return "?";
}

bool mlp_isa_supported(MlpIsa isa) {
  return table_or_null(isa) != nullptr && cpu_supports(isa);
}

std::vector<MlpIsa> supported_mlp_isas() {
  std::vector<MlpIsa> out;
  for (const MlpIsa isa : {MlpIsa::Scalar, MlpIsa::Avx2, MlpIsa::Avx512})
    if (mlp_isa_supported(isa)) out.push_back(isa);
  return out;
}

const MlpKernelTable& mlp_kernel_table(MlpIsa isa) {
  const MlpKernelTable* table = table_or_null(isa);
  if (table == nullptr)
    throw Error(std::string("MLP kernel backend '") + to_string(isa) +
                "' is not compiled into this binary");
  if (!cpu_supports(isa))
    throw Error(std::string("MLP kernel backend '") + to_string(isa) +
                "' is not supported by this CPU");
  return *table;
}

const MlpKernelTable& select_mlp_kernels() {
  const char* env = std::getenv("DETERRENT_FORCE_ISA");
  if (env != nullptr && *env != '\0') {
    const std::string_view name(env);
    // "neon" pins the sim engine's NEON backend; the RL side has no NEON TU,
    // so it means "base flags" here — i.e. the scalar table.
    if (name == "scalar" || name == "neon") return *mlp_scalar_table();
    if (name == "avx2") return mlp_kernel_table(MlpIsa::Avx2);
    if (name == "avx512") return mlp_kernel_table(MlpIsa::Avx512);
    throw Error(std::string("DETERRENT_FORCE_ISA: unknown ISA '") + env +
                "' (expected scalar|avx2|avx512|neon)");
  }
  MlpIsa best = MlpIsa::Scalar;
  for (const MlpIsa isa : {MlpIsa::Avx2, MlpIsa::Avx512})
    if (mlp_isa_supported(isa)) best = isa;
  return *table_or_null(best);
}

}  // namespace deterrent::rl::kernels
