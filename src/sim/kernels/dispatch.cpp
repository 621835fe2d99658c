#include "sim/kernels/dispatch.hpp"

namespace deterrent::sim::kernels {

const KernelTable* table_or_null(util::Isa isa) {
  switch (isa) {
    case util::Isa::Scalar: return scalar_table();
    case util::Isa::Neon: return neon_table();
    case util::Isa::Avx2: return avx2_table();
    case util::Isa::Avx512: return avx512_table();
  }
  return nullptr;
}

const KernelTable& select_kernel_table(std::optional<util::Isa> forced) {
  return util::select_table("simulation", table_or_null, forced);
}

}  // namespace deterrent::sim::kernels
