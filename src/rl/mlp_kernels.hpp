#pragma once

#include <optional>

#include "rl/mlp_kernel_table.hpp"
#include "util/kernel_policy.hpp"

namespace deterrent::rl::kernels {

/// The MLP family's backend switch (util::TableLookup): the table compiled
/// for `isa`, or nullptr. Neon maps to the scalar table: there is no NEON
/// MLP TU, and on aarch64 the compiler's base flags already vectorize the
/// scalar loops element-wise. util::supported_isas(table_or_null) lists the
/// backends this process can run.
const MlpKernelTable* table_or_null(util::Isa isa);

/// Selection used by Mlp and Adam (util::select_table): `forced` when set,
/// else DETERRENT_FORCE_ISA, else the widest supported backend. All
/// backends are bit-identical (see mlp_kernel_table.hpp), so this is purely
/// a speed knob.
const MlpKernelTable& select_mlp_kernels(std::optional<util::Isa> forced = std::nullopt);

}  // namespace deterrent::rl::kernels
