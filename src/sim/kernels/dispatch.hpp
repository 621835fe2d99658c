#pragma once

#include <optional>

#include "sim/kernels/kernel_table.hpp"
#include "util/kernel_policy.hpp"

namespace deterrent::sim::kernels {

/// The simulation family's backend switch (util::TableLookup): the table
/// compiled for `isa`, or nullptr. util::supported_isas(table_or_null) lists
/// the backends this process can run.
const KernelTable* table_or_null(util::Isa isa);

/// Engine's selection (util::select_table): `forced` when set, else
/// DETERRENT_FORCE_ISA, else the widest supported backend. Throws
/// deterrent::Error for unknown names and backends this host cannot run.
const KernelTable& select_kernel_table(std::optional<util::Isa> forced = std::nullopt);

}  // namespace deterrent::sim::kernels
