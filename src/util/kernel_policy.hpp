#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "util/isa.hpp"

// Backend selection for every SIMD kernel family (the simulation engine's
// sim::kernels tables and the MLP's rl::kernels tables). A family supplies
// only its table_or_null(Isa) switch and a label for error text; which
// backends the CPU runs, what DETERRENT_FORCE_ISA pins and what
// auto-detection picks are decided here, once, for both.

namespace deterrent::util {

/// Pins every kernel family at once: "scalar", "neon", "avx2" or "avx512".
/// Unset or empty means auto-detect. An unknown name, or a backend this host
/// cannot run, throws deterrent::Error when a family selects its table: a
/// forced ISA never falls back silently, which would invalidate every
/// benchmark comparison made with it.
inline constexpr const char* kForceIsaEnv = "DETERRENT_FORCE_ISA";

/// Every backend, narrowest first.
inline constexpr Isa kAllIsas[] = {Isa::Scalar, Isa::Neon, Isa::Avx2, Isa::Avx512};

const char* to_string(Isa isa);

/// Parses a to_string() name; nullopt on anything else.
std::optional<Isa> parse_isa(std::string_view name);

/// Can the running CPU execute this backend's instructions? On x86 this is
/// __builtin_cpu_supports, which includes the OS XSAVE state check; NEON is
/// architecturally mandatory on aarch64.
bool cpu_supports(Isa isa);

/// The backend DETERRENT_FORCE_ISA names, or nullopt when it is unset or
/// empty. Throws deterrent::Error on an unknown name.
std::optional<Isa> forced_isa();

/// Throws deterrent::Error naming `family` unless its backend `isa` is
/// compiled into this binary (`compiled`) and the CPU can execute it.
void require_runnable(const char* family, Isa isa, bool compiled);

/// A kernel family's backend switch: its table for an Isa, or nullptr when
/// that backend is not compiled in (missing compiler flag or another target
/// architecture).
template <typename Table>
using TableLookup = const Table* (*)(Isa);

/// Every backend of a family this process can run, narrowest first (always
/// starts with Scalar): what the differential tests and the per-ISA bench
/// sweep iterate over.
template <typename Table>
std::vector<Isa> supported_isas(TableLookup<Table> table_or_null) {
  std::vector<Isa> out;
  for (const Isa isa : kAllIsas)
    if (table_or_null(isa) != nullptr && cpu_supports(isa)) out.push_back(isa);
  return out;
}

/// What auto-detection picks: the widest supported backend. Width is a
/// deterministic, free preference, not a measurement (where 512-bit ops
/// downclock, avx2 can out-run avx512 by a few percent; the per-ISA rows of
/// BENCH_sim.json rank a host's backends).
template <typename Table>
Isa widest_supported_isa(TableLookup<Table> table_or_null) {
  return supported_isas(table_or_null).back();
}

/// A family's table: `forced` when set, else DETERRENT_FORCE_ISA, else the
/// widest supported backend. Throws deterrent::Error when the chosen backend
/// is not compiled in or the CPU lacks it.
template <typename Table>
const Table& select_table(const char* family, TableLookup<Table> table_or_null,
                          std::optional<Isa> forced = std::nullopt) {
  if (!forced.has_value()) forced = forced_isa();
  const Isa isa = forced.has_value() ? *forced : widest_supported_isa(table_or_null);
  const Table* table = table_or_null(isa);
  require_runnable(family, isa, table != nullptr);
  return *table;
}

}  // namespace deterrent::util
