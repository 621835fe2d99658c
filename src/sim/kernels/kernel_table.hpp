#pragma once

#include <cstddef>
#include <cstdint>

// Kernel-table core shared by sim::Engine and the per-ISA backend TUs
// (kernels_scalar/avx2/avx512/neon.cpp). This header is deliberately minimal
// — no standard-library containers, no netlist headers — because the backend
// TUs are compiled with ISA-specific flags and must not instantiate any code
// that could be comdat-folded with copies from normally-compiled TUs (a wide
// vector instruction leaking into shared code would SIGILL on older hosts).
// The full selection API (detection, forcing, string conversion) lives in
// dispatch.hpp, which only normally-compiled TUs include.

namespace deterrent::sim::kernels {

/// Compiled opcodes of the engine's flat evaluation program. Arity-1 n-ary
/// gates fold to Buf/Not at compile time; arity-2 gates use the two-operand
/// forms; wider gates fall back to the *N forms, which read their fanins
/// from the CSR pool.
enum class Op : std::uint8_t {
  Const0,
  Const1,
  Buf,
  Not,
  And2,
  Nand2,
  Or2,
  Nor2,
  Xor2,
  Xnor2,
  AndN,
  NandN,
  OrN,
  NorN,
  XorN,
  XnorN,
};

/// Instruction-set flavors a kernel table can be built for. The numeric
/// order is the preference order of best_isa(): wider is better.
enum class Isa : std::uint8_t {
  Scalar = 0,  ///< plain std::uint64_t loops (always available)
  Neon = 1,    ///< 128-bit NEON (aarch64)
  Avx2 = 2,    ///< 256-bit AVX2 (x86-64)
  Avx512 = 3,  ///< 512-bit AVX-512F (x86-64)
};

/// Borrowed, read-only view of an Engine's compiled program, in the layout
/// the kernels consume: parallel arrays indexed by program position k, plus
/// the CSR fanin pool for the n-ary ops. Net ids are raw uint32 here so the
/// backend TUs need no netlist headers (Engine static_asserts the match).
struct ProgramView {
  const Op* op = nullptr;
  const std::uint32_t* out = nullptr;          ///< output net per entry
  const std::uint32_t* a = nullptr;            ///< fanin 0, or CSR offset (*N)
  const std::uint32_t* b = nullptr;            ///< fanin 1, or fanin count (*N)
  const std::uint32_t* nary_fanins = nullptr;  ///< CSR pool for *N ops
  std::size_t n_ops = 0;
};

/// A single-op evaluator at one word per net: evaluates program entry k
/// against `values`, writing the result word to `*out`.
using EvalOpFn = void (*)(const ProgramView& program, std::size_t k,
                          const std::uint64_t* values, std::uint64_t* out);

/// One backend: the full-program sweep loop and the single-op evaluator the
/// incremental resimulate walk calls per drained work item. run_program
/// takes the word count at runtime and internally dispatches the common
/// sweep widths (1/2/4/8) to fully-unrolled variants; eval_op is compiled
/// for one word per net, the only width resimulate accepts. Value buffers
/// are expected (not required) to be 64-byte aligned — the kernels use
/// unaligned loads, so alignment is a performance contract, never a
/// correctness one.
///
/// Backends are bit-identical by construction: every table implements the
/// same word-level boolean algebra, so evaluate/resimulate results never
/// depend on which ISA executed them (the differential suite enforces this).
struct KernelTable {
  Isa isa = Isa::Scalar;
  const char* name = "scalar";
  void (*run_program)(const ProgramView& program, std::uint64_t* values,
                      std::size_t n_words) = nullptr;
  EvalOpFn eval_op = nullptr;
};

// Backend factories, one per TU. Each returns its table, or nullptr when the
// backend was not compiled in (missing compiler flag or wrong architecture).
// Whether the *CPU* can run a compiled-in backend is a separate, runtime
// question answered by dispatch.hpp — which means these factories are called
// on hosts that CANNOT run the backend. They must therefore be safe on any
// CPU of the target architecture: each table is constinit (initialized at
// compile time, no startup code in the ISA-flagged TU), and the factory body
// is a bare address return. scripts/check_isa_isolation.sh checks the built
// objects for regressions (static initializers, vector instructions in the
// factory).
const KernelTable* scalar_table();
const KernelTable* avx2_table();
const KernelTable* avx512_table();
const KernelTable* neon_table();

}  // namespace deterrent::sim::kernels
