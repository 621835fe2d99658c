#pragma once

#include <cstdint>
#include <vector>

namespace deterrent::sat {

/// Boolean variable, 0-based.
using Var = std::uint32_t;

inline constexpr Var kNoVar = 0xffffffffu;

/// Literal in MiniSat packing: x = 2*var + sign, sign 1 = negated.
struct Lit {
  std::uint32_t x = 0xffffffffu;

  constexpr bool operator==(const Lit&) const = default;
};

inline constexpr Lit kUndefLit{0xffffffffu};

constexpr Lit mk_lit(Var v, bool negated = false) {
  return Lit{(v << 1) | static_cast<std::uint32_t>(negated)};
}

constexpr Lit operator~(Lit p) { return Lit{p.x ^ 1u}; }

constexpr Var var_of(Lit p) { return p.x >> 1; }

/// True when the literal is negated (¬v).
constexpr bool sign_of(Lit p) { return p.x & 1u; }

/// Three-valued assignment state.
enum class LBool : std::uint8_t { False = 0, True = 1, Undef = 2 };

constexpr LBool lbool_from(bool b) { return b ? LBool::True : LBool::False; }

/// Value of literal p under variable value v (Undef stays Undef).
constexpr LBool lit_value(LBool v, Lit p) {
  if (v == LBool::Undef) return LBool::Undef;
  return (v == LBool::True) != sign_of(p) ? LBool::True : LBool::False;
}

using Clause = std::vector<Lit>;

/// How a circuit encoding defines a variable, for Solver::solve_justified:
/// Free is a primary input (or a constant, fixed at root level); And and Or
/// are the n-ary gates (one fanin: a buffer), Xor the two-input parity of a
/// gate or of an XOR-chain stage. An inverted gate is Nand, Nor, Not or Xnor.
enum class GateKind : std::uint8_t { Free, And, Or, Xor };

}  // namespace deterrent::sat
