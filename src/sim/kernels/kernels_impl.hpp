#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "sim/kernels/kernel_table.hpp"

// Generic kernel implementation, parameterized over a vector-register traits
// type V (ScalarVec below, or a backend's __m256i/__m512i/uint64x2_t wrapper).
// Included ONLY by the per-ISA backend TUs. Everything sits in an anonymous
// namespace on purpose: those TUs are compiled with ISA-specific flags, and
// internal linkage guarantees none of this code can be merged across TUs by
// the linker — the only way wide instructions are reached is through the
// KernelTable function pointers, which runtime dispatch hands out only on
// hosts that support them. For the same reason each TU's table must be
// constinit (no dynamic initializer, no lazy static-init path): the table
// factories run on every host during ISA detection, before any CPUID check.

namespace deterrent::sim::kernels {
namespace {

/// The width-1 "vector": plain 64-bit words. Doubles as the backend of the
/// scalar table and as the tail handler of every wide backend (W is not
/// always a multiple of the register width).
struct ScalarVec {
  static constexpr std::size_t lanes = 1;
  using Reg = std::uint64_t;
  static Reg load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, Reg v) { *p = v; }
  static Reg zero() { return 0; }
  static Reg ones() { return ~0ULL; }
  static Reg and_(Reg a, Reg b) { return a & b; }
  static Reg or_(Reg a, Reg b) { return a | b; }
  static Reg xor_(Reg a, Reg b) { return a ^ b; }
  static Reg not_(Reg a) { return ~a; }
};

/// Detected when the traits type V provides masked-tail support (a Mask type
/// plus tail_mask/mask_load/mask_store): ragged widths W ∉ {lanes, 2·lanes,
/// …} then finish with one predicated wide op instead of a scalar word loop.
/// Masked loads zero inactive lanes and masked stores never touch them, and
/// every kernel here is a pure per-lane bitwise function, so the written
/// words are bit-identical to the scalar tail's.
template <class V, class = void>
struct has_masked_tail : std::false_type {};
template <class V>
struct has_masked_tail<V, std::void_t<typename V::Mask>> : std::true_type {};

// Word-level boolean functors, generic over the vector traits so one functor
// serves both the wide body and the scalar tail of a loop.
struct FBuf {
  template <class V>
  static typename V::Reg go(typename V::Reg a) { return a; }
};
struct FNot {
  template <class V>
  static typename V::Reg go(typename V::Reg a) { return V::not_(a); }
};
struct FAnd {
  template <class V>
  static typename V::Reg go(typename V::Reg a, typename V::Reg b) {
    return V::and_(a, b);
  }
};
struct FNand {
  template <class V>
  static typename V::Reg go(typename V::Reg a, typename V::Reg b) {
    return V::not_(V::and_(a, b));
  }
};
struct FOr {
  template <class V>
  static typename V::Reg go(typename V::Reg a, typename V::Reg b) {
    return V::or_(a, b);
  }
};
struct FNor {
  template <class V>
  static typename V::Reg go(typename V::Reg a, typename V::Reg b) {
    return V::not_(V::or_(a, b));
  }
};
struct FXor {
  template <class V>
  static typename V::Reg go(typename V::Reg a, typename V::Reg b) {
    return V::xor_(a, b);
  }
};
struct FXnor {
  template <class V>
  static typename V::Reg go(typename V::Reg a, typename V::Reg b) {
    return V::not_(V::xor_(a, b));
  }
};

/// out[w] = F(a[w]) over W words: V-wide body, masked or scalar tail.
/// WordCount is either std::integral_constant (compile-time W, fully
/// unrolled) or std::size_t.
template <class V, class F, class WordCount>
inline void map1(const std::uint64_t* a, std::uint64_t* out, WordCount n_words) {
  const std::size_t W = n_words;
  std::size_t w = 0;
  for (; w + V::lanes <= W; w += V::lanes)
    V::store(out + w, F::template go<V>(V::load(a + w)));
  if constexpr (has_masked_tail<V>::value) {
    if (w < W) {
      const typename V::Mask m = V::tail_mask(W - w);
      V::mask_store(out + w, m, F::template go<V>(V::mask_load(m, a + w)));
    }
  } else {
    for (; w < W; ++w) out[w] = F::template go<ScalarVec>(a[w]);
  }
}

/// out[w] = F(a[w], b[w]) over W words.
template <class V, class F, class WordCount>
inline void map2(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                 WordCount n_words) {
  const std::size_t W = n_words;
  std::size_t w = 0;
  for (; w + V::lanes <= W; w += V::lanes)
    V::store(out + w, F::template go<V>(V::load(a + w), V::load(b + w)));
  if constexpr (has_masked_tail<V>::value) {
    if (w < W) {
      const typename V::Mask m = V::tail_mask(W - w);
      V::mask_store(out + w, m,
                    F::template go<V>(V::mask_load(m, a + w), V::mask_load(m, b + w)));
    }
  } else {
    for (; w < W; ++w) out[w] = F::template go<ScalarVec>(a[w], b[w]);
  }
}

/// N-ary reduction for the CSR ops: out = f0 FAcc f1 FAcc ... (then ~out when
/// Invert). Accumulates in place over the fanin list.
template <class V, class FAcc, bool Invert, class WordCount>
inline void reduce_n(const ProgramView& p, std::size_t k, const std::uint64_t* v,
                     std::uint64_t* out, WordCount n_words) {
  const std::size_t W = n_words;
  const std::uint32_t* f = p.nary_fanins + p.a[k];
  const std::uint32_t cnt = p.b[k];
  map1<V, FBuf>(v + std::size_t{f[0]} * W, out, n_words);
  for (std::uint32_t j = 1; j < cnt; ++j)
    map2<V, FAcc>(out, v + std::size_t{f[j]} * W, out, n_words);
  if constexpr (Invert) map1<V, FNot>(out, out, n_words);
}

/// Evaluates program entry k against the value buffer `v`, writing the W
/// result words to `out`. Aliasing `out` with v's slot for p.out[k] is fine
/// (a combinational gate never reads its own output) and is what the full
/// sweep does; resimulate passes separate scratch so it can compare old and
/// new words for its change cut-off.
template <class V, class WordCount>
inline void eval_op_impl(const ProgramView& p, std::size_t k, const std::uint64_t* v,
                         std::uint64_t* out, WordCount n_words) {
  const std::size_t W = n_words;
  const std::uint64_t* a = v + std::size_t{p.a[k]} * W;
  switch (p.op[k]) {
    case Op::Const0: {
      std::size_t w = 0;
      for (; w + V::lanes <= W; w += V::lanes) V::store(out + w, V::zero());
      if constexpr (has_masked_tail<V>::value) {
        if (w < W) V::mask_store(out + w, V::tail_mask(W - w), V::zero());
      } else {
        for (; w < W; ++w) out[w] = 0;
      }
      break;
    }
    case Op::Const1: {
      std::size_t w = 0;
      for (; w + V::lanes <= W; w += V::lanes) V::store(out + w, V::ones());
      if constexpr (has_masked_tail<V>::value) {
        if (w < W) V::mask_store(out + w, V::tail_mask(W - w), V::ones());
      } else {
        for (; w < W; ++w) out[w] = ~0ULL;
      }
      break;
    }
    case Op::Buf: map1<V, FBuf>(a, out, n_words); break;
    case Op::Not: map1<V, FNot>(a, out, n_words); break;
    case Op::And2: map2<V, FAnd>(a, v + std::size_t{p.b[k]} * W, out, n_words); break;
    case Op::Nand2: map2<V, FNand>(a, v + std::size_t{p.b[k]} * W, out, n_words); break;
    case Op::Or2: map2<V, FOr>(a, v + std::size_t{p.b[k]} * W, out, n_words); break;
    case Op::Nor2: map2<V, FNor>(a, v + std::size_t{p.b[k]} * W, out, n_words); break;
    case Op::Xor2: map2<V, FXor>(a, v + std::size_t{p.b[k]} * W, out, n_words); break;
    case Op::Xnor2: map2<V, FXnor>(a, v + std::size_t{p.b[k]} * W, out, n_words); break;
    case Op::AndN: reduce_n<V, FAnd, false>(p, k, v, out, n_words); break;
    case Op::NandN: reduce_n<V, FAnd, true>(p, k, v, out, n_words); break;
    case Op::OrN: reduce_n<V, FOr, false>(p, k, v, out, n_words); break;
    case Op::NorN: reduce_n<V, FOr, true>(p, k, v, out, n_words); break;
    case Op::XorN: reduce_n<V, FXor, false>(p, k, v, out, n_words); break;
    case Op::XnorN: reduce_n<V, FXor, true>(p, k, v, out, n_words); break;
  }
}

/// The full-program sweep: in-place evaluation in levelized program order.
template <class V, class WordCount>
inline void run_program_impl(const ProgramView& p, std::uint64_t* v,
                             WordCount n_words) {
  for (std::size_t k = 0; k < p.n_ops; ++k)
    eval_op_impl<V>(p, k, v, v + std::size_t{p.out[k]} * std::size_t{n_words},
                    n_words);
}

// Exported entry points, the targets of the KernelTable function pointers:
// run_program_entry dispatches the common sweep widths to compile-time
// variants (fully unrolled inner loops), everything else to the runtime-W
// path; eval_op_entry is compiled for one word per net.

template <std::size_t N>
using WC = std::integral_constant<std::size_t, N>;

template <class V>
void run_program_entry(const ProgramView& p, std::uint64_t* v, std::size_t n_words) {
  switch (n_words) {
    case 1: run_program_impl<V>(p, v, WC<1>{}); break;
    case 2: run_program_impl<V>(p, v, WC<2>{}); break;
    case 4: run_program_impl<V>(p, v, WC<4>{}); break;
    case 8: run_program_impl<V>(p, v, WC<8>{}); break;
    default: run_program_impl<V>(p, v, n_words); break;
  }
}

/// One op at one word per net: the evaluator behind resimulate's cone walk.
template <class V>
void eval_op_entry(const ProgramView& p, std::size_t k, const std::uint64_t* v,
                   std::uint64_t* out) {
  eval_op_impl<V>(p, k, v, out, WC<1>{});
}

}  // namespace
}  // namespace deterrent::sim::kernels
