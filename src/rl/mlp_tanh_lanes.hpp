#pragma once

#include <cstdint>

// tanhf_fdlibm (mlp_kernels.cpp) as a branch-free lane program, generic over
// a vector traits type V that the wide backend TUs define. Included ONLY by
// those TUs, and kept in an anonymous namespace for the reason
// sim/kernels/kernels_impl.hpp gives: each instantiation is compiled with its
// TU's ISA flags and must not be merged with another TU's by the linker.
//
// V provides float vectors F, int32 vectors I and lane masks M, and:
//   setf, seti                  broadcast a constant
//   bits, flt                   reinterpret F as I and back
//   add, sub, mul, div          single IEEE operations on F, never fused
//   and_i, xor_i, add_i, sub_i  bitwise / wrapping int32 arithmetic on I
//   shl23, srlv                 v << 23, and per-lane v >> n (0 when n > 31)
//   cvtt, cvt                   float → int32 (truncating), int32 → float
//   gt, eq, and_m               signed int32 compares, mask AND
//   pick(a, m, b), pick_i       per lane: m ? b : a

namespace deterrent::rl::kernels {
namespace {

/// Every branch that tanhf_fdlibm's arguments can reach is computed on all
/// lanes, with the scalar port's float operations in the scalar port's
/// order, and each lane keeps its own branch's result. The lanes work on
/// a = |x| and restore the sign last, which is the port's final
/// `jx >= 0 ? z : -z`.
template <class V>
typename V::F tanh_lanes(typename V::F x) {
  using F = typename V::F;
  using I = typename V::I;
  using M = typename V::M;
  const auto lt = [](I v, std::int32_t c) { return V::gt(V::seti(c), v); };
  const auto ge = [](I v, std::int32_t c) { return V::gt(v, V::seti(c - 1)); };
  const I sign = V::seti(INT32_MIN);
  const auto neg = [&sign](F v) { return V::flt(V::xor_i(V::bits(v), sign)); };
  const F one = V::setf(1.0f);
  const F two = V::setf(2.0f);
  const F half = V::setf(0.5f);

  const I xi = V::bits(x);
  const I ix = V::and_i(xi, V::seti(0x7fffffff));
  const F a = V::flt(ix);

  // expm1f's argument u: 2|x| when |x| >= 1, else -2|x| (negating is exact).
  const M small = lt(ix, 0x3f800000);
  const F two_a = V::mul(two, a);
  const F u = V::pick(two_a, small, neg(two_a));
  const I hu = V::bits(two_a);  // |u|'s bits

  // expm1f's reduction with the lane's k: 0 for |u| <= 0.5·ln2, -1 below
  // 1.5·ln2 (u < 0 there), else trunc(invln2·u ± 0.5). With k = 0 or -1 the
  // general formulas give exactly the port's branch values of hi and lo
  // (k·ln2_hi is ±ln2_hi or +0, and u − (+0) = u).
  I k = V::cvtt(V::add(V::mul(V::setf(1.4426950216e+00f), u),
                       V::pick(half, small, neg(half))));
  k = V::pick_i(k, lt(hu, 0x3f851592), V::seti(-1));
  k = V::pick_i(k, lt(hu, 0x3eb17219), V::seti(0));
  const F kf = V::cvt(k);
  const F hi = V::sub(u, V::mul(kf, V::setf(6.9313812256e-01f)));
  const F lo = V::mul(kf, V::setf(9.0580006145e-06f));
  const F r = V::sub(hi, lo);
  const F c = V::sub(V::sub(hi, r), lo);

  // The primary-range polynomial, shared by every k.
  const F hfx = V::mul(half, r);
  const F hxs = V::mul(r, hfx);
  F p = V::mul(hxs, V::setf(-2.0109921195e-07f));
  p = V::mul(hxs, V::add(V::setf(4.0082177293e-06f), p));
  p = V::mul(hxs, V::add(V::setf(-7.9365076090e-05f), p));
  p = V::mul(hxs, V::add(V::setf(1.5873016091e-03f), p));
  p = V::mul(hxs, V::add(V::setf(-3.3333335072e-02f), p));
  const F r1 = V::add(one, p);
  const F t = V::sub(V::setf(3.0f), V::mul(r1, hfx));
  const F e = V::mul(hxs, V::div(V::sub(r1, t), V::sub(V::setf(6.0f), V::mul(r, t))));

  // One result per branch, each with k added to its exponent where the port
  // does; the masks pick a lane's own.
  const F ek = V::sub(V::sub(V::mul(r, V::sub(e, c)), c), hxs);
  const F e_minus_r = V::sub(ek, r);
  const I k23 = V::shl23(k);
  const auto scale = [&k23](F y) { return V::flt(V::add_i(V::bits(y), k23)); };
  // k <= -2 or k > 56.
  F em1 = V::sub(scale(V::sub(one, e_minus_r)), one);
  // 2 <= k < 23: t = 1 − 2^-k.
  const F t_lo = V::flt(V::sub_i(V::seti(0x3f800000), V::srlv(V::seti(0x1000000), k)));
  em1 = V::pick(em1, V::and_m(ge(k, 2), lt(k, 23)), scale(V::sub(t_lo, e_minus_r)));
  // 23 <= k <= 56: t = 2^-k.
  const F t_hi = V::flt(V::shl23(V::sub_i(V::seti(0x7f), k)));
  em1 = V::pick(em1, V::and_m(ge(k, 23), lt(k, 57)),
                scale(V::add(V::sub(r, V::add(ek, t_hi)), one)));
  // k = -1.
  em1 = V::pick(em1, V::eq(k, V::seti(-1)), V::sub(V::mul(half, V::sub(r, ek)), half));
  // k = 0, then |u| < 2^-25, where expm1f returns u − ((huge + u) − huge) = u.
  em1 = V::pick(em1, V::eq(k, V::seti(0)), V::sub(r, V::sub(V::mul(r, e), hxs)));
  em1 = V::pick(em1, lt(hu, 0x33000000), u);

  // tanh: 1 − 2/(t + 2) when |x| >= 1, else −t/(t + 2).
  const F q = V::div(V::pick(two, small, neg(em1)), V::add(em1, two));
  F z = V::pick(V::sub(one, q), small, q);
  // |x| < 2^-55, where x·(1 + x) = x; |x| >= 22 and ±inf give 1; NaN lanes
  // give the quieted NaN that 1/x ± 1 returns.
  z = V::pick(z, lt(ix, 0x24000000), a);
  z = V::pick(z, ge(ix, 0x41b00000), one);
  z = V::pick(z, V::gt(ix, V::seti(0x7f800000)), V::add(a, a));
  return V::flt(V::xor_i(V::bits(z), V::and_i(xi, sign)));
}

}  // namespace
}  // namespace deterrent::rl::kernels
