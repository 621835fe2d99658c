#include "bench_gen/mips16.hpp"

#include <array>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace deterrent::bench_gen {

using netlist::GateType;
using netlist::NetId;
using netlist::NetlistBuilder;

namespace {

constexpr unsigned kWord = 16;  // datapath width
constexpr unsigned kRegs = 16;  // register count (R0 == 0)

using Word = std::array<NetId, kWord>;

/// Thin structural-composition helper over NetlistBuilder.
struct Kit {
  NetlistBuilder& b;
  NetId const0;
  NetId const1;

  NetId land(NetId x, NetId y) { return b.add_gate(GateType::And, {x, y}); }
  NetId lor(NetId x, NetId y) { return b.add_gate(GateType::Or, {x, y}); }
  NetId lxor(NetId x, NetId y) { return b.add_gate(GateType::Xor, {x, y}); }
  NetId lnot(NetId x) { return b.add_gate(GateType::Not, {x}); }
  NetId lnor(NetId x, NetId y) { return b.add_gate(GateType::Nor, {x, y}); }

  NetId and_all(std::vector<NetId> xs) {
    DETERRENT_ASSERT(!xs.empty(), "and_all on empty");
    return xs.size() == 1 ? xs[0] : b.add_gate(GateType::And, std::move(xs));
  }
  NetId or_all(std::vector<NetId> xs) {
    DETERRENT_ASSERT(!xs.empty(), "or_all on empty");
    return xs.size() == 1 ? xs[0] : b.add_gate(GateType::Or, std::move(xs));
  }

  /// sel ? t : f
  NetId mux2(NetId sel, NetId t, NetId f) {
    const NetId a1 = land(sel, t);
    const NetId a0 = land(lnot(sel), f);
    return lor(a1, a0);
  }

  Word mux2w(NetId sel, const Word& t, const Word& f) {
    Word out;
    for (unsigned i = 0; i < kWord; ++i) out[i] = mux2(sel, t[i], f[i]);
    return out;
  }

  /// Ripple-carry a + b + cin; cout optionally exposed.
  Word add(const Word& x, const Word& y, NetId cin, NetId* cout = nullptr) {
    Word sum;
    NetId carry = cin;
    for (unsigned i = 0; i < kWord; ++i) {
      const NetId xy = lxor(x[i], y[i]);
      sum[i] = lxor(xy, carry);
      const NetId c1 = land(x[i], y[i]);
      const NetId c2 = land(xy, carry);
      carry = lor(c1, c2);
    }
    if (cout != nullptr) *cout = carry;
    return sum;
  }

  /// One-hot n-bit equality decode of a 4-bit field against constant k.
  NetId decode4(const std::array<NetId, 4>& bits, const std::array<NetId, 4>& nbits,
                unsigned k) {
    std::vector<NetId> terms;
    terms.reserve(4);
    for (unsigned i = 0; i < 4; ++i)
      terms.push_back(((k >> i) & 1u) ? bits[i] : nbits[i]);
    return and_all(std::move(terms));
  }
};

}  // namespace

netlist::Netlist generate_mips16(const Mips16Config& config) {
  NetlistBuilder b;

  // ---- primary inputs -------------------------------------------------------
  Word instr;
  Word mem_rdata;
  for (unsigned i = 0; i < kWord; ++i) instr[i] = b.add_input("instr" + std::to_string(i));
  for (unsigned i = 0; i < kWord; ++i)
    mem_rdata[i] = b.add_input("mem_rdata" + std::to_string(i));

  Kit kit{b, b.add_const(false, "const0"), b.add_const(true, "const1")};

  // ---- architectural state (DFFs; data inputs bound at the end) -------------
  Word pc;
  for (unsigned i = 0; i < kWord; ++i)
    pc[i] = b.add_dff(netlist::kNoNet, "pc" + std::to_string(i));

  std::array<Word, kRegs> regs;
  for (unsigned r = 1; r < kRegs; ++r)
    for (unsigned i = 0; i < kWord; ++i)
      regs[r][i] = b.add_dff(netlist::kNoNet, std::string("r")
                                                  .append(std::to_string(r))
                                                  .append("_")
                                                  .append(std::to_string(i)));
  for (unsigned i = 0; i < kWord; ++i) regs[0][i] = kit.const0;  // R0 == 0

  Word hi;
  Word lo;
  if (config.include_multiplier) {
    for (unsigned i = 0; i < kWord; ++i) {
      hi[i] = b.add_dff(netlist::kNoNet, "hi" + std::to_string(i));
      lo[i] = b.add_dff(netlist::kNoNet, "lo" + std::to_string(i));
    }
  } else {
    hi.fill(kit.const0);
    lo.fill(kit.const0);
  }

  // ---- instruction fields and opcode decode ---------------------------------
  Word ninstr;
  for (unsigned i = 0; i < kWord; ++i) ninstr[i] = kit.lnot(instr[i]);
  const std::array<NetId, 4> op{instr[12], instr[13], instr[14], instr[15]};
  const std::array<NetId, 4> nop{ninstr[12], ninstr[13], ninstr[14], ninstr[15]};
  const std::array<NetId, 4> rs{instr[8], instr[9], instr[10], instr[11]};
  const std::array<NetId, 4> nrs{ninstr[8], ninstr[9], ninstr[10], ninstr[11]};
  const std::array<NetId, 4> rt{instr[4], instr[5], instr[6], instr[7]};
  const std::array<NetId, 4> nrt{ninstr[4], ninstr[5], ninstr[6], ninstr[7]};
  const std::array<NetId, 4> rd{instr[0], instr[1], instr[2], instr[3]};
  const std::array<NetId, 4> nrd{ninstr[0], ninstr[1], ninstr[2], ninstr[3]};

  enum Ops {
    kAdd = 0, kSub, kAnd, kOr, kXor, kNor, kSlt, kSll,
    kSrl, kMul, kLw, kSw, kBeq, kAddi, kJmp, kMflo,
  };
  std::array<NetId, 16> is_op;
  for (unsigned k = 0; k < 16; ++k) is_op[k] = kit.decode4(op, nop, k);

  // ---- register file read ports ---------------------------------------------
  auto read_port = [&](const std::array<NetId, 4>& field,
                       const std::array<NetId, 4>& nfield) {
    std::array<NetId, kRegs> sel;
    for (unsigned r = 0; r < kRegs; ++r) sel[r] = kit.decode4(field, nfield, r);
    Word value;
    for (unsigned i = 0; i < kWord; ++i) {
      std::vector<NetId> terms;
      terms.reserve(kRegs - 1);
      for (unsigned r = 1; r < kRegs; ++r)  // R0 contributes nothing
        terms.push_back(kit.land(sel[r], regs[r][i]));
      value[i] = kit.or_all(std::move(terms));
    }
    return std::pair(value, sel);
  };
  const auto [rs_val, rs_sel] = read_port(rs, nrs);
  const auto [rt_val, rt_sel] = read_port(rt, nrt);
  (void)rs_sel;
  (void)rt_sel;

  // ---- immediate handling ----------------------------------------------------
  // imm4 = rd field, sign-extended to 16 bits.
  Word imm;
  for (unsigned i = 0; i < 4; ++i) imm[i] = rd[i];
  for (unsigned i = 4; i < kWord; ++i) imm[i] = rd[3];

  const NetId use_imm = kit.or_all({is_op[kAddi], is_op[kLw], is_op[kSw]});
  const Word alu_b = kit.mux2w(use_imm, imm, rt_val);

  // ---- ALU -------------------------------------------------------------------
  const NetId do_sub =
      kit.or_all({is_op[kSub], is_op[kSlt], is_op[kBeq]});
  Word b_eff;
  for (unsigned i = 0; i < kWord; ++i)
    b_eff[i] = kit.lxor(alu_b[i], do_sub);
  NetId add_cout = netlist::kNoNet;
  const Word sum = kit.add(rs_val, b_eff, do_sub, &add_cout);

  Word and_w, or_w, xor_w, nor_w;
  for (unsigned i = 0; i < kWord; ++i) {
    and_w[i] = kit.land(rs_val[i], alu_b[i]);
    or_w[i] = kit.lor(rs_val[i], alu_b[i]);
    xor_w[i] = kit.lxor(rs_val[i], alu_b[i]);
    nor_w[i] = kit.lnor(rs_val[i], alu_b[i]);
  }
  Word slt_w;
  slt_w.fill(kit.const0);
  slt_w[0] = sum[kWord - 1];  // sign of rs - rt (overflow ignored, as in teaching cores)

  // ---- barrel shifter ---------------------------------------------------------
  Word sll_w = rt_val;
  Word srl_w = rt_val;
  if (config.include_shifter) {
    for (unsigned stage = 0; stage < 4; ++stage) {
      const unsigned amount = 1u << stage;
      const NetId s = rd[stage];  // shift amount = imm4
      Word next_l, next_r;
      for (unsigned i = 0; i < kWord; ++i) {
        const NetId from_l = i >= amount ? sll_w[i - amount] : kit.const0;
        next_l[i] = kit.mux2(s, from_l, sll_w[i]);
        const NetId from_r = i + amount < kWord ? srl_w[i + amount] : kit.const0;
        next_r[i] = kit.mux2(s, from_r, srl_w[i]);
      }
      sll_w = next_l;
      srl_w = next_r;
    }
  }

  // ---- multiplier (full 32-bit array; lower half → LO, upper → HI) -----------
  Word mul_lo = lo;
  Word mul_hi = hi;
  if (config.include_multiplier) {
    std::vector<NetId> acc(2 * kWord, netlist::kNoNet);
    for (unsigned i = 0; i < kWord; ++i) {
      NetId carry = netlist::kNoNet;
      for (unsigned j = 0; j < kWord; ++j) {
        const unsigned pos = i + j;
        const NetId pp = kit.land(rs_val[j], rt_val[i]);
        if (acc[pos] == netlist::kNoNet && carry == netlist::kNoNet) {
          acc[pos] = pp;
        } else if (acc[pos] != netlist::kNoNet && carry != netlist::kNoNet) {
          const NetId t = kit.lxor(pp, acc[pos]);
          const NetId s2 = kit.lxor(t, carry);
          carry = kit.lor(kit.land(pp, acc[pos]), kit.land(t, carry));
          acc[pos] = s2;
        } else {
          const NetId other = acc[pos] != netlist::kNoNet ? acc[pos] : carry;
          const NetId s2 = kit.lxor(pp, other);
          carry = kit.land(pp, other);
          acc[pos] = s2;
        }
      }
      for (unsigned pos = i + kWord; carry != netlist::kNoNet && pos < 2 * kWord;
           ++pos) {
        if (acc[pos] == netlist::kNoNet) {
          acc[pos] = carry;
          carry = netlist::kNoNet;
        } else {
          const NetId s2 = kit.lxor(acc[pos], carry);
          carry = kit.land(acc[pos], carry);
          acc[pos] = s2;
        }
      }
    }
    for (unsigned i = 0; i < kWord; ++i) {
      mul_lo[i] = acc[i] != netlist::kNoNet ? acc[i] : kit.const0;
      mul_hi[i] = acc[kWord + i] != netlist::kNoNet ? acc[kWord + i] : kit.const0;
    }
  }

  // ---- write-back result mux (one-hot AND-OR) ---------------------------------
  const NetId sel_sum = kit.or_all({is_op[kAdd], is_op[kSub], is_op[kAddi]});
  Word wb;
  for (unsigned i = 0; i < kWord; ++i) {
    std::vector<NetId> terms{
        kit.land(sel_sum, sum[i]),         kit.land(is_op[kAnd], and_w[i]),
        kit.land(is_op[kOr], or_w[i]),     kit.land(is_op[kXor], xor_w[i]),
        kit.land(is_op[kNor], nor_w[i]),   kit.land(is_op[kSlt], slt_w[i]),
        kit.land(is_op[kSll], sll_w[i]),   kit.land(is_op[kSrl], srl_w[i]),
        kit.land(is_op[kMul], mul_lo[i]),  kit.land(is_op[kLw], mem_rdata[i]),
        kit.land(is_op[kMflo], lo[i]),
    };
    wb[i] = kit.or_all(std::move(terms));
  }

  const NetId reg_write = kit.or_all({sel_sum, is_op[kAnd], is_op[kOr], is_op[kXor],
                                      is_op[kNor], is_op[kSlt], is_op[kSll],
                                      is_op[kSrl], is_op[kMul], is_op[kLw],
                                      is_op[kMflo]});

  // ---- register file write port ------------------------------------------------
  for (unsigned r = 1; r < kRegs; ++r) {
    const NetId wsel = kit.land(kit.decode4(rd, nrd, r), reg_write);
    for (unsigned i = 0; i < kWord; ++i)
      b.set_dff_input(regs[r][i], kit.mux2(wsel, wb[i], regs[r][i]));
  }
  if (config.include_multiplier) {
    for (unsigned i = 0; i < kWord; ++i) {
      b.set_dff_input(lo[i], kit.mux2(is_op[kMul], mul_lo[i], lo[i]));
      b.set_dff_input(hi[i], kit.mux2(is_op[kMul], mul_hi[i], hi[i]));
    }
  }

  // ---- branch / jump / next PC ---------------------------------------------------
  // equal = NOR of all rs^rt bits.
  std::vector<NetId> diff(kWord);
  for (unsigned i = 0; i < kWord; ++i) diff[i] = kit.lxor(rs_val[i], rt_val[i]);
  const NetId any_diff = kit.or_all(diff);
  const NetId equal = kit.lnot(any_diff);
  const NetId take_branch = kit.land(is_op[kBeq], equal);

  Word one;
  one.fill(kit.const0);
  one[0] = kit.const1;
  const Word pc_plus1 = kit.add(pc, one, kit.const0);
  const Word branch_tgt = kit.add(pc_plus1, imm, kit.const0);
  Word jump_tgt;  // {pc[15:12], instr[11:0]}
  for (unsigned i = 0; i < 12; ++i) jump_tgt[i] = instr[i];
  for (unsigned i = 12; i < kWord; ++i) jump_tgt[i] = pc[i];

  const NetId sel_seq = kit.lnor(take_branch, is_op[kJmp]);
  for (unsigned i = 0; i < kWord; ++i) {
    const NetId n = kit.or_all({kit.land(sel_seq, pc_plus1[i]),
                                kit.land(take_branch, branch_tgt[i]),
                                kit.land(is_op[kJmp], jump_tgt[i])});
    b.set_dff_input(pc[i], n);
  }

  // ---- memory interface / primary outputs ---------------------------------------
  for (unsigned i = 0; i < kWord; ++i) b.mark_output(sum[i]);      // mem_addr
  for (unsigned i = 0; i < kWord; ++i) b.mark_output(rt_val[i]);   // mem_wdata
  b.mark_output(is_op[kSw]);                                       // mem_write
  b.mark_output(take_branch);
  for (unsigned i = 0; i < kWord; ++i) b.mark_output(wb[i]);       // result bus

  return b.build();
}

}  // namespace deterrent::bench_gen
