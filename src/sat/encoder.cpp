#include "sat/encoder.hpp"

#include <functional>

#include "util/assert.hpp"

namespace deterrent::sat {

using netlist::GateType;
using netlist::NetId;

namespace {

/// Sink abstraction so one encoding routine feeds either a Solver or a Cnf.
/// `define` receives each gate's structure (null: not kept).
struct ClauseSink {
  std::function<Var()> new_var;
  std::function<void(std::span<const Lit>)> add;
  std::function<void(Var, GateKind, bool, std::span<const Var>)> define;
};

void encode_into(const netlist::Netlist& nl, ClauseSink& sink) {
  if (nl.is_sequential())
    throw Error(
        "encode_netlist requires a combinational netlist; apply make_full_scan "
        "to sequential designs first");

  // Nets own variables [0, net_count); create them all up front.
  for (NetId id = 0; id < nl.net_count(); ++id) {
    [[maybe_unused]] const Var v = sink.new_var();
    DETERRENT_ASSERT(v == id, "net variables must be dense from 0");
  }

  auto add = [&sink](std::initializer_list<Lit> lits) {
    sink.add(std::span<const Lit>(lits.begin(), lits.size()));
  };

  auto define = [&sink](Var y, GateKind kind, bool inverted, std::span<const Var> in) {
    if (sink.define) sink.define(y, kind, inverted, in);
  };

  // y <-> a XOR b, for pre-existing variables.
  auto encode_xor2 = [&](Var y, Var a, Var b) {
    const Var in[2] = {a, b};
    define(y, GateKind::Xor, false, in);
    add({mk_lit(y, true), mk_lit(a), mk_lit(b)});
    add({mk_lit(y, true), mk_lit(a, true), mk_lit(b, true)});
    add({mk_lit(y), mk_lit(a), mk_lit(b, true)});
    add({mk_lit(y), mk_lit(a, true), mk_lit(b)});
  };

  for (NetId id = 0; id < nl.net_count(); ++id) {
    const GateType type = nl.type(id);
    const auto fanins = nl.fanins(id);
    const Var y = id;
    switch (type) {
      case GateType::Input:
        break;  // free variable
      case GateType::Const0:
        add({mk_lit(y, true)});
        break;
      case GateType::Const1:
        add({mk_lit(y)});
        break;
      case GateType::Buf:
        define(y, GateKind::And, false, fanins);
        add({mk_lit(y, true), mk_lit(fanins[0])});
        add({mk_lit(y), mk_lit(fanins[0], true)});
        break;
      case GateType::Not:
        define(y, GateKind::And, true, fanins);
        add({mk_lit(y, true), mk_lit(fanins[0], true)});
        add({mk_lit(y), mk_lit(fanins[0])});
        break;
      case GateType::And:
      case GateType::Nand: {
        // z = AND(fanins); y = z (And) or y = ~z (Nand).
        const bool inv = type == GateType::Nand;
        define(y, GateKind::And, inv, fanins);
        std::vector<Lit> big;
        big.reserve(fanins.size() + 1);
        big.push_back(mk_lit(y, inv));  // And: y ∨ ¬a1 ∨ …  Nand: ¬y ∨ ¬a1 ∨ …
        for (const NetId a : fanins) {
          add({mk_lit(y, !inv), mk_lit(a)});  // And: ¬y ∨ a,  Nand: y ∨ a
          big.push_back(mk_lit(a, true));
        }
        sink.add(big);
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        const bool inv = type == GateType::Nor;
        define(y, GateKind::Or, inv, fanins);
        std::vector<Lit> big;
        big.reserve(fanins.size() + 1);
        big.push_back(mk_lit(y, inv ? false : true));  // Or: ¬y ∨ a1 ∨ …  Nor: y ∨ a1 ∨ …
        for (const NetId a : fanins) {
          add({mk_lit(y, inv), mk_lit(a, true)});  // Or: y∨¬a, Nor: ¬y∨¬a
          big.push_back(mk_lit(a));
        }
        sink.add(big);
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        const bool inv = type == GateType::Xnor;
        if (fanins.size() == 1) {
          // Degenerate arity: XOR(a) = a, XNOR(a) = ¬a.
          define(y, GateKind::And, inv, fanins);
          add({mk_lit(y, true), mk_lit(fanins[0], inv)});
          add({mk_lit(y), mk_lit(fanins[0], !inv)});
          break;
        }
        // Left-fold parity chain with auxiliary variables; the final stage
        // writes directly into y (inverted for XNOR).
        Var acc = fanins[0];
        for (std::size_t k = 1; k + 1 < fanins.size(); ++k) {
          const Var aux = sink.new_var();
          encode_xor2(aux, acc, fanins[k]);
          acc = aux;
        }
        const Var last = fanins[fanins.size() - 1];
        if (!inv) {
          encode_xor2(y, acc, last);
        } else {
          const Var in[2] = {acc, last};
          define(y, GateKind::Xor, true, in);
          // y <-> ~(acc ^ last)  ==  y <-> (acc ^ ~last)
          add({mk_lit(y, true), mk_lit(acc), mk_lit(last, true)});
          add({mk_lit(y, true), mk_lit(acc, true), mk_lit(last)});
          add({mk_lit(y), mk_lit(acc), mk_lit(last)});
          add({mk_lit(y), mk_lit(acc, true), mk_lit(last, true)});
        }
        break;
      }
      case GateType::Dff:
        DETERRENT_ASSERT(false, "unreachable: sequential netlists rejected above");
    }
  }
}

}  // namespace

void encode_netlist(const netlist::Netlist& netlist, Solver& solver) {
  ClauseSink sink{
      [&solver] { return solver.new_var(); },
      [&solver](std::span<const Lit> lits) { solver.add_clause(lits); },
      nullptr,
  };
  encode_into(netlist, sink);
}

void define_gates(const netlist::Netlist& netlist, Solver& solver) {
  // The same walk as encode_netlist numbers the auxiliaries the same way;
  // only the definitions are kept.
  Var next = 0;
  ClauseSink sink{
      [&next] { return next++; },
      [](std::span<const Lit>) {},
      [&solver](Var y, GateKind kind, bool inverted, std::span<const Var> in) {
        solver.define_gate(y, kind, inverted, in);
      },
  };
  encode_into(netlist, sink);
  DETERRENT_ASSERT(next == solver.var_count(), "define_gates needs the netlist's encoding");
}

Cnf encode_netlist_cnf(const netlist::Netlist& netlist) {
  Cnf cnf;
  ClauseSink sink{
      [&cnf] { return static_cast<Var>(cnf.var_count++); },
      [&cnf](std::span<const Lit> lits) {
        cnf.clauses.emplace_back(lits.begin(), lits.end());
      },
      nullptr,
  };
  encode_into(netlist, sink);
  return cnf;
}

}  // namespace deterrent::sat
