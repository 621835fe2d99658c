#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "sat/types.hpp"

namespace deterrent::sat {

/// A CNF formula in memory: variable count plus clause list.
struct Cnf {
  std::size_t var_count = 0;
  std::vector<Clause> clauses;
};

/// Tseitin-encodes a combinational netlist into a solver.
///
/// Variable i corresponds to net i for i in [0, net_count); auxiliary
/// variables for n-ary XOR/XNOR decomposition are allocated above that range.
/// Primary inputs become free variables, so any model restricted to the input
/// variables is a concrete test pattern.
///
/// Sequential netlists are rejected — apply netlist::make_full_scan first,
/// mirroring the paper's full-scan assumption (§4.1); the scan view keeps net
/// ids stable so constraints transfer unchanged.
void encode_netlist(const netlist::Netlist& netlist, Solver& solver);

/// Defines every gate variable of that encoding in `solver`, XOR-chain
/// auxiliaries included (Solver::define_gate), for Solver::solve_justified.
/// `solver` must hold exactly encode_netlist(netlist, ·)'s variables.
void define_gates(const netlist::Netlist& netlist, Solver& solver);

/// Same encoding, but into a standalone CNF container (for differential
/// testing of the encoder against logic simulation).
Cnf encode_netlist_cnf(const netlist::Netlist& netlist);

}  // namespace deterrent::sat
