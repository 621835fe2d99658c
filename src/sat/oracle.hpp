#pragma once

#include <optional>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "sim/pattern.hpp"
#include "util/rng.hpp"

namespace deterrent::sat {

/// A value requirement on a net: "net must evaluate to value". A set of rare
/// nets at their rare values is expressed as one Constraint per net.
struct Constraint {
  netlist::NetId net;
  bool value;

  bool operator==(const Constraint&) const = default;
};

/// Inprocessing policy for a NetlistOracle.
struct OracleConfig {
  /// Run Solver::inprocess between query batches. Off by default: the
  /// single-query users (environment step checks) prefer the untouched,
  /// bit-reproducible solver; batch users (compatibility builder, bench)
  /// opt in.
  bool inprocess = false;
  /// Queries between inprocessing passes. The first pass runs before the
  /// first query, so a freshly-encoded netlist is simplified up front.
  std::uint64_t inprocess_interval = 256;
  Solver::InprocessConfig passes;
};

/// Incremental SAT front-end over one netlist.
///
/// Encodes the netlist once and answers many conjunction queries via
/// assumptions, accumulating learnt clauses across queries — this is what
/// makes the paper's offline pairwise phase and per-step compatibility checks
/// affordable (§3.3, §5 "Feasibility of using a SAT solver").
///
/// With config.inprocess on, the solver periodically simplifies its clause
/// database. All net variables start frozen (any net may be constrained);
/// declare_query_nets() narrows the frozen set to the nets that will actually
/// be queried plus the primary inputs, giving the simplifier real room.
///
/// Thread-compatibility: an oracle is NOT thread-safe; create one per thread
/// (the compatibility-matrix builder does exactly that).
class NetlistOracle {
 public:
  explicit NetlistOracle(const netlist::Netlist& netlist, OracleConfig config = {});

  const netlist::Netlist& target() const { return *netlist_; }

  /// Restricts future constraints to `nets` (plus the primary inputs): every
  /// other net variable is unfrozen and becomes fair game for elimination.
  /// Constraining an undeclared net afterwards throws deterrent::Error once
  /// inprocessing has removed it.
  void declare_query_nets(std::span<const netlist::NetId> nets);

  /// Forces an inprocessing pass now (normally they run on the
  /// config-declared cadence). Returns false when the formula is UNSAT.
  bool inprocess_now();

  /// Can all constraints hold simultaneously? `conflict_budget` bounds solver
  /// effort (<0 = unlimited); an exhausted budget reports as incompatible via
  /// Unknown → nullopt in try_satisfiable and false in satisfiable.
  bool satisfiable(std::span<const Constraint> constraints,
                   std::int64_t conflict_budget = -1);

  /// Tri-state variant: nullopt when the conflict budget ran out.
  std::optional<bool> try_satisfiable(std::span<const Constraint> constraints,
                                      std::int64_t conflict_budget);

  /// Finds an input pattern forcing all constraints, or nullopt if UNSAT.
  /// Don't-care inputs take the solver's current phase; call
  /// randomize_completion() between queries to diversify them.
  std::optional<sim::Pattern> find_pattern(std::span<const Constraint> constraints);

  /// Primary-input assignment of the last Sat answer, ordered as
  /// Netlist::inputs(). Inputs are always frozen, so this is the exact model
  /// the solver found (the read find_pattern returns); only meaningful
  /// directly after a query that answered Sat.
  sim::Pattern input_model() const;

  /// Randomizes the solver's phase choices so subsequent find_pattern calls
  /// fill unconstrained inputs differently.
  void randomize_completion(util::Rng& rng) { solver_.randomize_phases(rng); }

  std::uint64_t query_count() const { return solver_.stats().solves; }
  const Solver::Stats& solver_stats() const { return solver_.stats(); }

  /// Direct solver access for tests and the portfolio bench.
  Solver& solver() { return solver_; }

 private:
  std::vector<Lit> to_assumptions(std::span<const Constraint> constraints) const;
  void maybe_inprocess();

  const netlist::Netlist* netlist_;
  OracleConfig config_;
  std::uint64_t next_inprocess_ = 0;
  Solver solver_;
};

}  // namespace deterrent::sat
