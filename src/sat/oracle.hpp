#pragma once

#include <optional>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "sim/pattern.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace deterrent::sat {

/// A value requirement on a net: "net must evaluate to value". A set of rare
/// nets at their rare values is expressed as one Constraint per net.
struct Constraint {
  netlist::NetId net;
  bool value;

  bool operator==(const Constraint&) const = default;
};

/// Answer of NetlistOracle::justify(). A Candidate is an input pattern that
/// the solver says meets every constraint, not yet a proof: callers that
/// rely on it simulate it first.
struct Justification {
  enum class Verdict { Unsat, Unknown, Candidate };
  Verdict verdict = Verdict::Unknown;
  sim::Pattern candidate;  ///< Candidate only; ordered as Netlist::inputs()
};

/// Incremental SAT front-end over one netlist.
///
/// Encodes the netlist once and answers many conjunction queries via
/// assumptions, accumulating learnt clauses across queries — this is what
/// makes the paper's offline pairwise phase and per-step compatibility checks
/// affordable (§3.3, §5 "Feasibility of using a SAT solver").
///
/// Thread-compatibility: an oracle is NOT thread-safe; create one per thread
/// (the compatibility-matrix builder does exactly that).
class NetlistOracle {
 public:
  explicit NetlistOracle(const netlist::Netlist& netlist);

  const netlist::Netlist& target() const { return *netlist_; }

  /// Makes the solver branch on the primary inputs only. Every other net is
  /// a gate output (or an XOR chain auxiliary) that propagation fixes once
  /// the inputs are set, so every verdict is unchanged, and a Sat answer
  /// pays no heap upkeep for the internal nets. Sat models change, so
  /// callers whose models reach an artifact keep full branching.
  void branch_on_inputs();

  /// Can all constraints hold simultaneously? `conflict_budget` bounds solver
  /// effort (<0 = unlimited); an exhausted budget reports as incompatible via
  /// Unknown → nullopt in try_satisfiable and false in satisfiable.
  bool satisfiable(std::span<const Constraint> constraints,
                   std::int64_t conflict_budget = -1);

  /// Tri-state variant: nullopt when the conflict budget ran out.
  std::optional<bool> try_satisfiable(std::span<const Constraint> constraints,
                                      std::int64_t conflict_budget);

  /// try_satisfiable for a run of queries that share constraint prefixes,
  /// such as "a prefix of the set" or "the kept members + one candidate".
  /// Same answer, but the constraints stay assumed on the solver trail
  /// (Solver::solve_retaining), so the next try_extend re-propagates only
  /// what it does not share with this one. Any other query drops them.
  std::optional<bool> try_extend(std::span<const Constraint> constraints,
                                 std::int64_t conflict_budget);

  /// try_satisfiable by justification (Solver::solve_justified): the solver
  /// decides only inputs that justify the constraints and stops once they
  /// are all justified. A Sat answer comes back as a candidate pattern, the
  /// inputs the search assigned plus the solver's saved phases for the rest;
  /// the constraints hold under every such completion. Unsat and Unknown
  /// (an exhausted `conflict_budget`) mean what they mean for
  /// try_satisfiable. The candidate is a partial model's completion, so
  /// model_satisfies() and input_model() must not be read until the next
  /// try_satisfiable, try_extend or find_pattern answers Sat.
  Justification justify(std::span<const Constraint> constraints,
                        std::int64_t conflict_budget);

  /// True when the last Sat model drives `c.net` to `c.value`; false before
  /// the first Sat answer. A model that meets every constraint of a set is
  /// a constructive proof that the set is jointly satisfiable. That model
  /// must be total, from any query but justify().
  bool model_satisfies(const Constraint& c) const {
    DETERRENT_ASSERT(!solver_.has_model() || solver_.model_total(),
                     "model_satisfies reads a partial model of justify()");
    return solver_.has_model() && solver_.model_value(c.net) == c.value;
  }

  /// Finds an input pattern forcing all constraints, or nullopt if UNSAT.
  /// Don't-care inputs take the solver's current phase; call
  /// randomize_completion() between queries to diversify them.
  std::optional<sim::Pattern> find_pattern(std::span<const Constraint> constraints);

  /// Primary-input assignment of the last Sat answer, ordered as
  /// Netlist::inputs() (the read find_pattern returns); only meaningful
  /// directly after a query other than justify() that answered Sat.
  sim::Pattern input_model() const;

  /// Randomizes the solver's phase choices so subsequent find_pattern calls
  /// fill unconstrained inputs differently.
  void randomize_completion(util::Rng& rng) { solver_.randomize_phases(rng); }

  std::uint64_t query_count() const { return solver_.stats().solves; }

 private:
  std::vector<Lit> to_assumptions(std::span<const Constraint> constraints) const;
  std::optional<bool> query(std::span<const Constraint> constraints,
                            std::int64_t conflict_budget, bool retain);

  const netlist::Netlist* netlist_;
  Solver solver_;
  bool gates_defined_ = false;  // the first justify() hands the solver its gates
};

}  // namespace deterrent::sat
