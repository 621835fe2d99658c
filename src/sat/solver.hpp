#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sat/types.hpp"
#include "util/rng.hpp"

namespace deterrent::sat {

/// Conflict-driven clause-learning SAT solver.
///
/// A from-scratch MiniSat-style engine standing in for the pycosat/PicoSAT
/// solver the paper uses (§4.1): two-literal watching, EVSIDS branching with
/// phase saving, first-UIP learning with local minimization, LBD-aware
/// learnt-clause reduction with arena compaction, Luby restarts, and an
/// assumptions interface for incremental queries. The compatibility oracle
/// keeps one Solver per netlist and issues thousands of assumption-based
/// solves against it, accumulating learnt clauses across queries.
class Solver {
 public:
  enum class Result { Sat, Unsat, Unknown };

  struct Stats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learnt_clauses = 0;
    std::uint64_t solves = 0;
  };

  Solver();

  /// Creates a fresh unassigned variable. It is a decision variable, also
  /// after set_decision_vars().
  Var new_var();

  /// Guarantees variables [0, n) exist.
  void ensure_vars(std::size_t n);

  std::size_t var_count() const { return assigns_.size(); }

  /// Restricts branching to the variables whose mask bit is set, MiniSat's
  /// decision-variable flag; `mask` must hold var_count() bits, or this
  /// throws deterrent::Error. Every other variable must be fixed by
  /// propagation once the decision variables are assigned (the inputs of a
  /// combinational encoding are such a set): search() asserts that a Sat
  /// answer assigned every variable. Verdicts stay the same; models may not.
  void set_decision_vars(const std::vector<bool>& mask);

  /// Records that variable `y` is the gate `kind` over `fanins` (inverted:
  /// Nand, Nor, Not or Xnor), which the clauses must already encode. Only
  /// solve_justified() reads the definitions; a variable never defined is
  /// Free. Throws deterrent::Error on an unknown variable.
  void define_gate(Var y, GateKind kind, bool inverted, std::span<const Var> fanins);

  /// Adds a clause (empty span ⇒ immediate UNSAT). Returns false when the
  /// formula is already unsatisfiable at root level.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Solves under the given assumptions. `conflict_budget < 0` means no limit;
  /// otherwise the solver gives up with Result::Unknown after that many
  /// conflicts (used to bound pathological compatibility queries).
  Result solve(std::span<const Lit> assumptions = {}, std::int64_t conflict_budget = -1);

  /// solve() for a run of queries whose assumption lists share prefixes. The
  /// answer is the same, but after Sat or Unsat the assumption decision
  /// levels stay on the trail (retained()), and the next call cancels only
  /// back to the longest common prefix with them, so a query that adds one
  /// literal to the previous one re-propagates just that literal. Unknown,
  /// a throw, add_clause(), solve() and randomize_phases() drop the
  /// retained levels first, so callers that never use this entry see
  /// exactly the plain solver.
  Result solve_retaining(std::span<const Lit> assumptions,
                         std::int64_t conflict_budget = -1);

  /// solve() by justification, for a clause database that is a circuit
  /// encoding whose gates are all defined (define_gate), plus learnt
  /// clauses. The search keeps the assumptions' justification closure: an
  /// assigned net is justified when its assigned fanins fix its value (AND
  /// = 0 with a fanin at 0, AND = 1 with every fanin at 1, XOR with every
  /// fanin assigned) or when it is fixed at root level, which every input
  /// pattern meets; justifying a net pulls the fanins that fix it into the
  /// closure. Each decision backtraces, PODEM style, from a closure net not
  /// yet justified to an unassigned Free variable and sets the value that
  /// moves it towards its objective, so only Free variables are decided. Sat
  /// is answered as soon as every closure net is justified, with a partial
  /// model: the Free variables it assigns fix every assumption, so any
  /// completion of the others meets them all. Unsat and Unknown mean what
  /// they mean for solve(); the same conflict budget applies.
  Result solve_justified(std::span<const Lit> assumptions,
                         std::int64_t conflict_budget = -1);

  /// Assumptions whose decision levels solve_retaining() left on the trail.
  std::span<const Lit> retained() const { return retained_; }

  /// Model access, valid after the last solve() returned Sat. A model of
  /// solve() or solve_retaining() is a total assignment satisfying every
  /// clause, so it stays a valid witness for the formula after later Unsat
  /// or Unknown answers. A model of solve_justified() is partial: the
  /// variables it leaves Undef read as false through model_value(), and
  /// model_total() is false.
  bool has_model() const { return !model_.empty(); }
  bool model_total() const { return model_total_; }
  bool model_value(Var v) const { return model_[v] == LBool::True; }
  LBool model_lbool(Var v) const { return model_[v]; }

  /// The value the next decision on `v` tries first: its saved phase. After
  /// a solve, the variables that solve assigned above root level save the
  /// value they had.
  bool phase_value(Var v) const { return polarity_[v] == 0; }

  /// After Unsat under assumptions: a subset of the assumptions that is
  /// already contradictory (the "failed assumptions" / unsat core).
  const std::vector<Lit>& conflict_core() const { return conflict_core_; }

  /// Randomizes saved phases; subsequent models differ across equivalent
  /// solves, which diversifies don't-care filling in generated test patterns.
  void randomize_phases(util::Rng& rng);

  /// False once the clause database is contradictory regardless of assumptions.
  bool okay() const { return ok_; }

  /// Cumulative counters since construction (monotone non-decreasing).
  const Stats& stats() const { return stats_; }

  /// Counters for the most recent solve() only (deltas; `solves` is 1).
  const Stats& last_solve_stats() const { return last_; }

 private:
  // --- clause arena ------------------------------------------------------
  using CRef = std::uint32_t;
  static constexpr CRef kCRefUndef = 0xffffffffu;

  // Layout per clause at offset c in arena_:
  //   arena_[c]   : header = (size << 2) | (dead << 1) | learnt
  //   arena_[c+1] : float activity (bit-cast)
  //   arena_[c+2] : LBD (learnt) / unused
  //   arena_[c+3 ...] : literals
  static constexpr std::uint32_t kHeaderWords = 3;

  std::uint32_t clause_size(CRef c) const { return arena_[c] >> 2; }
  bool clause_learnt(CRef c) const { return arena_[c] & 1u; }
  bool clause_dead(CRef c) const { return arena_[c] & 2u; }
  Lit* clause_lits(CRef c) { return reinterpret_cast<Lit*>(&arena_[c + kHeaderWords]); }
  const Lit* clause_lits(CRef c) const {
    return reinterpret_cast<const Lit*>(&arena_[c + kHeaderWords]);
  }
  float clause_activity(CRef c) const;
  void set_clause_activity(CRef c, float a);
  std::uint32_t clause_lbd(CRef c) const { return arena_[c + 2]; }
  void set_clause_lbd(CRef c, std::uint32_t lbd) { arena_[c + 2] = lbd; }

  CRef alloc_clause(std::span<const Lit> lits, bool learnt);
  void mark_dead(CRef c);
  void compact_arena();

  // --- assignment / trail -------------------------------------------------
  LBool value(Var v) const { return assigns_[v]; }
  LBool value(Lit p) const { return lit_value(assigns_[var_of(p)], p); }
  std::uint32_t decision_level() const {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }
  void new_decision_level() { trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size())); }
  void unchecked_enqueue(Lit p, CRef from);
  void cancel_until(std::uint32_t level);
  void drop_retained();

  // --- search -------------------------------------------------------------
  CRef propagate();
  void attach_clause(CRef c);
  void analyze(CRef confl, std::vector<Lit>& out_learnt, std::uint32_t& out_btlevel,
               std::uint32_t& out_lbd);
  bool literal_redundant(Lit p);
  void analyze_final(Lit p);
  Lit pick_branch_lit();
  /// solve_justified()'s decision: kUndefLit once the closure of
  /// `assumptions` is justified, otherwise a backtraced Free literal.
  Lit pick_justified_lit(std::span<const Lit> assumptions);
  /// PODEM backtrace from the objective "unassigned `v` takes `want`".
  Lit backtrace(Var v, bool want) const;
  void add_to_closure(Var v);
  /// Whether fanin `a` is a better way than `b` to reach `want`: first one
  /// whose saved phase already is `want`, so that consecutive answers keep
  /// their patterns alike, then the cheaper one to control.
  bool easier(Var a, Var b, bool want) const;
  void compute_controllability();
  /// The value fanin `a` of a parity over `in` needs for the parity to be
  /// `parity`, with the other unassigned fanins at their saved phase.
  bool parity_objective(std::span<const Var> in, Var a, bool parity) const;
  Result search(std::int64_t max_conflicts, std::span<const Lit> assumptions);
  /// The restart loop of solve()/solve_retaining(), from the current trail.
  Result run(std::span<const Lit> assumptions, std::int64_t conflict_budget, bool retain);
  void reduce_learnts();

  /// Sort + dedup + root-simplify `lits` in place. Returns false when the
  /// clause needs no adding (tautology or satisfied at root); an empty result
  /// with true means root conflict.
  bool root_simplify(std::vector<Lit>& lits);

  // --- VSIDS ---------------------------------------------------------------
  void var_bump(Var v);
  void var_decay() { var_inc_ /= kVarDecay; }
  void clause_bump(CRef c);
  void clause_decay() { cla_inc_ /= kClauseDecay; }
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_empty() const { return heap_.empty(); }
  bool heap_lt(Var a, Var b) const { return activity_[a] > activity_[b]; }
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);

  static double luby(double y, std::uint64_t i);

  static constexpr double kVarDecay = 0.95;
  static constexpr double kClauseDecay = 0.999;
  static constexpr std::uint32_t kRestartFirst = 100;

  struct Watcher {
    CRef cref;
    Lit blocker;
  };

  std::vector<std::uint32_t> arena_;
  std::vector<CRef> clauses_;  // problem clauses
  std::vector<CRef> learnts_;
  std::uint64_t dead_words_ = 0;

  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit.x
  std::vector<LBool> assigns_;
  std::vector<std::uint8_t> polarity_;  // saved phase: 1 ⇒ branch negative
  std::vector<double> activity_;
  std::vector<CRef> reason_;
  std::vector<std::uint32_t> level_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;
  std::vector<Lit> retained_;  // assumption of decision level i + 1, see retained()

  std::vector<std::uint8_t> decision_;  // 1 ⇒ branching candidate
  std::vector<Var> heap_;           // binary max-heap of decision candidates
  std::vector<std::uint32_t> heap_pos_;  // var → heap index, or npos
  static constexpr std::uint32_t kNotInHeap = 0xffffffffu;

  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<std::uint32_t> lbd_seen_;
  std::uint32_t lbd_stamp_ = 0;

  // --- justification (solve_justified) ----------------------------------
  struct GateDef {
    GateKind kind = GateKind::Free;
    bool inverted = false;
    std::uint32_t first = 0;  // fanins: gate_fanins_[first, first + count)
    std::uint32_t count = 0;
  };
  std::vector<GateDef> gates_;  // by variable, sized on first use
  std::vector<Var> gate_fanins_;
  // Per variable, the cost of setting it to 0 / 1 from the Free variables;
  // rebuilt when the variables or gates change.
  std::vector<std::array<std::uint32_t, 2>> controllability_;
  bool justify_ = false;  // solve_justified() is running
  // Closure nets that were not yet seen justified, in a stack whose top is
  // worked on first. Justification only grows with the trail, so it is
  // valid until the next cancel_until(), which clears closure_valid_.
  std::vector<Var> justify_stack_;
  std::vector<std::uint32_t> closure_mark_;  // == closure_stamp_: in the closure
  std::uint32_t closure_stamp_ = 0;
  bool closure_valid_ = false;

  std::vector<LBool> model_;
  bool model_total_ = false;
  std::vector<Lit> conflict_core_;

  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  double max_learnts_ = 0.0;
  bool ok_ = true;
  Stats stats_;
  Stats last_;
};

}  // namespace deterrent::sat
