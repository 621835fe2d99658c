#include <gtest/gtest.h>

#include "sat/solver.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

#include "dimacs.hpp"

namespace deterrent::sat {
namespace {

/// Exhaustive satisfiability oracle for small formulas.
bool brute_force_sat(const Cnf& cnf, std::vector<bool>* model = nullptr) {
  const std::size_t n = cnf.var_count;
  for (std::uint64_t assignment = 0; assignment < (1ULL << n); ++assignment) {
    bool all = true;
    for (const auto& clause : cnf.clauses) {
      bool sat = false;
      for (const Lit l : clause) {
        const bool value = (assignment >> var_of(l)) & 1ULL;
        if (value != sign_of(l)) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) {
      if (model != nullptr) {
        model->assign(n, false);
        for (std::size_t v = 0; v < n; ++v) (*model)[v] = (assignment >> v) & 1ULL;
      }
      return true;
    }
  }
  return false;
}

bool model_satisfies(const Solver& solver, const Cnf& cnf) {
  for (const auto& clause : cnf.clauses) {
    bool sat = false;
    for (const Lit l : clause)
      if (solver.model_value(var_of(l)) != sign_of(l)) {
        sat = true;
        break;
      }
    if (!sat) return false;
  }
  return true;
}

Solver make_solver(const Cnf& cnf) {
  Solver s;
  s.ensure_vars(cnf.var_count);
  for (const auto& clause : cnf.clauses) s.add_clause(clause);
  return s;
}

// ----------------------------------------------------------- literals ------

TEST(Types, LiteralPacking) {
  const Lit p = mk_lit(5, false);
  const Lit n = mk_lit(5, true);
  EXPECT_EQ(var_of(p), 5u);
  EXPECT_EQ(var_of(n), 5u);
  EXPECT_FALSE(sign_of(p));
  EXPECT_TRUE(sign_of(n));
  EXPECT_EQ(~p, n);
  EXPECT_EQ(~n, p);
}

TEST(Types, LitValue) {
  EXPECT_EQ(lit_value(LBool::True, mk_lit(0)), LBool::True);
  EXPECT_EQ(lit_value(LBool::True, mk_lit(0, true)), LBool::False);
  EXPECT_EQ(lit_value(LBool::False, mk_lit(0, true)), LBool::True);
  EXPECT_EQ(lit_value(LBool::Undef, mk_lit(0)), LBool::Undef);
}

// -------------------------------------------------------------- basic ------

TEST(Solver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
}

TEST(Solver, SingleUnit) {
  Solver s;
  const Var v = s.new_var();
  s.add_clause({mk_lit(v)});
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_TRUE(s.model_value(v));
}

TEST(Solver, ContradictoryUnitsUnsat) {
  Solver s;
  const Var v = s.new_var();
  EXPECT_TRUE(s.add_clause({mk_lit(v)}));
  EXPECT_FALSE(s.add_clause({mk_lit(v, true)}));
  EXPECT_FALSE(s.okay());
  EXPECT_EQ(s.solve(), Solver::Result::Unsat);
}

TEST(Solver, SimpleImplicationChain) {
  // a, a→b, b→c  ⇒ c true.
  Solver s;
  s.ensure_vars(3);
  s.add_clause({mk_lit(0)});
  s.add_clause({mk_lit(0, true), mk_lit(1)});
  s.add_clause({mk_lit(1, true), mk_lit(2)});
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_TRUE(s.model_value(1));
  EXPECT_TRUE(s.model_value(2));
}

TEST(Solver, TautologyIgnored) {
  Solver s;
  s.ensure_vars(1);
  EXPECT_TRUE(s.add_clause({mk_lit(0), mk_lit(0, true)}));
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
}

TEST(Solver, DuplicateLiteralsCollapse) {
  Solver s;
  s.ensure_vars(2);
  s.add_clause({mk_lit(0), mk_lit(0), mk_lit(1)});
  s.add_clause({mk_lit(0, true)});
  s.add_clause({mk_lit(1, true), mk_lit(0)});
  EXPECT_EQ(s.solve(), Solver::Result::Unsat);
}

TEST(Solver, XorChainRequiresSearch) {
  // (a⊕b)=1, (b⊕c)=1, (a⊕c)=0 — satisfiable.
  Solver s;
  s.ensure_vars(3);
  auto add_xor = [&](Var x, Var y, bool value) {
    // x ⊕ y = value encoded as two clauses over 4 combos.
    if (value) {
      s.add_clause({mk_lit(x), mk_lit(y)});
      s.add_clause({mk_lit(x, true), mk_lit(y, true)});
    } else {
      s.add_clause({mk_lit(x), mk_lit(y, true)});
      s.add_clause({mk_lit(x, true), mk_lit(y)});
    }
  };
  add_xor(0, 1, true);
  add_xor(1, 2, true);
  add_xor(0, 2, false);
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_EQ(s.model_value(0), s.model_value(2));
  EXPECT_NE(s.model_value(0), s.model_value(1));
}

TEST(Solver, PigeonholeUnsat) {
  // PHP(4,3): 4 pigeons, 3 holes — classic UNSAT requiring real search.
  const int pigeons = 4;
  const int holes = 3;
  Solver s;
  s.ensure_vars(pigeons * holes);
  auto var_at = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(mk_lit(var_at(p, h)));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_clause({mk_lit(var_at(p1, h), true), mk_lit(var_at(p2, h), true)});
  EXPECT_EQ(s.solve(), Solver::Result::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Solver, PigeonholeSatWhenEqual) {
  const int n = 4;
  Solver s;
  s.ensure_vars(n * n);
  auto var_at = [&](int p, int h) { return static_cast<Var>(p * n + h); };
  for (int p = 0; p < n; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < n; ++h) clause.push_back(mk_lit(var_at(p, h)));
    s.add_clause(clause);
  }
  for (int h = 0; h < n; ++h)
    for (int p1 = 0; p1 < n; ++p1)
      for (int p2 = p1 + 1; p2 < n; ++p2)
        s.add_clause({mk_lit(var_at(p1, h), true), mk_lit(var_at(p2, h), true)});
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
}

// -------------------------------------------------------- assumptions ------

TEST(Solver, AssumptionsForceValues) {
  Solver s;
  s.ensure_vars(2);
  s.add_clause({mk_lit(0), mk_lit(1)});
  const Lit assume[] = {mk_lit(0, true)};
  EXPECT_EQ(s.solve(assume), Solver::Result::Sat);
  EXPECT_FALSE(s.model_value(0));
  EXPECT_TRUE(s.model_value(1));
}

TEST(Solver, AssumptionsAreTemporary) {
  Solver s;
  s.ensure_vars(1);
  const Lit neg[] = {mk_lit(0, true)};
  EXPECT_EQ(s.solve(neg), Solver::Result::Sat);
  const Lit pos[] = {mk_lit(0)};
  EXPECT_EQ(s.solve(pos), Solver::Result::Sat);  // no permanent effect
  EXPECT_TRUE(s.model_value(0));
}

TEST(Solver, ContradictingAssumptionsUnsatWithCore) {
  Solver s;
  s.ensure_vars(2);
  s.add_clause({mk_lit(0, true), mk_lit(1, true)});  // ¬a ∨ ¬b
  const Lit assume[] = {mk_lit(0), mk_lit(1)};
  EXPECT_EQ(s.solve(assume), Solver::Result::Unsat);
  EXPECT_TRUE(s.okay());  // still satisfiable without assumptions
  EXPECT_FALSE(s.conflict_core().empty());
  for (const Lit l : s.conflict_core())
    EXPECT_TRUE(l == assume[0] || l == assume[1]);
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
}

TEST(Solver, IncrementalQueriesAccumulateLearning) {
  // Re-solving under alternating assumptions must stay correct.
  Solver s;
  s.ensure_vars(6);
  // (v0..v5) with chain constraints vi → vi+1.
  for (Var v = 0; v + 1 < 6; ++v) s.add_clause({mk_lit(v, true), mk_lit(v + 1)});
  for (int round = 0; round < 20; ++round) {
    const Lit a0[] = {mk_lit(0)};
    ASSERT_EQ(s.solve(a0), Solver::Result::Sat);
    for (Var v = 0; v < 6; ++v) EXPECT_TRUE(s.model_value(v));
    const Lit a1[] = {mk_lit(5, true)};
    ASSERT_EQ(s.solve(a1), Solver::Result::Sat);
    EXPECT_FALSE(s.model_value(0));
    const Lit both[] = {mk_lit(0), mk_lit(5, true)};
    ASSERT_EQ(s.solve(both), Solver::Result::Unsat);
  }
}

TEST(Solver, RetainedAssumptionLevelsAreReusedThenDropped) {
  // v0 → v1 → … → v5: assuming v0 propagates every variable at level 1.
  Solver s;
  s.ensure_vars(6);
  for (Var v = 0; v + 1 < 6; ++v) s.add_clause({mk_lit(v, true), mk_lit(v + 1)});
  const Lit v0[] = {mk_lit(0)};
  ASSERT_EQ(s.solve_retaining(v0), Solver::Result::Sat);
  EXPECT_EQ(std::vector<Lit>(s.retained().begin(), s.retained().end()),
            std::vector<Lit>(std::begin(v0), std::end(v0)));

  // Sharing v0's level, a failed extension and a satisfied one cost no
  // propagation at all; Unsat keeps only the levels below the failed literal.
  const Lit v0_not_v5[] = {mk_lit(0), mk_lit(5, true)};
  ASSERT_EQ(s.solve_retaining(v0_not_v5), Solver::Result::Unsat);
  EXPECT_EQ(s.last_solve_stats().propagations, 0u);
  EXPECT_EQ(s.retained().size(), 1u);
  EXPECT_EQ(s.conflict_core().size(), 2u);
  const Lit v0_v3[] = {mk_lit(0), mk_lit(3)};
  ASSERT_EQ(s.solve_retaining(v0_v3), Solver::Result::Sat);
  EXPECT_EQ(s.last_solve_stats().propagations, 0u);
  EXPECT_EQ(s.retained().size(), 2u);

  // Diverging at position 0 re-propagates from the root.
  const Lit not_v3[] = {mk_lit(3, true)};
  ASSERT_EQ(s.solve_retaining(not_v3), Solver::Result::Sat);
  EXPECT_FALSE(s.model_value(0));
  EXPECT_EQ(s.retained().size(), 1u);

  // Every other entry drops the retained levels first.
  s.solve();
  EXPECT_TRUE(s.retained().empty());
  s.solve_retaining(v0);
  s.add_clause({mk_lit(4), mk_lit(5)});
  EXPECT_TRUE(s.retained().empty());
  s.solve_retaining(v0);
  util::Rng rng(3);
  s.randomize_phases(rng);
  EXPECT_TRUE(s.retained().empty());
  ASSERT_EQ(s.solve_retaining(v0, /*conflict_budget=*/0), Solver::Result::Unknown);
  EXPECT_TRUE(s.retained().empty());
  ASSERT_EQ(s.solve_retaining(v0_not_v5), Solver::Result::Unsat);
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  // A hard PHP instance with a tiny budget must give up, not crash.
  const int pigeons = 8;
  const int holes = 7;
  Solver s;
  s.ensure_vars(pigeons * holes);
  auto var_at = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(mk_lit(var_at(p, h)));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_clause({mk_lit(var_at(p1, h), true), mk_lit(var_at(p2, h), true)});
  EXPECT_EQ(s.solve({}, 10), Solver::Result::Unknown);
}

// ---------------------------------------------------- decision set ------

TEST(Solver, DecisionMaskMustCoverEveryVariable) {
  Solver s;
  s.ensure_vars(3);
  EXPECT_THROW(s.set_decision_vars({true, false}), Error);
  EXPECT_THROW(s.set_decision_vars({true, false, true, true}), Error);
  s.set_decision_vars({true, true, true});
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
}

TEST(Solver, NewVarAfterDecisionMaskIsADecisionVariable) {
  // Variable 1 is a copy of variable 0, so only 0 needs to be a decision
  // variable. A variable created after the mask is one by default: left
  // free, it is decided (negative first), not reported unassigned.
  Solver s;
  s.ensure_vars(2);
  s.add_clause({mk_lit(0, true), mk_lit(1)});
  s.add_clause({mk_lit(0), mk_lit(1, true)});
  s.set_decision_vars({true, false});
  const Var fresh = s.new_var();
  ASSERT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_FALSE(s.model_value(fresh));
  EXPECT_EQ(s.model_value(0), s.model_value(1));
  EXPECT_EQ(s.last_solve_stats().decisions, 2u);
}

/// k triples (y, a, b) with y <-> a AND b, each y created before its a and b.
/// Deciding a and b always fixes y, so branching on the inputs costs exactly
/// two decisions per triple; deciding y = false first fixes nothing and costs
/// a third.
Solver and_triples(int k) {
  Solver s;
  s.ensure_vars(3 * k);
  for (int t = 0; t < k; ++t) {
    const Var y = 3 * t, a = 3 * t + 1, b = 3 * t + 2;
    s.add_clause({mk_lit(y, true), mk_lit(a)});
    s.add_clause({mk_lit(y, true), mk_lit(b)});
    s.add_clause({mk_lit(y), mk_lit(a, true), mk_lit(b, true)});
  }
  return s;
}

TEST(Solver, HeapYieldsOnlyDecisionVariables) {
  constexpr int k = 16;
  Solver plain = and_triples(k);
  ASSERT_EQ(plain.solve(), Solver::Result::Sat);
  ASSERT_GT(plain.last_solve_stats().decisions, 2u * k)
      << "the plain solver should branch on an AND output first";

  Solver s = and_triples(k);
  std::vector<bool> inputs(3 * k, true);
  for (int t = 0; t < k; ++t) inputs[3 * t] = false;
  s.set_decision_vars(inputs);
  util::Rng rng(5);
  for (int round = 0; round < 6; ++round) {
    // Every solve backtracks over the previous trail, so the outputs it
    // assigned must not come back into the heap. Assuming output 0 true
    // fixes its inputs and puts the output first on the trail, the place a
    // re-inserted variable would be popped from early in the next round.
    const Lit assume[] = {mk_lit(0)};
    const bool assumed = round % 2 == 1;
    const auto result = assumed ? s.solve(assume) : s.solve();
    ASSERT_EQ(result, Solver::Result::Sat) << "round " << round;
    EXPECT_EQ(s.last_solve_stats().decisions, assumed ? 2u * k - 2 : 2u * k)
        << "round " << round;
    for (int t = 0; t < k; ++t)
      EXPECT_EQ(s.model_value(3 * t),
                s.model_value(3 * t + 1) && s.model_value(3 * t + 2));
    if (round == 3) s.randomize_phases(rng);
  }
}

TEST(SolverDeath, FreeVariableOutsideTheDecisionSetTripsTheAssert) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Solver s;
  s.ensure_vars(2);
  s.add_clause({mk_lit(0), mk_lit(1)});
  s.set_decision_vars({true, false});
  // Deciding 0 = true leaves 1 free, and nothing will ever branch on it.
  const Lit assume[] = {mk_lit(0)};
  EXPECT_DEATH(s.solve(assume), "unassigned variable");
}

// --------------------------------------------------- justification -----

/// Tseitin clauses and gate definitions for y <-> AND(fanins) or OR(fanins).
void add_gate(Solver& s, Var y, GateKind kind, std::initializer_list<Var> fanins) {
  // AND: (¬y ∨ a) per fanin, (y ∨ ¬a1 ∨ …). OR: (y ∨ ¬a), (¬y ∨ a1 ∨ …).
  const bool is_or = kind == GateKind::Or;
  std::vector<Lit> big{mk_lit(y, is_or)};
  for (const Var a : fanins) {
    s.add_clause({mk_lit(y, !is_or), mk_lit(a, is_or)});
    big.push_back(mk_lit(a, !is_or));
  }
  s.add_clause(big);
  const std::vector<Var> in(fanins);
  s.define_gate(y, kind, /*inverted=*/false, in);
}

TEST(Justification, FrontierEmptiesAfterOneDecisionPerOr) {
  // y = AND(o_0, ..., o_{k-1}), o_t = OR(a_t, b_t). Assuming y fixes every
  // o_t at 1 and no input, and one input at 1 justifies each OR.
  constexpr int k = 6;
  Solver s;
  s.ensure_vars(1 + 3 * k);
  const auto o = [](int t) { return static_cast<Var>(1 + 3 * t); };
  for (int t = 0; t < k; ++t) add_gate(s, o(t), GateKind::Or, {o(t) + 1, o(t) + 2});
  std::vector<Var> ors;
  for (int t = 0; t < k; ++t) ors.push_back(o(t));
  std::vector<Lit> big{mk_lit(0)};
  for (const Var v : ors) {
    s.add_clause({mk_lit(0, true), mk_lit(v)});
    big.push_back(mk_lit(v, true));
  }
  s.add_clause(big);
  s.define_gate(0, GateKind::And, false, ors);

  const Lit assume[] = {mk_lit(0)};
  ASSERT_EQ(s.solve_justified(assume), Solver::Result::Sat);
  EXPECT_EQ(s.last_solve_stats().decisions, static_cast<std::uint64_t>(k));
  EXPECT_FALSE(s.model_total());
  for (int t = 0; t < k; ++t) {
    const LBool a = s.model_lbool(o(t) + 1);
    const LBool b = s.model_lbool(o(t) + 2);
    // Exactly one input per OR is set, to 1; its partner stays free.
    EXPECT_EQ((a == LBool::True) + (b == LBool::True), 1) << "OR " << t;
    EXPECT_EQ((a == LBool::Undef) + (b == LBool::Undef), 1) << "OR " << t;
  }

  // The plain solver answers the same query with a total model.
  ASSERT_EQ(s.solve(assume), Solver::Result::Sat);
  EXPECT_TRUE(s.model_total());
}

TEST(Justification, DecidesOnlyFreeVariables) {
  // y = OR(g, h), g = AND(a, b), h = AND(c, d). Assuming y leaves g and h
  // unassigned, and the decision set holds only the gates, which a plain
  // search would branch on. Justification still decides inputs only: a and
  // b (g's two fanins), after which nothing on h's side is assigned.
  Solver s;
  s.ensure_vars(7);
  const Var y = 0, g = 1, h = 2, a = 3, b = 4, c = 5, d = 6;
  add_gate(s, g, GateKind::And, {a, b});
  add_gate(s, h, GateKind::And, {c, d});
  add_gate(s, y, GateKind::Or, {g, h});
  s.set_decision_vars({true, true, true, false, false, false, false});

  const Lit assume[] = {mk_lit(y)};
  ASSERT_EQ(s.solve_justified(assume), Solver::Result::Sat);
  EXPECT_EQ(s.last_solve_stats().decisions, 2u);
  EXPECT_EQ(s.model_lbool(a), LBool::True);
  EXPECT_EQ(s.model_lbool(b), LBool::True);
  EXPECT_EQ(s.model_lbool(g), LBool::True);
  // Deciding g = 1 would have cost one decision and implied a and b.
  for (const Var v : {h, c, d}) EXPECT_EQ(s.model_lbool(v), LBool::Undef) << v;
}

TEST(Justification, UnsatAndBudgetMatchThePlainSolver) {
  // y = AND(a, NOT a) can never be 1; a budget of 0 gives up at once.
  Solver s;
  s.ensure_vars(3);
  const Var y = 0, a = 1, na = 2;
  s.add_clause({mk_lit(na), mk_lit(a)});
  s.add_clause({mk_lit(na, true), mk_lit(a, true)});
  s.define_gate(na, GateKind::And, /*inverted=*/true, std::vector<Var>{a});
  add_gate(s, y, GateKind::And, {a, na});
  const Lit one[] = {mk_lit(y)};
  EXPECT_EQ(s.solve_justified(one), Solver::Result::Unsat);
  const Lit zero[] = {mk_lit(y, true)};
  EXPECT_EQ(s.solve_justified(zero, /*conflict_budget=*/0), Solver::Result::Unknown);
  ASSERT_EQ(s.solve_justified(zero), Solver::Result::Sat);
  // The Unsat answer learnt y = 0 as a root-level unit, which every input
  // pattern meets: nothing needs deciding.
  EXPECT_EQ(s.last_solve_stats().decisions, 0u);
}

TEST(Justification, DefineGateRejectsUnknownVariables) {
  Solver s;
  s.ensure_vars(2);
  EXPECT_THROW(s.define_gate(2, GateKind::And, false, std::vector<Var>{0}), Error);
  EXPECT_THROW(s.define_gate(0, GateKind::And, false, std::vector<Var>{1, 2}), Error);
}

// --------------------------------------------------------------- fuzz ------

/// Differential fuzzing against brute force on random 3-SAT near the phase
/// transition — the strongest correctness evidence for a CDCL implementation.
class SolverFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SolverFuzz, MatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int iter = 0; iter < 60; ++iter) {
    Cnf cnf;
    cnf.var_count = 5 + rng.below(8);  // 5..12 vars
    const std::size_t n_clauses =
        static_cast<std::size_t>(4.2 * static_cast<double>(cnf.var_count));
    for (std::size_t c = 0; c < n_clauses; ++c) {
      Clause clause;
      for (int k = 0; k < 3; ++k)
        clause.push_back(mk_lit(static_cast<Var>(rng.below(cnf.var_count)),
                                rng.bernoulli(0.5)));
      cnf.clauses.push_back(std::move(clause));
    }

    Solver s = make_solver(cnf);
    const auto result = s.solve();
    const bool expected = brute_force_sat(cnf);
    ASSERT_NE(result, Solver::Result::Unknown);
    ASSERT_EQ(result == Solver::Result::Sat, expected)
        << "seed " << GetParam() << " iter " << iter << "\n"
        << write_dimacs_string(cnf);
    if (result == Solver::Result::Sat)
      ASSERT_TRUE(model_satisfies(s, cnf)) << "model check failed, iter " << iter;
  }
}

TEST_P(SolverFuzz, AssumptionsMatchAugmentedFormula) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  for (int iter = 0; iter < 30; ++iter) {
    Cnf cnf;
    cnf.var_count = 6 + rng.below(6);
    const std::size_t n_clauses = 3 * cnf.var_count;
    for (std::size_t c = 0; c < n_clauses; ++c) {
      Clause clause;
      for (int k = 0; k < 3; ++k)
        clause.push_back(mk_lit(static_cast<Var>(rng.below(cnf.var_count)),
                                rng.bernoulli(0.5)));
      cnf.clauses.push_back(std::move(clause));
    }
    std::vector<Lit> assumptions;
    for (Var v = 0; v < 3; ++v)
      if (rng.bernoulli(0.7)) assumptions.push_back(mk_lit(v, rng.bernoulli(0.5)));

    Solver s = make_solver(cnf);
    const auto result = s.solve(assumptions);

    Cnf augmented = cnf;
    for (const Lit a : assumptions) augmented.clauses.push_back({a});
    ASSERT_EQ(result == Solver::Result::Sat, brute_force_sat(augmented))
        << "iter " << iter;
  }
}

TEST_P(SolverFuzz, RepeatedIncrementalSolvesStayConsistent) {
  // One solver, many assumption queries; each answer must match brute force
  // on the augmented formula (validates learnt-clause soundness).
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 99);
  Cnf cnf;
  cnf.var_count = 10;
  for (std::size_t c = 0; c < 38; ++c) {
    Clause clause;
    for (int k = 0; k < 3; ++k)
      clause.push_back(mk_lit(static_cast<Var>(rng.below(cnf.var_count)),
                              rng.bernoulli(0.5)));
    cnf.clauses.push_back(std::move(clause));
  }
  Solver s = make_solver(cnf);
  for (int query = 0; query < 40; ++query) {
    std::vector<Lit> assumptions;
    const std::size_t n_assume = rng.below(4);
    for (std::size_t k = 0; k < n_assume; ++k)
      assumptions.push_back(
          mk_lit(static_cast<Var>(rng.below(cnf.var_count)), rng.bernoulli(0.5)));
    const auto result = s.solve(assumptions);
    Cnf augmented = cnf;
    for (const Lit a : assumptions) augmented.clauses.push_back({a});
    ASSERT_EQ(result == Solver::Result::Sat, brute_force_sat(augmented))
        << "query " << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverFuzz, ::testing::Range(0, 5));

TEST(Solver, RandomPhasesStillCorrect) {
  util::Rng rng(77);
  Solver s;
  s.ensure_vars(8);
  s.add_clause({mk_lit(0), mk_lit(1)});
  s.add_clause({mk_lit(2, true), mk_lit(3)});
  for (int i = 0; i < 10; ++i) {
    s.randomize_phases(rng);
    ASSERT_EQ(s.solve(), Solver::Result::Sat);
    ASSERT_TRUE(s.model_value(0) || s.model_value(1));
    ASSERT_TRUE(!s.model_value(2) || s.model_value(3));
  }
}

TEST(Solver, StatsProgress) {
  Solver s;
  s.ensure_vars(2);
  s.add_clause({mk_lit(0), mk_lit(1)});
  s.solve();
  EXPECT_GE(s.stats().solves, 1u);
}

// ------------------------------------------------------ per-solve stats ----

Cnf php_cnf(int pigeons, int holes) {
  Cnf cnf;
  cnf.var_count = static_cast<std::size_t>(pigeons * holes);
  auto var_at = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int p = 0; p < pigeons; ++p) {
    Clause clause;
    for (int h = 0; h < holes; ++h) clause.push_back(mk_lit(var_at(p, h)));
    cnf.clauses.push_back(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        cnf.clauses.push_back({mk_lit(var_at(p1, h), true), mk_lit(var_at(p2, h), true)});
  return cnf;
}

TEST(SolverStats, LastSolveStatsResetBetweenSolves) {
  // A hard solve followed by a trivial one: the per-solve view must describe
  // only the trivial solve, not carry the hard solve's counters forward.
  Solver s = make_solver(php_cnf(6, 5));
  ASSERT_EQ(s.solve(), Solver::Result::Unsat);
  const auto hard = s.last_solve_stats();
  EXPECT_EQ(hard.solves, 1u);
  EXPECT_GT(hard.conflicts, 0u);

  Solver trivial;
  trivial.ensure_vars(1);
  trivial.add_clause({mk_lit(0)});
  ASSERT_EQ(trivial.solve(), Solver::Result::Sat);

  ASSERT_EQ(s.solve(), Solver::Result::Unsat);  // cached root conflict: cheap
  const auto& last = s.last_solve_stats();
  EXPECT_EQ(last.solves, 1u);
  EXPECT_LE(last.conflicts, hard.conflicts);
}

TEST(SolverStats, CumulativeCountersAreMonotoneAndSumOfDeltas) {
  Solver s = make_solver(php_cnf(5, 4));
  Solver::Stats prev = s.stats();
  for (int round = 0; round < 5; ++round) {
    std::vector<Lit> assumptions;
    if (round % 2 == 1) assumptions.push_back(mk_lit(static_cast<Var>(round), true));
    s.solve(assumptions);
    const Solver::Stats& now = s.stats();
    const Solver::Stats& last = s.last_solve_stats();
    // Monotone.
    EXPECT_GE(now.conflicts, prev.conflicts);
    EXPECT_GE(now.decisions, prev.decisions);
    EXPECT_GE(now.propagations, prev.propagations);
    EXPECT_GE(now.restarts, prev.restarts);
    EXPECT_GE(now.learnt_clauses, prev.learnt_clauses);
    EXPECT_EQ(now.solves, prev.solves + 1);
    // The per-solve view is exactly the cumulative delta.
    EXPECT_EQ(now.conflicts, prev.conflicts + last.conflicts);
    EXPECT_EQ(now.decisions, prev.decisions + last.decisions);
    EXPECT_EQ(now.propagations, prev.propagations + last.propagations);
    EXPECT_EQ(now.restarts, prev.restarts + last.restarts);
    EXPECT_EQ(last.solves, 1u);
    prev = now;
  }
}

TEST(SolverStats, RestartsCountOnlyLubySequenceReentries) {
  // A trivial solve never restarts.
  Solver easy;
  easy.ensure_vars(2);
  easy.add_clause({mk_lit(0), mk_lit(1)});
  ASSERT_EQ(easy.solve(), Solver::Result::Sat);
  EXPECT_EQ(easy.last_solve_stats().restarts, 0u);

  // A budget give-up below the first restart interval is not a restart.
  Solver bounded = make_solver(php_cnf(8, 7));
  ASSERT_EQ(bounded.solve({}, 10), Solver::Result::Unknown);
  EXPECT_EQ(bounded.last_solve_stats().restarts, 0u);

  // A search that burns through many conflicts must actually restart.
  Solver hard = make_solver(php_cnf(7, 6));
  ASSERT_EQ(hard.solve(), Solver::Result::Unsat);
  EXPECT_GT(hard.last_solve_stats().conflicts, 100u);
  EXPECT_GT(hard.last_solve_stats().restarts, 0u);
}

// ------------------------------------------------------------- dimacs ------

TEST(Dimacs, ParsesSimple) {
  const Cnf cnf = read_dimacs_string("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n");
  EXPECT_EQ(cnf.var_count, 3u);
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_EQ(cnf.clauses[0][0], mk_lit(0));
  EXPECT_EQ(cnf.clauses[0][1], mk_lit(1, true));
}

TEST(Dimacs, RoundTrip) {
  util::Rng rng(3);
  Cnf cnf;
  cnf.var_count = 7;
  for (int c = 0; c < 12; ++c) {
    Clause clause;
    for (int k = 0; k < 3; ++k)
      clause.push_back(mk_lit(static_cast<Var>(rng.below(7)), rng.bernoulli(0.5)));
    cnf.clauses.push_back(clause);
  }
  const Cnf back = read_dimacs_string(write_dimacs_string(cnf));
  EXPECT_EQ(back.var_count, cnf.var_count);
  ASSERT_EQ(back.clauses.size(), cnf.clauses.size());
  for (std::size_t i = 0; i < cnf.clauses.size(); ++i)
    EXPECT_EQ(back.clauses[i], cnf.clauses[i]);
}

TEST(Dimacs, RejectsMalformed) {
  EXPECT_THROW(read_dimacs_string("1 2 0\n"), Error);
  EXPECT_THROW(read_dimacs_string("p cnf 2 1\n5 0\n"), Error);
}

}  // namespace
}  // namespace deterrent::sat
