// Differential fuzz harness for the SAT core: random CNF and random-circuit
// instances are thrown at the plain incremental solver, and every answer is
// cross-checked against an independent reference — brute force on small
// formulas and the logic simulator for circuit encodings. SAT answers must
// replay (model satisfies the formula / the simulated circuit agrees); UNSAT
// answers must certify (core stays within the assumptions and is itself
// contradictory). Every failure message carries the seed that reproduces it.
//
// DETERRENT_SAT_FUZZ_SECONDS caps the wall-clock budget per test (default 8;
// CI's dedicated sat-fuzz job raises it). Loops stop early when the budget
// runs out, so the suite stays time-boxed on slow machines.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench_gen/random_circuit.hpp"
#include "sat/dimacs.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

#include "reference_sim.hpp"

namespace deterrent {
namespace {

using sat::Clause;
using sat::Cnf;
using sat::Lit;
using sat::mk_lit;
using sat::Solver;
using sat::Var;
using sat::var_of;
using sat::sign_of;

// ------------------------------------------------------------ harness ------

double fuzz_seconds() {
  if (const char* env = std::getenv("DETERRENT_SAT_FUZZ_SECONDS"))
    return std::strtod(env, nullptr);
  return 8.0;
}

/// Per-test wall-clock budget; loops drain it instead of a fixed trip count
/// so the suite is time-boxed regardless of host speed.
class FuzzBudget {
 public:
  FuzzBudget()
      : deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(fuzz_seconds()))) {}
  bool expired() const { return std::chrono::steady_clock::now() >= deadline_; }

 private:
  std::chrono::steady_clock::time_point deadline_;
};

Cnf random_cnf(util::Rng& rng, std::size_t min_vars, std::size_t max_vars,
               double clause_ratio = 4.2) {
  Cnf cnf;
  cnf.var_count = min_vars + rng.below(max_vars - min_vars + 1);
  const auto n_clauses = static_cast<std::size_t>(
      clause_ratio * static_cast<double>(cnf.var_count));
  for (std::size_t c = 0; c < n_clauses; ++c) {
    Clause clause;
    const std::size_t width = 2 + rng.below(2);  // mixed 2- and 3-clauses
    for (std::size_t k = 0; k < width; ++k)
      clause.push_back(
          mk_lit(static_cast<Var>(rng.below(cnf.var_count)), rng.bernoulli(0.5)));
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

bool brute_force_sat(const Cnf& cnf) {
  for (std::uint64_t assignment = 0; assignment < (1ULL << cnf.var_count);
       ++assignment) {
    bool all = true;
    for (const auto& clause : cnf.clauses) {
      bool sat = false;
      for (const Lit l : clause)
        if (((assignment >> var_of(l)) & 1ULL) != sign_of(l)) {
          sat = true;
          break;
        }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
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

// -------------------------------------------- CNF differential fuzzing -----

/// Asserts that an UNSAT-under-assumptions answer certifies: the core is a
/// non-empty subset of the assumptions and is contradictory on its own.
void expect_sound_core(const Solver& s, const Cnf& cnf,
                       std::span<const Lit> assumptions, const std::string& what) {
  const auto& core = s.conflict_core();
  ASSERT_FALSE(core.empty()) << what;
  for (const Lit l : core) {
    bool is_assumption = false;
    for (const Lit a : assumptions) is_assumption = is_assumption || l == a;
    ASSERT_TRUE(is_assumption) << what << ": core literal outside the assumptions";
  }
  Solver fresh;
  fresh.ensure_vars(cnf.var_count);
  for (const auto& clause : cnf.clauses) fresh.add_clause(clause);
  ASSERT_EQ(fresh.solve(core), Solver::Result::Unsat)
      << what << ": reported core is not contradictory";
}

// -------------------------------------------- CNF differential fuzzing -----

/// Checks one answer of `s` under `assumptions` against brute force: the
/// result, a SAT model (formula and assumptions), an UNSAT core.
void expect_answer_matches(const Solver& s, Solver::Result result, const Cnf& cnf,
                           bool formula_sat, std::span<const Lit> assumptions,
                           const std::string& what) {
  Cnf augmented = cnf;
  for (const Lit a : assumptions) augmented.clauses.push_back({a});
  ASSERT_NE(result, Solver::Result::Unknown) << what;
  ASSERT_EQ(result == Solver::Result::Sat, brute_force_sat(augmented))
      << what << "\n" << write_dimacs_string(cnf);
  if (result == Solver::Result::Sat) {
    ASSERT_TRUE(model_satisfies(s, cnf))
        << what << ": model violates the formula\n" << write_dimacs_string(cnf);
    for (const Lit a : assumptions)
      ASSERT_EQ(s.model_value(var_of(a)), !sign_of(a)) << what << ": model ignores assumption";
  } else if (formula_sat) {
    // UNSAT purely because of the assumptions: the core must certify it.
    expect_sound_core(s, cnf, assumptions, what);
  }
}

// Random CNF under random assumptions, against brute force. One solver
// answers several assumption sets in a row, so learnt clauses carry across
// queries exactly as in the oracle. SAT must replay on the formula and honour
// the assumptions; UNSAT-under-assumptions must produce a core that is a
// contradictory subset of the assumptions. The same solver then runs a
// sequence of solve_retaining calls whose assumption lists grow, shrink and
// diverge (at position 0 too), mixed with plain solves and budget-0
// Unknowns, so reused trail prefixes are held to the same answers.
TEST(SatFuzz, PlainSolverMatchesBruteForce) {
  FuzzBudget budget;
  std::uint64_t instances = 0;
  for (std::uint64_t seed = 0; seed < 20000 && !budget.expired(); ++seed) {
    util::Rng rng(seed * 0x9e3779b9ull + 7);
    const Cnf cnf = random_cnf(rng, 5, 11);
    const bool formula_sat = brute_force_sat(cnf);

    Solver s;
    s.ensure_vars(cnf.var_count);
    for (const auto& clause : cnf.clauses) s.add_clause(clause);

    for (int query = 0; query < 4; ++query) {
      std::vector<Lit> assumptions;
      for (Var v = 0; v < 3; ++v)
        if (rng.bernoulli(0.6)) assumptions.push_back(mk_lit(v, rng.bernoulli(0.5)));

      const std::string what =
          "seed " + std::to_string(seed) + " query " + std::to_string(query);
      expect_answer_matches(s, s.solve(assumptions), cnf, formula_sat, assumptions, what);
      if (HasFatalFailure()) return;
      ++instances;
    }

    std::vector<Lit> assumptions;
    const auto random_lit = [&] {
      return mk_lit(static_cast<Var>(rng.below(cnf.var_count)), rng.bernoulli(0.5));
    };
    for (int query = 0; query < 8; ++query) {
      const std::string what =
          "seed " + std::to_string(seed) + " retaining query " + std::to_string(query);
      bool plain = false;
      switch (rng.below(6)) {
        case 0:
        case 1:  // grow: the previous query plus one literal
          assumptions.push_back(random_lit());
          break;
        case 2:  // shrink to a prefix
          assumptions.resize(rng.below(assumptions.size() + 1));
          break;
        case 3: {  // diverge: keep a prefix, then differ (position 0 half the time)
          const std::size_t at =
              rng.bernoulli(0.5) || assumptions.empty() ? 0 : rng.below(assumptions.size());
          assumptions.resize(at);
          assumptions.push_back(random_lit());
          break;
        }
        case 4:  // a plain solve in between drops the retained levels
          plain = true;
          break;
        default: {  // an exhausted budget answers Unknown and drops them too
          const auto result = s.solve_retaining(assumptions, /*conflict_budget=*/0);
          if (result == Solver::Result::Unknown) {
            ASSERT_TRUE(s.retained().empty()) << what << ": Unknown kept its levels";
            continue;
          }
          ASSERT_FALSE(s.okay()) << what << ": budget 0 answered a live formula";
          expect_answer_matches(s, result, cnf, formula_sat, assumptions, what);
          if (HasFatalFailure()) return;
          continue;
        }
      }
      const auto result =
          plain ? s.solve(assumptions) : s.solve_retaining(assumptions);
      expect_answer_matches(s, result, cnf, formula_sat, assumptions, what);
      if (HasFatalFailure()) return;
      const auto kept = s.retained();
      ASSERT_LE(kept.size(), assumptions.size()) << what;
      ASSERT_TRUE(std::equal(kept.begin(), kept.end(), assumptions.begin()))
          << what << ": retained levels are not a prefix of the assumptions";
      if (plain)
        ASSERT_TRUE(kept.empty()) << what << ": a plain solve kept levels";
      else if (result == Solver::Result::Sat)
        ASSERT_EQ(kept.size(), assumptions.size()) << what;
      ++instances;
    }
  }
  RecordProperty("instances", static_cast<int>(instances));
  ASSERT_GT(instances, 0u);
}

// ---------------------------------------------- circuit model replay -------

// Random circuits through the Tseitin encoder: when the solver says a net can
// take a value, extracting the primary-input assignment from the model and
// simulating it must reproduce that value on every net of the circuit, the
// Tseitin auxiliaries' definitions included.
TEST(SatFuzz, CircuitModelsReplayThroughTheSimulator) {
  FuzzBudget budget;
  for (std::uint64_t seed = 1; seed < 30 && !budget.expired(); ++seed) {
    bench_gen::RandomCircuitProfile profile;
    profile.n_inputs = 10;
    profile.n_outputs = 5;
    profile.n_gates = 120;
    profile.seed = seed;
    const netlist::Netlist nl = bench_gen::generate_random_circuit(profile);
    sim::Simulator simulator(nl);
    util::Rng rng(seed * 7907ull + 11);

    Solver s;
    sat::encode_netlist(nl, s);
    std::vector<netlist::NetId> targets;
    for (int k = 0; k < 8; ++k)
      targets.push_back(static_cast<netlist::NetId>(rng.below(nl.net_count())));

    for (const netlist::NetId target : targets) {
      const bool want = rng.bernoulli(0.5);
      const Lit assume[] = {mk_lit(static_cast<Var>(target), !want)};
      if (s.solve(assume) != Solver::Result::Sat) continue;

      sim::Pattern pattern(nl.inputs().size());
      for (std::size_t i = 0; i < nl.inputs().size(); ++i)
        pattern.set(i, s.model_value(static_cast<Var>(nl.inputs()[i])));
      const std::vector<bool> values = simulator.simulate_pattern(pattern);
      ASSERT_EQ(values[target], want)
          << "seed " << seed << " net " << target
          << ": model does not force the assumed value";
      for (netlist::NetId net = 0; net < nl.net_count(); ++net)
        ASSERT_EQ(values[net], s.model_value(static_cast<Var>(net)))
            << "seed " << seed << " net " << net
            << ": model disagrees with simulation";
    }
  }
}

// Branching on the primary inputs only (Solver::set_decision_vars, as
// NetlistOracle::branch_on_inputs sets it) against the plain solver: one
// query stream of plain solves, solve_retaining runs whose assumption lists
// grow, shrink and diverge, and budget-0 Unknowns goes to both solvers. The
// verdicts must agree, and every Sat model of either must assign every
// variable (Tseitin auxiliaries included) and replay through the simulator.
TEST(SatFuzz, InputBranchingMatchesPlainSolver) {
  FuzzBudget budget;
  std::uint64_t sat_answers = 0;
  std::uint64_t unsat_answers = 0;
  for (std::uint64_t seed = 1; seed < 200 && !budget.expired(); ++seed) {
    bench_gen::RandomCircuitProfile profile;
    profile.n_inputs = 10;
    profile.n_outputs = 5;
    profile.n_gates = 120;
    profile.seed = seed;
    const netlist::Netlist nl = bench_gen::generate_random_circuit(profile);
    sim::Simulator simulator(nl);
    util::Rng rng(seed * 6151ull + 3);

    Solver plain;
    Solver branching;
    sat::encode_netlist(nl, plain);
    sat::encode_netlist(nl, branching);
    std::vector<bool> inputs(branching.var_count(), false);
    for (const netlist::NetId in : nl.inputs()) inputs[in] = true;
    branching.set_decision_vars(inputs);

    const auto random_lit = [&] {
      return mk_lit(static_cast<Var>(rng.below(nl.net_count())), rng.bernoulli(0.5));
    };
    const auto expect_replays = [&](const Solver& s, std::span<const Lit> assumptions,
                                    const std::string& what) {
      for (Var v = 0; v < s.var_count(); ++v)
        ASSERT_NE(s.model_lbool(v), sat::LBool::Undef) << what << ": var " << v;
      sim::Pattern pattern(nl.inputs().size());
      for (std::size_t i = 0; i < nl.inputs().size(); ++i)
        pattern.set(i, s.model_value(static_cast<Var>(nl.inputs()[i])));
      const std::vector<bool> values = simulator.simulate_pattern(pattern);
      for (netlist::NetId net = 0; net < nl.net_count(); ++net)
        ASSERT_EQ(values[net], s.model_value(static_cast<Var>(net)))
            << what << ": net " << net << " disagrees with simulation";
      for (const Lit a : assumptions)
        ASSERT_EQ(values[var_of(a)], !sign_of(a)) << what << ": assumption ignored";
    };

    std::vector<Lit> assumptions;
    for (int query = 0; query < 24; ++query) {
      const std::string what =
          "seed " + std::to_string(seed) + " query " + std::to_string(query);
      switch (rng.below(4)) {
        case 0:  // grow
          assumptions.push_back(random_lit());
          break;
        case 1:  // shrink to a prefix
          assumptions.resize(rng.below(assumptions.size() + 1));
          break;
        case 2: {  // diverge after a prefix
          assumptions.resize(assumptions.empty() ? 0 : rng.below(assumptions.size()));
          assumptions.push_back(random_lit());
          break;
        }
        default:  // a fresh list of one to three literals
          assumptions.clear();
          for (std::size_t k = 0, n = 1 + rng.below(3); k < n; ++k)
            assumptions.push_back(random_lit());
      }
      const std::uint64_t mode = rng.below(5);
      const std::int64_t conflict_budget = mode == 4 ? 0 : -1;
      const auto ask = [&](Solver& s) {
        return mode % 2 == 0 ? s.solve_retaining(assumptions, conflict_budget)
                             : s.solve(assumptions, conflict_budget);
      };
      const auto want = ask(plain);
      const auto got = ask(branching);
      ASSERT_EQ(got, want) << what;
      if (mode == 4) {
        ASSERT_EQ(got, Solver::Result::Unknown) << what;
        continue;
      }
      if (got == Solver::Result::Unsat) ++unsat_answers;
      if (got != Solver::Result::Sat) continue;
      ++sat_answers;
      expect_replays(plain, assumptions, what + " (plain)");
      expect_replays(branching, assumptions, what + " (input branching)");
      if (HasFatalFailure()) return;
    }
  }
  RecordProperty("sat_answers", static_cast<int>(sat_answers));
  RecordProperty("unsat_answers", static_cast<int>(unsat_answers));
  ASSERT_GT(sat_answers, 0u);
  ASSERT_GT(unsat_answers, 0u);
}

// Justification (Solver::solve_justified, as NetlistOracle::justify asks it)
// against the plain solver, on random circuits with wide AND/OR gates and
// XOR/XNOR chains, under one to four constraints. Verdicts must agree. A Sat
// answer of the justifying solver is a partial model: its assigned inputs,
// with the others filled at random eight times, must drive every constrained
// net to its value through the reference simulator. Budget-0 queries answer
// Unknown. The justifying solver also branches on the inputs and answers
// plain queries in between, as the compatibility build's fallback does,
// whose total models must replay too.
TEST(SatFuzz, JustificationMatchesPlainSolver) {
  FuzzBudget budget;
  std::uint64_t candidates = 0;
  std::uint64_t unsat_answers = 0;
  std::uint64_t fills = 0;
  for (std::uint64_t seed = 1; seed < 2000 && !budget.expired(); ++seed) {
    bench_gen::RandomCircuitProfile profile;
    profile.n_inputs = 12;
    profile.n_outputs = 5;
    profile.n_gates = 150;
    profile.wide_gate_fraction = 0.4;
    profile.w_xor = 0.14;
    profile.w_xnor = 0.1;
    profile.seed = seed;
    const netlist::Netlist nl = bench_gen::generate_random_circuit(profile);
    sim::Simulator simulator(nl);
    util::Rng rng(seed * 4111ull + 5);

    Solver plain;
    Solver justifying;
    sat::encode_netlist(nl, plain);
    sat::encode_netlist(nl, justifying);
    sat::define_gates(nl, justifying);
    std::vector<bool> inputs(justifying.var_count(), false);
    for (const netlist::NetId in : nl.inputs()) inputs[in] = true;
    justifying.set_decision_vars(inputs);

    for (int query = 0; query < 24; ++query) {
      const std::string what =
          "seed " + std::to_string(seed) + " query " + std::to_string(query);
      std::vector<Lit> assumptions;
      for (std::size_t k = 0, n = 1 + rng.below(4); k < n; ++k)
        assumptions.push_back(
            mk_lit(static_cast<Var>(rng.below(nl.net_count())), rng.bernoulli(0.5)));
      const std::uint64_t mode = rng.below(6);
      if (mode == 0) {
        ASSERT_EQ(justifying.solve_justified(assumptions, /*conflict_budget=*/0),
                  Solver::Result::Unknown)
            << what;
        continue;
      }
      const auto want = plain.solve(assumptions);
      if (mode == 1) {
        // A plain query on the justifying solver: a total model.
        ASSERT_EQ(justifying.solve(assumptions), want) << what;
        if (want != Solver::Result::Sat) continue;
        ASSERT_TRUE(justifying.model_total()) << what;
        sim::Pattern pattern(nl.inputs().size());
        for (std::size_t i = 0; i < nl.inputs().size(); ++i)
          pattern.set(i, justifying.model_value(static_cast<Var>(nl.inputs()[i])));
        const std::vector<bool> values = simulator.simulate_pattern(pattern);
        for (netlist::NetId net = 0; net < nl.net_count(); ++net)
          ASSERT_EQ(values[net], justifying.model_value(static_cast<Var>(net)))
              << what << ": net " << net << " disagrees with simulation";
        continue;
      }
      const auto got = justifying.solve_justified(assumptions);
      ASSERT_EQ(got, want) << what;
      if (got == Solver::Result::Unsat) ++unsat_answers;
      if (got != Solver::Result::Sat) continue;
      ++candidates;
      for (int fill = 0; fill < 8; ++fill) {
        sim::Pattern pattern(nl.inputs().size());
        for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
          const sat::LBool v = justifying.model_lbool(static_cast<Var>(nl.inputs()[i]));
          pattern.set(i, v == sat::LBool::Undef ? rng.bernoulli(0.5) : v == sat::LBool::True);
        }
        const std::vector<bool> values = simulator.simulate_pattern(pattern);
        for (const Lit a : assumptions)
          ASSERT_EQ(values[var_of(a)], !sign_of(a))
              << what << " fill " << fill << ": constraint on net " << var_of(a)
              << " missed by " << pattern.to_string();
        ++fills;
      }
    }
  }
  RecordProperty("candidates", static_cast<int>(candidates));
  RecordProperty("unsat_answers", static_cast<int>(unsat_answers));
  RecordProperty("fills", static_cast<int>(fills));
  ASSERT_GT(candidates, 0u);
  ASSERT_GT(unsat_answers, 0u);
}

// ----------------------------------------------------- DIMACS corpus -------

// Minimized regression instances, table-driven. Each is solved by the plain
// solver; the expected result is exact, a SAT model must satisfy the formula
// and an UNSAT-under-assumptions core must certify.
struct CorpusCase {
  const char* file;
  Solver::Result expected;
  std::vector<Lit> assumptions;
};

class SatCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(SatCorpus, PlainSolverMatchesExpectation) {
  const CorpusCase& tc = GetParam();
  const std::string path =
      std::string(DETERRENT_SOURCE_DIR) + "/tests/corpus/sat/" + tc.file;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  const Cnf cnf = sat::read_dimacs(in);

  Solver s;
  s.ensure_vars(cnf.var_count);
  for (const auto& clause : cnf.clauses) s.add_clause(clause);

  const auto result = s.solve(tc.assumptions);
  ASSERT_EQ(result, tc.expected) << tc.file;
  if (result == Solver::Result::Sat) {
    EXPECT_TRUE(model_satisfies(s, cnf)) << tc.file;
    for (const Lit a : tc.assumptions)
      EXPECT_EQ(s.model_value(var_of(a)), !sign_of(a)) << tc.file;
  } else if (!tc.assumptions.empty() && s.okay()) {
    expect_sound_core(s, cnf, tc.assumptions, tc.file);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Minimized, SatCorpus,
    ::testing::Values(
        CorpusCase{"empty_clause_unsat.cnf", Solver::Result::Unsat, {}},
        CorpusCase{"unit_only_sat.cnf", Solver::Result::Sat, {}},
        CorpusCase{"assumption_core_unsat.cnf",
                   Solver::Result::Unsat,
                   {mk_lit(0), mk_lit(1)}},
        CorpusCase{"pure_literal_after_elimination_sat.cnf",
                   Solver::Result::Sat,
                   {}}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      std::string name = info.param.file;
      name.resize(name.size() - 4);  // drop ".cnf"
      for (char& c : name)
        if (c == '-' || c == '.') c = '_';
      return name;
    });

}  // namespace
}  // namespace deterrent
