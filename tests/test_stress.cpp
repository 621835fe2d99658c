// Stress and failure-injection tests: solver clause-database reduction under
// heavy load, deep/degenerate netlists, boundary-size pattern plumbing, env
// robustness, and error-path coverage across modules.
#include <gtest/gtest.h>

#include "analysis/compatibility.hpp"
#include "bench_gen/multiplier.hpp"
#include "bench_gen/random_circuit.hpp"
#include "core/compatible_set_env.hpp"
#include "netlist/bench_io.hpp"
#include "sat/encoder.hpp"
#include "sat/oracle.hpp"
#include "util/rng.hpp"

#include "reference_sim.hpp"

namespace deterrent {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using netlist::NetId;

// ------------------------------------------------- solver under pressure ---

TEST(SolverStress, ManyHardQueriesTriggerReductionAndStayCorrect) {
  // Random 3-SAT instances near the phase transition force learning; a
  // single long-lived solver must survive clause-DB reduction + compaction
  // cycles and keep answering correctly (checked by re-solving with a fresh
  // solver).
  util::Rng rng(1234);
  sat::Solver long_lived;
  const std::size_t n_vars = 60;
  long_lived.ensure_vars(n_vars);
  // Base formula: satisfiable (sparse).
  std::vector<sat::Clause> base;
  for (int c = 0; c < 120; ++c) {
    sat::Clause clause;
    for (int k = 0; k < 3; ++k)
      clause.push_back(sat::mk_lit(static_cast<sat::Var>(rng.below(n_vars)),
                                   rng.bernoulli(0.5)));
    base.push_back(clause);
    long_lived.add_clause(clause);
  }

  for (int query = 0; query < 300; ++query) {
    std::vector<sat::Lit> assumptions;
    const std::size_t n_assume = 3 + rng.below(8);
    for (std::size_t k = 0; k < n_assume; ++k)
      assumptions.push_back(sat::mk_lit(static_cast<sat::Var>(rng.below(n_vars)),
                                        rng.bernoulli(0.5)));
    const auto incremental = long_lived.solve(assumptions);

    sat::Solver fresh;
    fresh.ensure_vars(n_vars);
    for (const auto& clause : base) fresh.add_clause(clause);
    const auto reference = fresh.solve(assumptions);
    ASSERT_EQ(incremental, reference) << "query " << query;
  }
  EXPECT_GT(long_lived.stats().learnt_clauses, 0u);
}

TEST(SolverStress, DeepUnitChainPropagatesWithoutRecursion) {
  // 20k-long implication chain: stack-safety of the iterative propagator.
  sat::Solver s;
  const std::size_t n = 20000;
  s.ensure_vars(n);
  for (sat::Var v = 0; v + 1 < n; ++v)
    s.add_clause({sat::mk_lit(v, true), sat::mk_lit(v + 1)});
  s.add_clause({sat::mk_lit(0)});
  ASSERT_EQ(s.solve(), sat::Solver::Result::Sat);
  EXPECT_TRUE(s.model_value(n - 1));
}

TEST(SolverStress, WideClause) {
  sat::Solver s;
  const std::size_t n = 5000;
  s.ensure_vars(n);
  std::vector<sat::Lit> wide;
  for (sat::Var v = 0; v < n; ++v) {
    wide.push_back(sat::mk_lit(v));
    if (v > 0) s.add_clause({sat::mk_lit(v, true)});  // force all others false
  }
  s.add_clause(wide);
  ASSERT_EQ(s.solve(), sat::Solver::Result::Sat);
  EXPECT_TRUE(s.model_value(0));  // only remaining way to satisfy the wide clause
}

// -------------------------------------------------- degenerate netlists ----

TEST(DegenerateNetlists, SingleBuffer) {
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId y = b.add_gate(GateType::Buf, {a}, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  sim::Simulator sim(nl);
  sim::Pattern p(1);
  p.set(0, true);
  EXPECT_TRUE(sim.simulate_pattern(p)[y]);
}

TEST(DegenerateNetlists, ConstantOnlyOutputs) {
  NetlistBuilder b;
  b.add_input("unused");
  const NetId c = b.add_const(true, "c");
  b.mark_output(c);
  const Netlist nl = b.build();
  sat::NetlistOracle oracle(nl);
  const sat::Constraint want_true{c, true};
  const sat::Constraint want_false{c, false};
  EXPECT_TRUE(oracle.satisfiable({&want_true, 1}));
  EXPECT_FALSE(oracle.satisfiable({&want_false, 1}));
}

TEST(DegenerateNetlists, VeryDeepInverterChain) {
  NetlistBuilder b;
  NetId net = b.add_input("a");
  const std::size_t depth = 5000;
  for (std::size_t i = 0; i < depth; ++i) net = b.add_gate(GateType::Not, {net});
  b.mark_output(net);
  const Netlist nl = b.build();
  EXPECT_EQ(nl.max_level(), depth);
  sim::Simulator sim(nl);
  sim::Pattern p(1);
  p.set(0, false);
  // Even depth of inversions returns the input value.
  EXPECT_EQ(sim.simulate_pattern(p)[net], depth % 2 == 1);
}

TEST(DegenerateNetlists, HighFanoutNet) {
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId other = b.add_input("b");
  std::vector<NetId> consumers;
  for (int i = 0; i < 2000; ++i)
    consumers.push_back(b.add_gate(GateType::And, {a, other}));
  b.mark_output(consumers.back());
  const Netlist nl = b.build();
  EXPECT_EQ(nl.fanouts(a).size(), 2000u);
  // Encoder and solver must handle the repeated structure.
  sat::NetlistOracle oracle(nl);
  const sat::Constraint c{consumers[0], true};
  EXPECT_TRUE(oracle.satisfiable({&c, 1}));
}

TEST(DegenerateNetlists, MultiplierWidthTwoIsMinimal) {
  const Netlist nl = bench_gen::generate_array_multiplier(2);
  sim::Simulator sim(nl);
  for (unsigned a = 0; a < 4; ++a)
    for (unsigned x = 0; x < 4; ++x) {
      sim::Pattern p(4);
      p.set(0, a & 1);
      p.set(1, (a >> 1) & 1);
      p.set(2, x & 1);
      p.set(3, (x >> 1) & 1);
      const auto values = sim.simulate_pattern(p);
      unsigned product = 0;
      for (unsigned k = 0; k < 4; ++k)
        product |= static_cast<unsigned>(values[nl.outputs()[k]]) << k;
      ASSERT_EQ(product, a * x);
    }
}

// --------------------------------------------------------- env hardening ---

struct EnvFixture {
  Netlist netlist;
  std::vector<analysis::RareNet> rare;
  analysis::CompatibilityMatrix matrix;

  explicit EnvFixture(std::uint64_t seed) {
    bench_gen::RandomCircuitProfile p;
    p.n_inputs = 14;
    p.n_outputs = 8;
    p.n_gates = 200;
    p.seed = seed;
    netlist = bench_gen::generate_random_circuit(p);
    util::Rng rng(seed + 1);
    analysis::RareNetConfig rcfg;
    rcfg.threshold = 0.15;
    rare = analysis::find_rare_nets(netlist, rcfg, rng);
    matrix = analysis::build_compatibility(netlist, rare, {}, rng);
  }
};

TEST(EnvStress, ManyEpisodesNoStateLeak) {
  const EnvFixture fx(101);
  if (fx.rare.size() < 4) GTEST_SKIP();
  core::DistinctSetPool pool;
  core::EnvConfig cfg;
  cfg.reward_mode = core::RewardMode::EndOfEpisode;
  core::CompatibleSetEnv env(fx.netlist, fx.rare, fx.matrix, cfg, &pool);
  util::Rng rng(3);
  for (int episode = 0; episode < 200; ++episode) {
    const auto obs = env.reset(rng);
    // Exactly one member after reset, regardless of prior episode history.
    std::size_t ones = 0;
    for (const float v : obs) ones += v == 1.0f;
    ASSERT_EQ(ones, 1u) << "episode " << episode;
    while (true) {
      const auto& mask = env.action_mask();
      if (mask.none()) break;
      if (env.step(static_cast<std::uint32_t>(mask.find_first())).done) break;
    }
  }
  EXPECT_GT(pool.size(), 0u);
}

TEST(EnvStress, TinyConflictBudgetIsConservativeNotUnsound) {
  // With a 1-conflict budget, SAT checks time out and count as incompatible;
  // the env must still terminate and pooled sets must remain satisfiable.
  const EnvFixture fx(102);
  if (fx.rare.size() < 4) GTEST_SKIP();
  core::DistinctSetPool pool;
  core::EnvConfig cfg;
  cfg.sat_conflict_budget = 1;
  core::CompatibleSetEnv env(fx.netlist, fx.rare, fx.matrix, cfg, &pool);
  sat::NetlistOracle oracle(fx.netlist);
  util::Rng rng(4);
  for (int episode = 0; episode < 10; ++episode) {
    env.reset(rng);
    while (true) {
      const auto& mask = env.action_mask();
      if (mask.none()) break;
      if (env.step(static_cast<std::uint32_t>(mask.find_first())).done) break;
    }
    std::vector<sat::Constraint> cs;
    for (const auto m : env.members()) cs.push_back({fx.rare[m].net, fx.rare[m].rare_value});
    if (!cs.empty()) ASSERT_TRUE(oracle.satisfiable(cs));
  }
}

TEST(EnvStress, RewardExponentsProduceMonotoneRewards) {
  const EnvFixture fx(103);
  if (fx.rare.size() < 4) GTEST_SKIP();
  for (const double exponent : {1.0, 1.5, 2.0, 3.0}) {
    core::EnvConfig cfg;
    cfg.reward_exponent = exponent;
    core::CompatibleSetEnv env(fx.netlist, fx.rare, fx.matrix, cfg, nullptr);
    util::Rng rng(5);
    env.reset(rng);
    float last_accept_reward = 0.0f;
    while (true) {
      const auto& mask = env.action_mask();
      if (mask.none()) break;
      const std::size_t before = env.members().size();
      const auto step = env.step(static_cast<std::uint32_t>(mask.find_first()));
      if (env.members().size() > before) {
        // Rewards for successive accepted actions must strictly increase for
        // any positive exponent (|s| grows).
        ASSERT_GT(step.reward, last_accept_reward) << "exponent " << exponent;
        last_accept_reward = step.reward;
      }
      if (step.done) break;
    }
  }
}

// ------------------------------------------------------ parser hardening ---

TEST(ParserHardening, EmptyInput) {
  const Netlist nl = netlist::read_bench_string("");
  EXPECT_EQ(nl.net_count(), 0u);
}

TEST(ParserHardening, CommentsAndBlankLinesOnly) {
  const Netlist nl = netlist::read_bench_string("# nothing\n\n   \n# more\n");
  EXPECT_EQ(nl.net_count(), 0u);
}

TEST(ParserHardening, WhitespaceTolerance) {
  const Netlist nl = netlist::read_bench_string(
      "  INPUT( a )  \n\tOUTPUT( y )\n y =  NAND( a ,a  ) # trailing\n");
  EXPECT_EQ(nl.inputs().size(), 1u);
  EXPECT_EQ(nl.type(*nl.find("y")), GateType::Nand);
}

TEST(ParserHardening, CaseInsensitiveCells) {
  const Netlist nl = netlist::read_bench_string(
      "input(a)\noutput(y)\ny = nand(a, a)\n");
  EXPECT_EQ(nl.type(*nl.find("y")), GateType::Nand);
}

TEST(ParserHardening, MissingFileThrows) {
  EXPECT_THROW(netlist::read_bench_file("/nonexistent/path/x.bench"), Error);
}

// ----------------------------------------------- compatibility edge cases --

TEST(CompatibilityEdge, SingleRareNet) {
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(b.add_input());
  const NetId y = b.add_gate(GateType::And, ins, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  std::vector<analysis::RareNet> rare{{y, true, 1.0 / 32.0}};
  util::Rng rng(9);
  const auto matrix = analysis::build_compatibility(nl, rare, {}, rng);
  EXPECT_EQ(matrix.size(), 1u);
  EXPECT_TRUE(matrix.singleton_satisfiable(0));
  EXPECT_EQ(matrix.edge_count(), 0u);
}

TEST(CompatibilityEdge, ZeroSimPatternsForcesAllSat) {
  // With no pre-filter budget every pair goes to SAT; result must be the
  // same as with the pre-filter enabled.
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 10;
  p.n_outputs = 4;
  p.n_gates = 120;
  p.seed = 55;
  const Netlist nl = bench_gen::generate_random_circuit(p);
  util::Rng rng(10);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = 0.2;
  auto rare = analysis::find_rare_nets(nl, rcfg, rng);
  if (rare.size() < 2) GTEST_SKIP();
  if (rare.size() > 12) rare.resize(12);

  analysis::CompatibilityBuildConfig no_prefilter;
  no_prefilter.sim_patterns = 0;
  analysis::CompatibilityBuildConfig with_prefilter;

  util::Rng rng_a(1);
  util::Rng rng_b(1);
  analysis::CompatibilityBuildStats stats_no;
  const auto m1 = analysis::build_compatibility(nl, rare, no_prefilter, rng_a,
                                                nullptr, &stats_no);
  const auto m2 = analysis::build_compatibility(nl, rare, with_prefilter, rng_b);
  EXPECT_EQ(stats_no.sim_resolved, 0u);
  for (std::uint32_t i = 0; i < rare.size(); ++i)
    for (std::uint32_t j = 0; j < rare.size(); ++j)
      ASSERT_EQ(m1.compatible(i, j), m2.compatible(i, j)) << i << "," << j;
}

}  // namespace
}  // namespace deterrent
