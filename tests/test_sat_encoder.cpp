#include <gtest/gtest.h>

#include <set>

#include "bench_gen/multiplier.hpp"
#include "bench_gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "sat/encoder.hpp"
#include "sat/oracle.hpp"
#include "util/rng.hpp"

#include "helpers.hpp"
#include "reference_sim.hpp"

namespace deterrent::sat {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using netlist::NetId;

Netlist small_random(std::uint64_t seed, std::size_t gates = 150) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 12;
  p.n_outputs = 6;
  p.n_gates = gates;
  p.seed = seed;
  return bench_gen::generate_random_circuit(p);
}

// ------------------------------------------------------------ encoder ------

TEST(Encoder, RejectsSequential) {
  NetlistBuilder b;
  const NetId a = b.add_input();
  b.mark_output(b.add_dff(a));
  const Netlist nl = b.build();
  Solver s;
  EXPECT_THROW(encode_netlist(nl, s), Error);
}

TEST(Encoder, NetVariablesAreDense) {
  const Netlist nl = small_random(1);
  const Cnf cnf = encode_netlist_cnf(nl);
  EXPECT_GE(cnf.var_count, nl.net_count());
  EXPECT_FALSE(cnf.clauses.empty());
}

TEST(Encoder, ConstantsAreForced) {
  NetlistBuilder b;
  const NetId c0 = b.add_const(false, "zero");
  const NetId c1 = b.add_const(true, "one");
  const NetId y = b.add_gate(GateType::Or, {c0, c1}, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  Solver s;
  encode_netlist(nl, s);
  ASSERT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_FALSE(s.model_value(c0));
  EXPECT_TRUE(s.model_value(c1));
  EXPECT_TRUE(s.model_value(y));
}

/// Core differential property: fix the primary inputs to a concrete pattern
/// via assumptions; the unique model must equal logic simulation on every
/// net. Run over random circuits × random patterns for every gate type.
class EncoderEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EncoderEquivalence, ModelMatchesSimulation) {
  const Netlist nl = small_random(GetParam());
  Solver s;
  encode_netlist(nl, s);
  sim::Simulator simulator(nl);
  util::Rng rng(GetParam() * 1000 + 1);

  for (int trial = 0; trial < 20; ++trial) {
    sim::Pattern pattern(nl.inputs().size());
    for (std::size_t i = 0; i < pattern.size(); ++i) pattern.set(i, rng.bernoulli(0.5));
    std::vector<Lit> assumptions;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i)
      assumptions.push_back(mk_lit(nl.inputs()[i], !pattern.test(i)));

    ASSERT_EQ(s.solve(assumptions), Solver::Result::Sat);
    const auto expected = simulator.simulate_pattern(pattern);
    for (NetId id = 0; id < nl.net_count(); ++id)
      ASSERT_EQ(s.model_value(id), expected[id]) << "net " << id << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, EncoderEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(Encoder, ForcingImpossibleValueUnsat) {
  // y = AND(a, NOT(a)) is constant 0; forcing y=1 must be UNSAT.
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId na = b.add_gate(GateType::Not, {a});
  const NetId y = b.add_gate(GateType::And, {a, na}, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  Solver s;
  encode_netlist(nl, s);
  const Lit force_y[] = {mk_lit(y)};
  EXPECT_EQ(s.solve(force_y), Solver::Result::Unsat);
  const Lit force_ny[] = {mk_lit(y, true)};
  EXPECT_EQ(s.solve(force_ny), Solver::Result::Sat);
}

TEST(Encoder, WideXorParityCorrect) {
  // 5-input XOR: force output and all-but-one input; remaining input is
  // determined by parity.
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(b.add_input());
  const NetId y = b.add_gate(GateType::Xor, ins, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  Solver s;
  encode_netlist(nl, s);

  std::vector<Lit> assumptions{mk_lit(y, false)};  // y = 1
  for (int i = 0; i < 4; ++i) assumptions.push_back(mk_lit(ins[i], true));  // all 0
  ASSERT_EQ(s.solve(assumptions), Solver::Result::Sat);
  EXPECT_TRUE(s.model_value(ins[4]));  // parity demands the last input = 1
}

TEST(Encoder, WideXnorCorrect) {
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 3; ++i) ins.push_back(b.add_input());
  const NetId y = b.add_gate(GateType::Xnor, ins, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  Solver s;
  encode_netlist(nl, s);
  // XNOR(0,0,0) = NOT(0) = 1.
  std::vector<Lit> assumptions;
  for (const NetId in : ins) assumptions.push_back(mk_lit(in, true));
  ASSERT_EQ(s.solve(assumptions), Solver::Result::Sat);
  EXPECT_TRUE(s.model_value(y));
}

// ------------------------------------------------------------- oracle ------

TEST(Oracle, FindsPatternForInternalTarget) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
      "n1 = AND(a, b)\ny = AND(n1, c)\n");
  NetlistOracle oracle(nl);
  const Constraint want{*nl.find("y"), true};
  const auto pattern = oracle.find_pattern({&want, 1});
  ASSERT_TRUE(pattern.has_value());
  // Verify by simulation.
  sim::Simulator simulator(nl);
  EXPECT_TRUE(simulator.simulate_pattern(*pattern)[*nl.find("y")]);
}

TEST(Oracle, ReportsUnsatisfiable) {
  NetlistBuilder b;
  const NetId a = b.add_input();
  const NetId na = b.add_gate(GateType::Not, {a});
  const NetId y = b.add_gate(GateType::And, {a, na});
  b.mark_output(y);
  const Netlist nl = b.build();
  NetlistOracle oracle(nl);
  const Constraint impossible{y, true};
  EXPECT_FALSE(oracle.satisfiable({&impossible, 1}));
  EXPECT_FALSE(oracle.find_pattern({&impossible, 1}).has_value());
  const Constraint possible{y, false};
  EXPECT_TRUE(oracle.satisfiable({&possible, 1}));
}

TEST(Oracle, MultiConstraintConjunction) {
  const Netlist nl = small_random(77);
  NetlistOracle oracle(nl);
  sim::Simulator simulator(nl);
  util::Rng rng(7);

  // Pick target values observed under a real pattern — guaranteed SAT; the
  // returned pattern must reproduce all of them simultaneously.
  sim::Pattern witness(nl.inputs().size());
  for (std::size_t i = 0; i < witness.size(); ++i) witness.set(i, rng.bernoulli(0.5));
  const auto values = simulator.simulate_pattern(witness);
  std::vector<Constraint> constraints;
  for (int k = 0; k < 6; ++k) {
    const NetId net = static_cast<NetId>(rng.below(nl.net_count()));
    constraints.push_back({net, values[net]});
  }
  const auto pattern = oracle.find_pattern(constraints);
  ASSERT_TRUE(pattern.has_value());
  const auto check = simulator.simulate_pattern(*pattern);
  for (const auto& c : constraints) EXPECT_EQ(check[c.net], c.value);
}

TEST(Oracle, JustifyAnswersWithASimulatedCandidate) {
  const Netlist nl = small_random(77);
  NetlistOracle oracle(nl);
  oracle.branch_on_inputs();
  sim::Simulator simulator(nl);
  util::Rng rng(11);
  std::size_t candidates = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Constraint> constraints;
    for (int k = 0; k < 2; ++k)
      constraints.push_back({static_cast<NetId>(rng.below(nl.net_count())), rng.bernoulli(0.5)});
    const bool want = oracle.satisfiable(constraints);
    const Justification answer = oracle.justify(constraints, -1);
    ASSERT_NE(answer.verdict, Justification::Verdict::Unknown);
    ASSERT_EQ(answer.verdict == Justification::Verdict::Candidate, want) << trial;
    if (!want) continue;
    ++candidates;
    ASSERT_EQ(answer.candidate.size(), nl.inputs().size());
    const auto values = simulator.simulate_pattern(answer.candidate);
    for (const auto& c : constraints) EXPECT_EQ(values[c.net], c.value) << trial;
    EXPECT_EQ(oracle.justify(constraints, 0).verdict, Justification::Verdict::Unknown);
  }
  EXPECT_GT(candidates, 0u);
}

TEST(OracleDeath, PartialModelIsNotReadAsAModel) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Netlist nl = small_random(77);
  NetlistOracle oracle(nl);
  const Constraint c{nl.outputs()[0], true};
  ASSERT_TRUE(oracle.satisfiable({&c, 1}));
  EXPECT_TRUE(oracle.model_satisfies(c));
  ASSERT_EQ(oracle.justify({&c, 1}, -1).verdict, Justification::Verdict::Candidate);
  EXPECT_DEATH((void)oracle.model_satisfies(c), "partial model");
  EXPECT_DEATH((void)oracle.input_model(), "partial model");
}

TEST(Oracle, RandomizedCompletionDiversifiesPatterns) {
  const Netlist nl = small_random(88, 60);
  NetlistOracle oracle(nl);
  util::Rng rng(9);
  // A single weak constraint leaves many don't-cares.
  const Constraint c{nl.outputs()[0], false};
  std::set<std::string> distinct;
  for (int i = 0; i < 12; ++i) {
    oracle.randomize_completion(rng);
    const auto pattern = oracle.find_pattern({&c, 1});
    if (pattern.has_value()) distinct.insert(pattern->to_string());
  }
  EXPECT_GT(distinct.size(), 2u);
}

TEST(Oracle, QueryCountAdvances) {
  const Netlist nl = small_random(99, 40);
  NetlistOracle oracle(nl);
  const Constraint c{nl.outputs()[0], true};
  const auto before = oracle.query_count();
  oracle.satisfiable({&c, 1});
  EXPECT_GT(oracle.query_count(), before);
}

TEST(Oracle, AgreesWithSimulationWitness) {
  // Property: any (net,value) pair observed in random simulation must be
  // satisfiable according to the oracle.
  const Netlist nl = small_random(111);
  NetlistOracle oracle(nl);
  sim::Simulator simulator(nl);
  util::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    sim::Pattern p(nl.inputs().size());
    for (std::size_t i = 0; i < p.size(); ++i) p.set(i, rng.bernoulli(0.5));
    const auto values = simulator.simulate_pattern(p);
    for (int k = 0; k < 5; ++k) {
      const NetId net = static_cast<NetId>(rng.below(nl.net_count()));
      const Constraint c{net, values[net]};
      EXPECT_TRUE(oracle.satisfiable({&c, 1}));
    }
  }
}

TEST(Oracle, MultiplierFactorization) {
  // Integration: on the 8×8 array multiplier, ask the oracle for inputs that
  // produce product == 143 (11 × 13) — i.e. SAT-based factoring.
  const Netlist nl = bench_gen::generate_array_multiplier(8);
  NetlistOracle oracle(nl);
  std::vector<Constraint> constraints;
  const unsigned target = 143;
  for (unsigned bit = 0; bit < 16; ++bit)
    constraints.push_back({nl.outputs()[bit], ((target >> bit) & 1u) != 0});
  const auto pattern = oracle.find_pattern(constraints);
  ASSERT_TRUE(pattern.has_value());
  unsigned a = 0;
  unsigned b = 0;
  for (unsigned i = 0; i < 8; ++i) {
    a |= static_cast<unsigned>(pattern->test(i)) << i;
    b |= static_cast<unsigned>(pattern->test(8 + i)) << i;
  }
  EXPECT_EQ(a * b, target);
}

}  // namespace
}  // namespace deterrent::sat
