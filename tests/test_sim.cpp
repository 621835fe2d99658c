#include <gtest/gtest.h>

#include "bench_gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/scan.hpp"
#include "sim/pattern.hpp"
#include "sim/probability.hpp"
#include "util/thread_pool.hpp"

#include "helpers.hpp"
#include "reference_sim.hpp"

namespace deterrent::sim {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using netlist::NetId;

Netlist small_random(std::uint64_t seed, std::size_t gates = 120, std::size_t inputs = 10) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = inputs;
  p.n_outputs = 6;
  p.n_gates = gates;
  p.seed = seed;
  return bench_gen::generate_random_circuit(p);
}

// --------------------------------------------------------- PatternSet ------

TEST(PatternSet, PushAndReadBack) {
  PatternSet set(5);
  Pattern p(5);
  p.set(0);
  p.set(4);
  set.push(p);
  Pattern q(5);
  q.set(2);
  set.push(q);
  EXPECT_EQ(set.pattern_count(), 2u);
  EXPECT_TRUE(set.bit(0, 0));
  EXPECT_TRUE(set.bit(0, 4));
  EXPECT_FALSE(set.bit(0, 2));
  EXPECT_TRUE(set.bit(1, 2));
  EXPECT_EQ(set.pattern(0), p);
  EXPECT_EQ(set.pattern(1), q);
}

class PatternSetSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PatternSetSizes, BlockAndMaskConsistent) {
  const std::size_t n = GetParam();
  util::Rng rng(n + 1);
  const PatternSet set = PatternSet::random(7, n, rng);
  EXPECT_EQ(set.pattern_count(), n);
  EXPECT_EQ(set.block_count(), (n + 63) / 64);
  if (n == 0) return;
  std::size_t valid_total = 0;
  for (std::size_t b = 0; b < set.block_count(); ++b)
    valid_total += static_cast<std::size_t>(__builtin_popcountll(set.valid_mask(b)));
  EXPECT_EQ(valid_total, n);
}

INSTANTIATE_TEST_SUITE_P(BoundarySizes, PatternSetSizes,
                         ::testing::Values(0, 1, 2, 63, 64, 65, 127, 128, 129, 1000));

TEST(PatternSet, RandomIsDeterministic) {
  util::Rng a(5);
  util::Rng b(5);
  const auto s1 = PatternSet::random(11, 200, a);
  const auto s2 = PatternSet::random(11, 200, b);
  for (std::size_t p = 0; p < 200; ++p)
    for (std::size_t i = 0; i < 11; ++i) ASSERT_EQ(s1.bit(p, i), s2.bit(p, i));
}

TEST(PatternSet, RandomBitsBalanced) {
  util::Rng rng(6);
  const auto set = PatternSet::random(4, 20000, rng);
  for (std::size_t i = 0; i < 4; ++i) {
    std::size_t ones = 0;
    for (std::size_t p = 0; p < set.pattern_count(); ++p) ones += set.bit(p, i);
    EXPECT_NEAR(static_cast<double>(ones) / 20000.0, 0.5, 0.02);
  }
}

// ---------------------------------------------------------- Simulator ------

TEST(Simulator, RejectsSequential) {
  NetlistBuilder b;
  const NetId a = b.add_input();
  const NetId q = b.add_dff(a);
  b.mark_output(q);
  const Netlist nl = b.build();
  EXPECT_THROW(Simulator{nl}, Error);
  EXPECT_THROW(evaluate_naive(nl, {false}), Error);
}

TEST(Simulator, SinglePatternMatchesTruth) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = AND(a, b)\ny = NOT(n)\n");
  Simulator sim(nl);
  const NetId y = *nl.find("y");
  for (int a = 0; a <= 1; ++a)
    for (int bb = 0; bb <= 1; ++bb) {
      Pattern p(2);
      p.set(0, a);
      p.set(1, bb);
      const auto values = sim.simulate_pattern(p);
      EXPECT_EQ(values[y], !(a && bb));
    }
}

/// Property: the bit-parallel engine agrees with the scalar reference on
/// random circuits and random stimulus, lane by lane.
class SimEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimEquivalence, BitParallelMatchesNaive) {
  const Netlist nl = small_random(GetParam());
  Simulator sim(nl);
  util::Rng rng(GetParam() * 31 + 7);
  const auto patterns = PatternSet::random(nl.inputs().size(), 130, rng);

  sim.simulate(patterns, [&](std::size_t block, std::uint64_t valid_mask,
                             std::span<const std::uint64_t> values) {
    for (int lane = 0; lane < 64; ++lane) {
      if (!((valid_mask >> lane) & 1ULL)) continue;
      const std::size_t pat = block * 64 + static_cast<std::size_t>(lane);
      std::vector<bool> inputs(nl.inputs().size());
      for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = patterns.bit(pat, i);
      const auto expected = evaluate_naive(nl, inputs);
      for (NetId id = 0; id < nl.net_count(); ++id)
        ASSERT_EQ(((values[id] >> lane) & 1ULL) != 0, expected[id])
            << "net " << id << " pattern " << pat;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, SimEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Simulator, ScanViewSimulatesSequentialDesign) {
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId q = b.add_dff(netlist::kNoNet, "q");
  const NetId x = b.add_gate(GateType::Xor, {a, q}, "x");
  b.set_dff_input(q, x);
  b.mark_output(x);
  const auto view = netlist::make_full_scan(b.build());
  Simulator sim(view.comb);
  // inputs: [a, q] in id order; x = a ^ q.
  Pattern p(2);
  p.set(0, true);
  p.set(1, true);
  EXPECT_FALSE(sim.simulate_pattern(p)[x]);
  p.set(1, false);
  EXPECT_TRUE(sim.simulate_pattern(p)[x]);
}

// ------------------------------------------------------- probability -------

TEST(Probability, ExactOnAndChain) {
  // y = a & b & c & d: P(y=1) = 1/16.
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 4; ++i) ins.push_back(b.add_input());
  const NetId y = b.add_gate(GateType::And, ins, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  const auto stats = exact_signal_stats(nl);
  EXPECT_EQ(stats.pattern_count, 16u);
  EXPECT_DOUBLE_EQ(stats.prob_one(y), 1.0 / 16.0);
  for (const NetId in : nl.inputs()) EXPECT_DOUBLE_EQ(stats.prob_one(in), 0.5);
}

TEST(Probability, ExactOnXorTree) {
  // XOR of independent uniform bits stays uniform.
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(b.add_input());
  const NetId y = b.add_gate(GateType::Xor, ins, "y");
  b.mark_output(y);
  const auto stats = exact_signal_stats(b.build());
  EXPECT_DOUBLE_EQ(stats.prob_one(y), 0.5);
}

TEST(Probability, EstimateConvergesToExact) {
  const Netlist nl = small_random(42, 150, 8);
  const auto exact = exact_signal_stats(nl);
  util::Rng rng(1);
  const auto est = estimate_signal_stats(nl, 1 << 15, rng);
  for (NetId id = 0; id < nl.net_count(); ++id)
    EXPECT_NEAR(est.prob_one(id), exact.prob_one(id), 0.02) << "net " << id;
}

TEST(Probability, ThreadedEstimateIsDeterministic) {
  const Netlist nl = small_random(43, 200, 12);
  util::ThreadPool pool(4);
  util::Rng rng1(5);
  util::Rng rng2(5);
  const auto seq = estimate_signal_stats(nl, 4096, rng1, nullptr);
  const auto par = estimate_signal_stats(nl, 4096, rng2, &pool);
  ASSERT_EQ(seq.ones.size(), par.ones.size());
  for (std::size_t i = 0; i < seq.ones.size(); ++i) EXPECT_EQ(seq.ones[i], par.ones[i]);
}

TEST(Probability, StatsForGivenPatterns) {
  const Netlist nl = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  PatternSet set(2);
  for (int a = 0; a <= 1; ++a)
    for (int bb = 0; bb <= 1; ++bb) {
      Pattern p(2);
      p.set(0, a);
      p.set(1, bb);
      set.push(p);
    }
  const auto stats = signal_stats_for_patterns(nl, set);
  EXPECT_EQ(stats.pattern_count, 4u);
  EXPECT_EQ(stats.ones[*nl.find("y")], 1u);
}

TEST(Probability, ZeroPatterns) {
  const Netlist nl = small_random(44, 50, 6);
  util::Rng rng(3);
  const auto stats = estimate_signal_stats(nl, 0, rng);
  EXPECT_EQ(stats.pattern_count, 0u);
  EXPECT_DOUBLE_EQ(stats.prob_one(0), 0.0);
}

TEST(Probability, NonMultipleOf64PatternCount) {
  const Netlist nl = small_random(45, 60, 6);
  util::Rng rng(4);
  const auto stats = estimate_signal_stats(nl, 100, rng);
  EXPECT_EQ(stats.pattern_count, 100u);
  for (const NetId in : nl.inputs()) EXPECT_LE(stats.ones[in], 100u);
}

TEST(Probability, ExactMatchesExplicitEnumerationAcrossBatches) {
  // 12 inputs = 4096 assignments = 64 blocks: the Engine sweep over the
  // explicitly constructed exhaustive pattern set runs several full W-word
  // passes, and must count what the naive enumerator counts.
  const Netlist nl = small_random(46, 180, 12);
  const std::size_t n_inputs = nl.inputs().size();
  PatternSet all(n_inputs);
  for (std::size_t v = 0; v < (std::size_t{1} << n_inputs); ++v) {
    Pattern p(n_inputs);
    for (std::size_t i = 0; i < n_inputs; ++i) p.set(i, (v >> i) & 1);
    all.push(p);
  }
  const auto exact = exact_signal_stats(nl);
  const auto reference = signal_stats_for_patterns(nl, all);
  ASSERT_EQ(exact.pattern_count, reference.pattern_count);
  for (NetId id = 0; id < nl.net_count(); ++id)
    EXPECT_EQ(exact.ones[id], reference.ones[id]) << "net " << id;
}

TEST(Probability, ExactHandlesPartialFinalBlock) {
  // 5 inputs = 32 assignments — less than one 64-lane block: exactly those
  // are counted, and each input is 1 in half of them.
  const Netlist nl = small_random(47, 60, 5);
  const auto exact = exact_signal_stats(nl);
  EXPECT_EQ(exact.pattern_count, 32u);
  for (const NetId in : nl.inputs()) EXPECT_EQ(exact.ones[in], 16u);
}

}  // namespace
}  // namespace deterrent::sim
