#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "analysis/compatibility.hpp"
#include "analysis/rare_nets.hpp"
#include "analysis/scoap.hpp"
#include "bench_gen/library.hpp"
#include "bench_gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "sat/oracle.hpp"
#include "sim/probability.hpp"
#include "util/faults.hpp"
#include "util/thread_pool.hpp"

#include "helpers.hpp"
#include "reference_sim.hpp"

namespace deterrent::analysis {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using netlist::NetId;

Netlist small_random(std::uint64_t seed, std::size_t gates = 150, std::size_t inputs = 12) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = inputs;
  p.n_outputs = 6;
  p.n_gates = gates;
  p.seed = seed;
  return bench_gen::generate_random_circuit(p);
}

// ---------------------------------------------------------- rare nets ------

TEST(RareNets, AndChainIsRareOne) {
  // y = AND of 5 inputs: P(1) = 1/32 < 0.1 ⇒ rare value 1.
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(b.add_input());
  const NetId y = b.add_gate(GateType::And, ins, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  const auto stats = sim::exact_signal_stats(nl);
  const auto rare = find_rare_nets(nl, stats, {});
  ASSERT_EQ(rare.size(), 1u);
  EXPECT_EQ(rare[0].net, y);
  EXPECT_TRUE(rare[0].rare_value);
  EXPECT_DOUBLE_EQ(rare[0].probability, 1.0 / 32.0);
}

TEST(RareNets, NandChainIsRareZero) {
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(b.add_input());
  const NetId y = b.add_gate(GateType::Nand, ins, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  const auto rare = find_rare_nets(nl, sim::exact_signal_stats(nl), {});
  ASSERT_EQ(rare.size(), 1u);
  EXPECT_FALSE(rare[0].rare_value);  // the rare value is 0
}

TEST(RareNets, ThresholdIsExclusive) {
  // OR of 3 inputs: P(0) = 1/8 = 0.125. Threshold 0.125 ⇒ not rare (strict <);
  // threshold 0.13 ⇒ rare.
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 3; ++i) ins.push_back(b.add_input());
  const NetId y = b.add_gate(GateType::Or, ins, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  const auto stats = sim::exact_signal_stats(nl);
  RareNetConfig cfg;
  cfg.threshold = 0.125;
  EXPECT_TRUE(find_rare_nets(nl, stats, cfg).empty());
  cfg.threshold = 0.13;
  EXPECT_EQ(find_rare_nets(nl, stats, cfg).size(), 1u);
}

TEST(RareNets, InputsAndConstantsExcluded) {
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId c0 = b.add_const(false);
  const NetId y = b.add_gate(GateType::Or, {a, c0}, "y");  // p = 0.5, not rare
  b.mark_output(y);
  const Netlist nl = b.build();
  const auto rare = find_rare_nets(nl, sim::exact_signal_stats(nl), {});
  EXPECT_TRUE(rare.empty());
}

TEST(RareNets, UntoggledNetsExcludedByDefault) {
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId na = b.add_gate(GateType::Not, {a});
  const NetId y = b.add_gate(GateType::And, {a, na}, "y");  // constant 0
  b.mark_output(y);
  const Netlist nl = b.build();
  const auto stats = sim::exact_signal_stats(nl);
  EXPECT_TRUE(find_rare_nets(nl, stats, {}).empty());
  RareNetConfig keep;
  keep.exclude_untoggled = false;
  const auto rare = find_rare_nets(nl, stats, keep);
  ASSERT_EQ(rare.size(), 1u);
  EXPECT_EQ(rare[0].net, y);
}

TEST(RareNets, MonotoneInThreshold) {
  const Netlist nl = small_random(17, 300);
  util::Rng rng(5);
  const auto stats = sim::estimate_signal_stats(nl, 1 << 14, rng);
  std::size_t prev = 0;
  for (const double theta : {0.05, 0.08, 0.10, 0.12, 0.14}) {
    RareNetConfig cfg;
    cfg.threshold = theta;
    const auto rare = find_rare_nets(nl, stats, cfg);
    EXPECT_GE(rare.size(), prev) << "threshold " << theta;
    prev = rare.size();
    for (const auto& rn : rare) EXPECT_LT(rn.probability, theta);
  }
}

TEST(RareNets, EstimatedMatchesExactClassification) {
  const Netlist nl = small_random(23, 120, 10);
  const auto exact = sim::exact_signal_stats(nl);
  util::Rng rng(11);
  util::ThreadPool pool(2);
  RareNetConfig cfg;
  cfg.sim_patterns = 1 << 15;
  const auto est_rare = find_rare_nets(nl, cfg, rng, &pool);
  const auto exact_rare = find_rare_nets(nl, exact, cfg);
  // Allow borderline differences: every definitely-rare net (margin below
  // threshold) must appear in the estimated set.
  std::set<NetId> est_ids;
  for (const auto& rn : est_rare) est_ids.insert(rn.net);
  for (const auto& rn : exact_rare)
    if (rn.probability < cfg.threshold - 0.02)
      EXPECT_TRUE(est_ids.count(rn.net)) << "net " << rn.net;
}

// -------------------------------------------------------------- SCOAP ------

TEST(Scoap, InputsAreUnity) {
  const Netlist nl = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n");
  const auto v = compute_scoap(nl);
  const NetId a = *nl.find("a");
  EXPECT_EQ(v.cc0[a], 1u);
  EXPECT_EQ(v.cc1[a], 1u);
}

TEST(Scoap, AndGateTextbookValues) {
  const Netlist nl = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  const auto v = compute_scoap(nl);
  const NetId y = *nl.find("y");
  EXPECT_EQ(v.cc1[y], 3u);  // CC1(a)+CC1(b)+1
  EXPECT_EQ(v.cc0[y], 2u);  // min(CC0)+1
  // Observability of a: CO(y)=0, side input b must be 1: 0 + CC1(b) + 1 = 2.
  EXPECT_EQ(v.co[*nl.find("a")], 2u);
}

TEST(Scoap, NotGateSwapsControllability) {
  const Netlist nl =
      parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  const auto v = compute_scoap(nl);
  const NetId y = *nl.find("y");
  EXPECT_EQ(v.cc0[y], 2u);
  EXPECT_EQ(v.cc1[y], 2u);
  EXPECT_EQ(v.co[*nl.find("a")], 1u);
}

TEST(Scoap, DeepChainAccumulates) {
  // y = a1 & a2 & ... via a chain of 2-input ANDs: CC1 grows linearly.
  NetlistBuilder b;
  NetId acc = b.add_input();
  std::vector<NetId> chain{acc};
  for (int i = 0; i < 9; ++i) {
    const NetId in = b.add_input();
    acc = b.add_gate(GateType::And, {acc, in});
    chain.push_back(acc);
  }
  b.mark_output(acc);
  const Netlist nl = b.build();
  const auto v = compute_scoap(nl);
  std::uint32_t prev = 1;
  for (std::size_t k = 1; k < chain.size(); ++k) {
    EXPECT_GT(v.cc1[chain[k]], prev);
    prev = v.cc1[chain[k]];
  }
  // Each AND stage adds CC1(new input)=1 plus the +1 gate cost: 1 + 2·9.
  EXPECT_EQ(v.cc1[chain.back()], 19u);
}

TEST(Scoap, ConstantsAreUncontrollableTheOtherWay) {
  NetlistBuilder b;
  const NetId c1 = b.add_const(true);
  const NetId a = b.add_input();
  const NetId y = b.add_gate(GateType::And, {c1, a});
  b.mark_output(y);
  const auto v = compute_scoap(b.build());
  EXPECT_EQ(v.cc1[c1], 0u);
  EXPECT_EQ(v.cc0[c1], ScoapValues::kInfinity);
}

TEST(Scoap, UnobservableNetStaysInfinite) {
  NetlistBuilder b;
  const NetId a = b.add_input();
  const NetId dead = b.add_gate(GateType::Not, {a});  // not connected to any PO
  const NetId y = b.add_gate(GateType::Buf, {a});
  b.mark_output(y);
  const Netlist nl = b.build();
  const auto v = compute_scoap(nl);
  EXPECT_EQ(v.co[dead], ScoapValues::kInfinity);
  EXPECT_EQ(v.co[y], 0u);
}

TEST(Scoap, XorObservabilityUsesCheapestSide) {
  const Netlist nl = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n");
  const auto v = compute_scoap(nl);
  // CO(a) = CO(y) + min(CC0(b), CC1(b)) + 1 = 0 + 1 + 1.
  EXPECT_EQ(v.co[*nl.find("a")], 2u);
}

TEST(Scoap, RejectsSequential) {
  NetlistBuilder b;
  const NetId a = b.add_input();
  b.mark_output(b.add_dff(a));
  EXPECT_THROW(compute_scoap(b.build()), Error);
}

// ------------------------------------------------------ compatibility ------

TEST(Compatibility, MatrixBasics) {
  CompatibilityMatrix m(4);
  EXPECT_EQ(m.size(), 4u);
  EXPECT_FALSE(m.compatible(0, 1));
  m.set(0, 1);
  EXPECT_TRUE(m.compatible(0, 1));
  EXPECT_TRUE(m.compatible(1, 0));  // symmetric
  EXPECT_EQ(m.edge_count(), 1u);
  m.set(2, 2);  // diagonal: singleton satisfiability, not an edge
  EXPECT_EQ(m.edge_count(), 1u);
  EXPECT_TRUE(m.singleton_satisfiable(2));
  EXPECT_DOUBLE_EQ(m.average_degree(), 2.0 * 1.0 / 4.0);
}

TEST(Compatibility, EdgeCountFollowsEverySet) {
  CompatibilityMatrix m(6);
  EXPECT_EQ(m.edge_count(), 0u);
  m.set(0, 1);
  m.set(2, 3);
  EXPECT_EQ(m.edge_count(), 2u);
  EXPECT_EQ(m.edge_count(), 2u);  // a repeated call agrees
  m.set(0, 1, false);
  EXPECT_EQ(m.edge_count(), 1u);
  m.set(4, 4);  // a diagonal write never adds an edge
  EXPECT_EQ(m.edge_count(), 1u);
  m.set(4, 5);
  EXPECT_EQ(m.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(m.average_degree(), 2.0 * 2.0 / 6.0);
}

TEST(Compatibility, SignaturesMarkRareActivations) {
  // y1 = AND(a,b) rare at 1; y2 = NOR(a,b) rare at... p=1/4 each (not below
  // 0.1, but signatures don't care about thresholds).
  const Netlist nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y1)\nOUTPUT(y2)\ny1 = AND(a, b)\ny2 = NOR(a, b)\n");
  std::vector<RareNet> rare{{*nl.find("y1"), true, 0.25}, {*nl.find("y2"), true, 0.25}};
  util::Rng rng(3);
  const auto sigs = rare_activation_signatures(nl, rare, 512, rng);
  ASSERT_EQ(sigs.size(), 2u);
  // y1 and y2 can never be 1 simultaneously: signatures must be disjoint.
  EXPECT_FALSE(sigs[0].intersects(sigs[1]));
  EXPECT_TRUE(sigs[0].any());
  EXPECT_TRUE(sigs[1].any());
  // With p=0.25 each, counts should be near 128 of 512.
  EXPECT_NEAR(static_cast<double>(sigs[0].count()), 128.0, 40.0);
}

TEST(Compatibility, ExclusiveRareValuesIncompatible) {
  // y1 = AND(a,b) @1 and y2 = NOR(a,b) @1 are mutually exclusive.
  const Netlist nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y1)\nOUTPUT(y2)\ny1 = AND(a, b)\ny2 = NOR(a, b)\n");
  std::vector<RareNet> rare{{*nl.find("y1"), true, 0.25}, {*nl.find("y2"), true, 0.25}};
  util::Rng rng(5);
  CompatibilityBuildStats stats;
  const auto matrix = build_compatibility(nl, rare, {}, rng, nullptr, &stats);
  EXPECT_FALSE(matrix.compatible(0, 1));
  EXPECT_TRUE(matrix.singleton_satisfiable(0));
  EXPECT_TRUE(matrix.singleton_satisfiable(1));
  EXPECT_EQ(stats.sat_unsat, 1u);  // the (0,1) pair had to go to SAT
}

TEST(Compatibility, UnsatSingletonClearsRow) {
  // y = AND(a, NOT a) can never be 1.
  NetlistBuilder b;
  const NetId a = b.add_input();
  const NetId na = b.add_gate(GateType::Not, {a});
  const NetId y = b.add_gate(GateType::And, {a, na}, "y");
  const NetId z = b.add_gate(GateType::Or, {a, na}, "z");  // constant 1
  b.mark_output(y);
  b.mark_output(z);
  const Netlist nl = b.build();
  std::vector<RareNet> rare{{y, true, 0.0}, {z, false, 0.0}};
  util::Rng rng(7);
  CompatibilityBuildStats stats;
  const auto matrix = build_compatibility(nl, rare, {}, rng, nullptr, &stats);
  EXPECT_FALSE(matrix.singleton_satisfiable(0));
  EXPECT_FALSE(matrix.compatible(0, 1));
  EXPECT_EQ(stats.unsat_singletons, 2u);  // both impossible
}

/// Property: matrix content equals ground-truth pairwise SAT on random
/// circuits, regardless of whether the pre-filter or the solver resolved it.
class CompatibilityGroundTruth : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompatibilityGroundTruth, MatchesDirectSatQueries) {
  const Netlist nl = small_random(GetParam(), 200, 10);
  util::Rng rng(GetParam() + 1);
  RareNetConfig rcfg;
  rcfg.threshold = 0.2;  // permissive: more pairs to check
  rcfg.sim_patterns = 1 << 13;
  auto rare = find_rare_nets(nl, rcfg, rng);
  if (rare.size() > 25) rare.resize(25);
  if (rare.size() < 2) GTEST_SKIP() << "profile produced too few rare nets";

  CompatibilityBuildConfig ccfg;
  ccfg.sim_patterns = 1 << 10;  // weak prefilter: force SAT involvement
  util::Rng rng2(GetParam() + 2);
  const auto matrix = build_compatibility(nl, rare, ccfg, rng2);

  sat::NetlistOracle oracle(nl);
  for (std::uint32_t i = 0; i < rare.size(); ++i) {
    for (std::uint32_t j = i; j < rare.size(); ++j) {
      const sat::Constraint cs[2] = {{rare[i].net, rare[i].rare_value},
                                     {rare[j].net, rare[j].rare_value}};
      const bool truth = oracle.satisfiable({cs, i == j ? 1u : 2u});
      // Singleton-unsat rows are cleared wholesale, which may erase true
      // pairwise bits; account for that.
      const bool cleared =
          !matrix.singleton_satisfiable(i) || !matrix.singleton_satisfiable(j);
      if (!cleared)
        EXPECT_EQ(matrix.compatible(i, j), truth) << "pair " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompatibilityGroundTruth,
                         ::testing::Values(101, 202, 303, 404));

TEST(Compatibility, ThreadedBuildMatchesSequential) {
  const Netlist nl = small_random(55, 250, 12);
  util::Rng rng(9);
  RareNetConfig rcfg;
  rcfg.threshold = 0.15;
  const auto rare = find_rare_nets(nl, rcfg, rng);
  if (rare.size() < 3) GTEST_SKIP();

  util::Rng rng_a(42);
  util::Rng rng_b(42);
  util::ThreadPool pool(4);
  const auto seq = build_compatibility(nl, rare, {}, rng_a, nullptr);
  const auto par = build_compatibility(nl, rare, {}, rng_b, &pool);
  ASSERT_EQ(seq.size(), par.size());
  for (std::uint32_t i = 0; i < seq.size(); ++i)
    for (std::uint32_t j = 0; j < seq.size(); ++j)
      ASSERT_EQ(seq.compatible(i, j), par.compatible(i, j)) << i << "," << j;
}

TEST(Compatibility, StatsAddUp) {
  const Netlist nl = small_random(66, 200, 10);
  util::Rng rng(13);
  RareNetConfig rcfg;
  rcfg.threshold = 0.15;
  const auto rare = find_rare_nets(nl, rcfg, rng);
  if (rare.empty()) GTEST_SKIP();
  CompatibilityBuildStats stats;
  util::Rng rng2(14);
  build_compatibility(nl, rare, {}, rng2, nullptr, &stats);
  const std::size_t n = rare.size();
  EXPECT_EQ(stats.pair_count, n * (n + 1) / 2);
  EXPECT_EQ(stats.sim_resolved + stats.sat_sat + stats.sat_unsat + stats.timeout_pairs,
            stats.pair_count);
  EXPECT_GT(stats.build_seconds, 0.0);
}

/// Witness harvesting skips the SAT query of every pair an earlier Sat
/// model already drives to its rare values, and the other Sat pairs are
/// proven by their own justification candidate. The matrix must still equal
/// a reference that asks an oracle about every pair, the skips must be real
/// queries saved (counted at the sat.query fault site), no candidate may
/// need the fallback query, and neither the matrix nor the serialized
/// counters may depend on the pool size.
TEST(Compatibility, HarvestMatchesPerPairOracle) {
  struct Profile {
    std::uint64_t seed;
    std::size_t gates;
    std::size_t inputs;
  };
  for (const Profile& profile : {Profile{71, 300, 16}, Profile{72, 500, 24},
                                 Profile{73, 800, 32}}) {
    SCOPED_TRACE(profile.seed);
    const Netlist nl = small_random(profile.seed, profile.gates, profile.inputs);
    util::Rng rng(profile.seed + 1);
    auto rare = find_rare_nets(nl, RareNetConfig{}, rng);
    if (rare.size() > 60) rare.resize(60);
    ASSERT_GE(rare.size(), 20u);

    // Reference: one query per pair, then the same singleton clearing.
    CompatibilityMatrix reference(rare.size());
    sat::NetlistOracle oracle(nl);
    for (std::uint32_t i = 0; i < rare.size(); ++i) {
      for (std::uint32_t j = i; j < rare.size(); ++j) {
        const sat::Constraint cs[2] = {{rare[i].net, rare[i].rare_value},
                                       {rare[j].net, rare[j].rare_value}};
        if (oracle.satisfiable({cs, i == j ? 1u : 2u})) reference.set(i, j);
      }
    }
    finalize_compatibility(reference);

    CompatibilityBuildConfig ccfg;
    ccfg.sim_patterns = 1 << 8;  // weak prefilter: most pairs reach phase 2
    CompatibilityBuildStats first;
    for (const std::size_t threads : {1, 2, 3}) {
      SCOPED_TRACE(threads);
      util::ThreadPool pool(threads);
      // A spec that never fires still counts every query at the site.
      util::faults::arm("sat.query", {util::faults::Action::Throw, 0, 0.0});
      util::Rng build_rng(profile.seed + 2);
      CompatibilityBuildStats stats;
      const auto matrix = build_compatibility(nl, rare, ccfg, build_rng, &pool, &stats);
      const std::uint64_t queries = util::faults::hit_count("sat.query");
      util::faults::disarm_all();

      for (std::uint32_t i = 0; i < rare.size(); ++i)
        ASSERT_EQ(matrix.row(i), reference.row(i)) << "row " << i;
      EXPECT_GT(stats.harvested, 0u);
      EXPECT_GT(stats.justified, 0u);
      EXPECT_EQ(stats.justify_fallbacks, 0u);
      EXPECT_LE(stats.harvested + stats.justified, stats.sat_sat);
      EXPECT_EQ(queries, stats.solver_calls());
      EXPECT_EQ(queries, stats.sat_sat - stats.harvested + stats.sat_unsat +
                             stats.timeout_pairs + stats.justify_fallbacks);
      if (threads == 1) {
        first = stats;
        continue;
      }
      EXPECT_EQ(stats.pair_count, first.pair_count);
      EXPECT_EQ(stats.sim_resolved, first.sim_resolved);
      EXPECT_EQ(stats.sat_sat, first.sat_sat);
      EXPECT_EQ(stats.sat_unsat, first.sat_unsat);
      EXPECT_EQ(stats.timeout_pairs, first.timeout_pairs);
      EXPECT_EQ(stats.unsat_singletons, first.unsat_singletons);
    }
  }
}


// The compatibility matrix is a pure function of (netlist, rare nets, seed).
// Phase 2 splits its pair list into one chunk per pool worker, each with a
// private oracle and witness-harvest table, so the chunk plan changes with
// the pool width. Every answer — and therefore every matrix bit — must not:
// pool width 1 and 4 agree on a real processor design (MIPS16) and on a
// random circuit alike.
TEST(QueryPinning, PoolWidthKeepsCompatibilityBitIdentical) {
  bench_gen::RandomCircuitProfile profile;
  profile.n_inputs = 10;
  profile.n_outputs = 5;
  profile.n_gates = 300;
  profile.seed = 77;
  std::vector<std::pair<std::string, Netlist>> designs;
  designs.emplace_back("random", bench_gen::generate_random_circuit(profile));
  designs.emplace_back("mips16",
                       bench_gen::load_benchmark("mips16_like").scan.comb);

  for (const auto& [name, nl] : designs) {
    RareNetConfig rcfg;
    rcfg.threshold = 0.15;
    rcfg.sim_patterns = 1 << 12;
    util::Rng rare_rng(911);
    auto rare = find_rare_nets(nl, rcfg, rare_rng);
    if (rare.size() > 14) rare.resize(14);
    ASSERT_GE(rare.size(), 2u) << name;

    // Weak prefilter so a meaningful share of pairs reaches the solver.
    const auto build = [&](std::size_t width) {
      CompatibilityBuildConfig ccfg;
      ccfg.sim_patterns = 1 << 8;
      util::ThreadPool pool(width);
      util::Rng rng(4242);
      CompatibilityBuildStats stats;
      auto matrix = build_compatibility(nl, rare, ccfg, rng, &pool, &stats);
      EXPECT_EQ(stats.timeout_pairs, 0u) << name;  // answers are all exact
      return matrix;
    };

    const auto reference = build(1);
    const auto matrix = build(4);
    ASSERT_EQ(matrix.size(), reference.size()) << name;
    for (std::uint32_t i = 0; i < matrix.size(); ++i)
      ASSERT_EQ(matrix.row(i), reference.row(i))
          << name << ": row " << i << " diverged at pool width 4";
  }
}

}  // namespace
}  // namespace deterrent::analysis
