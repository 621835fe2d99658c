// Tests for the SAT-based equivalence checker (miter) and dead-logic pruning,
// including the Trojan-relevant property: an HT-infected design is
// inequivalent to the golden one, and the counterexample the checker returns
// IS a trigger-activating test pattern.
#include <gtest/gtest.h>

#include "analysis/compatibility.hpp"
#include "analysis/rare_nets.hpp"
#include "bench_gen/library.hpp"
#include "bench_gen/multiplier.hpp"
#include "bench_gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/prune.hpp"
#include "sat/equivalence.hpp"
#include "sim/simulator.hpp"
#include "trojan/trojan.hpp"
#include "util/thread_pool.hpp"

namespace deterrent {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using netlist::NetId;

Netlist small_random(std::uint64_t seed, std::size_t gates = 150) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 10;
  p.n_outputs = 5;
  p.n_gates = gates;
  p.seed = seed;
  return bench_gen::generate_random_circuit(p);
}

// --------------------------------------------------------- equivalence -----

TEST(Equivalence, DesignEqualsItself) {
  const Netlist nl = small_random(1);
  const auto result = sat::check_equivalence(nl, nl);
  EXPECT_TRUE(result.equivalent);
  EXPECT_FALSE(result.counterexample.has_value());
}

TEST(Equivalence, DeMorganPairsAreEquivalent) {
  // NOT(a AND b) == NOT(a) OR NOT(b).
  const Netlist lhs = netlist::read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = AND(a, b)\ny = NOT(n)\n");
  const Netlist rhs = netlist::read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nnb = NOT(b)\ny = OR(na, nb)\n");
  EXPECT_TRUE(sat::check_equivalence(lhs, rhs).equivalent);
}

TEST(Equivalence, XorVsXnorDiffer) {
  const Netlist lhs = netlist::read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n");
  const Netlist rhs = netlist::read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XNOR(a, b)\n");
  const auto result = sat::check_equivalence(lhs, rhs);
  EXPECT_FALSE(result.equivalent);
  ASSERT_TRUE(result.counterexample.has_value());
}

TEST(Equivalence, CounterexampleActuallyDistinguishes) {
  // Mutate one random gate type; if the checker says "different", replaying
  // the counterexample must show differing outputs.
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    const Netlist original = small_random(seed);
    // Rebuild with one AND flipped to OR (first eligible gate).
    NetlistBuilder b;
    for (NetId id = 0; id < original.net_count(); ++id) b.declare(original.name(id));
    bool mutated = false;
    for (NetId id = 0; id < original.net_count(); ++id) {
      const auto type = original.type(id);
      const auto fanins = original.fanins(id);
      if (type == GateType::Input) {
        b.define_input(id);
      } else if (!mutated && type == GateType::And) {
        b.define_gate(id, GateType::Or, {fanins.begin(), fanins.end()});
        mutated = true;
      } else {
        b.define_gate(id, type, {fanins.begin(), fanins.end()});
      }
    }
    for (const NetId out : original.outputs()) b.mark_output(out);
    const Netlist variant = b.build();
    if (!mutated) continue;

    const auto result = sat::check_equivalence(original, variant);
    if (result.equivalent) continue;  // mutation can be functionally masked
    ASSERT_TRUE(result.counterexample.has_value());
    sim::Simulator sim_a(original);
    sim::Simulator sim_b(variant);
    const auto va = sim_a.simulate_pattern(*result.counterexample);
    const auto vb = sim_b.simulate_pattern(*result.counterexample);
    bool any_diff = false;
    for (std::size_t o = 0; o < original.outputs().size(); ++o)
      any_diff = any_diff ||
                 va[original.outputs()[o]] != vb[variant.outputs()[o]];
    EXPECT_TRUE(any_diff) << "seed " << seed;
  }
}

TEST(Equivalence, InfectedDesignCounterexampleActivatesTrigger) {
  // The killer application: equivalence-check golden vs HT-infected. The
  // only way they differ is when the trigger fires, so the SAT
  // counterexample must drive every select net to its rare value.
  const Netlist golden = small_random(33, 200);
  util::Rng rng(5);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = 0.2;
  const auto rare = analysis::find_rare_nets(golden, rcfg, rng);
  if (rare.size() < 4) GTEST_SKIP();
  sat::NetlistOracle oracle(golden);
  trojan::TrojanSampleConfig tcfg;
  tcfg.width = 3;
  tcfg.count = 5;
  const auto trojans = trojan::sample_trojans(golden, rare, tcfg, oracle, rng);
  ASSERT_FALSE(trojans.empty());

  for (const auto& ht : trojans) {
    const Netlist infected = trojan::apply_trojan(golden, ht);
    const auto result = sat::check_equivalence(golden, infected);
    ASSERT_FALSE(result.equivalent) << "HT vanished?";
    ASSERT_TRUE(result.counterexample.has_value());
    sim::Simulator sim(golden);
    const auto values = sim.simulate_pattern(*result.counterexample);
    for (const auto& rn : ht.trigger)
      EXPECT_EQ(values[rn.net], rn.rare_value)
          << "counterexample does not activate the trigger";
  }
}

TEST(Equivalence, MismatchedInterfacesThrow) {
  const Netlist a = netlist::read_bench_string("INPUT(x)\nOUTPUT(y)\ny = NOT(x)\n");
  const Netlist b = netlist::read_bench_string(
      "INPUT(x)\nINPUT(z)\nOUTPUT(y)\ny = AND(x, z)\n");
  EXPECT_THROW(sat::check_equivalence(a, b), Error);
}

TEST(Equivalence, MultiplierCommutes) {
  // a*b == b*a through a rewired instance: swap the operand input halves.
  const Netlist mult = bench_gen::generate_array_multiplier(4);
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (std::size_t i = 0; i < 8; ++i)
    ins.push_back(b.add_input("i" + std::to_string(i)));
  // Instantiate the multiplier with swapped halves.
  std::vector<NetId> map(mult.net_count(), netlist::kNoNet);
  for (unsigned i = 0; i < 4; ++i) {
    map[mult.inputs()[i]] = ins[4 + i];  // a ← b
    map[mult.inputs()[4 + i]] = ins[i];  // b ← a
  }
  for (const NetId id : mult.topo_order()) {
    if (mult.type(id) == GateType::Input) continue;
    std::vector<NetId> fanins;
    for (const NetId f : mult.fanins(id)) fanins.push_back(map[f]);
    map[id] = b.add_gate(mult.type(id), std::move(fanins));
  }
  for (const NetId out : mult.outputs()) b.mark_output(map[out]);
  const Netlist swapped = b.build();
  EXPECT_TRUE(sat::check_equivalence(mult, swapped).equivalent);
}

// -------------------------------------------------------------- pruning ----

TEST(Prune, RemovesDeadCone) {
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId live = b.add_gate(GateType::Not, {a}, "live");
  const NetId dead1 = b.add_gate(GateType::Buf, {a}, "dead1");
  b.add_gate(GateType::Not, {dead1}, "dead2");
  b.mark_output(live);
  const Netlist nl = b.build();

  const auto pruned = netlist::prune_dead_logic(nl);
  EXPECT_EQ(pruned.removed_nets, 2u);
  EXPECT_EQ(pruned.netlist.net_count(), 2u);
  EXPECT_TRUE(pruned.netlist.find("live").has_value());
  EXPECT_FALSE(pruned.netlist.find("dead1").has_value());
  EXPECT_NE(pruned.net_map[live], netlist::kNoNet);
  EXPECT_EQ(pruned.net_map[dead1], netlist::kNoNet);
}

TEST(Prune, KeepsAllInputs) {
  NetlistBuilder b;
  b.add_input("unused_pi");
  const NetId a = b.add_input("a");
  b.mark_output(b.add_gate(GateType::Not, {a}, "y"));
  const auto pruned = netlist::prune_dead_logic(b.build());
  EXPECT_EQ(pruned.netlist.inputs().size(), 2u);  // pattern arity preserved
}

TEST(Prune, SequentialStateIsLive) {
  // Logic feeding only a DFF's D input is observable state, not dead.
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId d = b.add_gate(GateType::Not, {a}, "d");
  const NetId q = b.add_dff(d, "q");
  b.mark_output(b.add_gate(GateType::Buf, {q}, "y"));
  const auto pruned = netlist::prune_dead_logic(b.build());
  EXPECT_EQ(pruned.removed_nets, 0u);
  EXPECT_TRUE(pruned.netlist.find("d").has_value());
}

TEST(Prune, PreservesFunction) {
  // Property: pruning never changes the observable function.
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    const Netlist nl = small_random(seed, 250);
    const auto pruned = netlist::prune_dead_logic(nl);
    ASSERT_EQ(pruned.netlist.outputs().size(), nl.outputs().size());
    const auto result = sat::check_equivalence(nl, pruned.netlist);
    EXPECT_TRUE(result.equivalent) << "seed " << seed;
  }
}

TEST(Prune, IdempotentOnCleanNetlist) {
  const Netlist nl = bench_gen::generate_array_multiplier(4);
  const auto once = netlist::prune_dead_logic(nl);
  const auto twice = netlist::prune_dead_logic(once.netlist);
  EXPECT_EQ(twice.removed_nets, 0u);
  EXPECT_EQ(twice.netlist.net_count(), once.netlist.net_count());
}

// --------------------------------------------------------- query pinning ---

// The compatibility matrix is a pure function of (netlist, rare nets, seed).
// Phase 2 splits its pair list into one chunk per pool worker, each with a
// private oracle and witness-harvest table, so the chunk plan changes with
// the pool width. Every answer — and therefore every matrix bit — must not:
// pool width 1 and 4 agree on a real processor design (MIPS16) and on a
// random circuit alike.
TEST(QueryPinning, PoolWidthKeepsCompatibilityBitIdentical) {
  std::vector<std::pair<std::string, Netlist>> designs;
  designs.emplace_back("random", small_random(77, 300));
  designs.emplace_back("mips16",
                       bench_gen::load_benchmark("mips16_like").scan.comb);

  for (const auto& [name, nl] : designs) {
    analysis::RareNetConfig rcfg;
    rcfg.threshold = 0.15;
    rcfg.sim_patterns = 1 << 12;
    util::Rng rare_rng(911);
    auto rare = analysis::find_rare_nets(nl, rcfg, rare_rng);
    if (rare.size() > 14) rare.resize(14);
    ASSERT_GE(rare.size(), 2u) << name;

    // Weak prefilter so a meaningful share of pairs reaches the solver.
    const auto build = [&](std::size_t width) {
      analysis::CompatibilityBuildConfig ccfg;
      ccfg.sim_patterns = 1 << 8;
      util::ThreadPool pool(width);
      util::Rng rng(4242);
      analysis::CompatibilityBuildStats stats;
      auto matrix =
          analysis::build_compatibility(nl, rare, ccfg, rng, &pool, &stats);
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
}  // namespace deterrent
