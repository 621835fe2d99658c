#include <gtest/gtest.h>

#include <set>

#include "bench_gen/library.hpp"
#include "bench_gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "trojan/coverage.hpp"
#include "trojan/trojan.hpp"
#include "util/rng.hpp"

#include "reference_sim.hpp"

namespace deterrent::trojan {
namespace {

using analysis::RareNet;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using netlist::NetId;

struct Fixture {
  Netlist netlist;
  std::vector<RareNet> rare;
};

Fixture make_fixture(std::uint64_t seed, double threshold = 0.15) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 16;
  p.n_outputs = 8;
  p.n_gates = 250;
  p.seed = seed;
  Fixture f{bench_gen::generate_random_circuit(p), {}};
  util::Rng rng(seed + 1);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = threshold;
  rcfg.sim_patterns = 1 << 13;
  f.rare = analysis::find_rare_nets(f.netlist, rcfg, rng);
  return f;
}

// ----------------------------------------------------------- sampling ------

TEST(Sampling, ProducesRequestedCountOfValidTriggers) {
  const Fixture f = make_fixture(5);
  if (f.rare.size() < 8) GTEST_SKIP() << "too few rare nets";
  sat::NetlistOracle oracle(f.netlist);
  util::Rng rng(9);
  TrojanSampleConfig cfg;
  cfg.width = 4;
  cfg.count = 20;
  const auto trojans = sample_trojans(f.netlist, f.rare, cfg, oracle, rng);
  EXPECT_EQ(trojans.size(), 20u);
  for (const auto& t : trojans) {
    EXPECT_EQ(t.width(), 4u);
    // Verified valid: the trigger conjunction must be satisfiable.
    std::vector<sat::Constraint> cs;
    for (const auto& rn : t.trigger) cs.push_back({rn.net, rn.rare_value});
    EXPECT_TRUE(oracle.satisfiable(cs));
  }
}

TEST(Sampling, TriggersAreDistinct) {
  const Fixture f = make_fixture(6);
  if (f.rare.size() < 8) GTEST_SKIP();
  sat::NetlistOracle oracle(f.netlist);
  util::Rng rng(10);
  TrojanSampleConfig cfg;
  cfg.width = 3;
  cfg.count = 15;
  const auto trojans = sample_trojans(f.netlist, f.rare, cfg, oracle, rng);
  std::set<std::vector<NetId>> seen;
  for (const auto& t : trojans) {
    std::vector<NetId> key;
    for (const auto& rn : t.trigger) key.push_back(rn.net);
    std::sort(key.begin(), key.end());
    EXPECT_TRUE(seen.insert(key).second) << "duplicate trigger";
  }
}

TEST(Sampling, WidthLargerThanRareNetsYieldsNothing) {
  const Fixture f = make_fixture(7);
  sat::NetlistOracle oracle(f.netlist);
  util::Rng rng(11);
  TrojanSampleConfig cfg;
  cfg.width = static_cast<unsigned>(f.rare.size() + 5);
  cfg.count = 3;
  EXPECT_TRUE(sample_trojans(f.netlist, f.rare, cfg, oracle, rng).empty());
}

TEST(Sampling, PayloadIsSafe) {
  const Fixture f = make_fixture(8);
  if (f.rare.size() < 6) GTEST_SKIP();
  sat::NetlistOracle oracle(f.netlist);
  util::Rng rng(12);
  TrojanSampleConfig cfg;
  cfg.width = 3;
  cfg.count = 10;
  for (const auto& t : sample_trojans(f.netlist, f.rare, cfg, oracle, rng))
    EXPECT_TRUE(payload_is_safe(f.netlist, t.payload_net, t.trigger));
}

TEST(PayloadSafety, DetectsFanoutIntoTrigger) {
  // chain: a → n1 → n2; trigger on n2, payload candidate n1 (feeds n2: unsafe).
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId n1 = b.add_gate(GateType::Not, {a}, "n1");
  const NetId n2 = b.add_gate(GateType::Not, {n1}, "n2");
  const NetId po = b.add_gate(GateType::Buf, {a}, "po");
  b.mark_output(n2);
  b.mark_output(po);
  const Netlist nl = b.build();
  const std::vector<RareNet> trigger{{n2, true, 0.1}};
  EXPECT_FALSE(payload_is_safe(nl, n1, trigger));
  EXPECT_FALSE(payload_is_safe(nl, n2, trigger));  // trigger net itself
  EXPECT_TRUE(payload_is_safe(nl, po, trigger));
}

// ------------------------------------------------------ apply_trojan -------

TEST(ApplyTrojan, PayloadFlipsOutputExactlyWhenTriggered) {
  // y = AND(a,b,c) rare at 1; payload on po = BUF(d).
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId bb = b.add_input("b");
  const NetId c = b.add_input("c");
  const NetId d = b.add_input("d");
  const NetId y = b.add_gate(GateType::And, {a, bb, c}, "y");
  const NetId po = b.add_gate(GateType::Buf, {d}, "po");
  b.mark_output(y);
  b.mark_output(po);
  const Netlist golden = b.build();

  Trojan trojan;
  trojan.trigger = {{y, true, 0.125}};
  trojan.payload_net = po;
  NetId trigger_net = netlist::kNoNet;
  const Netlist infected = apply_trojan(golden, trojan, &trigger_net);
  ASSERT_NE(trigger_net, netlist::kNoNet);

  sim::Simulator gsim(golden);
  sim::Simulator isim(infected);
  for (unsigned bits = 0; bits < 16; ++bits) {
    sim::Pattern p(4);
    for (unsigned i = 0; i < 4; ++i) p.set(i, (bits >> i) & 1u);
    const auto gv = gsim.simulate_pattern(p);
    const auto iv = isim.simulate_pattern(p);
    const bool triggered = gv[y];
    // Infected PO list: second output replaced by the XOR net.
    const NetId infected_po = infected.outputs()[1];
    EXPECT_EQ(iv[infected_po], triggered ? !gv[po] : gv[po]) << "bits=" << bits;
    // Non-payload output must be untouched.
    EXPECT_EQ(iv[infected.outputs()[0]], gv[y]);
    EXPECT_EQ(iv[trigger_net], triggered);
  }
}

TEST(ApplyTrojan, RareValueZeroGetsInverted) {
  // Trigger on n @0: the AND tree must see NOT(n).
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId n = b.add_gate(GateType::Or, {a, a}, "n");  // == a
  const NetId po = b.add_gate(GateType::Buf, {a}, "po");
  b.mark_output(po);
  const Netlist golden = b.build();
  Trojan trojan;
  trojan.trigger = {{n, false, 0.1}};
  trojan.payload_net = po;
  NetId trigger_net = netlist::kNoNet;
  const Netlist infected = apply_trojan(golden, trojan, &trigger_net);
  sim::Simulator isim(infected);
  sim::Pattern p(1);
  p.set(0, false);  // n = 0 → triggered
  EXPECT_TRUE(isim.simulate_pattern(p)[trigger_net]);
  p.set(0, true);
  EXPECT_FALSE(isim.simulate_pattern(p)[trigger_net]);
}

TEST(ApplyTrojan, InfectedNetlistStillAcyclic) {
  const Fixture f = make_fixture(9);
  if (f.rare.size() < 6) GTEST_SKIP();
  sat::NetlistOracle oracle(f.netlist);
  util::Rng rng(13);
  TrojanSampleConfig cfg;
  cfg.width = 4;
  cfg.count = 10;
  for (const auto& t : sample_trojans(f.netlist, f.rare, cfg, oracle, rng)) {
    // build() throws on combinational cycles, so construction is the test.
    const Netlist infected = apply_trojan(f.netlist, t);
    EXPECT_EQ(infected.outputs().size(), f.netlist.outputs().size());
    EXPECT_GT(infected.net_count(), f.netlist.net_count());
  }
}

// ----------------------------------------------------------- coverage ------

TEST(Coverage, EmptyInputs) {
  const Fixture f = make_fixture(10);
  const sim::PatternSet empty(f.netlist.inputs().size());
  const auto r1 = evaluate_coverage(f.netlist, {}, empty);
  EXPECT_EQ(r1.total, 0u);
  EXPECT_EQ(r1.coverage_percent(), 0.0);
}

TEST(Coverage, BruteForceAgreement) {
  const Fixture f = make_fixture(11);
  if (f.rare.size() < 6) GTEST_SKIP();
  sat::NetlistOracle oracle(f.netlist);
  util::Rng rng(14);
  TrojanSampleConfig cfg;
  cfg.width = 2;
  cfg.count = 25;
  const auto trojans = sample_trojans(f.netlist, f.rare, cfg, oracle, rng);
  const auto patterns = sim::PatternSet::random(f.netlist.inputs().size(), 300, rng);
  const auto result = evaluate_coverage(f.netlist, trojans, patterns);

  // Reference: per-pattern scalar simulation.
  sim::Simulator sim(f.netlist);
  for (std::size_t t = 0; t < trojans.size(); ++t) {
    std::size_t first = CoverageResult::kNever;
    for (std::size_t p = 0; p < patterns.pattern_count() && first == CoverageResult::kNever;
         ++p) {
      const auto values = sim.simulate_pattern(patterns.pattern(p));
      bool fired = true;
      for (const auto& rn : trojans[t].trigger)
        fired = fired && values[rn.net] == rn.rare_value;
      if (fired) first = p;
    }
    EXPECT_EQ(result.first_activation[t], first) << "trojan " << t;
  }
}

TEST(Coverage, SatWitnessPatternAlwaysCovers) {
  // A pattern generated from the trigger's own SAT model must activate it.
  const Fixture f = make_fixture(12);
  if (f.rare.size() < 6) GTEST_SKIP();
  sat::NetlistOracle oracle(f.netlist);
  util::Rng rng(15);
  TrojanSampleConfig cfg;
  cfg.width = 4;
  cfg.count = 10;
  const auto trojans = sample_trojans(f.netlist, f.rare, cfg, oracle, rng);
  sim::PatternSet witnesses(f.netlist.inputs().size());
  for (const auto& t : trojans) {
    std::vector<sat::Constraint> cs;
    for (const auto& rn : t.trigger) cs.push_back({rn.net, rn.rare_value});
    const auto p = oracle.find_pattern(cs);
    ASSERT_TRUE(p.has_value());
    witnesses.push(*p);
  }
  const auto result = evaluate_coverage(f.netlist, trojans, witnesses);
  EXPECT_EQ(result.covered, trojans.size());
  EXPECT_EQ(result.coverage_percent(), 100.0);
  // Each trojan's own witness is at its index or earlier.
  for (std::size_t t = 0; t < trojans.size(); ++t)
    EXPECT_LE(result.first_activation[t], t);
}

TEST(Coverage, MarginalCurveIsMonotone) {
  const Fixture f = make_fixture(13);
  if (f.rare.size() < 6) GTEST_SKIP();
  sat::NetlistOracle oracle(f.netlist);
  util::Rng rng(16);
  TrojanSampleConfig cfg;
  cfg.width = 2;
  cfg.count = 30;
  const auto trojans = sample_trojans(f.netlist, f.rare, cfg, oracle, rng);
  const auto patterns = sim::PatternSet::random(f.netlist.inputs().size(), 500, rng);
  const auto result = evaluate_coverage(f.netlist, trojans, patterns);
  double prev = 0.0;
  for (std::size_t n = 0; n <= patterns.pattern_count(); n += 25) {
    const double cov = result.coverage_percent_at(n);
    EXPECT_GE(cov, prev);
    prev = cov;
  }
  EXPECT_NEAR(result.coverage_percent_at(patterns.pattern_count()),
              result.coverage_percent(), 1e-9);
  EXPECT_EQ(result.coverage_percent_at(0), 0.0);
}

TEST(Coverage, WiderTriggersAreHarder) {
  // Statistical property on the multiplier: width-8 triggers get activated
  // by random patterns no more often than width-2 triggers.
  auto bench = bench_gen::load_benchmark("c6288_like");
  util::Rng rng(17);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = 0.1;
  rcfg.sim_patterns = 1 << 13;
  const auto rare = analysis::find_rare_nets(bench.scan.comb, rcfg, rng);
  ASSERT_GE(rare.size(), 16u);
  sat::NetlistOracle oracle(bench.scan.comb);

  TrojanSampleConfig narrow;
  narrow.width = 2;
  narrow.count = 30;
  TrojanSampleConfig wide;
  wide.width = 8;
  wide.count = 30;
  const auto t_narrow = sample_trojans(bench.scan.comb, rare, narrow, oracle, rng);
  const auto t_wide = sample_trojans(bench.scan.comb, rare, wide, oracle, rng);
  const auto patterns = sim::PatternSet::random(bench.scan.comb.inputs().size(), 4000, rng);
  const double cov_narrow =
      evaluate_coverage(bench.scan.comb, t_narrow, patterns).coverage_percent();
  const double cov_wide =
      evaluate_coverage(bench.scan.comb, t_wide, patterns).coverage_percent();
  EXPECT_GE(cov_narrow, cov_wide);
}

}  // namespace
}  // namespace deterrent::trojan
