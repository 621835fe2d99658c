#include <gtest/gtest.h>

#include "analysis/scoap.hpp"
#include "baselines/atpg_like.hpp"
#include "baselines/mero.hpp"
#include "baselines/tarmac.hpp"
#include "baselines/tgrl_like.hpp"
#include "bench_gen/random_circuit.hpp"

#include "reference_sim.hpp"

namespace deterrent::baselines {
namespace {

using analysis::RareNet;
using netlist::Netlist;

struct Fixture {
  Netlist netlist;
  std::vector<RareNet> rare;
  analysis::CompatibilityMatrix matrix;
};

Fixture make_fixture(std::uint64_t seed, std::size_t gates = 220) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 16;
  p.n_outputs = 8;
  p.n_gates = gates;
  p.seed = seed;
  Fixture f{bench_gen::generate_random_circuit(p), {}, {}};
  util::Rng rng(seed + 7);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = 0.15;
  rcfg.sim_patterns = 1 << 13;
  f.rare = analysis::find_rare_nets(f.netlist, rcfg, rng);
  f.matrix = analysis::build_compatibility(f.netlist, f.rare, {}, rng);
  return f;
}

// ------------------------------------------------------------ ATPG-like ----

TEST(AtpgLike, EveryExcitablRareNetGetsExcited) {
  const Fixture f = make_fixture(21);
  if (f.rare.size() < 5) GTEST_SKIP();
  util::Rng rng(1);
  const auto result = run_atpg_like(f.netlist, f.rare, rng);
  EXPECT_EQ(result.excited_rare_nets, f.rare.size());
  EXPECT_GT(result.patterns.pattern_count(), 0u);

  // Verify by simulation: each rare net is at its rare value under some pattern.
  sim::Simulator sim(f.netlist);
  std::vector<bool> excited(f.rare.size(), false);
  for (std::size_t p = 0; p < result.patterns.pattern_count(); ++p) {
    const auto values = sim.simulate_pattern(result.patterns.pattern(p));
    for (std::size_t i = 0; i < f.rare.size(); ++i)
      if (values[f.rare[i].net] == f.rare[i].rare_value) excited[i] = true;
  }
  for (std::size_t i = 0; i < f.rare.size(); ++i) EXPECT_TRUE(excited[i]) << i;
}

TEST(AtpgLike, FaultDroppingCompactsPatternCount) {
  const Fixture f = make_fixture(22);
  if (f.rare.size() < 10) GTEST_SKIP();
  util::Rng rng(2);
  const auto result = run_atpg_like(f.netlist, f.rare, rng);
  // Dropping must produce strictly fewer patterns than rare nets (one pattern
  // typically excites several); equality would mean dropping never fired.
  EXPECT_LT(result.patterns.pattern_count(), f.rare.size());
}

// ----------------------------------------------------------------- MERO ----

TEST(Mero, ReachesNDetectOnEasyCircuit) {
  const Fixture f = make_fixture(23, 120);
  if (f.rare.size() < 3) GTEST_SKIP();
  MeroConfig cfg;
  cfg.random_pool = 800;
  cfg.n_detect = 3;
  util::Rng rng(3);
  const auto result = run_mero(f.netlist, f.rare, cfg, rng);
  EXPECT_GT(result.patterns.pattern_count(), 0u);
  // Counts must be consistent with the emitted patterns.
  sim::Simulator sim(f.netlist);
  std::vector<std::size_t> recount(f.rare.size(), 0);
  for (std::size_t p = 0; p < result.patterns.pattern_count(); ++p) {
    const auto values = sim.simulate_pattern(result.patterns.pattern(p));
    for (std::size_t i = 0; i < f.rare.size(); ++i)
      if (values[f.rare[i].net] == f.rare[i].rare_value) ++recount[i];
  }
  for (std::size_t i = 0; i < f.rare.size(); ++i)
    EXPECT_EQ(recount[i], result.activation_counts[i]) << i;
}

TEST(Mero, RespectsMaxPatterns) {
  const Fixture f = make_fixture(24);
  if (f.rare.size() < 3) GTEST_SKIP();
  MeroConfig cfg;
  cfg.random_pool = 500;
  cfg.n_detect = 50;  // unreachable: forces the cap to bind
  cfg.max_patterns = 7;
  util::Rng rng(4);
  const auto result = run_mero(f.netlist, f.rare, cfg, rng);
  EXPECT_LE(result.patterns.pattern_count(), 7u);
  EXPECT_FALSE(result.n_detect_satisfied);
}

TEST(Mero, EveryEmittedPatternContributed) {
  const Fixture f = make_fixture(25, 150);
  if (f.rare.size() < 3) GTEST_SKIP();
  MeroConfig cfg;
  cfg.random_pool = 400;
  cfg.n_detect = 2;
  util::Rng rng(5);
  const auto result = run_mero(f.netlist, f.rare, cfg, rng);
  // MERO only keeps patterns that advanced N-detection, so every pattern
  // must activate at least one rare net.
  sim::Simulator sim(f.netlist);
  for (std::size_t p = 0; p < result.patterns.pattern_count(); ++p) {
    const auto values = sim.simulate_pattern(result.patterns.pattern(p));
    bool any = false;
    for (const auto& rn : f.rare) any = any || values[rn.net] == rn.rare_value;
    EXPECT_TRUE(any) << "pattern " << p << " activates nothing";
  }
}

TEST(Mero, CandidateChainingIsBitIdentical) {
  // Chained candidate seeding (incremental resimulate diffs between pool
  // patterns) must select exactly the same patterns as the unchained path,
  // with the same activation tallies.
  for (const std::uint64_t seed : {26u, 27u, 28u}) {
    const Fixture f = make_fixture(seed, 180);
    if (f.rare.size() < 3) continue;
    MeroConfig chained;
    chained.random_pool = 400;
    chained.n_detect = 3;
    chained.chain_candidates = true;
    MeroConfig unchained = chained;
    unchained.chain_candidates = false;

    util::Rng rng_a(seed * 11);
    util::Rng rng_b(seed * 11);
    const auto a = run_mero(f.netlist, f.rare, chained, rng_a);
    const auto b = run_mero(f.netlist, f.rare, unchained, rng_b);

    ASSERT_EQ(a.patterns.pattern_count(), b.patterns.pattern_count()) << seed;
    for (std::size_t p = 0; p < a.patterns.pattern_count(); ++p)
      EXPECT_EQ(a.patterns.pattern(p), b.patterns.pattern(p)) << seed << " #" << p;
    EXPECT_EQ(a.activation_counts, b.activation_counts) << seed;
    EXPECT_EQ(a.n_detect_satisfied, b.n_detect_satisfied) << seed;
  }
}

// --------------------------------------------------------------- TARMAC ----

TEST(Tarmac, EmitsRequestedPatternCount) {
  const Fixture f = make_fixture(26);
  if (f.rare.size() < 5) GTEST_SKIP();
  TarmacConfig cfg;
  cfg.n_patterns = 12;
  util::Rng rng(6);
  const auto result = run_tarmac(f.netlist, f.rare, f.matrix, cfg, rng);
  EXPECT_EQ(result.patterns.pattern_count(), 12u);
  EXPECT_EQ(result.clique_sizes.size(), 12u);
  EXPECT_GE(result.max_clique_size, 1u);
}

TEST(Tarmac, PatternsRealizeTheirCliques) {
  // Each TARMAC pattern comes from a SAT model of its sampled clique, so the
  // number of simultaneously-at-rare-value nets must be >= the clique size.
  const Fixture f = make_fixture(27, 300);
  if (f.rare.size() < 5) GTEST_SKIP();
  TarmacConfig cfg;
  cfg.n_patterns = 8;
  util::Rng rng(7);
  const auto result = run_tarmac(f.netlist, f.rare, f.matrix, cfg, rng);
  sim::Simulator sim(f.netlist);
  for (std::size_t p = 0; p < result.patterns.pattern_count(); ++p) {
    const auto values = sim.simulate_pattern(result.patterns.pattern(p));
    std::size_t at_rare = 0;
    for (const auto& rn : f.rare)
      if (values[rn.net] == rn.rare_value) ++at_rare;
    EXPECT_GE(at_rare, result.clique_sizes[p]) << "pattern " << p;
  }
}

TEST(Tarmac, HandlesEmptyRareSet) {
  const Fixture f = make_fixture(28);
  const std::vector<RareNet> empty;
  const analysis::CompatibilityMatrix empty_matrix(0);
  TarmacConfig cfg;
  cfg.n_patterns = 5;
  util::Rng rng(8);
  const auto result = run_tarmac(f.netlist, empty, empty_matrix, cfg, rng);
  EXPECT_EQ(result.patterns.pattern_count(), 0u);
}

// ------------------------------------------------------------ TGRL-like ----

TEST(TgrlLike, EmitsRequestedCount) {
  const Fixture f = make_fixture(29);
  if (f.rare.size() < 5) GTEST_SKIP();
  const auto scoap = analysis::compute_scoap(f.netlist);
  TgrlLikeConfig cfg;
  cfg.n_patterns = 20;
  cfg.mutation_rounds = 3;
  util::Rng rng(9);
  const auto result = run_tgrl_like(f.netlist, f.rare, scoap, cfg, rng);
  EXPECT_EQ(result.patterns.pattern_count(), 20u);
  EXPECT_EQ(result.pattern_scores.size(), 20u);
}

TEST(TgrlLike, GuidedBeatsRandomOnRareActivation) {
  // The rareness-guided search must activate more rare-net instances than
  // uniform random patterns of the same budget.
  const Fixture f = make_fixture(30, 320);
  if (f.rare.size() < 8) GTEST_SKIP();
  const auto scoap = analysis::compute_scoap(f.netlist);
  TgrlLikeConfig cfg;
  cfg.n_patterns = 40;
  cfg.mutation_rounds = 4;
  util::Rng rng(10);
  const auto guided = run_tgrl_like(f.netlist, f.rare, scoap, cfg, rng);
  const auto random = sim::PatternSet::random(f.netlist.inputs().size(), 40, rng);

  auto total_activations = [&](const sim::PatternSet& set) {
    sim::Simulator sim(f.netlist);
    std::size_t total = 0;
    for (std::size_t p = 0; p < set.pattern_count(); ++p) {
      const auto values = sim.simulate_pattern(set.pattern(p));
      for (const auto& rn : f.rare)
        if (values[rn.net] == rn.rare_value) ++total;
    }
    return total;
  };
  EXPECT_GT(total_activations(guided.patterns), total_activations(random));
}

}  // namespace
}  // namespace deterrent::baselines
