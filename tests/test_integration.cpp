// End-to-end integration tests: the full DETERRENT pipeline against the
// baselines on generated benchmarks, asserting the paper's *qualitative*
// claims at smoke scale (the bench/ harnesses reproduce the quantitative
// tables and figures).
#include <gtest/gtest.h>

#include "baselines/atpg_like.hpp"
#include "baselines/tarmac.hpp"
#include "bench_gen/library.hpp"
#include "core/pipeline.hpp"
#include "trojan/coverage.hpp"
#include "trojan/trojan.hpp"

namespace deterrent {
namespace {

struct Campaign {
  bench_gen::Benchmark bench;
  core::Pipeline det;
  std::vector<trojan::Trojan> trojans;

  Campaign(const std::string& name, const core::DeterrentConfig& cfg, unsigned width,
           std::size_t n_trojans)
      : bench(bench_gen::load_benchmark(name)), det(bench.scan.comb, cfg) {
    det.run_rare_nets();
    det.run_compatibility();
    sat::NetlistOracle oracle(bench.scan.comb);
    util::Rng rng(0xacceded);
    trojan::TrojanSampleConfig tcfg;
    tcfg.width = width;
    tcfg.count = n_trojans;
    trojans = trojan::sample_trojans(bench.scan.comb, det.rare_nets(), tcfg, oracle, rng);
  }

  double coverage(const sim::PatternSet& patterns) const {
    return trojan::evaluate_coverage(bench.scan.comb, trojans, patterns)
        .coverage_percent();
  }
};

core::DeterrentConfig quick_config() {
  core::DeterrentConfig cfg;
  cfg.updates = 10;
  cfg.k_patterns = 32;
  cfg.ppo.episodes_per_update = 12;
  cfg.seed = 17;
  return cfg;
}

TEST(Integration, DeterrentBeatsRandomWithFarFewerPatterns) {
  Campaign campaign("c2670_like", quick_config(), 4, 60);
  ASSERT_GE(campaign.trojans.size(), 40u);
  campaign.det.run_train();
  campaign.det.run_extract();
  const sim::PatternSet& patterns = campaign.det.patterns();
  ASSERT_GT(patterns.pattern_count(), 0u);

  util::Rng rng(5);
  const auto random = sim::PatternSet::random(
      campaign.bench.scan.comb.inputs().size(), 2000, rng);

  const double cov_det = campaign.coverage(patterns);
  const double cov_rnd = campaign.coverage(random);
  EXPECT_GT(cov_det, cov_rnd)
      << "DETERRENT (" << patterns.pattern_count() << " patterns) must beat random ("
      << random.pattern_count() << " patterns)";
  EXPECT_LT(patterns.pattern_count(), random.pattern_count() / 10);
}

TEST(Integration, DeterrentBeatsAtpgLike) {
  Campaign campaign("c2670_like", quick_config(), 4, 60);
  campaign.det.run_train();
  campaign.det.run_extract();
  const sim::PatternSet& det_patterns = campaign.det.patterns();
  util::Rng rng(6);
  const auto atpg =
      baselines::run_atpg_like(campaign.bench.scan.comb, campaign.det.rare_nets(), rng);
  EXPECT_GT(campaign.coverage(det_patterns), campaign.coverage(atpg.patterns))
      << "single-net ATPG excitation must miss multi-net conjunctions";
}

TEST(Integration, DeterrentBeatsTarmacAtEqualPatternBudget) {
  // The Figure 6 shape: pattern-for-pattern, DETERRENT's ranked test set
  // accumulates coverage at least as fast as TARMAC's sampled cliques.
  auto cfg = quick_config();
  cfg.updates = 16;
  cfg.ppo.episodes_per_update = 16;
  cfg.k_patterns = 48;
  Campaign campaign("c6288_like", cfg, 4, 60);
  campaign.det.run_train();
  campaign.det.run_extract();
  const sim::PatternSet& det_patterns = campaign.det.patterns();
  ASSERT_GT(det_patterns.pattern_count(), 0u);

  baselines::TarmacConfig tcfg;
  tcfg.n_patterns = det_patterns.pattern_count();  // equal budget
  util::Rng rng(7);
  auto tarmac = baselines::run_tarmac(campaign.bench.scan.comb,
                                      campaign.det.rare_nets(),
                                      campaign.det.matrix(), tcfg, rng);

  const double cov_det = campaign.coverage(det_patterns);
  const double cov_tarmac = campaign.coverage(tarmac.patterns);
  EXPECT_GE(cov_det, cov_tarmac - 5.0)
      << "at equal pattern count DETERRENT must not trail TARMAC";
}

TEST(Integration, CrossThresholdGeneralization) {
  // §4.5: train with rare nets at θ=0.14, evaluate triggers drawn at θ=0.10.
  auto bench = bench_gen::load_benchmark("c6288_like");
  core::DeterrentConfig cfg = quick_config();
  cfg.rare.threshold = 0.14;
  core::Pipeline det(bench.scan.comb, cfg);
  det.run_rare_nets();
  det.run_compatibility();
  det.run_train();
  det.run_extract();
  const sim::PatternSet& patterns = det.patterns();

  // Triggers from the tighter θ=0.10 rare-net set.
  util::Rng rng(9);
  analysis::RareNetConfig tight;
  tight.threshold = 0.10;
  const auto rare_tight = analysis::find_rare_nets(bench.scan.comb, tight, rng);
  ASSERT_GE(rare_tight.size(), 8u);
  sat::NetlistOracle oracle(bench.scan.comb);
  trojan::TrojanSampleConfig tcfg;
  tcfg.width = 4;
  tcfg.count = 40;
  const auto trojans =
      trojan::sample_trojans(bench.scan.comb, rare_tight, tcfg, oracle, rng);

  const double cov =
      trojan::evaluate_coverage(bench.scan.comb, trojans, patterns).coverage_percent();
  util::Rng rng2(10);
  const auto random =
      sim::PatternSet::random(bench.scan.comb.inputs().size(), 1000, rng2);
  const double cov_rnd =
      trojan::evaluate_coverage(bench.scan.comb, trojans, random).coverage_percent();
  EXPECT_GT(cov, cov_rnd) << "θ=0.14 training must transfer to θ=0.10 triggers";
}

TEST(Integration, SequentialBenchmarkEndToEnd) {
  // Full-scan pipeline on an s-series profile.
  auto cfg = quick_config();
  cfg.updates = 6;
  Campaign campaign("s13207_like", cfg, 4, 40);
  ASSERT_GE(campaign.trojans.size(), 20u);
  campaign.det.run_train();
  campaign.det.run_extract();
  const sim::PatternSet& patterns = campaign.det.patterns();
  ASSERT_GT(patterns.pattern_count(), 0u);
  EXPECT_GE(campaign.coverage(patterns), 0.0);  // runs clean end to end
  // Pattern arity covers PIs + scanned state.
  EXPECT_EQ(patterns.input_count(),
            campaign.bench.scan.comb.inputs().size());
}

}  // namespace
}  // namespace deterrent
