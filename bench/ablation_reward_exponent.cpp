// Ablation (beyond the paper's figures, motivated by §3.1's design note):
// "We square the reward at each step, but any power greater than 1 would be
// appropriate since we want the reward function to be convex."
//
// This harness sweeps the reward exponent p in |s_{t+1}|^p over
// {0.5, 1.0, 1.5, 2.0, 3.0} on c2670_like and reports the resulting max
// compatible set, pool diversity, and trigger coverage. The paper's claim
// translates to: convex exponents (p > 1) should match or beat the concave
// and linear ones, with no strong sensitivity among p ∈ {1.5, 2, 3}.
#include "common.hpp"

using namespace deterrent;
using namespace deterrent::bench;

int main() {
  const Scale scale = scale_from_env();
  print_header("Ablation — reward exponent p in |s|^p (c2670_like)", scale);

  auto bench = bench_gen::load_benchmark("c2670_like");
  const auto& comb = bench.scan.comb;

  // One shared Trojan population so rows are comparable.
  util::Rng rng(31);
  analysis::RareNetConfig rare_cfg;
  const auto rare = analysis::find_rare_nets(comb, rare_cfg, rng);
  sat::NetlistOracle oracle(comb);
  trojan::TrojanSampleConfig tcfg;
  tcfg.width = 4;
  tcfg.count = scale.trojans;
  const auto trojans = trojan::sample_trojans(comb, rare, tcfg, oracle, rng);

  util::Table table({"Exponent p", "Max set", "Distinct sets", "Patterns",
                     "Coverage (%)"});
  for (const double p : {0.5, 1.0, 1.5, 2.0, 3.0}) {
    core::DeterrentConfig cfg;
    cfg.updates = scale.det_updates;
    cfg.k_patterns = det_k_for("c2670_like", scale.ref_patterns, scale.det_k);
    cfg.ppo.episodes_per_update = scale.det_episodes;
    cfg.env.reward_mode = core::RewardMode::EndOfEpisode;
    cfg.env.reward_exponent = p;
    cfg.seed = 77;
    core::Pipeline det(comb, cfg);
    det.run_rare_nets();
    det.run_compatibility();
    det.run_train();
    det.run_extract();
    const sim::PatternSet& patterns = det.patterns();
    const double cov =
        trojan::evaluate_coverage(comb, trojans, patterns).coverage_percent();
    table.add_row({fmt(p, 1), std::to_string(det.pool().max_set_size()),
                   std::to_string(det.pool().size()),
                   std::to_string(patterns.pattern_count()), fmt(cov, 1)});
  }
  table.print();

  std::printf(
      "\nexpected shape (per §3.1's design note): p > 1 rows match or beat "
      "p <= 1 on max-set size and\ncoverage; among convex exponents the choice "
      "is not critical.\n");
  return 0;
}
