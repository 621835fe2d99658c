// Figure 7 — Impact of the rareness threshold on the number of rare nets and
// on DETERRENT's trigger coverage (c6288), plus the §4.5 cross-threshold
// transfer experiment (train at θ=0.14, evaluate at θ=0.10).
//
// Paper: raising θ from 0.10 to 0.14 multiplies the rare-net count (up to 64×
// more potential trigger combinations) yet DETERRENT's coverage drops ≤2%
// with <2500 patterns; training on the θ=0.14 superset still covers 99% of
// θ=0.10 triggers.
#include "common.hpp"

using namespace deterrent;
using namespace deterrent::bench;

int main() {
  const Scale scale = scale_from_env();
  print_header("Figure 7 — rareness threshold sweep (c6288_like)", scale);

  auto bench = bench_gen::load_benchmark("c6288_like");
  const auto& comb = bench.scan.comb;

  util::Table table({"Threshold", "# rare nets", "# valid HTs", "DETERRENT cov (%)",
                     "DET patterns"});

  sim::PatternSet patterns_at_014(comb.inputs().size());
  std::vector<analysis::RareNet> rare_at_010;

  for (const double theta : {0.10, 0.11, 0.12, 0.13, 0.14}) {
    core::DeterrentConfig cfg;
    cfg.rare.threshold = theta;
    cfg.updates = scale.det_updates;
    cfg.k_patterns = scale.det_k;
    cfg.ppo.episodes_per_update = scale.det_episodes;
    cfg.seed = 21;
    core::Pipeline det(comb, cfg);
    det.run_rare_nets();
    det.run_compatibility();
    det.run_train();
    det.run_extract();
    const sim::PatternSet& patterns = det.patterns();

    // Trojans drawn from this threshold's rare nets.
    sat::NetlistOracle oracle(comb);
    util::Rng rng(static_cast<std::uint64_t>(theta * 1000));
    trojan::TrojanSampleConfig tcfg;
    tcfg.width = 4;
    tcfg.count = scale.trojans;
    const auto trojans = trojan::sample_trojans(comb, det.rare_nets(), tcfg, oracle, rng);
    const double cov =
        trojan::evaluate_coverage(comb, trojans, patterns).coverage_percent();

    table.add_row({fmt(theta, 2), std::to_string(det.rare_nets().size()),
                   std::to_string(trojans.size()), fmt(cov, 1),
                   std::to_string(patterns.pattern_count())});

    if (theta == 0.10) rare_at_010.assign(det.rare_nets().begin(), det.rare_nets().end());
    if (theta == 0.14) patterns_at_014 = patterns;
  }
  table.print();

  // §4.5 transfer: θ=0.14-trained patterns against θ=0.10 triggers.
  sat::NetlistOracle oracle(comb);
  util::Rng rng(4242);
  trojan::TrojanSampleConfig tcfg;
  tcfg.width = 4;
  tcfg.count = scale.trojans;
  const auto trojans_010 = trojan::sample_trojans(comb, rare_at_010, tcfg, oracle, rng);
  const double transfer_cov =
      trojan::evaluate_coverage(comb, trojans_010, patterns_at_014).coverage_percent();
  std::printf(
      "\ncross-threshold transfer: patterns trained at theta=0.14 cover %.1f%% of "
      "theta=0.10 triggers (%zu HTs)\n",
      transfer_cov, trojans_010.size());

  std::printf(
      "\npaper (Fig. 7 + §4.5): rare nets grow ~43%% across the sweep (64x more "
      "trigger combos) while\ncoverage stays within 2%%; the transfer experiment "
      "reaches 99%%. Expected shape: the rare-net\ncolumn grows with theta, the "
      "coverage column stays nearly flat, transfer stays high.\n");
  return 0;
}
