// Figure 5 — Impact of trigger width on trigger coverage, DETERRENT vs TGRL,
// on c6288 (the array multiplier).
//
// Paper: as the trigger widens from 2 to 12 nets, TGRL's coverage collapses
// (to ~0% by width 8) while DETERRENT stays nearly flat (≤2% drop) — the
// compatible-set formulation activates *many* rare nets per pattern, so wide
// conjunctions remain covered. DETERRENT trains once; the same pattern set is
// evaluated against Trojan populations of every width.
#include "analysis/scoap.hpp"
#include "baselines/tgrl_like.hpp"
#include "common.hpp"

using namespace deterrent;
using namespace deterrent::bench;

int main() {
  const Scale scale = scale_from_env();
  print_header("Figure 5 — trigger width vs coverage (c6288_like)", scale);

  PreparedBenchmark prep = prepare_benchmark("c6288_like", scale);
  auto& det = *prep.pipeline;
  const auto& comb = prep.comb();
  std::printf("offline: %zu rare nets\n", det.rare_nets().size());

  // One DETERRENT training run, one TGRL-like run; evaluate both against
  // fresh Trojan populations per width.
  det.run_train();
  det.run_extract();
  const sim::PatternSet& det_patterns = det.patterns();

  util::Rng rng(7);
  const auto scoap = analysis::compute_scoap(comb);
  baselines::TgrlLikeConfig tgrl_cfg;
  tgrl_cfg.n_patterns = scale.ref_patterns;
  tgrl_cfg.mutation_rounds = scale.tgrl_rounds;
  const auto tgrl = baselines::run_tgrl_like(comb, det.rare_nets(), scoap, tgrl_cfg, rng);

  std::printf("DETERRENT: %zu patterns; TGRL-like: %zu patterns\n\n",
              det_patterns.pattern_count(), tgrl.patterns.pattern_count());

  util::Table table({"Trigger width", "# valid HTs", "DETERRENT cov (%)",
                     "TGRL cov (%)"});
  sat::NetlistOracle oracle(comb);
  for (const unsigned width : {2u, 4u, 6u, 8u, 10u, 12u}) {
    trojan::TrojanSampleConfig tcfg;
    tcfg.width = width;
    tcfg.count = scale.trojans;
    util::Rng trojan_rng(width * 31 + 5);
    const auto trojans =
        trojan::sample_trojans(comb, det.rare_nets(), tcfg, oracle, trojan_rng);
    if (trojans.empty()) {
      table.add_row({std::to_string(width), "0", "-", "-"});
      continue;
    }
    const double cov_det =
        trojan::evaluate_coverage(comb, trojans, det_patterns).coverage_percent();
    const double cov_tgrl =
        trojan::evaluate_coverage(comb, trojans, tgrl.patterns).coverage_percent();
    table.add_row({std::to_string(width), std::to_string(trojans.size()),
                   fmt(cov_det, 1), fmt(cov_tgrl, 1)});
  }
  table.print();

  std::printf(
      "\npaper (Fig. 5): TGRL drops from ~85%% (width 2) towards 0%% by width "
      "8-12; DETERRENT holds a\nnear-flat curve. Expected shape: the DETERRENT "
      "column decays far slower than the TGRL column.\n");
  return 0;
}
