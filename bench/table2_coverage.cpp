// Table 2 — Trigger coverage and test length of DETERRENT vs Random, a
// TestMAX-style ATPG baseline, TARMAC, and TGRL on all eight benchmarks,
// evaluated against 100 random four-width SAT-validated Trojans each.
// MERO is included as an extra column (the paper discusses it in §1.3).
//
// Paper's headline: DETERRENT matches or beats every baseline's coverage
// (95.75% avg over the c-series) with ~169× fewer patterns than TARMAC/TGRL.
// Absolute numbers differ on the synthetic substrates (DESIGN.md §2); the
// shape — who wins, and the order-of-magnitude pattern reduction — is the
// reproduction target.
#include "analysis/scoap.hpp"
#include "baselines/atpg_like.hpp"
#include "baselines/mero.hpp"
#include "baselines/tarmac.hpp"
#include "baselines/tgrl_like.hpp"
#include "common.hpp"

using namespace deterrent;
using namespace deterrent::bench;

namespace {

struct Row {
  std::string design;
  std::size_t rare_nets = 0;
  std::size_t gates = 0;
  std::size_t trojans = 0;
  // per technique: {length, coverage}
  std::size_t len_random = 0;
  double cov_random = 0;
  std::size_t len_atpg = 0;
  double cov_atpg = 0;
  std::size_t len_mero = 0;
  double cov_mero = 0;
  std::size_t len_tarmac = 0;
  double cov_tarmac = 0;
  std::size_t len_tgrl = 0;
  double cov_tgrl = 0;
  std::size_t len_det = 0;
  double cov_det = 0;
};

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  print_header("Table 2 — trigger coverage & test length, all techniques", scale);

  const auto names = bench_gen::benchmark_names();
  std::vector<Row> rows;

  for (const auto& name : names) {
    util::Stopwatch bench_watch;
    std::printf("--- %s ---\n", name.c_str());
    PreparedBenchmark prep = prepare_benchmark(name, scale);
    auto& det = *prep.pipeline;
    const auto& comb = prep.comb();

    Row row;
    row.design = name;
    row.rare_nets = det.rare_nets().size();
    row.gates = comb.gate_count();
    row.trojans = prep.trojans.size();

    const std::size_t ref = scale.ref_patterns;
    util::Rng rng(2024);

    // Random simulations at the reference length.
    const auto random_set = sim::PatternSet::random(comb.inputs().size(), ref, rng);
    row.len_random = random_set.pattern_count();
    row.cov_random = coverage_percent(prep, random_set);

    // TestMAX-style ATPG: per-net excitation with fault dropping.
    const auto atpg = baselines::run_atpg_like(comb, det.rare_nets(), rng);
    row.len_atpg = atpg.patterns.pattern_count();
    row.cov_atpg = coverage_percent(prep, atpg.patterns);

    // MERO (extra column).
    baselines::MeroConfig mero_cfg;
    mero_cfg.random_pool = std::min<std::size_t>(2500, ref * 2);
    mero_cfg.n_detect = 5;
    const auto mero = baselines::run_mero(comb, det.rare_nets(), mero_cfg, rng);
    row.len_mero = mero.patterns.pattern_count();
    row.cov_mero = coverage_percent(prep, mero.patterns);

    // TARMAC at the reference length (SAT effort bounded on huge rare sets).
    baselines::TarmacConfig tarmac_cfg;
    tarmac_cfg.n_patterns = ref;
    tarmac_cfg.max_candidate_checks = det.rare_nets().size() > 700 ? 192 : 0;
    const auto tarmac =
        baselines::run_tarmac(comb, det.rare_nets(), det.matrix(), tarmac_cfg, rng);
    row.len_tarmac = tarmac.patterns.pattern_count();
    row.cov_tarmac = coverage_percent(prep, tarmac.patterns);

    // TGRL-like at the reference length.
    const auto scoap = analysis::compute_scoap(comb);
    baselines::TgrlLikeConfig tgrl_cfg;
    tgrl_cfg.n_patterns = ref;
    tgrl_cfg.mutation_rounds = scale.tgrl_rounds;
    const auto tgrl = baselines::run_tgrl_like(comb, det.rare_nets(), scoap, tgrl_cfg, rng);
    row.len_tgrl = tgrl.patterns.pattern_count();
    row.cov_tgrl = coverage_percent(prep, tgrl.patterns);

    // DETERRENT: train, pick k largest distinct sets, one pattern each.
    det.run_train();
    det.run_extract();
    const sim::PatternSet& det_patterns = det.patterns();
    row.len_det = det_patterns.pattern_count();
    row.cov_det = coverage_percent(prep, det_patterns);

    std::printf(
        "rare=%zu gates=%zu trojans=%zu | rnd %.0f%% atpg %.0f%% mero %.0f%% "
        "tarmac %.0f%% tgrl %.0f%% DET %.0f%% (%zu pats) [%.1fs]\n\n",
        row.rare_nets, row.gates, row.trojans, row.cov_random, row.cov_atpg,
        row.cov_mero, row.cov_tarmac, row.cov_tgrl, row.cov_det, row.len_det,
        bench_watch.elapsed_seconds());
    std::fflush(stdout);  // keep partial results if the run is interrupted
    rows.push_back(row);
  }

  util::Table table({"Design", "Rare", "Gates", "Rnd len", "Rnd %", "ATPG len",
                     "ATPG %", "MERO len", "MERO %", "TARMAC len", "TARMAC %",
                     "TGRL len", "TGRL %", "DET len", "DET %", "Red. vs ref"});
  double avg[6] = {0, 0, 0, 0, 0, 0};
  double avg_reduction = 0.0;
  for (const auto& row : rows) {
    const double reduction =
        row.len_det == 0 ? 0.0
                         : static_cast<double>(row.len_tgrl) /
                               static_cast<double>(row.len_det);
    table.add_row({row.design, std::to_string(row.rare_nets), std::to_string(row.gates),
                   std::to_string(row.len_random), fmt(row.cov_random, 0),
                   std::to_string(row.len_atpg), fmt(row.cov_atpg, 0),
                   std::to_string(row.len_mero), fmt(row.cov_mero, 0),
                   std::to_string(row.len_tarmac), fmt(row.cov_tarmac, 0),
                   std::to_string(row.len_tgrl), fmt(row.cov_tgrl, 0),
                   std::to_string(row.len_det), fmt(row.cov_det, 0),
                   fmt(reduction, 1) + "x"});
    avg[0] += row.cov_random;
    avg[1] += row.cov_atpg;
    avg[2] += row.cov_mero;
    avg[3] += row.cov_tarmac;
    avg[4] += row.cov_tgrl;
    avg[5] += row.cov_det;
    avg_reduction += reduction;
  }
  const auto n = static_cast<double>(rows.size());
  table.add_row({"Avg.", "-", "-", "-", fmt(avg[0] / n, 1), "-", fmt(avg[1] / n, 1),
                 "-", fmt(avg[2] / n, 1), "-", fmt(avg[3] / n, 1), "-",
                 fmt(avg[4] / n, 1), "-", fmt(avg[5] / n, 1),
                 fmt(avg_reduction / n, 1) + "x"});
  table.print();

  std::printf(
      "\npaper (Table 2) reference: DETERRENT avg coverage 95.75%% (c-series), "
      "avg pattern reduction 169.68x vs TARMAC/TGRL;\nrandom 27.75%%, TestMAX "
      "10%%, TARMAC 83.5%%, TGRL 86.5%%. Expected shape here: DETERRENT's "
      "coverage column\ndominates every baseline at 1-2 orders of magnitude "
      "fewer patterns.\n");
  return 0;
}
