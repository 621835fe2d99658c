// Table 1 — Comparison of training rates for the reward methods on the MIPS
// benchmark: reward at all steps vs. end-of-episode.
//
// Paper's row (MIPS): all-steps reaches 53 compatible rare nets at 108
// steps/min; end-of-episode reaches 50 at 9387 steps/min (86.9× faster, −5.6%
// quality). We train each variant for the same wall-clock budget on the
// mips16_like substrate and report the same three columns.
#include "common.hpp"

using namespace deterrent;
using namespace deterrent::bench;

namespace {

struct RateResult {
  std::size_t max_compatible = 0;
  double steps_per_min = 0.0;
  double episodes_per_min = 0.0;
  std::uint64_t sat_queries = 0;
};

RateResult train_with_mode(const netlist::Netlist& comb,
                           std::span<const analysis::RareNet> rare,
                           const analysis::CompatibilityMatrix& matrix,
                           core::RewardMode mode, double budget_seconds,
                           std::size_t episodes_per_update,
                           std::size_t repair_budget = static_cast<std::size_t>(-1)) {
  core::EnvConfig env_cfg;
  env_cfg.reward_mode = mode;
  env_cfg.mask_mode = core::MaskMode::Pairwise;
  env_cfg.eoe_repair_budget = repair_budget;

  core::DistinctSetPool pool;
  auto factory = [&](std::size_t lanes) -> std::unique_ptr<rl::VectorEnv> {
    return std::make_unique<core::CompatibleSetVectorEnv>(comb, rare, matrix, env_cfg,
                                                          &pool, lanes);
  };
  rl::PpoConfig ppo = core::DeterrentConfig::boosted_ppo_defaults();
  ppo.episodes_per_update = episodes_per_update;
  rl::PpoTrainer trainer(nullptr, ppo, /*seed=*/3, factory);

  util::Stopwatch watch;
  while (watch.elapsed_seconds() < budget_seconds) trainer.update();
  const double minutes = watch.elapsed_seconds() / 60.0;

  RateResult result;
  result.max_compatible = pool.max_set_size();
  result.steps_per_min = static_cast<double>(trainer.total_steps()) / minutes;
  result.episodes_per_min = static_cast<double>(trainer.total_episodes()) / minutes;
  result.sat_queries =
      static_cast<const core::CompatibleSetVectorEnv&>(trainer.vector_env())
          .sat_queries();
  return result;
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  print_header(
      "Table 1 — reward at all steps vs end-of-episode (mips16_like)", scale);

  const double budget_seconds =
      scale.mode == util::BenchMode::Quick ? 10.0
      : scale.mode == util::BenchMode::Full ? 120.0
                                            : 40.0;

  auto bench = bench_gen::load_benchmark("mips16_like");
  const auto& comb = bench.scan.comb;
  util::Rng rng(1);
  util::ThreadPool pool;
  analysis::RareNetConfig rare_cfg;
  const auto rare = analysis::find_rare_nets(comb, rare_cfg, rng, &pool);
  analysis::CompatibilityBuildStats cstats;
  const auto matrix = analysis::build_compatibility(comb, rare, {}, rng, &pool, &cstats);
  std::printf("offline: %zu rare nets, %zu compatible pairs in %.1fs\n\n", rare.size(),
              matrix.edge_count(), cstats.build_seconds);
  std::printf("training budget per variant: %.0fs wall clock\n\n", budget_seconds);

  const RateResult all_steps = train_with_mode(
      comb, rare, matrix, core::RewardMode::AllSteps, budget_seconds, scale.det_episodes);
  const RateResult eoe = train_with_mode(comb, rare, matrix,
                                         core::RewardMode::EndOfEpisode, budget_seconds,
                                         scale.det_episodes);
  // Bounded repair: the speed-leaning point of the trade-off (pure prefix
  // truncation + at most 8 retried members per episode).
  const RateResult eoe_bounded =
      train_with_mode(comb, rare, matrix, core::RewardMode::EndOfEpisode,
                      budget_seconds, scale.det_episodes, /*repair_budget=*/8);

  util::Table table({"Method", "Max # compatible rare nets", "Rate (steps/min)",
                     "Rate (eps/min)", "SAT queries"});
  table.add_row({"Reward at all steps", std::to_string(all_steps.max_compatible),
                 fmt(all_steps.steps_per_min, 0), fmt(all_steps.episodes_per_min, 2),
                 std::to_string(all_steps.sat_queries)});
  table.add_row({"End-of-episode reward", std::to_string(eoe.max_compatible),
                 fmt(eoe.steps_per_min, 0), fmt(eoe.episodes_per_min, 2),
                 std::to_string(eoe.sat_queries)});
  table.add_row({"End-of-episode (repair<=8)", std::to_string(eoe_bounded.max_compatible),
                 fmt(eoe_bounded.steps_per_min, 0), fmt(eoe_bounded.episodes_per_min, 2),
                 std::to_string(eoe_bounded.sat_queries)});
  const double quality_delta =
      all_steps.max_compatible == 0
          ? 0.0
          : 100.0 * (static_cast<double>(eoe.max_compatible) -
                     static_cast<double>(all_steps.max_compatible)) /
                static_cast<double>(all_steps.max_compatible);
  table.add_row({"Improvement", fmt(quality_delta, 1) + "%",
                 fmt(eoe.steps_per_min / std::max(1.0, all_steps.steps_per_min), 2) + "x",
                 fmt(eoe.episodes_per_min / std::max(1.0, all_steps.episodes_per_min), 2) + "x",
                 "-"});
  table.print();

  std::printf(
      "\npaper (Table 1): 53 vs 50 compatible nets; 108 vs 9387 steps/min "
      "(86.91x); -5.6%% quality.\nExpected shape: end-of-episode trains 1-2 "
      "orders of magnitude faster at a small quality cost.\n");
  return 0;
}
