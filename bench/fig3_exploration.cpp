// Figure 3 — Total-loss trends in c2670: default vs. boosted exploration.
//
// Paper: with default PPO (no entropy bonus, λ=0.95) the total loss collapses
// to ~0 quickly — the agent stops exploring and gets stuck in local optima.
// With boosted exploration (entropy coefficient c_eps=1, λ=0.99) the loss
// stays elevated, the agent keeps exploring, and coverage improves. We print
// both loss series plus the resulting distinct-set pools.
#include "common.hpp"

using namespace deterrent;
using namespace deterrent::bench;

namespace {

struct LossTrace {
  std::vector<std::uint64_t> steps;
  std::vector<double> total_loss;
  std::vector<double> entropy;
  std::size_t pool_size = 0;
  std::size_t max_set = 0;
};

LossTrace run_variant(const netlist::Netlist& comb, const core::DeterrentConfig& cfg) {
  core::Pipeline det(comb, cfg);
  det.run_rare_nets();
  det.run_compatibility();
  det.run_train();
  LossTrace trace;
  for (const auto& snap : det.history()) {
    trace.steps.push_back(snap.cumulative_steps);
    trace.total_loss.push_back(snap.ppo.total_loss);
    trace.entropy.push_back(snap.ppo.mean_entropy);
  }
  trace.pool_size = det.pool().size();
  trace.max_set = det.pool().max_set_size();
  return trace;
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  print_header("Figure 3 — loss trends: default vs boosted exploration (c2670_like)",
               scale);

  auto bench = bench_gen::load_benchmark("c2670_like");

  core::DeterrentConfig default_cfg;
  default_cfg.ppo = rl::PpoConfig{};  // stock PPO: entropy 0, lambda 0.95
  default_cfg.updates = scale.loss_updates;
  default_cfg.ppo.episodes_per_update = scale.det_episodes;
  default_cfg.seed = 9;

  core::DeterrentConfig boosted_cfg = default_cfg;
  boosted_cfg.ppo = core::DeterrentConfig::boosted_ppo_defaults();  // c_eps=1, λ=0.99
  boosted_cfg.ppo.episodes_per_update = scale.det_episodes;

  const LossTrace def = run_variant(bench.scan.comb, default_cfg);
  const LossTrace boosted = run_variant(bench.scan.comb, boosted_cfg);

  util::Table table({"Steps (default)", "Total loss (default)", "Entropy (default)",
                     "Steps (boosted)", "Total loss (boosted)", "Entropy (boosted)"});
  for (std::size_t i = 0; i < def.steps.size(); ++i)
    table.add_row({std::to_string(def.steps[i]), fmt(def.total_loss[i], 2),
                   fmt(def.entropy[i], 3), std::to_string(boosted.steps[i]),
                   fmt(boosted.total_loss[i], 2), fmt(boosted.entropy[i], 3)});
  table.print();

  // The headline signal: the default loss magnitude collapses towards zero
  // while the boosted loss stays elevated (entropy term keeps gradients live).
  auto tail_mean = [](const std::vector<double>& xs) {
    double sum = 0.0;
    const std::size_t tail = std::max<std::size_t>(1, xs.size() / 4);
    for (std::size_t i = xs.size() - tail; i < xs.size(); ++i) sum += std::abs(xs[i]);
    return sum / static_cast<double>(tail);
  };
  std::printf("\n|total loss| over the final quarter: default %.2f vs boosted %.2f\n",
              tail_mean(def.total_loss), tail_mean(boosted.total_loss));
  std::printf("policy entropy over the final quarter: default %.3f vs boosted %.3f\n",
              tail_mean(def.entropy), tail_mean(boosted.entropy));
  std::printf("distinct sets found: default %zu (max %zu) vs boosted %zu (max %zu)\n",
              def.pool_size, def.max_set, boosted.pool_size, boosted.max_set);
  std::printf(
      "\npaper (Fig. 3): default exploration's loss collapses to ~0 early; "
      "boosted stays non-zero,\nforcing continued exploration and more diverse "
      "compatible sets.\n");
  return 0;
}
