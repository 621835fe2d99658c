#include "baselines/tgrl_like.hpp"

#include <algorithm>
#include <cmath>

#include "sim/engine.hpp"

namespace deterrent::baselines {

TgrlLikeResult run_tgrl_like(const netlist::Netlist& netlist,
                             std::span<const analysis::RareNet> rare_nets,
                             const analysis::ScoapValues& scoap,
                             const TgrlLikeConfig& config, util::Rng& rng) {
  const std::size_t n_inputs = netlist.inputs().size();
  const std::size_t n_rare = rare_nets.size();
  const sim::Engine engine(netlist);
  sim::EvalBuffer eval_buf;

  TgrlLikeResult result;
  result.patterns = sim::PatternSet(n_inputs);

  // Static per-net base weights: rareness (1/p) combined with normalized
  // SCOAP observability, as in TGRL's reward.
  std::vector<double> base_weight(n_rare);
  double max_co = 1.0;
  for (const auto& rn : rare_nets)
    max_co = std::max(max_co, static_cast<double>(std::min(
                                  scoap.co[rn.net], analysis::ScoapValues::kInfinity / 2)));
  for (std::size_t i = 0; i < n_rare; ++i) {
    const double rareness = 1.0 / std::max(rare_nets[i].probability, 1e-6);
    const double co = static_cast<double>(
        std::min(scoap.co[rare_nets[i].net], analysis::ScoapValues::kInfinity / 2));
    base_weight[i] = std::log1p(rareness) * (1.0 + config.testability_weight * co / max_co);
  }
  std::vector<std::size_t> activation_counts(n_rare, 0);

  // Bernoulli(≈flip_probability) word masks via ANDed uniform words.
  const int and_depth = std::max(
      1, static_cast<int>(std::round(-std::log2(config.flip_probability))));
  auto sparse_word = [&]() {
    std::uint64_t w = rng.next_word();
    for (int k = 1; k < and_depth; ++k) w &= rng.next_word();
    return w;
  };

  // The mutation loop keeps eval_buf warm across rounds and candidates: each
  // pass hands the engine only the input words that differ from the previous
  // pass, and resimulate re-evaluates just their fanout cones (falling back
  // to a dense sweep automatically when most inputs changed, as is typical
  // for the all-input probabilistic mutants below).
  std::vector<std::uint64_t> words(n_inputs);
  std::vector<std::uint64_t> prev_words;
  std::vector<std::uint32_t> dirty_inputs;
  std::vector<std::uint64_t> dirty_words;
  auto simulate_words = [&]() {
    if (prev_words.empty()) {
      engine.evaluate(eval_buf, words, 1);
      prev_words = words;
      return;
    }
    dirty_inputs.clear();
    dirty_words.clear();
    for (std::size_t i = 0; i < n_inputs; ++i)
      if (words[i] != prev_words[i]) {
        dirty_inputs.push_back(static_cast<std::uint32_t>(i));
        dirty_words.push_back(words[i]);
      }
    engine.resimulate(eval_buf, dirty_inputs, dirty_words);
    prev_words = words;
  };

  while (result.patterns.pattern_count() < config.n_patterns) {
    sim::Pattern current(n_inputs);
    for (std::size_t i = 0; i < n_inputs; ++i) current.set(i, rng.bernoulli(0.5));
    double current_score = -1.0;

    for (std::size_t round = 0; round < config.mutation_rounds; ++round) {
      // Lane 0 carries the incumbent; lanes 1–63 are probabilistic mutants.
      for (std::size_t i = 0; i < n_inputs; ++i) {
        std::uint64_t w = current.test(i) ? ~0ULL : 0ULL;
        w ^= (sparse_word() & ~1ULL);
        words[i] = w;
      }
      simulate_words();

      double best_score = -1.0;
      int best_lane = 0;
      for (int lane = 0; lane < 64; ++lane) {
        double score = 0.0;
        for (std::size_t i = 0; i < n_rare; ++i) {
          const bool v = (eval_buf.word(rare_nets[i].net, 0) >> lane) & 1ULL;
          if (v == rare_nets[i].rare_value)
            score += base_weight[i] /
                     (1.0 + static_cast<double>(activation_counts[i]));
        }
        if (score > best_score) {
          best_score = score;
          best_lane = lane;
        }
      }
      if (best_lane != 0 && best_score > current_score) {
        for (std::size_t i = 0; i < n_inputs; ++i)
          current.set(i, (words[i] >> best_lane) & 1ULL);
      }
      current_score = std::max(current_score, best_score);
    }

    // Final tally for the emitted pattern: broadcast it across all lanes via
    // one more incremental pass and read lane 0.
    for (std::size_t i = 0; i < n_inputs; ++i)
      words[i] = current.test(i) ? ~0ULL : 0ULL;
    simulate_words();
    for (std::size_t i = 0; i < n_rare; ++i)
      if (((eval_buf.word(rare_nets[i].net, 0) & 1ULL) != 0) == rare_nets[i].rare_value)
        ++activation_counts[i];
    result.patterns.push(current);
    result.pattern_scores.push_back(current_score);
  }
  return result;
}

}  // namespace deterrent::baselines
