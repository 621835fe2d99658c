#include "baselines/mero.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "sim/engine.hpp"

namespace deterrent::baselines {

MeroResult run_mero(const netlist::Netlist& netlist,
                    std::span<const analysis::RareNet> rare_nets,
                    const MeroConfig& config, util::Rng& rng) {
  const std::size_t n_inputs = netlist.inputs().size();
  const std::size_t n_rare = rare_nets.size();
  const sim::Engine engine(netlist);
  sim::EvalBuffer eval_buf;

  MeroResult result;
  result.patterns = sim::PatternSet(n_inputs);
  result.activation_counts.assign(n_rare, 0);

  // Step 1: random pool, ranked by how many rare nets each pattern activates;
  // scored in multi-word engine sweeps.
  const auto pool = sim::PatternSet::random(n_inputs, config.random_pool, rng);
  std::vector<std::uint32_t> scores(config.random_pool, 0);
  engine.sweep(pool, [&](std::size_t first_block, std::size_t n_words,
                         const sim::EvalBuffer& buf) {
    for (const auto& rn : rare_nets) {
      const auto values = buf.net(rn.net);
      for (std::size_t w = 0; w < n_words; ++w) {
        std::uint64_t hits = rn.rare_value ? values[w] : ~values[w];
        hits &= pool.valid_mask(first_block + w);
        while (hits) {
          const int lane = std::countr_zero(hits);
          hits &= hits - 1;
          ++scores[(first_block + w) * 64 + static_cast<std::size_t>(lane)];
        }
      }
    }
  });
  std::vector<std::uint32_t> order(config.random_pool);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return scores[a] > scores[b]; });

  // Gain of the mutant in `lane` of the current value buffer = number of
  // still-under-detected rare nets it drives to their rare value.
  auto gain_at_lane = [&](std::size_t lane) {
    std::size_t gain = 0;
    for (std::uint32_t i = 0; i < n_rare; ++i)
      if (result.activation_counts[i] < config.n_detect &&
          (((eval_buf.word(rare_nets[i].net, 0) >> lane) & 1ULL) != 0) ==
              rare_nets[i].rare_value)
        ++gain;
    return gain;
  };

  std::vector<std::uint64_t> broadcast(n_inputs);  // incumbent, replicated per lane
  std::vector<std::uint32_t> dirty_inputs;
  std::vector<std::uint64_t> dirty_words;
  bool buffer_primed = false;
  for (const std::uint32_t p : order) {
    if (config.max_patterns != 0 && result.patterns.pattern_count() >= config.max_patterns)
      break;

    sim::Pattern current = pool.pattern(p);
    if (!buffer_primed || !config.chain_candidates) {
      for (std::size_t i = 0; i < n_inputs; ++i)
        broadcast[i] = current.test(i) ? ~0ULL : 0ULL;
      engine.evaluate(eval_buf, broadcast, 1);
      buffer_primed = true;
    } else {
      // Candidate chaining: the buffer still holds the previous candidate's
      // final state (the greedy loop restores it to broadcast(current) after
      // every round), so only the inputs that differ between the two
      // candidates are dirty — ranked pool patterns overlap heavily, which
      // removes most full-program sweeps.
      dirty_inputs.clear();
      dirty_words.clear();
      for (std::size_t i = 0; i < n_inputs; ++i) {
        const std::uint64_t next_word = current.test(i) ? ~0ULL : 0ULL;
        if (next_word != broadcast[i]) {
          broadcast[i] = next_word;
          dirty_inputs.push_back(static_cast<std::uint32_t>(i));
          dirty_words.push_back(next_word);
        }
      }
      engine.resimulate(eval_buf, dirty_inputs, dirty_words);
    }
    std::size_t current_gain = gain_at_lane(0);

    // Step 2: greedy bit-flip ascent; evaluate 64 single-bit mutants per
    // simulation pass (lane b = current with bit base+b flipped). Each pass
    // re-simulates incrementally: its dirty set restores the previously
    // flipped window to the incumbent and flips the next one, so only those
    // fanout cones are re-evaluated instead of the whole program.
    for (std::size_t round = 0; round < config.greedy_rounds; ++round) {
      std::size_t best_bit = n_inputs;
      std::size_t best_gain = current_gain;
      std::size_t flipped_base = 0, flipped_lanes = 0;  // window flipped in buffer
      for (std::size_t base = 0; base < n_inputs; base += 64) {
        const std::size_t lanes = std::min<std::size_t>(64, n_inputs - base);
        dirty_inputs.clear();
        dirty_words.clear();
        for (std::size_t lane = 0; lane < flipped_lanes; ++lane) {
          dirty_inputs.push_back(static_cast<std::uint32_t>(flipped_base + lane));
          dirty_words.push_back(broadcast[flipped_base + lane]);
        }
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          dirty_inputs.push_back(static_cast<std::uint32_t>(base + lane));
          dirty_words.push_back(broadcast[base + lane] ^ (1ULL << lane));
        }
        engine.resimulate(eval_buf, dirty_inputs, dirty_words);
        flipped_base = base;
        flipped_lanes = lanes;

        for (std::size_t lane = 0; lane < lanes; ++lane) {
          const std::size_t gain = gain_at_lane(lane);
          if (gain > best_gain) {
            best_gain = gain;
            best_bit = base + lane;
          }
        }
      }

      // Restore the trailing window and, if a flip improved the gain, apply
      // it — one incremental pass back to broadcast(current).
      if (best_bit != n_inputs) {
        current.set(best_bit, !current.test(best_bit));
        broadcast[best_bit] = ~broadcast[best_bit];
      }
      dirty_inputs.clear();
      dirty_words.clear();
      for (std::size_t lane = 0; lane < flipped_lanes; ++lane) {
        dirty_inputs.push_back(static_cast<std::uint32_t>(flipped_base + lane));
        dirty_words.push_back(broadcast[flipped_base + lane]);
      }
      if (best_bit != n_inputs &&
          (best_bit < flipped_base || best_bit >= flipped_base + flipped_lanes)) {
        dirty_inputs.push_back(static_cast<std::uint32_t>(best_bit));
        dirty_words.push_back(broadcast[best_bit]);
      }
      engine.resimulate(eval_buf, dirty_inputs, dirty_words);
      if (best_bit == n_inputs) break;  // local optimum
      current_gain = best_gain;
    }

    // Step 3: keep the pattern only if it advances N-detection. The buffer
    // holds broadcast(current), so lane 0 carries the final pattern's values.
    if (current_gain == 0) continue;
    result.patterns.push(current);
    for (std::uint32_t i = 0; i < n_rare; ++i)
      if (((eval_buf.word(rare_nets[i].net, 0) & 1ULL) != 0) == rare_nets[i].rare_value)
        ++result.activation_counts[i];

    const bool all_done = std::all_of(
        result.activation_counts.begin(), result.activation_counts.end(),
        [&](std::size_t c) { return c >= config.n_detect; });
    if (all_done) break;
  }

  result.n_detect_satisfied = std::all_of(
      result.activation_counts.begin(), result.activation_counts.end(),
      [&](std::size_t c) { return c >= config.n_detect; });
  return result;
}

}  // namespace deterrent::baselines
