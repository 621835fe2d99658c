#include "sim/probability.hpp"

#include <bit>

#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace deterrent::sim {

using netlist::NetId;

namespace {

/// Adds per-net popcounts of a batch into `ones`. masks[w] selects the valid
/// pattern lanes of word w (all-ones except possibly the final block).
void accumulate_batch(const EvalBuffer& buf, std::span<const std::uint64_t> masks,
                      std::vector<std::size_t>& ones) {
  const std::size_t n_words = buf.words();
  for (std::size_t net = 0; net < buf.net_count(); ++net) {
    const auto values = buf.net(static_cast<NetId>(net));
    std::size_t acc = 0;
    for (std::size_t w = 0; w < n_words; ++w)
      acc += static_cast<std::size_t>(std::popcount(values[w] & masks[w]));
    ones[net] += acc;
  }
}

}  // namespace

SignalStats estimate_signal_stats(const netlist::Netlist& netlist,
                                  std::size_t pattern_count, util::Rng& rng,
                                  util::ThreadPool* pool) {
  SignalStats stats;
  stats.pattern_count = pattern_count;
  stats.ones.assign(netlist.net_count(), 0);
  if (pattern_count == 0) return stats;

  const std::size_t n_blocks = (pattern_count + 63) / 64;
  const std::size_t n_inputs = netlist.inputs().size();
  const std::uint64_t tail_mask =
      pattern_count % 64 == 0 ? ~0ULL : (~0ULL >> (64 - pattern_count % 64));

  // Pre-draw one RNG seed per block so the result is independent of the
  // execution schedule (threaded or not) and of the sweep batching.
  std::vector<std::uint64_t> block_seeds(n_blocks);
  for (auto& seed : block_seeds) seed = rng.next_word();

  // One compiled engine shared by all workers; each worker owns its value
  // buffer and simulates a disjoint stripe of blocks.
  const Engine engine(netlist);
  auto run_range = [&](std::vector<std::size_t>& local_ones, std::size_t begin,
                       std::size_t end) {
    EvalBuffer buf;
    std::vector<std::uint64_t> input_words;
    std::vector<std::uint64_t> masks;
    for (std::size_t first = begin; first < end; first += Engine::kDefaultWords) {
      const std::size_t n = std::min(Engine::kDefaultWords, end - first);
      input_words.resize(n_inputs * n);
      masks.resize(n);
      for (std::size_t w = 0; w < n; ++w) {
        util::Rng block_rng(block_seeds[first + w]);
        for (std::size_t i = 0; i < n_inputs; ++i)
          input_words[i * n + w] = block_rng.next_word();
        masks[w] = first + w + 1 == n_blocks ? tail_mask : ~0ULL;
      }
      engine.evaluate(buf, input_words, n);
      accumulate_batch(buf, masks, local_ones);
    }
  };

  if (pool == nullptr || pool->thread_count() <= 1 || n_blocks < 4) {
    run_range(stats.ones, 0, n_blocks);
    return stats;
  }

  std::vector<std::vector<std::size_t>> partial(pool->thread_count());
  pool->parallel_chunks(n_blocks, [&](std::size_t thread, std::size_t begin,
                                      std::size_t end) {
    auto& local = partial[thread];
    if (local.empty()) local.assign(netlist.net_count(), 0);
    run_range(local, begin, end);
  });
  for (const auto& local : partial) {
    if (local.empty()) continue;
    for (std::size_t net = 0; net < stats.ones.size(); ++net)
      stats.ones[net] += local[net];
  }
  return stats;
}

}  // namespace deterrent::sim
