#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace deterrent::sim {

/// Per-net signal statistics from logic simulation: how often each net
/// evaluated to 1 (step ❶ of the paper's architecture, Figure 4).
struct SignalStats {
  std::size_t pattern_count = 0;
  std::vector<std::size_t> ones;  ///< indexed by NetId

  double prob_one(netlist::NetId net) const {
    return pattern_count ? static_cast<double>(ones[net]) / static_cast<double>(pattern_count)
                         : 0.0;
  }
};

/// Estimates signal probabilities with `pattern_count` uniform random
/// patterns. When a pool is given, blocks are distributed across it (each
/// worker owns a private EvalBuffer); results are deterministic for a given
/// seed regardless of thread count.
SignalStats estimate_signal_stats(const netlist::Netlist& netlist,
                                  std::size_t pattern_count, util::Rng& rng,
                                  util::ThreadPool* pool = nullptr);

}  // namespace deterrent::sim
