#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/pattern.hpp"
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

/// Signal statistics under a *given* pattern set (used by MERO-style counting
/// and by tests).
SignalStats signal_stats_for_patterns(const netlist::Netlist& netlist,
                                      const PatternSet& patterns);

/// Exact probabilities by exhaustive input enumeration. Only feasible for
/// small circuits (input_count <= 24); the test suite uses it as ground truth
/// for the estimator.
SignalStats exact_signal_stats(const netlist::Netlist& netlist);

}  // namespace deterrent::sim
