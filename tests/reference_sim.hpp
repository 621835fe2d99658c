// Reference simulation for the tests: the single-word sim::Simulator facade
// over sim::Engine, evaluate_naive (the scalar oracle the test suites check
// the bit-parallel engine against), and exact signal statistics built on it.
// Production code drives sim::Engine directly.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "netlist/gate.hpp"
#include "netlist/netlist.hpp"
#include "sim/engine.hpp"
#include "sim/pattern.hpp"
#include "sim/probability.hpp"
#include "util/assert.hpp"

namespace deterrent::sim {

/// Single-word convenience facade over sim::Engine: evaluates 64 patterns per
/// pass in one machine word per net, for tests that work one block (or one
/// pattern) at a time — SAT model cross-checks, pattern inspection.
///
/// The netlist must be combinational (apply netlist::make_full_scan to
/// sequential designs first — the standard full-scan assumption of §4.1).
class Simulator {
 public:
  explicit Simulator(const netlist::Netlist& netlist) : engine_(netlist) {}

  /// Runs a whole pattern set block by block. The sink receives the block
  /// index, the lane-validity mask (only bits set in it correspond to real
  /// patterns), and per-net value words indexed by NetId.
  void simulate(const PatternSet& patterns,
                const std::function<void(std::size_t block, std::uint64_t valid_mask,
                                         std::span<const std::uint64_t> values)>& sink) {
    DETERRENT_ASSERT(patterns.input_count() == engine_.target().inputs().size(),
                     "simulate: pattern arity mismatch");
    for (std::size_t b = 0; b < patterns.block_count(); ++b) {
      engine_.evaluate(buf_, patterns.block(b), 1);
      sink(b, patterns.valid_mask(b), buf_.flat());
    }
  }

  /// Single-pattern convenience; returns one bool per net.
  std::vector<bool> simulate_pattern(const Pattern& pattern) {
    return engine_.evaluate_pattern(buf_, pattern);
  }

 private:
  Engine engine_;
  EvalBuffer buf_;
};

/// Naive scalar evaluation over the topological order; the reference oracle
/// the test suites check the bit-parallel engine against.
inline std::vector<bool> evaluate_naive(const netlist::Netlist& netlist,
                                        const std::vector<bool>& input_values) {
  DETERRENT_ASSERT(input_values.size() == netlist.inputs().size(),
                   "evaluate_naive: arity mismatch");
  if (netlist.is_sequential())
    throw Error("evaluate_naive requires a combinational netlist");

  std::vector<bool> values(netlist.net_count(), false);
  for (std::size_t i = 0; i < input_values.size(); ++i)
    values[netlist.inputs()[i]] = input_values[i];

  // eval_bool needs contiguous bools; std::vector<bool> is bit-packed, so use
  // a plain array grown on demand.
  std::size_t capacity = 8;
  auto fanin_vals = std::make_unique<bool[]>(capacity);

  for (netlist::NetId id : netlist.topo_order()) {
    const netlist::GateType type = netlist.type(id);
    if (type == netlist::GateType::Input) continue;
    const auto fanins = netlist.fanins(id);
    if (fanins.size() > capacity) {
      capacity = std::max(capacity * 2, fanins.size());
      fanin_vals = std::make_unique<bool[]>(capacity);
    }
    for (std::size_t k = 0; k < fanins.size(); ++k) fanin_vals[k] = values[fanins[k]];
    values[id] =
        netlist::eval_bool(type, std::span<const bool>(fanin_vals.get(), fanins.size()));
  }
  return values;
}

/// Signal statistics under a given pattern set, from one Engine sweep.
inline SignalStats signal_stats_for_patterns(const netlist::Netlist& netlist,
                                             const PatternSet& patterns) {
  SignalStats stats;
  stats.pattern_count = patterns.pattern_count();
  stats.ones.assign(netlist.net_count(), 0);
  const Engine engine(netlist);
  engine.sweep(patterns, [&](std::size_t first_block, std::size_t n_words,
                             const EvalBuffer& buf) {
    for (std::size_t net = 0; net < buf.net_count(); ++net) {
      const auto values = buf.net(static_cast<netlist::NetId>(net));
      for (std::size_t w = 0; w < n_words; ++w)
        stats.ones[net] += static_cast<std::size_t>(
            std::popcount(values[w] & patterns.valid_mask(first_block + w)));
    }
  });
  return stats;
}

/// Exact probabilities by evaluating every input assignment with
/// evaluate_naive: the ground truth for the estimator, independent of the
/// Engine it checks. Assignment a sets input i to bit i of a.
inline SignalStats exact_signal_stats(const netlist::Netlist& netlist) {
  const std::size_t n_inputs = netlist.inputs().size();
  DETERRENT_ASSERT(n_inputs <= 16, "exact_signal_stats: too many inputs to enumerate");
  SignalStats stats;
  stats.pattern_count = std::size_t{1} << n_inputs;
  stats.ones.assign(netlist.net_count(), 0);
  std::vector<bool> inputs(n_inputs);
  for (std::size_t a = 0; a < stats.pattern_count; ++a) {
    for (std::size_t i = 0; i < n_inputs; ++i) inputs[i] = (a >> i) & 1;
    const std::vector<bool> values = evaluate_naive(netlist, inputs);
    for (std::size_t net = 0; net < values.size(); ++net) stats.ones[net] += values[net];
  }
  return stats;
}

}  // namespace deterrent::sim
