// Reference simulation for the tests: the single-word sim::Simulator facade
// over sim::Engine and evaluate_naive, the scalar oracle the test suites
// check the bit-parallel engine against. Production code drives sim::Engine
// directly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "netlist/gate.hpp"
#include "netlist/netlist.hpp"
#include "sim/engine.hpp"
#include "sim/pattern.hpp"
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

}  // namespace deterrent::sim
