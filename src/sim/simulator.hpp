#pragma once

#include <functional>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/engine.hpp"
#include "sim/pattern.hpp"

namespace deterrent::sim {

/// Single-word convenience facade over sim::Engine: evaluates 64 patterns per
/// pass in one machine word per net. Kept for call sites that genuinely work
/// one block (or one pattern) at a time — greedy mutation loops, SAT model
/// cross-checks. Batch consumers (probability estimation, signatures,
/// coverage) use the Engine directly with multi-word sweeps.
///
/// The netlist must be combinational (apply netlist::make_full_scan to
/// sequential designs first — the standard full-scan assumption of §4.1).
class Simulator {
 public:
  explicit Simulator(const netlist::Netlist& netlist) : engine_(netlist) {}

  const netlist::Netlist& target() const { return engine_.target(); }

  /// The compiled engine, for callers that mix single-block and batch use
  /// without paying a second netlist compilation.
  const Engine& engine() const { return engine_; }

  /// Evaluates one block of 64 patterns. `input_words[i]` carries the 64
  /// values of primary input i (bit b = pattern b). Returns one word per net,
  /// indexed by NetId; the span stays valid until the next simulate call.
  std::span<const std::uint64_t> simulate_block(std::span<const std::uint64_t> input_words) {
    engine_.evaluate(buf_, input_words, 1);
    return buf_.flat();
  }

  /// Runs a whole pattern set block by block. The sink receives the block
  /// index, the lane-validity mask (only bits set in it correspond to real
  /// patterns), and per-net value words.
  void simulate(const PatternSet& patterns,
                const std::function<void(std::size_t block, std::uint64_t valid_mask,
                                         std::span<const std::uint64_t> values)>& sink);

  /// Single-pattern convenience (used for pattern inspection and SAT model
  /// cross-checks); returns one bool per net.
  std::vector<bool> simulate_pattern(const Pattern& pattern) {
    return engine_.evaluate_pattern(buf_, pattern);
  }

 private:
  Engine engine_;
  EvalBuffer buf_;
};

/// Naive recursive-free scalar evaluation over the topological order; the
/// reference oracle the test suite checks the bit-parallel engine against.
std::vector<bool> evaluate_naive(const netlist::Netlist& netlist,
                                 const std::vector<bool>& input_values);

}  // namespace deterrent::sim
