#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netlist/scan.hpp"
#include "sim/engine.hpp"
#include "sim/pattern.hpp"

namespace deterrent::sim {

/// Event-driven multi-trace sequential simulator built on the compiled
/// sim::Engine.
///
/// The scan-cut combinational cone is compiled once (netlist::make_full_scan,
/// so net ids are identical to the original design's); flip-flop state lives
/// in the W value words of the Q pseudo-input rows of one EvalBuffer, where
/// bit lane t of every word-column carries trace t. All trace_count() traces
/// therefore step one clock cycle in lock-step per step() call — each trace
/// has its own primary-input stimulus, its own reset state, and its own
/// trajectory, at the cost of one W-word sweep instead of trace_count()
/// scalar ones.
///
/// Between cycles the engine does not re-run the whole program: the dirty
/// input set of Engine::resimulate is (primary inputs whose stimulus words
/// changed) ∪ (flip-flops whose Q words changed at the clock edge), so a
/// steady-state cycle — a program loop on the MIPS16 core, a dormant trojan
/// under near-constant stimulus — costs only the fanout cones of the few
/// nets that actually moved. When ≥1/4 of the scan-view inputs are dirty,
/// resimulate's dense fallback runs one full sweep instead; either way the
/// value buffer is bit-identical to a from-scratch evaluation of the cycle.
/// Single-trace callers construct it with n_traces = 1 and read trace 0.
class SequentialEngine {
 public:
  /// Compiles the full-scan view of `netlist` (which may be combinational —
  /// then there is no state and step() is a batched evaluation). `n_traces`
  /// independent traces run in lock-step; the word width is
  /// ceil(n_traces / 64) and ragged lane tails are simulated but unobservable
  /// through the per-trace accessors. `forced_isa` pins the kernel backend
  /// exactly as for sim::Engine.
  explicit SequentialEngine(const netlist::Netlist& netlist, std::size_t n_traces = 64,
                            std::optional<kernels::Isa> forced_isa = std::nullopt);

  /// The original (possibly sequential) design. Net ids in every accessor
  /// refer to this netlist; the scan transform preserves them.
  const netlist::Netlist& target() const { return *netlist_; }

  /// The compiled combinational engine (scan view), for callers that mix
  /// cycle stepping with batch sweeps without a second compilation.
  const Engine& engine() const { return engine_; }

  std::size_t trace_count() const { return traces_; }
  /// Value words per net per cycle: ceil(trace_count() / 64).
  std::size_t words() const { return words_; }
  std::size_t dff_count() const { return scan_.pseudo_inputs.size(); }
  std::uint64_t cycle_count() const { return cycles_; }

  /// Cumulative gate evaluations since construction/reset() — full sweeps
  /// count the whole program, resimulated cycles count only their cones.
  /// The activity statistic behind the bench's gate-evals-per-cycle row.
  std::uint64_t gate_evals() const { return gate_evals_; }

  /// Sets every flip-flop of every trace to `value` and restarts the cycle
  /// counter. The next step() re-evaluates from scratch (full sweep).
  void reset(bool value = false);

  /// State of one flip-flop (by its Q net id) in one trace: the value Q
  /// takes at the next step(), i.e. after the most recent clock edge.
  void set_state(netlist::NetId q, std::size_t trace, bool value);
  bool state(netlist::NetId q, std::size_t trace) const;

  /// All trace lanes of one flip-flop's pending state, word w = traces
  /// [w*64, w*64+64). Writable form overwrites all lanes at once (bulk trace
  /// initialization without 64×W set_state calls).
  std::span<const std::uint64_t> state_words(netlist::NetId q) const;
  void set_state_words(netlist::NetId q, std::span<const std::uint64_t> words);

  /// Applies one clock cycle to all traces in lock-step. `input_words` is
  /// input-major over the original design's primary inputs: word w of input
  /// i at [i * words() + w], bit lane t = trace t's stimulus. Evaluates the
  /// combinational cone (incrementally against the previous cycle when
  /// possible), then clocks every Q <= D. Cycle values stay readable via
  /// value()/value_words() until the next step()/reset().
  void step(std::span<const std::uint64_t> input_words);

  /// Broadcast convenience: every trace receives the same single-pattern
  /// stimulus this cycle (traces still diverge through their states).
  void step_broadcast(const Pattern& inputs);

  /// Value of `net` in `trace` for the most recent cycle (pre-clock-edge).
  /// Valid only after a step().
  bool value(netlist::NetId net, std::size_t trace) const;

  /// The words() value words of `net` for the most recent cycle.
  std::span<const std::uint64_t> value_words(netlist::NetId net) const;

  /// The full value buffer of the most recent cycle (net-major, stride
  /// words()) — for bulk consumers like toggle counting.
  const EvalBuffer& values() const { return buf_; }

 private:
  std::size_t dff_index(netlist::NetId q) const;

  static constexpr std::uint32_t kNotDff = 0xffffffffu;

  const netlist::Netlist* netlist_;
  netlist::ScanView scan_;
  Engine engine_;  // compiled over scan_.comb
  std::size_t traces_;
  std::size_t words_;
  std::vector<std::uint32_t> pi_ordinal_;  // PI index -> scan-view input ordinal
  std::vector<std::uint32_t> ff_ordinal_;  // DFF index -> scan-view input ordinal
  std::vector<std::uint32_t> q_to_dff_;    // net id -> DFF index (kNotDff otherwise)
  /// Pending Q state, DFF-major W words per flip-flop: what each Q feeds into
  /// the *next* cycle. Captured from the D rows at the clock edge — a
  /// snapshot is required, since with directly chained flip-flops a D net is
  /// another flip-flop's Q net and in-buffer updates would lose the register
  /// delay.
  util::CacheAlignedVector<std::uint64_t> state_;
  EvalBuffer buf_;
  std::vector<std::uint64_t> combined_scratch_;     // full-evaluate input staging
  std::vector<std::uint64_t> broadcast_scratch_;    // step_broadcast staging
  std::vector<std::uint32_t> dirty_scratch_;        // resimulate ordinals
  std::vector<std::uint64_t> dirty_words_scratch_;  // resimulate words
  bool primed_ = false;
  std::uint64_t cycles_ = 0;
  std::uint64_t gate_evals_ = 0;
};

}  // namespace deterrent::sim
