#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/kernels/kernel_table.hpp"
#include "sim/pattern.hpp"
#include "util/aligned.hpp"

namespace deterrent::sim {

class Engine;

/// Structure-of-arrays value storage for one Engine sweep: W consecutive
/// 64-bit value words per net (W*64 patterns), net-major. Consumers own one
/// buffer each (one per worker thread in parallel sweeps); the Engine only
/// writes into it, so a single compiled Engine is safely shared across
/// threads.
///
/// A buffer filled by Engine::evaluate / evaluate_blocks is *primed*: it
/// holds a complete, consistent value set for every net and can serve as the
/// base state of Engine::resimulate when it holds one word per net. The
/// incremental scratch state (dirty-op bitmask, change-detect word) also
/// lives here, so concurrent mutation loops need one buffer per thread but
/// can still share one compiled Engine.
class EvalBuffer {
 public:
  /// Words per net of the most recent evaluation (the W of that call).
  std::size_t words() const { return words_; }
  std::size_t net_count() const { return nets_; }

  /// True when this buffer was last filled by `engine` (via evaluate or
  /// evaluate_blocks) and therefore is a valid resimulate() base state.
  bool primed_for(const Engine& engine) const { return owner_ == &engine; }

  /// The W value words of one net: word w carries patterns [w*64, w*64+64) of
  /// the evaluated batch.
  std::span<const std::uint64_t> net(netlist::NetId id) const {
    return {values_.data() + std::size_t{id} * words_, words_};
  }

  std::uint64_t word(netlist::NetId id, std::size_t w) const {
    return values_[std::size_t{id} * words_ + w];
  }

  /// Whole buffer, net-major with stride words(). When words() == 1 this is
  /// exactly the legacy "one word per net, indexed by NetId" layout.
  /// The storage base is 64-byte aligned (see util::CacheAlignedVector); at
  /// the default W=8 every net's row is therefore one aligned cache line /
  /// AVX-512 register. Alignment is a performance contract only — the SIMD
  /// kernels use unaligned loads, so every W stays correct.
  std::span<const std::uint64_t> flat() const {
    return {values_.data(), values_.size()};
  }

 private:
  friend class Engine;

  void resize(std::size_t nets, std::size_t words) {
    nets_ = nets;
    words_ = words;
    values_.resize(nets * words);
  }

  util::CacheAlignedVector<std::uint64_t> values_;
  std::vector<std::uint64_t> inputs_scratch_;  // single-pattern input staging
  std::size_t nets_ = 0;
  std::size_t words_ = 0;

  // Incremental re-simulation scratch (see Engine::resimulate). The op
  // bitmask doubles as worklist and dedup set; every bit is cleared as it is
  // drained, so the mask is all-zero between calls and never needs a reset.
  const Engine* owner_ = nullptr;         // engine that last primed values_
  std::vector<std::uint64_t> dirty_ops_;  // one bit per program entry
  // The change-detect word eval_op writes. It lives on the heap: as a stack
  // slot it cost about 8% of the cone walk with the AVX-512 backend, whose
  // masked one-word store the walk reads straight back.
  util::CacheAlignedVector<std::uint64_t> op_scratch_;
};

/// Batch logic-simulation engine: compiles a netlist once into a flat,
/// level-ordered evaluation program (specialized opcodes for the 1- and
/// 2-input cells, a CSR-indexed n-ary fallback for wider gates) and then
/// evaluates W words — W*64 patterns — per sweep with no per-gate dispatch
/// call and no per-gate scratch copy. This is the hot path under rare-net
/// discovery, the compatibility pre-filter, trigger-coverage checks, the
/// MERO/TARMAC/ATPG baselines, and the PPO reward loop.
///
/// Pattern-stripe parallelism: the compiled program is immutable, so one
/// Engine is shared across a util::ThreadPool; each worker owns an EvalBuffer
/// and evaluates a disjoint range of pattern blocks (see
/// sim::estimate_signal_stats for the canonical stripe loop).
///
/// Incremental re-simulation: mutation loops (MERO's greedy bit flips, the
/// TGRL hill climber, trigger checks on evolving patterns) work on one
/// 64-pattern block and change only a few input words between sweeps.
/// resimulate() re-evaluates just the transitive fanout cone of the dirty
/// inputs against the previous one-word value buffer — event driven in
/// ascending program order via an L1-resident op bitmask, with a change
/// cut-off that stops propagation as soon as a gate's output word is
/// unchanged. Results are bit-identical to a full evaluate() of the same
/// input state.
///
/// SIMD backends: the W-word inner loops are provided by an ISA-tagged
/// kernel table (scalar / NEON / AVX2 / AVX-512, see sim/kernels/). The
/// table is selected once at construction (util/kernel_policy.hpp) — the
/// widest the CPU runs by default, pinnable with DETERRENT_FORCE_ISA or the
/// explicit constructor argument — and both full sweeps and the incremental
/// resimulate walk call through it, so every backend produces bit-identical
/// value buffers.
///
/// Thread safety: every method is const and touches only the caller's
/// EvalBuffer (including resimulate's worklist scratch), so one compiled
/// Engine may be used from many threads concurrently as long as each thread
/// owns its buffer.
///
/// The netlist must be combinational (apply netlist::make_full_scan first).
class Engine {
 public:
  /// Default words per sweep. 8 words (512 patterns) keeps the value buffer
  /// of typical benchmarks inside L2 while giving the inner loops enough
  /// independent lanes to fill the execute ports — and exactly fills one
  /// AVX-512 register per net on hosts with that backend.
  static constexpr std::size_t kDefaultWords = 8;

  /// Compiles `netlist` and binds the kernel backend
  /// kernels::select_kernel_table(forced_isa) picks; throws deterrent::Error
  /// when this host cannot run a forced backend.
  explicit Engine(const netlist::Netlist& netlist,
                  std::optional<util::Isa> forced_isa = std::nullopt);

  const netlist::Netlist& target() const { return *netlist_; }

  /// The kernel backend this engine dispatches to (fixed at construction).
  util::Isa isa() const { return kernels_->isa; }

  /// Evaluates n_words blocks at once. `input_words` is input-major: word w
  /// of primary input i at [i * n_words + w]. Results land in `buf`, which
  /// afterwards is primed for resimulate().
  void evaluate(EvalBuffer& buf, std::span<const std::uint64_t> input_words,
                std::size_t n_words) const;

  /// Incrementally re-evaluates `buf` after a sparse input change.
  ///
  /// `dirty_inputs[j]` is an index into target().inputs() (the input
  /// *ordinal*, not a NetId) whose new value word is `dirty_words[j]`;
  /// undirtied inputs keep the words already in `buf`. Only gates in the
  /// transitive fanout cone of inputs whose value actually changed are
  /// re-evaluated, and propagation stops early wherever a re-evaluated gate
  /// reproduces its old output word. When the dirty set is a large fraction
  /// of the inputs the call falls back to a full program sweep (same
  /// results, no worklist overhead), so resimulate is never asymptotically
  /// worse than evaluate.
  ///
  /// Preconditions (checked): `buf` was primed by *this* engine via
  /// evaluate()/evaluate_blocks() or a prior resimulate(), at one word per
  /// net (64 patterns). The priming check is pointer identity, so do not
  /// carry a buffer across the lifetime of its engine — a new engine at the
  /// same address cannot be told apart from the one that primed the buffer.
  /// Duplicate entries in `dirty_inputs` are allowed; the last one wins.
  /// Determinism: the resulting buffer is bit-identical to a full
  /// evaluate() of the updated input state, for every net.
  ///
  /// Returns the number of gate evaluations performed (program size when the
  /// dense fallback was taken) — useful for benchmarks and activity stats.
  std::size_t resimulate(EvalBuffer& buf,
                         std::span<const std::uint32_t> dirty_inputs,
                         std::span<const std::uint64_t> dirty_words) const;

  /// Evaluates blocks [first_block, first_block + n_words) of a PatternSet,
  /// gathering the input words directly from the set's block storage. Primes
  /// `buf` for resimulate().
  void evaluate_blocks(EvalBuffer& buf, const PatternSet& patterns,
                       std::size_t first_block, std::size_t n_words) const;

  /// Sequential whole-set sweep in batches of up to words_per_sweep blocks:
  /// sink(first_block, n_words, buf) per batch. Lane-validity masks come from
  /// patterns.valid_mask(block) as before (only the last block can be
  /// partial).
  void sweep(const PatternSet& patterns,
             const std::function<void(std::size_t first_block, std::size_t n_words,
                                      const EvalBuffer&)>& sink,
             std::size_t words_per_sweep = kDefaultWords) const;

  /// Ranged sweep over blocks [first_block, end_block) with early exit: stops
  /// as soon as the sink returns false. This is the batch loop behind
  /// coverage evaluation (exit once every trojan fired) and the per-worker
  /// stripes of threaded signature builds.
  void sweep_blocks(const PatternSet& patterns, std::size_t first_block,
                    std::size_t end_block,
                    const std::function<bool(std::size_t first_block,
                                             std::size_t n_words, const EvalBuffer&)>& sink,
                    std::size_t words_per_sweep = kDefaultWords) const;

  /// Single-pattern convenience (SAT model cross-checks, fault dropping);
  /// returns one bool per net. `buf` is reused across calls — pass the same
  /// buffer in loops to avoid reallocating a net_count-sized value array
  /// per pattern.
  std::vector<bool> evaluate_pattern(EvalBuffer& buf, const Pattern& pattern) const;

 private:
  /// Compiled opcodes — see kernels::Op (hoisted into sim/kernels/ so the
  /// per-ISA backend TUs can consume the program without netlist headers).
  using Op = kernels::Op;

  /// Dirty fraction of the inputs beyond which resimulate() abandons the
  /// event-driven worklist for a plain full sweep (the union cone is almost
  /// certainly the whole program at that point).
  static constexpr std::size_t kDenseFallbackDivisor = 4;
  static constexpr std::uint32_t kNoOp = 0xffffffffu;

  /// Borrowed view of the compiled program in the kernels' layout.
  kernels::ProgramView program_view() const;

  void run(std::uint64_t* values, std::size_t n_words) const;

  const netlist::Netlist* netlist_;
  /// Kernel backend shared by run() and resimulate() — full and incremental
  /// evaluation always execute the same per-op code.
  const kernels::KernelTable* kernels_;
  // One entry per combinational cell, in (levelized) topological order.
  std::vector<Op> op_;
  std::vector<netlist::NetId> out_;
  std::vector<std::uint32_t> a_;  // fanin 0, or CSR offset for *N ops
  std::vector<std::uint32_t> b_;  // fanin 1, or fanin count for *N ops
  std::vector<netlist::NetId> nary_fanins_;  // CSR pool for *N ops
  // Incremental-mode side table, built at compile time: program entries fed
  // by each net, CSR-indexed. Program order is topological, so an op's
  // fanout ops always have larger indices — an ascending scan of the dirty
  // bitmask is a valid (re-)evaluation order.
  std::vector<std::uint32_t> fanout_op_offset_;  // size net_count()+1
  std::vector<std::uint32_t> fanout_ops_;
};

}  // namespace deterrent::sim
