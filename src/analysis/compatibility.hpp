#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/rare_nets.hpp"
#include "netlist/netlist.hpp"
#include "sat/oracle.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace deterrent::analysis {

/// Symmetric pairwise-compatibility relation over the rare nets: bit (i, j)
/// is set when one input pattern can drive rare nets i and j to their rare
/// values simultaneously. The diagonal bit records whether the singleton is
/// satisfiable at all.
///
/// This is the "compatibility info" of the paper's offline phase (Figure 4),
/// used both for action masking in the RL agent (§3.3) and as the sampling
/// graph of the TARMAC baseline.
class CompatibilityMatrix {
 public:
  CompatibilityMatrix() = default;
  explicit CompatibilityMatrix(std::size_t n);

  /// Reconstructs a matrix from serialized rows (CompatibilityArtifact load
  /// path). Rows must be square and symmetric; violations throw
  /// deterrent::Error, since they indicate a corrupt or hand-edited artifact.
  static CompatibilityMatrix from_rows(std::vector<util::BitVec> rows);

  // Copy/move are explicit because the edge-count cache is atomic (atomics
  // are neither copyable nor movable).
  CompatibilityMatrix(const CompatibilityMatrix& other);
  CompatibilityMatrix(CompatibilityMatrix&& other) noexcept;
  CompatibilityMatrix& operator=(const CompatibilityMatrix& other);
  CompatibilityMatrix& operator=(CompatibilityMatrix&& other) noexcept;

  std::size_t size() const { return rows_.size(); }

  bool compatible(std::uint32_t i, std::uint32_t j) const {
    return rows_[i].test(j);
  }
  bool singleton_satisfiable(std::uint32_t i) const { return rows_[i].test(i); }

  /// Row i as a bitset over rare-net indices (includes the diagonal bit).
  const util::BitVec& row(std::uint32_t i) const { return rows_[i]; }

  void set(std::uint32_t i, std::uint32_t j, bool value = true);

  /// Number of compatible unordered pairs (i < j). The O(n²/64) popcount is
  /// computed once and cached. Concurrent const reads are safe (racing
  /// first callers recompute the same value into an atomic); set()
  /// invalidates and, like all writes, must not race with readers.
  std::size_t edge_count() const;

  /// Mean degree (compatible partners per rare net), excluding the diagonal.
  double average_degree() const;

  /// ORs `other`'s rows into this matrix (sizes must match) — the shard
  /// merge. Symmetry is preserved because every partial is itself symmetric.
  void merge_or(const CompatibilityMatrix& other);

 private:
  std::vector<util::BitVec> rows_;
  mutable std::atomic<std::size_t> cached_edge_count_{0};
  mutable std::atomic<bool> edge_count_valid_{false};
};

struct CompatibilityBuildConfig {
  /// Random patterns for the co-occurrence pre-filter. A pair witnessed
  /// together in simulation is proven compatible without any SAT call.
  std::size_t sim_patterns = 1 << 14;
  /// Conflict budget per SAT pair query; exhausted budget conservatively
  /// reports "incompatible" (counted in timeout_pairs).
  std::int64_t sat_conflict_budget = 50000;
  /// Removed: the clause-sharing SAT portfolio is gone, and every phase-2
  /// worker runs one sat::NetlistOracle that branches on the primary inputs
  /// only (NetlistOracle::branch_on_inputs). The field survives only so
  /// existing callers that pin it to 0 keep compiling; build_compatibility
  /// throws deterrent::Error for values >= 2.
  std::size_t portfolio_threads = 0;
  /// >= 2 splits the pairwise build into that many deterministic row-range
  /// shards, each producing a full-width partial matrix merged by ORing rows
  /// (see compatibility_shard_ranges / build_compatibility_shard). The merged
  /// matrix — and every deterministic stats field — is identical to the
  /// monolithic build's; shards run across the pool, one SAT oracle each.
  /// 0/1 keeps the unsharded paths.
  std::size_t shard_count = 0;
};

/// Counters of one build. They include the diagonal: the n(n+1)/2 examined
/// pairs (i, j) with i <= j count the n singleton checks (i == i), and every
/// pair lands in exactly one of sim_resolved, sat_sat, sat_unsat and
/// timeout_pairs. CompatibilityMatrix::edge_count() excludes the diagonal,
/// so off-diagonal figures subtract the singletons, which are n -
/// unsat_singletons compatible ones.
struct CompatibilityBuildStats {
  std::size_t pair_count = 0;          ///< unordered pairs examined, i <= j
  std::size_t sim_resolved = 0;        ///< proven compatible by co-occurrence
  std::size_t sat_sat = 0;             ///< proven compatible by SAT (incl. harvested)
  std::size_t sat_unsat = 0;           ///< proven incompatible by SAT
  std::size_t timeout_pairs = 0;       ///< budget exhausted (treated incompatible)
  std::size_t unsat_singletons = 0;    ///< rare nets with no satisfying pattern
  double build_seconds = 0.0;
  /// The part of sat_sat proven by a re-simulated model of an earlier Sat
  /// answer instead of a query of its own. It depends on the chunk or shard
  /// plan and on which model the solver finds (the build's oracles branch on
  /// the primary inputs only), so it is runtime-only: artifacts do not
  /// serialize it, and a sharded build counts only the shards this run built.
  std::size_t harvested = 0;

  /// SAT queries actually made: the SAT-decided pairs no harvested model
  /// covered. A shard resumed from disk reports no harvest, so all of its
  /// SAT-decided pairs count here.
  std::size_t solver_calls() const {
    return sat_sat - harvested + sat_unsat + timeout_pairs;
  }

  /// Adds another chunk's or shard's per-pair counters (sim_resolved,
  /// sat_sat, sat_unsat, timeout_pairs, harvested).
  void add_pair_counts(const CompatibilityBuildStats& other);
};

/// Builds the pairwise matrix. Parallelized across `pool` with one SAT oracle
/// per worker, mirroring the paper's 64-process offline computation (§3.3).
/// Deterministic for fixed rng seed regardless of thread count.
///
/// Phase 2 harvests witnesses: each worker re-simulates the input model of
/// every Sat answer and skips the later pairs such a model already drives to
/// their rare values together. Each worker's oracle branches on the primary
/// inputs only, which changes its models but no verdict. The matrix and
/// every serialized counter are unchanged by either; only stats.harvested
/// depends on the chunk plan and the models.
///
/// `signatures_out`, when non-null, receives the phase-1 activation
/// signatures (one per rare net, pattern-indexed) so downstream consumers —
/// notably the RL environment's simulation-witness shortcut — can reuse the
/// simulation evidence without re-simulating.
CompatibilityMatrix build_compatibility(const netlist::Netlist& netlist,
                                        std::span<const RareNet> rare_nets,
                                        const CompatibilityBuildConfig& config,
                                        util::Rng& rng, util::ThreadPool* pool = nullptr,
                                        CompatibilityBuildStats* stats = nullptr,
                                        std::vector<util::BitVec>* signatures_out = nullptr);

/// Deterministic shard plan for a sharded build: contiguous row ranges
/// [begin, end) covering [0, n), balanced by owned pair count (shard k owns
/// every pair (i, j) with begin <= i < end, j >= i — a triangular workload,
/// so early rows are worth more than late ones). Depends only on
/// (n, shard_count): the plan is stable across machines and thread counts,
/// which is what lets remote workers pick up chunks from a serialized
/// manifest. shard_count is clamped to [1, n] (n == 0 yields one empty
/// range so the merge loop still runs).
std::vector<std::pair<std::uint32_t, std::uint32_t>> compatibility_shard_ranges(
    std::size_t n, std::size_t shard_count);

/// Builds one shard's partial matrix: phase-1 signature intersection and
/// phase-2 SAT for every owned pair (row_begin <= i < row_end, j >= i),
/// single-threaded with one private SAT oracle and witness-harvest table.
/// The partial is full-width (n × n) and symmetric; ORing all shards'
/// partials reproduces the monolithic build's matrix bit-for-bit. `stats`
/// receives this shard's counters only (pair_count = owned pairs; no
/// singleton finalize — that is a whole-matrix pass, see
/// finalize_compatibility).
CompatibilityMatrix build_compatibility_shard(
    const netlist::Netlist& netlist, std::span<const RareNet> rare_nets,
    const CompatibilityBuildConfig& config, std::span<const util::BitVec> signatures,
    std::uint32_t row_begin, std::uint32_t row_end,
    CompatibilityBuildStats* stats = nullptr);

/// Post-merge pass shared by the monolithic and sharded builds: a rare net
/// whose singleton is unsatisfiable can never participate in a trigger, so
/// its whole row is cleared. Returns the number of rows cleared
/// (stats.unsat_singletons).
std::size_t finalize_compatibility(CompatibilityMatrix& matrix);

/// Per-rare-net activation signatures under `pattern_count` random patterns:
/// bit p of signature i is set when pattern p drives rare net i to its rare
/// value. Shared by the matrix builder and by MERO-style counting. Blocks are
/// striped across `pool` when given (signature words are per-block, so the
/// result is deterministic for a fixed rng seed regardless of thread count).
std::vector<util::BitVec> rare_activation_signatures(
    const netlist::Netlist& netlist, std::span<const RareNet> rare_nets,
    std::size_t pattern_count, util::Rng& rng, util::ThreadPool* pool = nullptr);

}  // namespace deterrent::analysis
