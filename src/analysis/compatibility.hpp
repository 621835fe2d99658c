#pragma once

#include <cstdint>
#include <span>
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

  std::size_t size() const { return rows_.size(); }

  bool compatible(std::uint32_t i, std::uint32_t j) const {
    return rows_[i].test(j);
  }
  bool singleton_satisfiable(std::uint32_t i) const { return rows_[i].test(i); }

  /// Row i as a bitset over rare-net indices (includes the diagonal bit).
  const util::BitVec& row(std::uint32_t i) const { return rows_[i]; }
  std::span<const util::BitVec> rows() const { return rows_; }

  void set(std::uint32_t i, std::uint32_t j, bool value = true);

  /// Number of compatible unordered pairs (i < j): an O(n²/64) popcount on
  /// every call, for reports.
  std::size_t edge_count() const;

  /// Mean degree (compatible partners per rare net), excluding the diagonal.
  double average_degree() const;

 private:
  std::vector<util::BitVec> rows_;
};

struct CompatibilityBuildConfig {
  /// Random patterns for the co-occurrence pre-filter. A pair witnessed
  /// together in simulation is proven compatible without any SAT call.
  std::size_t sim_patterns = 1 << 14;
  /// Conflict budget per SAT pair query; exhausted budget conservatively
  /// reports "incompatible" (counted in timeout_pairs).
  std::int64_t sat_conflict_budget = 50000;
  /// Removed: the clause-sharing SAT portfolio is gone, and every phase-2
  /// worker runs one sat::NetlistOracle, asked by justification and
  /// branching on the primary inputs only. The field survives only so
  /// existing callers that pin it to 0 keep compiling; build_compatibility
  /// throws deterrent::Error for values >= 2.
  std::size_t portfolio_threads = 0;
  /// Removed: the sharded build is gone. The field keeps its serialized
  /// config slot, so config hashes and sessions stay valid, and existing
  /// callers that pin it to 0 keep compiling; build_compatibility throws
  /// deterrent::Error for values >= 2.
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
  /// answer instead of a query of its own. It depends on the chunk plan and
  /// on which model the solver finds (the build's oracles branch on the
  /// primary inputs only), so it is runtime-only: artifacts do not
  /// serialize it.
  std::size_t harvested = 0;
  /// The part of sat_sat proven by simulating the candidate pattern of the
  /// pair's own justification query (NetlistOracle::justify). Runtime-only
  /// like `harvested`.
  std::size_t justified = 0;
  /// Justification queries that answered Unknown, or whose candidate the
  /// simulation did not prove, and so asked the input-branching query
  /// (try_satisfiable) as well. Runtime-only; 0 unless the solver errs.
  std::size_t justify_fallbacks = 0;

  /// SAT queries actually made: one per SAT-decided pair that no harvested
  /// model covered, plus one per fallback.
  std::size_t solver_calls() const {
    return sat_sat - harvested + sat_unsat + timeout_pairs + justify_fallbacks;
  }

  /// Adds another chunk's per-pair counters (sim_resolved, sat_sat,
  /// sat_unsat, timeout_pairs, harvested, justified, justify_fallbacks).
  void add_pair_counts(const CompatibilityBuildStats& other);
};

/// Builds the pairwise matrix. Parallelized across `pool` with one SAT oracle
/// per worker, mirroring the paper's 64-process offline computation (§3.3).
/// Deterministic for fixed rng seed regardless of thread count.
///
/// Phase 2 harvests witnesses: each worker re-simulates the input pattern of
/// every Sat answer and skips the later pairs such a pattern already drives
/// to their rare values together. Each worker asks its oracle by
/// justification first (NetlistOracle::justify) and accepts a Sat verdict
/// only when the simulated candidate covers the pair, falling back to an
/// input-branching query otherwise. That changes the patterns but no
/// verdict: the matrix and every serialized counter are unchanged; only
/// stats.harvested, stats.justified and stats.justify_fallbacks depend on
/// the chunk plan and the patterns.
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

/// Last pass of the build: a rare net whose singleton is unsatisfiable can
/// never participate in a trigger, so its whole row is cleared. Returns the
/// number of rows cleared (stats.unsat_singletons).
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
