#include "analysis/compatibility.hpp"

#include <algorithm>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace deterrent::analysis {

CompatibilityMatrix::CompatibilityMatrix(std::size_t n) {
  rows_.assign(n, util::BitVec(n));
}

CompatibilityMatrix CompatibilityMatrix::from_rows(std::vector<util::BitVec> rows) {
  for (const auto& row : rows)
    if (row.size() != rows.size())
      throw Error("CompatibilityMatrix::from_rows: matrix is not square");
  for (std::uint32_t i = 0; i < rows.size(); ++i)
    for (const std::uint32_t j : rows[i].to_indices())
      if (!rows[j].test(i))
        throw Error("CompatibilityMatrix::from_rows: rows are not symmetric at (" +
                    std::to_string(i) + ", " + std::to_string(j) + ")");
  CompatibilityMatrix m;
  m.rows_ = std::move(rows);
  return m;
}

void CompatibilityMatrix::set(std::uint32_t i, std::uint32_t j, bool value) {
  rows_[i].set(j, value);
  rows_[j].set(i, value);
}

std::size_t CompatibilityMatrix::edge_count() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    total += rows_[i].count();
    if (rows_[i].test(i)) --total;  // don't count the diagonal
  }
  return total / 2;
}

double CompatibilityMatrix::average_degree() const {
  if (rows_.empty()) return 0.0;
  return 2.0 * static_cast<double>(edge_count()) / static_cast<double>(rows_.size());
}

namespace {

using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Phase-2 witness table of one worker: counterexample-guided simulation,
/// the SAT-sweeping idiom. Every Sat model is re-simulated, and row r keeps
/// one bit per model, set when that model drives rare net r to its rare
/// value. Models fill 64-lane batches, one word per row each. A new model
/// re-sweeps its partial batch at once with W=1 (the sweep costs the same
/// for one lane as for 64), so it can already skip the next pair.
class WitnessHarvest {
 public:
  WitnessHarvest(const netlist::Netlist& netlist, std::span<const RareNet> rare_nets)
      : engine_(netlist),
        rare_nets_(rare_nets),
        rows_(rare_nets.size()),
        batch_(netlist.inputs().size(), 0) {}

  /// True when a simulated model drives rare nets i and j to their rare
  /// values together (i == j: the singleton alone).
  bool covers(std::uint32_t i, std::uint32_t j) const {
    const auto& a = rows_[i];
    const auto& b = rows_[j];
    for (std::size_t w = 0; w < a.size(); ++w)
      if ((a[w] & b[w]) != 0) return true;
    return false;
  }

  /// Adds one pattern (one bit per primary input) as the next column.
  void add(const sim::Pattern& model) {
    if (lane_ == 0) {
      std::fill(batch_.begin(), batch_.end(), 0);
      for (auto& row : rows_) row.push_back(0);
    }
    for (std::size_t in = 0; in < batch_.size(); ++in)
      if (model.test(in)) batch_[in] |= std::uint64_t{1} << lane_;
    engine_.evaluate(buf_, batch_, 1);
    // Lanes past this model hold the all-zero pattern, which is no model.
    const std::uint64_t filled = ~std::uint64_t{0} >> (63 - lane_);
    for (std::size_t r = 0; r < rare_nets_.size(); ++r) {
      const std::uint64_t values = buf_.word(rare_nets_[r].net, 0);
      rows_[r].back() = (rare_nets_[r].rare_value ? values : ~values) & filled;
    }
    lane_ = (lane_ + 1) % 64;
  }

 private:
  sim::Engine engine_;
  std::span<const RareNet> rare_nets_;
  std::vector<std::vector<std::uint64_t>> rows_;
  std::vector<std::uint64_t> batch_;  // current batch, input-major (W = 1)
  std::size_t lane_ = 0;              // next free lane of the current batch
  sim::EvalBuffer buf_;
};

/// Phase 2 of one worker (a parallel_chunks chunk): decides `pairs` in order
/// with one private oracle, whose learnt clauses amortize across the list,
/// and one harvest table. A pair the table already covers is compatible
/// without a query: a concrete, simulated pattern proves it, so it counts
/// into sat_sat (and harvested). Any other pair is asked by justification;
/// its candidate pattern goes into the table, whose W = 1 re-sweep is the
/// proof: when it covers the pair, the pair counts into sat_sat (and
/// justified). A candidate that does not cover the pair, or an Unknown,
/// falls back to the input-branching query, whose verdict stands
/// (justify_fallbacks). The Unsat path is unchanged. A solver bug can
/// therefore only cost a query, never flip a verdict, and the patterns feed
/// nothing but the table, so no serialized counter moves. Compatible pairs
/// are appended to `compatible`; the phase-2 counters are added to `stats`.
void decide_pairs(const netlist::Netlist& netlist, std::span<const RareNet> rare_nets,
                  const CompatibilityBuildConfig& config,
                  std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
                  PairList& compatible, CompatibilityBuildStats& stats) {
  if (pairs.empty()) return;
  sat::NetlistOracle oracle(netlist);
  oracle.branch_on_inputs();
  WitnessHarvest harvest(netlist, rare_nets);
  for (const auto& [i, j] : pairs) {
    if (harvest.covers(i, j)) {
      ++stats.sat_sat;
      ++stats.harvested;
      compatible.emplace_back(i, j);
      continue;
    }
    sat::Constraint constraints[2] = {
        {rare_nets[i].net, rare_nets[i].rare_value},
        {rare_nets[j].net, rare_nets[j].rare_value},
    };
    const std::span<const sat::Constraint> pair(constraints, (i == j) ? 1 : 2);
    const auto justification = oracle.justify(pair, config.sat_conflict_budget);
    using Verdict = sat::Justification::Verdict;
    if (justification.verdict == Verdict::Unsat) {
      ++stats.sat_unsat;
      continue;
    }
    if (justification.verdict == Verdict::Candidate) {
      harvest.add(justification.candidate);
      if (harvest.covers(i, j)) {
        ++stats.sat_sat;
        ++stats.justified;
        compatible.emplace_back(i, j);
        continue;
      }
    }
    ++stats.justify_fallbacks;
    const auto result = oracle.try_satisfiable(pair, config.sat_conflict_budget);
    if (!result.has_value()) {
      ++stats.timeout_pairs;
    } else if (*result) {
      ++stats.sat_sat;
      compatible.emplace_back(i, j);
      harvest.add(oracle.input_model());
    } else {
      ++stats.sat_unsat;
    }
  }
}

}  // namespace

void CompatibilityBuildStats::add_pair_counts(const CompatibilityBuildStats& other) {
  sim_resolved += other.sim_resolved;
  sat_sat += other.sat_sat;
  sat_unsat += other.sat_unsat;
  timeout_pairs += other.timeout_pairs;
  harvested += other.harvested;
  justified += other.justified;
  justify_fallbacks += other.justify_fallbacks;
}

std::size_t finalize_compatibility(CompatibilityMatrix& matrix) {
  std::size_t cleared = 0;
  const std::size_t n = matrix.size();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!matrix.singleton_satisfiable(i)) {
      ++cleared;
      for (std::uint32_t j = 0; j < n; ++j) matrix.set(i, j, false);
    }
  }
  return cleared;
}

std::vector<util::BitVec> rare_activation_signatures(
    const netlist::Netlist& netlist, std::span<const RareNet> rare_nets,
    std::size_t pattern_count, util::Rng& rng, util::ThreadPool* pool) {
  std::vector<util::BitVec> signatures(rare_nets.size(), util::BitVec(pattern_count));
  if (pattern_count == 0) return signatures;
  // Draw the stimulus before any other early-out so the caller's RNG stream
  // advances identically in degenerate cases (fixed-seed reproducibility).
  const auto patterns =
      sim::PatternSet::random(netlist.inputs().size(), pattern_count, rng);
  if (rare_nets.empty()) return signatures;

  // Signature words map 1:1 to pattern blocks, so every worker writes a
  // disjoint word range — no reduction step, and the result is independent of
  // the stripe schedule.
  const sim::Engine engine(netlist);
  auto run_range = [&](std::size_t begin, std::size_t end) {
    engine.sweep_blocks(
        patterns, begin, end,
        [&](std::size_t first, std::size_t n, const sim::EvalBuffer& buf) {
          for (std::size_t r = 0; r < rare_nets.size(); ++r) {
            const auto& rn = rare_nets[r];
            const auto values = buf.net(rn.net);
            for (std::size_t w = 0; w < n; ++w) {
              std::uint64_t at_rare = rn.rare_value ? values[w] : ~values[w];
              at_rare &= patterns.valid_mask(first + w);
              signatures[r].set_word(first + w, at_rare);
            }
          }
          return true;
        });
  };

  const std::size_t n_blocks = patterns.block_count();
  if (pool == nullptr || pool->thread_count() <= 1 || n_blocks < 4) {
    run_range(0, n_blocks);
  } else {
    pool->parallel_chunks(n_blocks, [&](std::size_t /*thread*/, std::size_t begin,
                                        std::size_t end) { run_range(begin, end); });
  }
  return signatures;
}

CompatibilityMatrix build_compatibility(const netlist::Netlist& netlist,
                                        std::span<const RareNet> rare_nets,
                                        const CompatibilityBuildConfig& config,
                                        util::Rng& rng, util::ThreadPool* pool,
                                        CompatibilityBuildStats* stats,
                                        std::vector<util::BitVec>* signatures_out) {
  if (config.portfolio_threads >= 2)
    throw Error("build_compatibility: portfolio_threads = " +
                std::to_string(config.portfolio_threads) +
                " is no longer supported (the clause-sharing portfolio was "
                "removed); leave it at 0");
  if (config.shard_count >= 2)
    throw Error("build_compatibility: shard_count = " +
                std::to_string(config.shard_count) +
                " is no longer supported (the sharded build was removed); "
                "leave it at 0");
  util::Stopwatch watch;
  const std::size_t n = rare_nets.size();
  CompatibilityMatrix matrix(n);
  CompatibilityBuildStats local_stats;
  local_stats.pair_count = n * (n + 1) / 2;

  // Phase 1 — simulation pre-filter: co-occurrence is a satisfiability witness.
  auto signatures =
      rare_activation_signatures(netlist, rare_nets, config.sim_patterns, rng, pool);

  PairList unresolved;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i; j < n; ++j) {
      if (i == j ? signatures[i].any() : signatures[i].intersects(signatures[j])) {
        matrix.set(i, j);
        ++local_stats.sim_resolved;
      } else {
        unresolved.emplace_back(i, j);
      }
    }
  }
  if (signatures_out != nullptr) *signatures_out = std::move(signatures);

  // Phase 2 — SAT decides the pairs simulation never witnessed, with one
  // oracle and one harvest table per chunk. Verdicts are bit-reproducible for
  // a fixed seed regardless of thread count; only `harvested` depends on the
  // chunk plan.
  std::mutex merge_mutex;
  auto solve_range = [&](std::size_t begin, std::size_t end) {
    PairList compatible;
    CompatibilityBuildStats chunk_stats;
    decide_pairs(netlist, rare_nets, config,
                 std::span(unresolved).subspan(begin, end - begin), compatible,
                 chunk_stats);
    std::lock_guard lock(merge_mutex);
    for (const auto& [i, j] : compatible) matrix.set(i, j);
    local_stats.add_pair_counts(chunk_stats);
  };
  if (pool != nullptr && pool->thread_count() > 1 && unresolved.size() > 64) {
    pool->parallel_chunks(unresolved.size(),
                          [&](std::size_t /*thread*/, std::size_t begin,
                              std::size_t end) { solve_range(begin, end); });
  } else {
    solve_range(0, unresolved.size());
  }

  // A rare net whose singleton is unsatisfiable can never participate in a
  // trigger: clear its whole row so masks and cliques ignore it.
  local_stats.unsat_singletons = finalize_compatibility(matrix);

  local_stats.build_seconds = watch.elapsed_seconds();
  if (stats != nullptr) *stats = local_stats;
  return matrix;
}

}  // namespace deterrent::analysis
