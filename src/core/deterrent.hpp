#pragma once

#include <memory>
#include <vector>

#include "core/pipeline.hpp"

namespace deterrent::core {

/// The DETERRENT pipeline: offline rare-net + compatibility analysis, PPO
/// training over the compatible-set MDP, and SAT-based pattern extraction
/// from the k largest distinct sets.
///
/// This is a thin facade over core::Pipeline, kept for the original
/// blocking, in-memory call shape. New code that needs checkpointing,
/// progress callbacks, budgets, or resume should use Pipeline directly (or
/// Session for directory-backed persistence); `pipeline()` exposes the
/// underlying object for mixed use.
///
/// The netlist must be combinational (full-scan view for sequential designs).
class Deterrent {
 public:
  Deterrent(const netlist::Netlist& netlist, const DeterrentConfig& config);
  ~Deterrent();

  /// Phase 1 (offline, Figure 4 left): finds rare nets under the configured
  /// threshold and builds the pairwise compatibility matrix, parallelized
  /// across offline_threads workers.
  void prepare();

  /// Phase 1 with externally supplied rare nets — used by the Figure 7
  /// cross-threshold experiment (train at θ=0.14, evaluate at θ=0.10).
  void prepare_with(std::vector<analysis::RareNet> rare_nets);

  /// Phase 2: runs `updates` PPO iterations, appending to the training
  /// history. Callable repeatedly to continue training. Requires prepare().
  ///
  /// Zero-updates edge: `updates == 0` means "use config.updates", and a
  /// config.updates of 0 is clamped to a single update — train() always
  /// trains. (Historically `train(0)` with `config.updates == 0` silently
  /// ran nothing, which made the subsequent extract_patterns() return an
  /// empty set with no diagnostic.)
  const std::vector<TrainingSnapshot>& train(std::size_t updates = 0);

  /// Phase 3: turns the k largest distinct compatible sets into test
  /// patterns, one SAT model each, with randomized don't-care fill
  /// (config.k_patterns when 0). Requires at least one train() call or a
  /// non-empty pool — extracting with nothing to extract throws.
  sim::PatternSet extract_patterns(std::size_t k = 0);

  /// Convenience: prepare → train → extract in one call.
  sim::PatternSet run();

  bool prepared() const { return pipeline_->compatibility_done(); }
  std::span<const analysis::RareNet> rare_nets() const { return pipeline_->rare_nets(); }
  const analysis::CompatibilityMatrix& matrix() const { return pipeline_->matrix(); }
  /// Phase-1 simulation witnesses (one per rare net), reused by the training
  /// environments to answer joint-satisfiability checks without SAT calls.
  const std::vector<util::BitVec>& witness_signatures() const {
    return pipeline_->witness_signatures();
  }
  const analysis::CompatibilityBuildStats& compat_stats() const {
    return pipeline_->compat_stats();
  }
  DistinctSetPool& pool() { return pipeline_->pool(); }
  const DistinctSetPool& pool() const { return pipeline_->pool(); }
  const std::vector<TrainingSnapshot>& history() const { return pipeline_->history(); }
  const netlist::Netlist& target() const { return pipeline_->target(); }
  const DeterrentConfig& config() const { return pipeline_->config(); }

  /// The distinct sets behind the most recent extract_patterns() call,
  /// parallel to the returned pattern order.
  const std::vector<util::BitVec>& extracted_sets() const {
    return pipeline_->extracted_sets();
  }

  /// Cumulative SAT queries issued by the training environment's lanes.
  std::uint64_t train_sat_queries() const;

  /// The staged pipeline behind this facade — for artifact export, session
  /// persistence, or progress-controlled stage runs on a live object.
  Pipeline& pipeline() { return *pipeline_; }
  const Pipeline& pipeline() const { return *pipeline_; }

 private:
  std::unique_ptr<Pipeline> pipeline_;
};

}  // namespace deterrent::core
