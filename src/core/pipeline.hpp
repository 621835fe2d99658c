#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/artifacts.hpp"
#include "core/set_pool.hpp"
#include "util/thread_pool.hpp"

namespace deterrent::core {

/// The explicit stages of the DETERRENT flow (Figure 4) plus the lint front
/// door. Each stage consumes its predecessor's artifact and produces its own:
///
///   Lint          → LintArtifact           (stage 0: static DRC + trojan screen)
///   RareNets      → RareNetArtifact        (rareness filtering, step ❶)
///   Compatibility → CompatibilityArtifact  (offline pairwise phase)
///   Train         → PolicyArtifact         (PPO over the compatible-set MDP)
///   Extract       → PatternArtifact        (SAT pattern extraction, §3.5)
///
/// Lint is a gate, not a data dependency: later stages consume the netlist,
/// not the lint report, so a resumed run whose rare-net artifact already
/// exists skips the lint stage entirely (the verdict from the original run is
/// carried by the session's lint sidecar artifact).
enum class Stage { Lint, RareNets, Compatibility, Train, Extract, Done };

const char* to_string(Stage stage);

/// Progress report delivered to StageControl::on_progress. `current`/`total`
/// count the stage's natural unit: PPO updates for Train, extracted sets for
/// Extract, and a 0/1 start/finish pair for the monolithic offline stages.
struct StageProgress {
  Stage stage = Stage::Done;
  std::size_t current = 0;
  std::size_t total = 0;
  std::string detail;
  double stage_seconds = 0.0;      ///< wall clock since this stage call began
  std::uint64_t sat_queries = 0;   ///< cumulative training SAT queries (Train)
};

/// Cooperative control of one stage call: observation, cancellation, and
/// budgets. All checks happen at stage checkpoints (between PPO updates,
/// between extracted sets), so a tripped budget or cancel always leaves the
/// pipeline in a consistent, checkpointable state.
struct StageControl {
  /// Invoked at every checkpoint; return false to cancel the stage.
  std::function<bool(const StageProgress&)> on_progress;
  /// Stage wall-clock budget in seconds; 0 = unlimited. The stage stops at
  /// the first checkpoint past the budget (it does not interrupt mid-update).
  double wall_budget_seconds = 0.0;
  /// Cumulative training SAT-query ceiling; 0 = unlimited. Train only.
  /// The count depends on the lane oracles' history (lane count, resume),
  /// so the update at which it trips can too.
  std::uint64_t sat_query_budget = 0;
  /// Stage watchdog: a util::WatchdogScope deadline installed for the whole
  /// stage call (propagated into thread-pool workers). Unlike the budgets,
  /// which only trip at checkpoints, the watchdog fires *inside* hung
  /// primitives at their cancellation points (SAT queries, injected hangs)
  /// and surfaces as StageStatus::TimedOut. 0 = no watchdog.
  double stage_timeout_seconds = 0.0;
};

/// How a stage call ended. Cancelled/BudgetExhausted leave completed work in
/// place (Train keeps finished updates; Extract discards its partial batch),
/// so the pipeline can be saved and resumed later. TimedOut means the stage
/// watchdog abandoned hung work: on-disk checkpoints are untouched, but the
/// in-memory train state may be mid-update (see Pipeline::poisoned) — resume
/// from the session's artifacts rather than this object. Rejected is the lint
/// front door's verdict: the design has findings at or above
/// LintConfig::fail_on, no later stage will run, and retrying cannot help
/// (the report travels in Pipeline::lint_report / the session's lint
/// artifact).
enum class StageStatus { Complete, Cancelled, BudgetExhausted, TimedOut, Rejected };

const char* to_string(StageStatus status);

/// Staged DETERRENT pipeline with serializable artifacts.
///
/// The monolithic core::Deterrent flow, re-cut at its natural joints. Every
/// stage can be run, exported as a versioned binary artifact, and later
/// adopted into a fresh Pipeline (same netlist, same config) to resume.
///
/// **Versioning.** Every artifact file carries the util::serialize envelope
/// (magic, ArtifactKind, kArtifactFormatVersion, netlist fingerprint, CRC).
/// Loaders pin kind AND version: a payload-layout change bumps
/// kArtifactFormatVersion and old files are rejected loudly — there is no
/// cross-version migration, regenerate instead. Stage artifacts are chained
/// by content: each downstream artifact embeds the producing run's rare-net
/// hash (RareNetArtifact::rare_hash), so adopt() can refuse a compatibility
/// matrix, policy, or pattern set built from different rare nets even when
/// the netlist matches.
///
/// **Resume semantics.** Resumed runs are bit-identical to uninterrupted
/// ones for a fixed seed: the rare-net stage hands its RNG state to the
/// compatibility build (RareNetArtifact::rng_state_after), and
/// PolicyArtifact checkpoints the complete trainer state — MLP parameters,
/// Adam moments, every RNG stream, the distinct-set pool, and the training
/// history — so training continues mid-flight as if never interrupted.
/// Adoption must happen in stage order, before the corresponding stage runs
/// here; a fingerprint or hash-chain mismatch throws deterrent::Error.
///
/// The netlist must be combinational (full-scan view for sequential designs)
/// and must outlive the pipeline. core::Deterrent remains as a thin facade
/// over this class; core::Session adds directory persistence, core::Campaign
/// multi-circuit fan-out.
class Pipeline {
 public:
  Pipeline(const netlist::Netlist& netlist, const DeterrentConfig& config);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  const netlist::Netlist& target() const { return *netlist_; }
  const DeterrentConfig& config() const { return config_; }
  std::uint64_t netlist_fingerprint() const { return fingerprint_; }

  /// First stage that still has work: Train until effective_updates()
  /// updates have run, Extract until a pattern set was produced.
  Stage next_stage() const;

  /// Runtime-only (never serialized): directory where a sharded
  /// compatibility build (config.compat.shard_count >= 2) persists its chunk
  /// manifest and per-shard partial artifacts, so a killed build resumes
  /// from the shards that finished. Empty = in-memory sharding only.
  /// Session sets this to `<session dir>/compat_shards` and removes the
  /// directory once the merged artifact is safely on disk.
  void set_compat_scratch_dir(std::string dir) { compat_scratch_dir_ = std::move(dir); }
  const std::string& compat_scratch_dir() const { return compat_scratch_dir_; }

  /// The Train stage's completion target: config.updates, clamped to at
  /// least 1 (see Deterrent::train for the zero-updates edge).
  std::size_t effective_updates() const;

  // ---- stage execution ----------------------------------------------------
  // Stages must run in order; calling one before its predecessor completed
  // throws deterrent::Error. Re-running a completed offline stage is a no-op
  // returning Complete; run_train always trains `updates` more iterations.

  /// Stage 0: static lint/DRC + trojan screen over the bound netlist.
  /// Returns Rejected when the report trips LintConfig::fail_on — later
  /// stages then refuse to run (PermanentError). A no-op returning Complete
  /// when lint is disabled or already ran clean; re-running a rejected lint
  /// returns Rejected again. run_rare_nets() invokes this implicitly, so
  /// legacy prepare() flows get the front door for free.
  StageStatus run_lint(const StageControl& control = {});
  StageStatus run_rare_nets(const StageControl& control = {});
  StageStatus run_compatibility(const StageControl& control = {});
  /// Runs `updates` PPO iterations (effective_updates() when 0), appending to
  /// the training history.
  StageStatus run_train(std::size_t updates = 0, const StageControl& control = {});
  /// Extracts the k largest distinct sets into patterns (config.k_patterns
  /// when 0). Requires a non-empty pool (i.e. some training); on
  /// cancel/budget the partial batch is discarded. Training again after an
  /// extraction marks it stale, so run_remaining() re-extracts.
  StageStatus run_extract(std::size_t k = 0, const StageControl& control = {});

  /// Runs every remaining stage (per next_stage()) to completion — the
  /// resume entry point. Stops at the first non-Complete stage status.
  StageStatus run_remaining(const StageControl& control = {});

  // ---- artifact export / adoption ----------------------------------------
  // Exports snapshot the pipeline state after a completed stage (export
  // before completion throws); adopting an artifact into a fresh pipeline
  // restores exactly that state. Adoption validates the netlist fingerprint
  // and the rare-net content hash chain, and must happen in stage order
  // before the corresponding stage ran — out-of-order or mismatched
  // adoption throws deterrent::Error and leaves the pipeline unchanged.
  // Save/load of the files themselves (envelope, version pinning, CRC) is
  // the artifact types' job: see core/artifacts.hpp and util/serialize.hpp.

  LintArtifact export_lint() const;
  RareNetArtifact export_rare_nets() const;
  CompatibilityArtifact export_compatibility() const;
  PolicyArtifact export_policy() const;
  PatternArtifact export_patterns() const;

  void adopt(LintArtifact artifact);
  void adopt(RareNetArtifact artifact);
  void adopt(CompatibilityArtifact artifact);
  void adopt(PolicyArtifact artifact);
  void adopt(PatternArtifact artifact);

  // ---- state accessors ----------------------------------------------------

  /// True once the lint stage produced a verdict (ran here or was adopted).
  bool lint_done() const { return lint_done_; }
  /// True when the lint verdict was "reject" — later stages throw.
  bool lint_rejected() const { return lint_rejected_; }
  /// The lint stage's report (empty before lint_done()).
  const analysis::LintReport& lint_report() const { return lint_report_; }
  bool rare_nets_done() const { return rare_done_; }
  bool compatibility_done() const { return matrix_.has_value(); }
  bool extract_done() const { return extract_done_; }
  /// True when an exception (timeout, injected fault, I/O failure) escaped
  /// mid-training-update, so the in-memory trainer state may be torn. A
  /// poisoned pipeline must not be checkpointed (Session::save skips the
  /// policy artifact); rebuild from the last saved artifacts instead.
  bool poisoned() const { return poisoned_; }

  std::span<const analysis::RareNet> rare_nets() const { return rare_nets_; }
  const analysis::CompatibilityMatrix& matrix() const { return *matrix_; }
  const std::vector<util::BitVec>& witness_signatures() const {
    return witness_signatures_;
  }
  const analysis::CompatibilityBuildStats& compat_stats() const { return compat_stats_; }
  DistinctSetPool& pool() { return pool_; }
  const DistinctSetPool& pool() const { return pool_; }
  const std::vector<TrainingSnapshot>& history() const { return history_; }
  /// Patterns from the most recent completed Extract stage.
  const sim::PatternSet& patterns() const { return patterns_; }
  /// The distinct sets behind patterns(), parallel to the pattern order.
  const std::vector<util::BitVec>& extracted_sets() const { return extracted_sets_; }
  /// Cumulative SAT queries issued by the training environments (including
  /// queries from restored checkpoints).
  std::uint64_t train_sat_queries() const;
  /// Training-env checks this process answered without a SAT call (runtime
  /// only, not checkpointed): by a witness signature, and by a lane oracle's
  /// last Sat model during end-of-episode repair.
  std::uint64_t train_witness_hits() const;
  std::uint64_t train_model_hits() const;

 private:
  void ensure_trainer();
  /// The training env, or nullptr before the first train stage.
  const CompatibleSetVectorEnv* train_env() const;
  std::uint64_t rare_hash() const;
  /// Emits a progress checkpoint and applies control's budgets. Returns
  /// Complete to continue, Cancelled/BudgetExhausted to stop.
  StageStatus checkpoint(const StageControl& control, StageProgress&& progress) const;

  const netlist::Netlist* netlist_;
  DeterrentConfig config_;
  std::uint64_t fingerprint_ = 0;

  bool lint_done_ = false;
  bool lint_rejected_ = false;
  analysis::LintReport lint_report_;

  bool rare_done_ = false;
  std::vector<analysis::RareNet> rare_nets_;
  std::array<std::uint64_t, 4> offline_rng_state_{};  // carried rare → compat
  std::string compat_scratch_dir_;  // runtime-only, see set_compat_scratch_dir

  std::optional<analysis::CompatibilityMatrix> matrix_;
  std::vector<util::BitVec> witness_signatures_;
  analysis::CompatibilityBuildStats compat_stats_;

  DistinctSetPool pool_;
  std::unique_ptr<util::ThreadPool> train_threads_;  // outlives trainer_; see ensure_trainer
  std::unique_ptr<rl::PpoTrainer> trainer_;
  std::optional<rl::TrainerState> pending_trainer_state_;
  std::vector<TrainingSnapshot> history_;
  double train_seconds_ = 0.0;
  std::uint64_t sat_queries_base_ = 0;  // from restored checkpoints

  bool extract_done_ = false;
  bool poisoned_ = false;
  sim::PatternSet patterns_;
  std::vector<util::BitVec> extracted_sets_;
};

}  // namespace deterrent::core
