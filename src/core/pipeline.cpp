#include "core/pipeline.hpp"

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "analysis/lint.hpp"
#include "netlist/stats.hpp"
#include "sat/oracle.hpp"
#include "util/assert.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "util/watchdog.hpp"

namespace deterrent::core {

namespace {

/// The train stage's thread cap: the widest pool measured (on a shared
/// 4-core x86-64 host, 3 and 4 workers trained train_c5315 faster than 2;
/// docs/training.md#threads). Wider pools split the 256-row minibatch and
/// the 8 lanes into pieces no measurement has covered.
constexpr std::size_t kMaxTrainThreads = 4;

}  // namespace

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::Lint: return "lint";
    case Stage::RareNets: return "rare-nets";
    case Stage::Compatibility: return "compatibility";
    case Stage::Train: return "train";
    case Stage::Extract: return "extract";
    case Stage::Done: return "done";
  }
  return "?";
}

const char* to_string(StageStatus status) {
  switch (status) {
    case StageStatus::Complete: return "complete";
    case StageStatus::Cancelled: return "cancelled";
    case StageStatus::BudgetExhausted: return "budget";
    case StageStatus::TimedOut: return "timeout";
    case StageStatus::Rejected: return "rejected";
  }
  return "?";
}

Pipeline::Pipeline(const netlist::Netlist& netlist, const DeterrentConfig& config)
    : netlist_(&netlist),
      config_(config),
      fingerprint_(netlist::structural_fingerprint(netlist)) {
  if (netlist.is_sequential())
    throw PermanentError("Pipeline requires a combinational netlist (use make_full_scan)");
}

Pipeline::~Pipeline() = default;

std::size_t Pipeline::effective_updates() const {
  return config_.updates == 0 ? 1 : config_.updates;
}

Stage Pipeline::next_stage() const {
  // Lint gates entry only: once the rare-net artifact exists (fresh run or
  // resume), the design already passed the front door and lint never re-runs.
  // A rejected design is pinned at the lint stage — run_lint keeps returning
  // Rejected, so run_remaining() on a resumed rejected session reports the
  // verdict instead of throwing.
  if (config_.lint.enabled && !rare_done_ && (!lint_done_ || lint_rejected_))
    return Stage::Lint;
  if (!rare_done_) return Stage::RareNets;
  if (!matrix_.has_value()) return Stage::Compatibility;
  if (history_.size() < effective_updates()) return Stage::Train;
  if (!extract_done_) return Stage::Extract;
  return Stage::Done;
}

std::uint64_t Pipeline::rare_hash() const {
  return rare_content_hash(fingerprint_, rare_nets_);
}

StageStatus Pipeline::checkpoint(const StageControl& control,
                                 StageProgress&& progress) const {
  if (control.wall_budget_seconds > 0.0 &&
      progress.stage_seconds >= control.wall_budget_seconds)
    return StageStatus::BudgetExhausted;
  if (control.sat_query_budget > 0 && progress.sat_queries >= control.sat_query_budget)
    return StageStatus::BudgetExhausted;
  if (control.on_progress && !control.on_progress(progress))
    return StageStatus::Cancelled;
  return StageStatus::Complete;
}

// ----------------------------------------------------------- stages --------

StageStatus Pipeline::run_lint(const StageControl& control) {
  if (lint_done_) return lint_rejected_ ? StageStatus::Rejected : StageStatus::Complete;
  if (!config_.lint.enabled || rare_done_) {
    // Disabled, or resuming past the front door — nothing to gate.
    return StageStatus::Complete;
  }
  util::WatchdogScope watchdog(control.stage_timeout_seconds);
  try {
    DETERRENT_FAULT_POINT("pipeline.stage_boundary");
    util::Stopwatch watch;
    if (const auto status = checkpoint(
            control, {Stage::Lint, 0, 1, "static DRC + trojan screen", 0.0, 0});
        status != StageStatus::Complete)
      return status;

    lint_report_ = analysis::Linter(config_.lint).lint(*netlist_);
    lint_rejected_ = lint_report_.rejects(config_.lint.fail_on);
    lint_done_ = true;
    if (lint_rejected_)
      util::Log::warn("pipeline: lint rejected the design: ", lint_report_.summary());
    else if (!lint_report_.diagnostics.empty())
      util::Log::info("pipeline: lint passed with findings: ", lint_report_.summary());

    checkpoint(control, {Stage::Lint, 1, 1, lint_report_.summary(),
                         watch.elapsed_seconds(), 0});
    return lint_rejected_ ? StageStatus::Rejected : StageStatus::Complete;
  } catch (const TimeoutError&) {
    // No verdict was stored, so the stage cleanly re-runs on resume.
    return StageStatus::TimedOut;
  }
}

StageStatus Pipeline::run_rare_nets(const StageControl& control) {
  if (rare_done_) return StageStatus::Complete;
  // The lint front door: every fresh run passes through it, so callers that
  // start at the rare-net stage are covered without calling run_lint.
  if (lint_rejected_)
    throw PermanentError("Pipeline: design was rejected by lint (" +
                         lint_report_.summary() + ")");
  if (const auto status = run_lint(control); status != StageStatus::Complete)
    return status;
  util::WatchdogScope watchdog(control.stage_timeout_seconds);
  try {
    DETERRENT_FAULT_POINT("pipeline.stage_boundary");
    util::Stopwatch watch;
    if (const auto status = checkpoint(
            control, {Stage::RareNets, 0, 1, "estimating signal probabilities", 0.0, 0});
        status != StageStatus::Complete)
      return status;

    util::Rng rng(config_.seed);
    util::ThreadPool workers(config_.offline_threads);
    rare_nets_ = analysis::find_rare_nets(*netlist_, config_.rare, rng, &workers);
    if (rare_nets_.empty())
      throw PermanentError("no rare nets below threshold " +
                           std::to_string(config_.rare.threshold));
    offline_rng_state_ = rng.state();
    rare_done_ = true;

    checkpoint(control, {Stage::RareNets, 1, 1,
                         std::to_string(rare_nets_.size()) + " rare nets",
                         watch.elapsed_seconds(), 0});
    return StageStatus::Complete;
  } catch (const TimeoutError&) {
    // Members are only assigned after a full build, so a watchdog timeout
    // leaves the stage cleanly not-run.
    return StageStatus::TimedOut;
  }
}

StageStatus Pipeline::run_compatibility(const StageControl& control) {
  if (!rare_done_)
    throw PermanentError("Pipeline: compatibility stage requires the rare-nets stage");
  if (matrix_.has_value()) return StageStatus::Complete;
  util::WatchdogScope watchdog(control.stage_timeout_seconds);
  try {
    DETERRENT_FAULT_POINT("pipeline.stage_boundary");
    util::Stopwatch watch;
    if (const auto status = checkpoint(
            control, {Stage::Compatibility, 0, 1,
                      "building pairwise matrix over " +
                          std::to_string(rare_nets_.size()) + " rare nets",
                      0.0, 0});
        status != StageStatus::Complete)
      return status;

    util::Rng rng;
    rng.set_state(offline_rng_state_);
    util::ThreadPool workers(config_.offline_threads);
    matrix_ = analysis::build_compatibility(*netlist_, rare_nets_, config_.compat, rng,
                                            &workers, &compat_stats_,
                                            &witness_signatures_);
    // The stats count the diagonal; the edge count does not. Every
    // compatible singleton was witnessed in simulation or proven by SAT, so
    // subtracting both shares leaves sim + sat == the compatible pairs.
    const std::size_t singletons = rare_nets_.size() - compat_stats_.unsat_singletons;
    const auto sim_singletons = static_cast<std::size_t>(
        std::count_if(witness_signatures_.begin(), witness_signatures_.end(),
                      [](const util::BitVec& sig) { return sig.any(); }));
    util::Log::info("pipeline: prepared ", rare_nets_.size(), " rare nets, ",
                    matrix_->edge_count(), " compatible pairs (",
                    compat_stats_.sim_resolved - sim_singletons, " sim, ",
                    compat_stats_.sat_sat - (singletons - sim_singletons), " sat; ",
                    compat_stats_.harvested, " harvested, ",
                    compat_stats_.justified, " justified, ",
                    compat_stats_.justify_fallbacks, " justify fallbacks; ",
                    compat_stats_.solver_calls(), " solver calls; ",
                    compat_stats_.timeout_pairs, " timed out) in ",
                    compat_stats_.build_seconds, "s");
    // An exhausted conflict budget silently counts as incompatible, so a
    // timeout can drop a real edge; say so instead of hiding it.
    if (compat_stats_.timeout_pairs != 0)
      util::Log::warn("pipeline: ", compat_stats_.timeout_pairs,
                      " compatibility queries exhausted the SAT conflict budget (",
                      config_.compat.sat_conflict_budget,
                      " conflicts) and count as incompatible");

    checkpoint(control, {Stage::Compatibility, 1, 1,
                         std::to_string(matrix_->edge_count()) + " compatible pairs",
                         watch.elapsed_seconds(), 0});
    return StageStatus::Complete;
  } catch (const TimeoutError&) {
    return StageStatus::TimedOut;
  }
}

void Pipeline::ensure_trainer() {
  if (trainer_) return;
  EnvConfig env_config = config_.env;
  if (env_config.witness_signatures == nullptr && !witness_signatures_.empty())
    env_config.witness_signatures = &witness_signatures_;
  // Training runs on up to kMaxTrainThreads of the pipeline's workers: the
  // trainer's optimization passes and the env's lane SAT work share one
  // pool, built here rather than at setup. Both are bit-identical with or
  // without it.
  const std::size_t workers =
      std::min(kMaxTrainThreads, config_.offline_threads != 0
                                     ? config_.offline_threads
                                     : std::size_t{std::thread::hardware_concurrency()});
  if (workers > 1) train_threads_ = std::make_unique<util::ThreadPool>(workers);
  util::ThreadPool* threads = train_threads_.get();
  // Training collects on one CompatibleSetVectorEnv. Episode RNG streams are
  // keyed by global episode index, never by lane, so artifacts and resume
  // points are bit-identical at any lane count.
  auto vector_factory = [this, env_config,
                         threads](std::size_t lanes) -> std::unique_ptr<rl::VectorEnv> {
    return std::make_unique<CompatibleSetVectorEnv>(*netlist_, rare_nets_, *matrix_,
                                                    env_config, &pool_, lanes, threads);
  };
  trainer_ = std::make_unique<rl::PpoTrainer>(nullptr, config_.ppo, config_.seed,
                                              vector_factory, threads);
  if (pending_trainer_state_.has_value()) {
    trainer_->restore(*pending_trainer_state_);
    pending_trainer_state_.reset();
  }
}

const CompatibleSetVectorEnv* Pipeline::train_env() const {
  return trainer_ ? &dynamic_cast<const CompatibleSetVectorEnv&>(trainer_->vector_env())
                  : nullptr;
}

std::uint64_t Pipeline::train_sat_queries() const {
  const auto* env = train_env();
  return sat_queries_base_ + (env != nullptr ? env->sat_queries() : 0);
}

std::uint64_t Pipeline::train_witness_hits() const {
  const auto* env = train_env();
  return env != nullptr ? env->witness_hits() : 0;
}

std::uint64_t Pipeline::train_model_hits() const {
  const auto* env = train_env();
  return env != nullptr ? env->model_hits() : 0;
}

StageStatus Pipeline::run_train(std::size_t updates, const StageControl& control) {
  if (!matrix_.has_value())
    throw PermanentError("Pipeline: train stage requires the compatibility stage");
  if (updates == 0) updates = effective_updates();
  ensure_trainer();

  util::WatchdogScope watchdog(control.stage_timeout_seconds);
  util::Stopwatch watch;
  StageStatus status = StageStatus::Complete;
  std::size_t done = 0;
  try {
    DETERRENT_FAULT_POINT("pipeline.stage_boundary");
    for (; done < updates; ++done) {
      status = checkpoint(control, {Stage::Train, done, updates,
                                    "pool " + std::to_string(pool_.size()) + ", largest " +
                                        std::to_string(pool_.max_set_size()),
                                    watch.elapsed_seconds(), train_sat_queries()});
      if (status != StageStatus::Complete) break;

      TrainingSnapshot snap;
      snap.ppo = trainer_->update();
      snap.pool_size = pool_.size();
      snap.max_set_size = pool_.max_set_size();
      snap.cumulative_steps = trainer_->total_steps();
      snap.cumulative_episodes = trainer_->total_episodes();
      snap.sat_queries = train_sat_queries();
      snap.elapsed_seconds = train_seconds_ + watch.elapsed_seconds();
      history_.push_back(snap);
      // New training grows the pool, so any earlier extraction is stale — the
      // Extract stage must run again before its artifact can be exported.
      extract_done_ = false;
    }
  } catch (const TimeoutError&) {
    // The watchdog fired inside an update: the trainer's in-memory state is
    // mid-flight and must not be checkpointed (see Pipeline::poisoned).
    poisoned_ = true;
    train_seconds_ += watch.elapsed_seconds();
    return StageStatus::TimedOut;
  } catch (...) {
    poisoned_ = true;
    train_seconds_ += watch.elapsed_seconds();
    throw;
  }
  train_seconds_ += watch.elapsed_seconds();
  util::Log::info("pipeline: trained to ", history_.size(), " updates, pool ",
                  pool_.size(), "; env SAT queries ", train_sat_queries(),
                  ", witness hits ", train_witness_hits(), ", model hits ",
                  train_model_hits());

  if (status == StageStatus::Complete)
    checkpoint(control, {Stage::Train, updates, updates,
                         "pool " + std::to_string(pool_.size()) + ", largest " +
                             std::to_string(pool_.max_set_size()),
                         watch.elapsed_seconds(), train_sat_queries()});
  return status;
}

StageStatus Pipeline::run_extract(std::size_t k, const StageControl& control) {
  if (!matrix_.has_value())
    throw PermanentError("Pipeline: extract stage requires the compatibility stage");
  if (history_.empty() && pool_.size() == 0)
    throw PermanentError("Pipeline: extract stage requires training first "
                "(the distinct-set pool is empty)");
  if (k == 0) k = config_.k_patterns;

  util::WatchdogScope watchdog(control.stage_timeout_seconds);
  try {
    DETERRENT_FAULT_POINT("pipeline.stage_boundary");
    util::Stopwatch watch;
    const std::vector<util::BitVec> candidates = pool_.k_largest(k);
    sim::PatternSet patterns(netlist_->inputs().size());
    std::vector<util::BitVec> kept_sets;
    std::unordered_set<util::BitVec, util::BitVecHash> distinct_patterns;

    if (!candidates.empty()) {
      sat::NetlistOracle oracle(*netlist_);
      util::Rng rng(config_.seed ^ 0xd1e5c0de);
      std::vector<sat::Constraint> constraints;
      for (std::size_t s = 0; s < candidates.size(); ++s) {
        // A cancelled or over-budget extraction discards the partial batch:
        // extraction is cheap relative to training and restarting it keeps the
        // pattern artifact all-or-nothing.
        if (const auto status = checkpoint(
                control, {Stage::Extract, s, candidates.size(),
                          std::to_string(patterns.pattern_count()) + " patterns",
                          watch.elapsed_seconds(), 0});
            status != StageStatus::Complete)
          return status;

        const auto& set = candidates[s];
        constraints.clear();
        for (const std::uint32_t idx : set.to_indices())
          constraints.push_back({rare_nets_[idx].net, rare_nets_[idx].rare_value});
        oracle.randomize_completion(rng);
        const auto pattern = oracle.find_pattern(constraints);
        // Every pooled set was SAT-verified during training; an UNSAT here
        // would indicate a bug, but stay robust and simply skip.
        if (!pattern.has_value()) {
          util::Log::warn("pipeline: pooled set of size ", set.count(),
                          " unexpectedly unsatisfiable; skipped");
          continue;
        }
        if (distinct_patterns.insert(*pattern).second) {
          patterns.push(*pattern);
          kept_sets.push_back(set);
        }
      }
    }

    patterns_ = std::move(patterns);
    extracted_sets_ = std::move(kept_sets);
    extract_done_ = true;
    checkpoint(control, {Stage::Extract, candidates.size(), candidates.size(),
                         std::to_string(patterns_.pattern_count()) + " patterns",
                         watch.elapsed_seconds(), 0});
    return StageStatus::Complete;
  } catch (const TimeoutError&) {
    // Extraction is all-or-nothing: nothing was committed, so the partial
    // batch is simply dropped.
    return StageStatus::TimedOut;
  }
}

StageStatus Pipeline::run_remaining(const StageControl& control) {
  while (true) {
    StageStatus status = StageStatus::Complete;
    switch (next_stage()) {
      case Stage::Lint: status = run_lint(control); break;
      case Stage::RareNets: status = run_rare_nets(control); break;
      case Stage::Compatibility: status = run_compatibility(control); break;
      case Stage::Train:
        status = run_train(effective_updates() - history_.size(), control);
        break;
      case Stage::Extract: status = run_extract(0, control); break;
      case Stage::Done: return StageStatus::Complete;
    }
    if (status != StageStatus::Complete) return status;
  }
}

// ---------------------------------------------------------- exports --------

LintArtifact Pipeline::export_lint() const {
  if (!lint_done_) throw PermanentError("Pipeline: lint stage has not run");
  LintArtifact a;
  a.netlist_fingerprint = fingerprint_;
  a.fail_on = config_.lint.fail_on;
  a.rejected = lint_rejected_;
  a.report = lint_report_;
  return a;
}

RareNetArtifact Pipeline::export_rare_nets() const {
  if (!rare_done_) throw PermanentError("Pipeline: rare-nets stage has not run");
  RareNetArtifact a;
  a.netlist_fingerprint = fingerprint_;
  a.threshold = config_.rare.threshold;
  a.seed = config_.seed;
  a.rare_nets = rare_nets_;
  a.rng_state_after = offline_rng_state_;
  return a;
}

CompatibilityArtifact Pipeline::export_compatibility() const {
  if (!matrix_.has_value()) throw PermanentError("Pipeline: compatibility stage has not run");
  CompatibilityArtifact a;
  a.netlist_fingerprint = fingerprint_;
  a.rare_hash = rare_hash();
  a.matrix = *matrix_;
  a.witness_signatures = witness_signatures_;
  a.stats = compat_stats_;
  return a;
}

PolicyArtifact Pipeline::export_policy() const {
  if (!trainer_ && !pending_trainer_state_.has_value())
    throw PermanentError("Pipeline: train stage has not run");
  PolicyArtifact a;
  a.netlist_fingerprint = fingerprint_;
  a.rare_hash = rare_hash();
  a.trainer = trainer_ ? trainer_->state() : *pending_trainer_state_;
  // Canonical (size-descending, content tie-broken) order, not the hash-set
  // iteration order of all(): a save → adopt → save round trip must emit
  // byte-identical policy artifacts, or the artifact cache and any
  // byte-comparing resume check would see spurious differences.
  a.pool_sets = pool_.k_largest(pool_.size());
  a.history = history_;
  a.train_seconds = train_seconds_;
  return a;
}

PatternArtifact Pipeline::export_patterns() const {
  if (!extract_done_) throw PermanentError("Pipeline: extract stage has not run");
  PatternArtifact a;
  a.netlist_fingerprint = fingerprint_;
  a.rare_hash = rare_hash();
  a.patterns = patterns_;
  a.extracted_sets = extracted_sets_;
  return a;
}

// --------------------------------------------------------- adoption --------

void Pipeline::adopt(LintArtifact artifact) {
  if (lint_done_) throw PermanentError("Pipeline: lint stage already populated");
  if (artifact.netlist_fingerprint != fingerprint_)
    throw PermanentError("Pipeline: lint artifact belongs to a different netlist");
  lint_report_ = std::move(artifact.report);
  // Re-derive the verdict under the *current* config: adopting a report into
  // a run with a stricter fail_on must not smuggle the design past the door,
  // and resuming with lint disabled waives a stored rejection explicitly.
  lint_rejected_ = config_.lint.enabled &&
                   (artifact.rejected || lint_report_.rejects(config_.lint.fail_on));
  lint_done_ = true;
}

void Pipeline::adopt(RareNetArtifact artifact) {
  if (rare_done_) throw PermanentError("Pipeline: rare-nets stage already populated");
  if (artifact.netlist_fingerprint != fingerprint_)
    throw PermanentError("Pipeline: rare-net artifact belongs to a different netlist");
  if (artifact.rare_nets.empty())
    throw PermanentError("Pipeline: rare-net artifact holds no rare nets");
  for (const auto& rn : artifact.rare_nets)
    if (rn.net >= netlist_->net_count())
      throw PermanentError("Pipeline: rare-net artifact references net " +
                  std::to_string(rn.net) + " outside the netlist");
  rare_nets_ = std::move(artifact.rare_nets);
  offline_rng_state_ = artifact.rng_state_after;
  rare_done_ = true;
}

void Pipeline::adopt(CompatibilityArtifact artifact) {
  if (!rare_done_)
    throw PermanentError("Pipeline: adopt rare nets before the compatibility artifact");
  if (matrix_.has_value()) throw PermanentError("Pipeline: compatibility stage already populated");
  if (artifact.netlist_fingerprint != fingerprint_)
    throw PermanentError("Pipeline: compatibility artifact belongs to a different netlist");
  if (artifact.rare_hash != rare_hash())
    throw PermanentError("Pipeline: compatibility artifact was built from different rare nets");
  if (artifact.matrix.size() != rare_nets_.size())
    throw PermanentError("Pipeline: compatibility matrix size " +
                std::to_string(artifact.matrix.size()) + " does not match " +
                std::to_string(rare_nets_.size()) + " rare nets");
  matrix_ = std::move(artifact.matrix);
  witness_signatures_ = std::move(artifact.witness_signatures);
  compat_stats_ = artifact.stats;
}

void Pipeline::adopt(PolicyArtifact artifact) {
  if (!matrix_.has_value())
    throw PermanentError("Pipeline: adopt the compatibility artifact before the policy");
  if (trainer_ || !history_.empty())
    throw PermanentError("Pipeline: train stage already populated");
  if (artifact.netlist_fingerprint != fingerprint_)
    throw PermanentError("Pipeline: policy artifact belongs to a different netlist");
  if (artifact.rare_hash != rare_hash())
    throw PermanentError("Pipeline: policy artifact was built from different rare nets");
  for (const auto& set : artifact.pool_sets)
    if (set.size() != rare_nets_.size())
      throw PermanentError("Pipeline: pooled set width does not match the rare-net count");
  pool_.replace(std::move(artifact.pool_sets));
  history_ = std::move(artifact.history);
  train_seconds_ = artifact.train_seconds;
  sat_queries_base_ = history_.empty() ? 0 : history_.back().sat_queries;
  // Applied (and shape-validated) when the trainer is built on the next
  // run_train call — construction needs the env factory, which needs the
  // matrix adopted just above.
  pending_trainer_state_ = std::move(artifact.trainer);
}

void Pipeline::adopt(PatternArtifact artifact) {
  if (!matrix_.has_value())
    throw PermanentError("Pipeline: adopt the compatibility artifact before patterns");
  if (artifact.netlist_fingerprint != fingerprint_)
    throw PermanentError("Pipeline: pattern artifact belongs to a different netlist");
  if (artifact.rare_hash != rare_hash())
    throw PermanentError("Pipeline: pattern artifact was built from different rare nets");
  if (artifact.patterns.input_count() != netlist_->inputs().size())
    throw PermanentError("Pipeline: pattern width does not match the netlist inputs");
  for (const auto& set : artifact.extracted_sets)
    if (set.size() != rare_nets_.size())
      throw PermanentError("Pipeline: extracted-set width does not match the rare-net count");
  patterns_ = std::move(artifact.patterns);
  extracted_sets_ = std::move(artifact.extracted_sets);
  extract_done_ = true;
}

}  // namespace deterrent::core
