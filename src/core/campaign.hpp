#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/session.hpp"

namespace deterrent::core {

/// One circuit enrolled in a campaign. The netlist must be combinational and
/// must outlive the campaign run.
struct CampaignCircuit {
  std::string name;
  const netlist::Netlist* netlist = nullptr;
};

struct CampaignConfig {
  /// Per-circuit pipeline configuration template. Each circuit's seed is
  /// derived from `base.seed` and the circuit index, so campaign results are
  /// reproducible yet decorrelated across circuits.
  DeterrentConfig base;
  /// Circuit-level workers; 0 = hardware concurrency (capped at the circuit
  /// count). Within a circuit every stage runs on base.offline_threads
  /// workers (training on at most four) — set it to 1 to keep a fully
  /// circuit-parallel campaign from oversubscribing; each circuit then runs
  /// serially on its own thread at any lane count.
  std::size_t threads = 0;
  /// When non-empty, each circuit gets a Session under
  /// `<session_root>/<circuit name>`: completed stages are saved as artifact
  /// files, and a re-run campaign resumes every circuit from its artifacts
  /// instead of starting over.
  std::string session_root;
  /// When non-empty, all circuits share one content-addressed ArtifactCache
  /// rooted here: sessions hydrate missing stage artifacts from entries keyed
  /// by (netlist fingerprint, config hash, kind) and publish completed ones
  /// back, so a campaign over previously-seen designs skips their offline
  /// stages entirely — even across different session roots or machines
  /// sharing the directory. Requires session_root (the cache feeds sessions).
  std::string cache_dir;
  /// Robustness knobs (see docs/robustness.md). A circuit attempt that fails
  /// with a TransientError / CorruptArtifactError, or whose stage watchdog
  /// times out, is retried up to `max_retries` more times with exponential
  /// backoff (`min(retry_backoff_ms * 2^attempt, retry_backoff_cap_ms)`; see
  /// retry_backoff_delay_ms for the saturation rules). Session-backed
  /// circuits resume each retry from their last good artifact, so work is
  /// never repeated and corrupt files (quarantined by the Session) are
  /// regenerated. PermanentError — and any exception outside the deterrent
  /// taxonomy — skips the retries and quarantines the circuit immediately.
  std::size_t max_retries = 2;
  double retry_backoff_ms = 50.0;
  /// Upper bound on a single backoff sleep. 0 disables the cap (the exponent
  /// itself still saturates, so the delay stays finite regardless).
  double retry_backoff_cap_ms = 10000.0;
  /// Per-stage watchdog deadline handed to every stage call (see
  /// StageControl::stage_timeout_seconds); a control passed to run() with
  /// its own non-zero value wins. 0 = no watchdog.
  double stage_timeout_seconds = 0.0;
};

/// Per-circuit outcome row of a campaign run.
struct CampaignCircuitReport {
  std::string name;
  bool ok = false;
  std::string error;  ///< failure reason when !ok
  StageStatus status = StageStatus::Complete;
  std::uint64_t seed = 0;
  /// Lint front door (stage 0). A Rejected verdict quarantines the circuit
  /// immediately — retrying a static analysis cannot change its answer.
  bool lint_ran = false;
  std::size_t lint_errors = 0;
  std::size_t lint_warnings = 0;
  std::size_t rare_nets = 0;
  std::size_t compatible_pairs = 0;
  std::size_t pool_size = 0;
  std::size_t max_set_size = 0;
  std::size_t patterns = 0;
  std::uint64_t sat_queries = 0;
  double coverage_percent = -1.0;  ///< -1 when no evaluator was configured
  double seconds = 0.0;
  std::size_t attempts = 1;  ///< 1 + retries actually consumed
  /// Permanently failed: a PermanentError / foreign exception, or retries
  /// exhausted. No further attempt will be made; the row's error says why.
  bool quarantined = false;
  /// Artifact files the Session renamed to `<name>.corrupt` and regenerated
  /// during this circuit's attempts (session-relative names).
  std::vector<std::string> recovered;
};

/// Aggregated result of Campaign::run.
struct CampaignReport {
  std::vector<CampaignCircuitReport> circuits;  ///< enrollment order
  std::size_t completed = 0;                    ///< ok && Complete
  std::size_t quarantined = 0;                  ///< permanently failed circuits
  std::size_t total_patterns = 0;
  std::uint64_t total_sat_queries = 0;
  double total_seconds = 0.0;     ///< wall clock of the whole run
  double mean_coverage = -1.0;    ///< over evaluated circuits; -1 when none

  /// Fixed-width text table (one row per circuit + a totals line) for CLI
  /// and log output.
  std::string to_table() const;
};

/// Multi-circuit campaign driver: runs every enrolled circuit through the
/// staged pipeline concurrently on a thread pool and aggregates a coverage
/// report. This is the "train-once, reuse-many" entry point — with a
/// session_root, finished circuits are skipped on re-run and interrupted
/// ones resume from their last artifact.
///
/// Resume semantics are per circuit and inherited from core::Session: each
/// circuit's directory holds its own versioned artifact chain, validated
/// against that circuit's netlist fingerprint on load, so renaming or
/// reordering enrollments cannot cross-wire sessions. One circuit failing
/// (or holding corrupt artifacts) is reported in its row and does not stop
/// the others. Seeds are derived per circuit index from the base config, so
/// a re-run — full or resumed — reproduces the original run exactly.
class Campaign {
 public:
  /// Optional per-circuit pattern evaluator (e.g. trigger coverage against
  /// sampled Trojans). Runs on the worker thread after extraction; the
  /// returned percentage lands in the report. Keeping this a callback keeps
  /// core/ free of a dependency on the trojan/ layer.
  using Evaluator = std::function<double(const CampaignCircuit& circuit,
                                         const Pipeline& pipeline,
                                         const sim::PatternSet& patterns)>;

  explicit Campaign(CampaignConfig config);

  void add(std::string name, const netlist::Netlist& netlist);

  void set_evaluator(Evaluator evaluator) { evaluator_ = std::move(evaluator); }

  /// Runs all circuits. `control` is shared: progress events carry the
  /// circuit name in their detail field (serialized under a lock, so the
  /// callback needs no synchronization of its own); cancelling stops every
  /// circuit at its next checkpoint; budgets apply per stage call as usual.
  CampaignReport run(const StageControl& control = {});

 private:
  CampaignCircuitReport run_circuit(std::size_t index, const StageControl& control);
  /// One attempt of one circuit: resume-or-init the session, run the
  /// remaining stages, save, fill the report row. Throws on failure — the
  /// retry loop in run_circuit classifies the exception.
  void run_circuit_attempt(std::size_t index, const StageControl& control,
                           CampaignCircuitReport& row);

  CampaignConfig config_;
  std::vector<CampaignCircuit> circuits_;
  Evaluator evaluator_;
  /// Shared across all circuit workers (ArtifactCache is thread-safe);
  /// created lazily by run() when config_.cache_dir is set.
  std::unique_ptr<ArtifactCache> cache_;
};

/// The campaign retry delay for attempt N (0-based): exponential
/// `base_ms * 2^attempt` with the exponent saturated (a large attempt count
/// must not shift past the width of the mantissa, let alone the 64-bit shift
/// UB the unclamped version had) and the result capped at `cap_ms` when
/// cap_ms > 0. base_ms <= 0 disables backoff entirely.
double retry_backoff_delay_ms(double base_ms, std::size_t attempt, double cap_ms);

}  // namespace deterrent::core
