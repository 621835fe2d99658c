#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace deterrent::core {

class ArtifactCache;

/// Directory-backed persistence for a Pipeline run.
///
/// A session owns one directory holding a meta artifact (config echo +
/// netlist fingerprint) plus one file per completed stage:
///
///   session.meta       DeterrentConfig + fingerprint
///   lint.art           LintArtifact (front-door verdict sidecar)
///   rare_nets.art      RareNetArtifact
///   compatibility.art  CompatibilityArtifact
///   policy.art         PolicyArtifact (resumable training checkpoint)
///   patterns.art       PatternArtifact
///
/// lint.art is a *sidecar*, not a prefix member: later stages consume the
/// netlist, not the lint report, so a quarantined or absent lint file never
/// truncates the resume prefix — the warnings are simply lost and, on a run
/// that has not passed the front door yet, lint re-runs.
///
/// **Validation.** Every load is envelope-checked (magic, ArtifactKind,
/// kArtifactFormatVersion, CRC) and fingerprint-checked against the bound
/// netlist, so stale, truncated, version-skewed, or foreign files fail
/// loudly with the offending path in the error — a session directory can
/// never silently mix artifacts from different netlists, runs, or format
/// versions. Files are written atomically (fsync + write-then-rename), so a
/// crash mid-save leaves the previous consistent state.
///
/// **Self-healing.** A load that fails for any non-transient reason (torn or
/// bit-flipped file, version skew, broken hash chain) does not abort the
/// resume: the offending file is renamed to `<name>.corrupt`, recorded in
/// quarantined(), and the artifact prefix simply ends there — the next
/// run_remaining() regenerates the stage from the last good artifact.
/// Transient failures (EMFILE-style I/O, injected transient faults) are
/// rethrown instead, so the retry layer above (core::Campaign) can back off
/// and try again without destroying a good file.
///
/// **Resume semantics.** resume() reconstructs a Pipeline from the longest
/// contiguous stage prefix on disk (a gap ends the prefix: patterns.art
/// without policy.art is ignored); a run interrupted after any stage and
/// resumed this way produces bit-identical patterns to an uninterrupted
/// one. save() persists every completed stage — including a mid-training
/// policy checkpoint once the train stage has started — and skips rewriting
/// the immutable rare/compat artifacts that already exist. The layout is
/// machine-portable: a directory written on one host resumes on another
/// (this is the exchange unit of campaign and future distributed runs).
class Session {
 public:
  static constexpr const char* kMetaFile = "session.meta";
  static constexpr const char* kLintFile = "lint.art";
  static constexpr const char* kRareFile = "rare_nets.art";
  static constexpr const char* kCompatFile = "compatibility.art";
  static constexpr const char* kPolicyFile = "policy.art";
  static constexpr const char* kPatternFile = "patterns.art";

  /// Binds a directory (created if missing) to a netlist. The netlist must
  /// outlive the session.
  Session(std::string dir, const netlist::Netlist& netlist);

  const std::string& dir() const { return dir_; }
  std::string path(const char* file) const;
  std::uint64_t netlist_fingerprint() const { return fingerprint_; }

  bool has_meta() const;
  bool has_lint() const;
  bool has_rare_nets() const;
  bool has_compatibility() const;
  bool has_policy() const;
  bool has_patterns() const;

  /// First stage with no artifact on disk (gaps end the prefix).
  Stage next_stage() const;

  /// Writes the meta artifact (config snapshot). Called once at session
  /// creation by a driver; later resume() calls read the config back so the
  /// caller does not have to re-supply identical flags.
  void save_config(const DeterrentConfig& config) const;
  DeterrentConfig load_config() const;

  /// Persists every completed stage of the pipeline (plus the config when no
  /// meta file exists yet). Training state is saved whenever the train stage
  /// has started, making mid-training checkpoints resumable.
  void save(const Pipeline& pipeline) const;

  /// Rebuilds a pipeline from the stored config and the longest contiguous
  /// artifact prefix on disk. The caller runs `run_remaining()` (or single
  /// stages) and save()s again.
  std::unique_ptr<Pipeline> resume() const;

  /// As resume(), but with an explicit config instead of the stored one
  /// (e.g. to continue training with a larger update budget). Stage artifacts
  /// are still validated against the netlist and each other.
  std::unique_ptr<Pipeline> resume_with(const DeterrentConfig& config) const;

  /// Resume for possibly-damaged directories: a missing or corrupt meta file
  /// is quarantined and replaced with `fallback` (a fresh session is simply
  /// initialized). When the stored config loads, it wins over `fallback`, so
  /// a resumed run keeps its original seed and budgets.
  std::unique_ptr<Pipeline> resume_or_init(const DeterrentConfig& fallback) const;

  /// Artifact files the most recent resume call renamed to `<name>.corrupt`
  /// (session-relative names, e.g. "policy.art").
  const std::vector<std::string>& quarantined() const { return quarantined_; }

  /// Attaches a shared content-addressed cache (non-owning; may be nullptr to
  /// detach). With a cache attached, resume hydrates missing stage files from
  /// entries keyed by (netlist fingerprint, config hash, kind) before walking
  /// the prefix — so a previously-seen design skips straight past its offline
  /// stages — and save() publishes completed artifacts back. Cached entries
  /// are validated exactly like session files on every fetch; a corrupt entry
  /// is evicted and the stage regenerates (never trusted). Policy and pattern
  /// artifacts are only published once the run is complete, so the cache holds
  /// deterministic final artifacts, never mid-training checkpoints.
  void attach_cache(ArtifactCache* cache) { cache_ = cache; }
  ArtifactCache* cache() const { return cache_; }

 private:
  std::unique_ptr<Pipeline> resume_prefix(const DeterrentConfig& config) const;
  void hydrate_from_cache(const DeterrentConfig& config) const;
  void publish_to_cache(const Pipeline& pipeline) const;

  std::string dir_;
  const netlist::Netlist* netlist_;
  std::uint64_t fingerprint_ = 0;
  ArtifactCache* cache_ = nullptr;  // non-owning, see attach_cache
  mutable std::vector<std::string> quarantined_;
};

}  // namespace deterrent::core
