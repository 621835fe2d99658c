#include "core/session.hpp"

#include <filesystem>
#include <optional>

#include "core/artifact_cache.hpp"
#include "netlist/stats.hpp"
#include "util/assert.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"

namespace deterrent::core {

namespace fs = std::filesystem;

Session::Session(std::string dir, const netlist::Netlist& netlist)
    : dir_(std::move(dir)),
      netlist_(&netlist),
      fingerprint_(netlist::structural_fingerprint(netlist)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw Error("Session: cannot create directory " + dir_ + ": " + ec.message());
}

std::string Session::path(const char* file) const {
  return (fs::path(dir_) / file).string();
}

bool Session::has_meta() const { return fs::exists(path(kMetaFile)); }
bool Session::has_lint() const { return fs::exists(path(kLintFile)); }
bool Session::has_rare_nets() const { return fs::exists(path(kRareFile)); }
bool Session::has_compatibility() const { return fs::exists(path(kCompatFile)); }
bool Session::has_policy() const { return fs::exists(path(kPolicyFile)); }
bool Session::has_patterns() const { return fs::exists(path(kPatternFile)); }

Stage Session::next_stage() const {
  if (!has_rare_nets()) return Stage::RareNets;
  if (!has_compatibility()) return Stage::Compatibility;
  if (!has_policy()) return Stage::Train;
  if (!has_patterns()) return Stage::Extract;
  return Stage::Done;
}

void Session::save_config(const DeterrentConfig& config) const {
  save_session_meta(path(kMetaFile), fingerprint_, config);
}

DeterrentConfig Session::load_config() const {
  return load_session_meta(path(kMetaFile), fingerprint_);
}

void Session::save(const Pipeline& pipeline) const {
  DETERRENT_ASSERT(pipeline.netlist_fingerprint() == fingerprint_,
                   "Session::save: pipeline is bound to a different netlist");
  if (!has_meta()) save_config(pipeline.config());
  // The lint verdict is immutable once produced (the pipeline never re-lints
  // a design that passed or was rejected), so write-once like rare/compat.
  if (pipeline.lint_done() && !has_lint())
    pipeline.export_lint().save(path(kLintFile));
  // Rare nets and the matrix are immutable once their stage completed (the
  // pipeline refuses to re-populate them), so an existing file is already
  // current — skipping the rewrite saves the O(n²)-bit matrix serialization
  // on every later checkpoint. Policy and patterns do evolve; always write.
  if (pipeline.rare_nets_done() && !has_rare_nets())
    pipeline.export_rare_nets().save(path(kRareFile));
  if (pipeline.compatibility_done() && !has_compatibility())
    pipeline.export_compatibility().save(path(kCompatFile));
  // A poisoned pipeline's trainer state may be torn mid-update; persisting
  // it would checkpoint garbage, so keep the previous on-disk policy.
  if (!pipeline.history().empty() && !pipeline.poisoned())
    pipeline.export_policy().save(path(kPolicyFile));
  if (pipeline.extract_done()) {
    pipeline.export_patterns().save(path(kPatternFile));
  } else if (has_patterns()) {
    // Training past an extraction marks it stale; a leftover patterns.art
    // would make the next resume() report the run complete and emit the
    // outdated set, so drop it along with the checkpoint that outdated it.
    std::error_code ec;
    fs::remove(path(kPatternFile), ec);
    if (ec)
      throw Error("Session: cannot remove stale " + path(kPatternFile) + ": " +
                  ec.message());
  }
  publish_to_cache(pipeline);
}

void Session::publish_to_cache(const Pipeline& pipeline) const {
  if (cache_ == nullptr) return;
  const std::uint64_t cfg = config_hash(pipeline.config());
  // A failed publish only costs future cache misses — the session copy stays
  // authoritative — so nothing here may fail the save.
  auto publish = [&](ArtifactKind kind, const char* file) {
    try {
      cache_->store(fingerprint_, cfg, kind, path(file));
    } catch (const Error& e) {
      util::Log::warn("session: cache publish of ", file, " failed (", e.what(), ")");
    }
  };
  if (pipeline.lint_done() && has_lint()) publish(ArtifactKind::Lint, kLintFile);
  if (pipeline.rare_nets_done() && has_rare_nets())
    publish(ArtifactKind::RareNets, kRareFile);
  if (pipeline.compatibility_done() && has_compatibility())
    publish(ArtifactKind::Compatibility, kCompatFile);
  // Policy evolves during training; only the finished run's artifacts are
  // cache-worthy (a mid-training checkpoint served to another session would
  // smuggle in a partial policy under a key that promises the final one).
  if (pipeline.next_stage() == Stage::Done && !pipeline.poisoned()) {
    if (has_policy()) publish(ArtifactKind::Policy, kPolicyFile);
    if (has_patterns()) publish(ArtifactKind::Patterns, kPatternFile);
  }
}

void Session::hydrate_from_cache(const DeterrentConfig& config) const {
  if (cache_ == nullptr) return;
  const std::uint64_t cfg = config_hash(config);
  // The lint verdict is a sidecar: hydrate it independently, a miss does not
  // gate the stage artifacts below.
  if (!has_lint()) (void)cache_->fetch(fingerprint_, cfg, ArtifactKind::Lint, path(kLintFile));
  // Stage artifacts hydrate in prefix order and stop at the first miss — a
  // later entry without its predecessors would be ignored by resume anyway
  // (and with the hash-chain checks, could never adopt).
  struct StageEntry {
    ArtifactKind kind;
    const char* file;
  };
  static constexpr StageEntry kStages[] = {
      {ArtifactKind::RareNets, kRareFile},
      {ArtifactKind::Compatibility, kCompatFile},
      {ArtifactKind::Policy, kPolicyFile},
      {ArtifactKind::Patterns, kPatternFile},
  };
  for (const auto& stage : kStages) {
    if (fs::exists(path(stage.file))) continue;
    if (!cache_->fetch(fingerprint_, cfg, stage.kind, path(stage.file))) break;
  }
}

namespace {

// Runs one artifact load+adopt. True on success; false when the file was
// quarantined (renamed to <file>.corrupt), which ends the resume prefix so
// run_remaining() regenerates the stage. Transient failures — a momentary
// I/O error, an injected transient fault — are rethrown untouched: they say
// nothing about the file, and destroying a good artifact over one would
// trade a retryable hiccup for lost work.
template <typename LoadFn>
bool load_or_quarantine(const Session& session, const char* file, LoadFn&& load,
                        std::vector<std::string>& quarantined) {
  DETERRENT_FAULT_POINT("session.load_artifact");
  try {
    load();
    return true;
  } catch (const TransientError&) {
    throw;
  } catch (const Error& e) {
    const std::string src = session.path(file);
    std::error_code ec;
    fs::rename(src, src + ".corrupt", ec);
    if (ec) fs::remove(src, ec);  // rename failed: drop it rather than loop forever
    util::Log::warn("session: quarantined ", src, " (", e.what(), ")");
    quarantined.emplace_back(file);
    return false;
  }
}

}  // namespace

std::unique_ptr<Pipeline> Session::resume() const {
  quarantined_.clear();
  return resume_prefix(load_config());
}

std::unique_ptr<Pipeline> Session::resume_with(const DeterrentConfig& config) const {
  quarantined_.clear();
  return resume_prefix(config);
}

std::unique_ptr<Pipeline> Session::resume_or_init(const DeterrentConfig& fallback) const {
  quarantined_.clear();
  std::optional<DeterrentConfig> stored;
  if (has_meta())
    load_or_quarantine(*this, kMetaFile, [&] { stored = load_config(); }, quarantined_);
  if (!stored.has_value()) save_config(fallback);
  return resume_prefix(stored.value_or(fallback));
}

std::unique_ptr<Pipeline> Session::resume_prefix(const DeterrentConfig& config) const {
  hydrate_from_cache(config);
  auto pipeline = std::make_unique<Pipeline>(*netlist_, config);
  // Sidecar, not prefix: a bad lint file is quarantined, but the prefix
  // continues — losing the stored warnings must not force an offline-phase
  // rebuild (and a rejected verdict is re-derived by re-linting anyway).
  if (has_lint())
    load_or_quarantine(*this, kLintFile,
                       [&] { pipeline->adopt(LintArtifact::load(path(kLintFile), fingerprint_)); },
                       quarantined_);
  if (!has_rare_nets()) return pipeline;
  if (!load_or_quarantine(*this, kRareFile,
                          [&] { pipeline->adopt(RareNetArtifact::load(path(kRareFile), fingerprint_)); },
                          quarantined_))
    return pipeline;
  if (!has_compatibility()) return pipeline;
  if (!load_or_quarantine(*this, kCompatFile,
                          [&] {
                            pipeline->adopt(
                                CompatibilityArtifact::load(path(kCompatFile), fingerprint_));
                          },
                          quarantined_))
    return pipeline;
  if (!has_policy()) return pipeline;  // patterns without a policy are not a prefix
  if (!load_or_quarantine(*this, kPolicyFile,
                          [&] { pipeline->adopt(PolicyArtifact::load(path(kPolicyFile), fingerprint_)); },
                          quarantined_))
    return pipeline;
  if (has_patterns())
    load_or_quarantine(*this, kPatternFile,
                       [&] { pipeline->adopt(PatternArtifact::load(path(kPatternFile), fingerprint_)); },
                       quarantined_);
  return pipeline;
}

}  // namespace deterrent::core
