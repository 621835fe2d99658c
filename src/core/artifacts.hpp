#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/compatibility.hpp"
#include "analysis/lint.hpp"
#include "analysis/rare_nets.hpp"
#include "core/compatible_set_env.hpp"
#include "rl/ppo.hpp"
#include "sim/pattern.hpp"
#include "util/serialize.hpp"

namespace deterrent::core {

/// End-to-end configuration of the DETERRENT pipeline (Figure 4).
struct DeterrentConfig {
  analysis::LintConfig lint;                   ///< stage 0: static DRC + trojan screen
  analysis::RareNetConfig rare;                ///< step ❶: rareness filtering
  analysis::CompatibilityBuildConfig compat;   ///< offline pairwise phase
  EnvConfig env;                               ///< MDP variant (§3.1–3.3)
  rl::PpoConfig ppo = boosted_ppo_defaults();  ///< §3.4 exploration boost on
  std::size_t updates = 40;     ///< PPO update iterations in train()
  std::size_t k_patterns = 32;  ///< k largest distinct sets → test patterns
  std::uint64_t seed = 1;
  /// The pipeline's worker threads: the rare-net and compatibility stages
  /// use all of them, the train stage's network passes and lane SAT work at
  /// most four. 0 = hardware concurrency. Every stage is bit-identical at
  /// any count.
  std::size_t offline_threads = 0;

  /// PPO defaults with the paper's boosted exploration (§3.4): entropy
  /// coefficient c_eps = 1 and GAE smoothing λ = 0.99.
  static rl::PpoConfig boosted_ppo_defaults() {
    rl::PpoConfig ppo;
    ppo.entropy_coef = 1.0f;
    ppo.gae_lambda = 0.99f;
    return ppo;
  }
};

/// One row of the training log — enough to regenerate Table 1 (rates),
/// Figure 2 (max compatible set), and Figure 3 (loss trends).
struct TrainingSnapshot {
  rl::PpoUpdateStats ppo;
  std::size_t pool_size = 0;
  std::size_t max_set_size = 0;
  std::uint64_t cumulative_steps = 0;
  std::uint64_t cumulative_episodes = 0;
  std::uint64_t sat_queries = 0;
  double elapsed_seconds = 0.0;  ///< since training started
};

// ---------------------------------------------------------------------------
// Serializable stage artifacts.
//
// Each pipeline stage consumes the previous stage's artifact and produces its
// own. Artifacts are versioned binary files (util::write_artifact_file
// envelope: magic, kind, version, netlist fingerprint, CRC) so a run can be
// checkpointed after any stage and resumed — in another process, on another
// machine — with bit-identical results. They are also the exchange unit the
// planned sharded/distributed offline phase ships between workers.
// ---------------------------------------------------------------------------

/// Discriminator stored in the artifact file header.
enum class ArtifactKind : std::uint32_t {
  SessionMeta = 1,
  RareNets = 2,
  Compatibility = 3,
  Policy = 4,
  Patterns = 5,
  Lint = 6,
  CompatShardPartial = 7,
  CompatShardManifest = 8,
};

/// Bumped whenever any artifact payload layout changes; loaders reject other
/// versions loudly instead of guessing. v3: session meta gained the
/// LintConfig block; the lint verdict artifact was added. v4: PpoConfig
/// gained rollout_lanes and TrainerState gained the episode-stream seed
/// (vectorized trainer with collector-independent episode RNG streams).
/// v5: the config block gained compat.shard_count and
/// env.sat_dispatch_threads; the compat-shard partial and manifest artifacts
/// were added (sharded compatibility build).
inline constexpr std::uint32_t kArtifactFormatVersion = 5;

/// Verdict of the lint front door (stage 0): the full diagnostic report plus
/// the reject decision it produced under the run's fail_on severity. Saved as
/// a session sidecar (`lint.art`) so warnings persist with the run and a
/// rejected design stays rejected on every resume without re-analysis.
struct LintArtifact {
  std::uint64_t netlist_fingerprint = 0;
  analysis::LintSeverity fail_on = analysis::LintSeverity::Error;  ///< config echo
  bool rejected = false;
  analysis::LintReport report;

  void save(const std::string& path) const;
  static LintArtifact load(const std::string& path,
                           std::uint64_t expected_fingerprint = 0);
};

/// Output of the rare-net filtering stage (Figure 4, step ❶).
struct RareNetArtifact {
  std::uint64_t netlist_fingerprint = 0;
  double threshold = 0.0;  ///< config echo, for reports
  std::uint64_t seed = 0;
  std::vector<analysis::RareNet> rare_nets;
  /// Offline-phase RNG state after rare-net discovery. The compatibility
  /// build continues this exact stream, which is what makes a staged run
  /// bit-identical to a monolithic prepare().
  std::array<std::uint64_t, 4> rng_state_after{};

  /// Content hash over the rare-net list. Downstream artifacts embed it so a
  /// compatibility matrix can never be silently combined with rare nets from
  /// a different run.
  std::uint64_t rare_hash() const;

  void save(const std::string& path) const;
  /// `expected_fingerprint` non-zero ⇒ must match the stored one.
  static RareNetArtifact load(const std::string& path,
                              std::uint64_t expected_fingerprint = 0);
};

/// Output of the offline pairwise-compatibility stage (Figure 4, left).
struct CompatibilityArtifact {
  std::uint64_t netlist_fingerprint = 0;
  std::uint64_t rare_hash = 0;  ///< RareNetArtifact::rare_hash of the producer
  analysis::CompatibilityMatrix matrix;
  /// Phase-1 simulation witnesses (one per rare net), reused by the training
  /// environments to answer joint-satisfiability checks without SAT calls.
  std::vector<util::BitVec> witness_signatures;
  analysis::CompatibilityBuildStats stats;

  void save(const std::string& path) const;
  static CompatibilityArtifact load(const std::string& path,
                                    std::uint64_t expected_fingerprint = 0);
};

/// Output (and resumable checkpoint) of the PPO training stage: network
/// weights, Adam moments, RNG streams, the distinct-set pool, and the
/// training history. Restoring it resumes training bit-identically.
struct PolicyArtifact {
  std::uint64_t netlist_fingerprint = 0;
  std::uint64_t rare_hash = 0;
  rl::TrainerState trainer;
  std::vector<util::BitVec> pool_sets;
  std::vector<TrainingSnapshot> history;
  double train_seconds = 0.0;

  void save(const std::string& path) const;
  static PolicyArtifact load(const std::string& path,
                             std::uint64_t expected_fingerprint = 0);
};

/// Output of the SAT pattern-extraction stage: the final test set plus the
/// compatible sets each pattern realizes (parallel order).
struct PatternArtifact {
  std::uint64_t netlist_fingerprint = 0;
  std::uint64_t rare_hash = 0;
  sim::PatternSet patterns;
  std::vector<util::BitVec> extracted_sets;

  void save(const std::string& path) const;
  static PatternArtifact load(const std::string& path,
                              std::uint64_t expected_fingerprint = 0);
};

/// The content hash behind RareNetArtifact::rare_hash — exposed so the
/// pipeline can stamp downstream artifacts without materializing a
/// RareNetArtifact first.
std::uint64_t rare_content_hash(std::uint64_t netlist_fingerprint,
                                std::span<const analysis::RareNet> rare_nets);

/// Serialized DeterrentConfig (every scalar knob; the runtime-wired witness
/// pointer is excluded). Stored in a session's meta artifact so `resume` does
/// not depend on the caller re-supplying identical flags.
void write_config(util::BinaryWriter& w, const DeterrentConfig& config);
DeterrentConfig read_config(util::BinaryReader& r);

}  // namespace deterrent::core
