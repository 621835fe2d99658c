#pragma once

#include <functional>
#include <memory>

#include "rl/adam.hpp"
#include "rl/env.hpp"
#include "rl/mlp.hpp"

namespace deterrent::rl {

/// PPO hyperparameters. Defaults follow the common PPO recipe the paper
/// starts from; §3.4's "boosted exploration" sets entropy_coef = 1.0 and
/// gae_lambda = 0.99.
struct PpoConfig {
  float gamma = 0.99f;
  float gae_lambda = 0.95f;
  float clip_ratio = 0.2f;
  float learning_rate = 3e-4f;
  float entropy_coef = 0.0f;
  float value_coef = 0.5f;
  float max_grad_norm = 0.5f;
  int epochs = 4;
  std::size_t minibatch_size = 256;
  std::size_t episodes_per_update = 16;
  std::size_t hidden_size = 64;
  std::size_t hidden_layers = 2;
  /// Legacy alias for rollout_lanes, kept only because the v5 config block
  /// serializes it: the trainer collects on max(rollout_lanes, n_workers)
  /// lanes, so sessions saved with n_workers = N resume on N lanes.
  std::size_t n_workers = 1;
  /// Lock-step rollout lanes on the trainer's one VectorEnv (single-threaded,
  /// batched network passes). Every episode draws from an RNG stream keyed by
  /// its global episode index, so the lane count is a pure throughput knob:
  /// any width collects bit-identical episodes and trains to bit-identical
  /// parameters (assuming the env itself is schedule-independent — see
  /// core::CompatibleSetVectorEnv's note on SAT conflict budgets).
  std::size_t rollout_lanes = 1;
  bool normalize_advantages = true;
};

/// Aggregate diagnostics of one update() call. The loss fields reproduce the
/// decomposition of §3.4: total = policy + c_eps·entropy_loss + c_v·value,
/// where entropy_loss = −entropy.
struct PpoUpdateStats {
  double mean_episode_reward = 0.0;
  double mean_episode_length = 0.0;
  double mean_entropy = 0.0;
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy_loss = 0.0;
  double total_loss = 0.0;
  std::size_t steps = 0;
  std::size_t episodes = 0;
};

/// Complete checkpoint of a PpoTrainer: network parameters, optimizer
/// moments, every RNG stream, and the step/episode counters. restore()-ing it
/// into a trainer built with the same config and env shapes resumes training
/// bit-identically — update N after a checkpoint/restore equals update N of
/// an uninterrupted run.
struct TrainerState {
  std::vector<float> policy_params;
  std::vector<float> value_params;
  AdamState policy_opt;
  AdamState value_opt;
  /// The minibatch-shuffle stream. Rollout episodes draw from streams keyed
  /// by (seed, global episode index) instead of persistent per-lane
  /// streams, so a checkpoint restores bit-identically into a trainer with a
  /// different lane count.
  std::vector<std::array<std::uint64_t, 4>> rng_states;
  /// The trainer seed — the key from which episode RNG streams are derived.
  /// Restored alongside the streams so a snapshot resumes the same episode
  /// sequence even in a trainer constructed with a different seed.
  std::uint64_t seed = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t total_episodes = 0;
};

/// Proximal Policy Optimization with clipped surrogate objective, separate
/// policy/value networks, GAE, masked categorical actions, rollouts collected
/// on one lock-step VectorEnv, and minibatches optimized in batched passes.
class PpoTrainer {
 public:
  using EnvFactory = std::function<std::unique_ptr<Env>(std::size_t lane)>;
  using VectorEnvFactory =
      std::function<std::unique_ptr<VectorEnv>(std::size_t lanes)>;

  /// Builds the one rollout env, `vector_factory(lanes)` with
  /// lanes = max(rollout_lanes, n_workers); the networks take their shapes
  /// from it. `factory` is never called and may be null: it stays in the
  /// signature only for callers that still pass one. Throws deterrent::Error
  /// when `vector_factory` is null, or config.minibatch_size or the lane
  /// count is 0.
  ///
  /// `pool` (optional, must outlive the trainer) runs the optimization
  /// phase's network passes and per-row loss loop across its threads. Each
  /// splits only along axes no sum runs over, so parameters, optimizer state
  /// and statistics are bit-identical with and without it
  /// (docs/training.md). Collection passes stay serial.
  PpoTrainer(const EnvFactory& factory, const PpoConfig& config, std::uint64_t seed,
             const VectorEnvFactory& vector_factory, util::ThreadPool* pool = nullptr);
  ~PpoTrainer();

  TrainerState state() const;

  /// Restores a state() snapshot. Throws deterrent::Error when the snapshot
  /// shape disagrees with this trainer (different network sizes) — resuming
  /// under a changed architecture must fail loudly, not drift. The lane
  /// count is NOT part of the shape: episode RNG streams are keyed by global
  /// episode index, so a snapshot resumes bit-identically at any width.
  void restore(const TrainerState& state);

  /// Collects config.episodes_per_update episodes (split across lanes) and
  /// performs one PPO optimization phase.
  PpoUpdateStats update();

  const Mlp& policy() const { return policy_; }
  const Mlp& value() const { return value_; }
  std::uint64_t total_steps() const { return total_steps_; }
  std::uint64_t total_episodes() const { return total_episodes_; }

  /// The rollout environment — lets callers read implementation-specific
  /// statistics (e.g. SAT query counts) after training.
  const VectorEnv& vector_env() const { return *vector_env_; }

 private:
  struct EpisodeBuffer {
    std::vector<std::vector<float>> observations;
    std::vector<util::BitVec> masks;
    std::vector<std::uint32_t> actions;
    std::vector<float> log_probs;
    std::vector<float> rewards;
    std::vector<float> values;
  };

  void collect(std::vector<EpisodeBuffer>& episodes);
  /// The RNG stream for the episode with global index `index` — the key to
  /// the lane-count-independence contract: the stream depends only on the
  /// trainer seed and the episode's position in training, never on which
  /// rollout lane runs it.
  util::Rng episode_rng(std::uint64_t index) const;

  PpoConfig config_;
  std::uint64_t seed_ = 0;
  util::ThreadPool* pool_ = nullptr;
  std::unique_ptr<VectorEnv> vector_env_;  // built first: sizes the networks
  Mlp policy_;
  Mlp value_;
  Adam policy_opt_;
  Adam value_opt_;
  util::Rng shuffle_rng_;
  std::uint64_t total_steps_ = 0;
  std::uint64_t total_episodes_ = 0;
};

}  // namespace deterrent::rl
