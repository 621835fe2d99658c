#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace deterrent::rl {

/// Result of one environment step.
struct StepResult {
  std::vector<float> observation;
  float reward = 0.0f;
  bool done = false;
};

/// Episodic environment with a discrete, maskable action space — the
/// interface rl::EnvVector batches into lanes for the PPO trainer.
/// Implementations must be independent per instance: EnvVector creates one
/// per rollout lane (vectorized environments, §4.1).
class Env {
 public:
  virtual ~Env() = default;

  virtual std::size_t observation_size() const = 0;
  virtual std::size_t action_count() const = 0;

  /// Starts a new episode; returns the initial observation.
  virtual std::vector<float> reset(util::Rng& rng) = 0;

  /// Applies an action. Must only be called with a currently valid action.
  virtual StepResult step(std::uint32_t action) = 0;

  /// Valid actions in the current state (bit per action, at least one set
  /// while the episode is running). Environments without masking return the
  /// all-ones mask.
  virtual const util::BitVec& action_mask() const = 0;
};

/// Lock-step batch of N environment lanes — the vectorized rollout surface.
///
/// Each lane is an independent copy of the MDP: its trajectory depends only
/// on the RNG stream reset_lane() was fed and the actions applied to it, never
/// on sibling lanes. That contract is what makes an N-lane rollout
/// bit-identical to N sequential single-env rollouts (the differential suite
/// in test_rl_vector.cpp pins it).
///
/// Lifecycle per lane: reset_lane() opens an episode; step() advances every
/// lane whose bit is set in `active`; once done(lane) reports true (or the
/// lane's mask runs empty) the lane is *frozen* — its observation, mask, and
/// reward are snapshots of the terminal state and must not change until the
/// next reset_lane(). Stepping a frozen or inactive lane is a contract
/// violation.
class VectorEnv {
 public:
  virtual ~VectorEnv() = default;

  virtual std::size_t lanes() const = 0;
  virtual std::size_t observation_size() const = 0;
  virtual std::size_t action_count() const = 0;

  /// Starts a new episode in `lane`, drawing randomness only from `rng`
  /// (the caller owns per-lane streams). Other lanes are untouched.
  virtual void reset_lane(std::size_t lane, util::Rng& rng) = 0;

  /// Advances every lane whose bit is set in `active` by one step.
  /// `actions[lane]` must be valid under that lane's current mask; entries of
  /// inactive lanes are ignored. Inactive and done lanes stay frozen.
  virtual void step(std::span<const std::uint32_t> actions,
                    const util::BitVec& active) = 0;

  /// Current observation of `lane` (terminal observation once done).
  virtual std::span<const float> observation(std::size_t lane) const = 0;

  /// Valid actions of `lane` in its current state.
  virtual const util::BitVec& action_mask(std::size_t lane) const = 0;

  /// Reward earned by `lane` on the most recent step() that touched it.
  virtual float reward(std::size_t lane) const = 0;

  /// Whether `lane`'s episode has terminated (frozen until reset_lane()).
  virtual bool done(std::size_t lane) const = 0;
};

}  // namespace deterrent::rl
