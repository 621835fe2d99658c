// Generic rl::VectorEnv adapter over N independent scalar rl::Env lanes, for
// the RL unit tests: the toy environments and core::ReferenceEnv are scalar
// envs, and the trainer only takes a vector factory. Production trains on
// core::CompatibleSetVectorEnv directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "util/assert.hpp"

namespace deterrent::rl {

/// Lane l is envs[l], so every VectorEnv guarantee (lane independence, frozen
/// done lanes) follows from the Env-per-lane layout.
class EnvVector final : public VectorEnv {
 public:
  /// Builds `lanes` lanes from factory(lane_index); all must share
  /// observation/action shapes.
  EnvVector(std::size_t lanes, const PpoTrainer::EnvFactory& factory) : lanes_(lanes) {
    DETERRENT_ASSERT(lanes > 0, "EnvVector needs at least one lane");
    for (std::size_t l = 0; l < lanes; ++l) {
      envs_.push_back(factory(l));
      DETERRENT_ASSERT(envs_[l] != nullptr, "EnvVector: null lane env");
      DETERRENT_ASSERT(envs_[l]->observation_size() == envs_[0]->observation_size() &&
                           envs_[l]->action_count() == envs_[0]->action_count(),
                       "EnvVector: lane shape mismatch");
    }
  }

  std::size_t lanes() const override { return envs_.size(); }
  std::size_t observation_size() const override { return envs_[0]->observation_size(); }
  std::size_t action_count() const override { return envs_[0]->action_count(); }

  void reset_lane(std::size_t lane, util::Rng& rng) override {
    DETERRENT_ASSERT(lane < envs_.size(), "EnvVector::reset_lane out of range");
    Lane& state = lanes_[lane];
    state.observation = envs_[lane]->reset(rng);
    state.reward = 0.0f;
    state.done = false;
  }

  void step(std::span<const std::uint32_t> actions, const util::BitVec& active) override {
    DETERRENT_ASSERT(actions.size() == envs_.size() && active.size() == envs_.size(),
                     "EnvVector::step batch size mismatch");
    for (std::size_t l = active.find_first(); l < envs_.size();
         l = active.find_next(l + 1)) {
      Lane& state = lanes_[l];
      DETERRENT_ASSERT(!state.done, "EnvVector::step on a done lane");
      StepResult result = envs_[l]->step(actions[l]);
      state.observation = std::move(result.observation);
      state.reward = result.reward;
      state.done = result.done;
    }
  }

  std::span<const float> observation(std::size_t lane) const override {
    return lanes_[lane].observation;
  }
  const util::BitVec& action_mask(std::size_t lane) const override {
    return envs_[lane]->action_mask();
  }
  float reward(std::size_t lane) const override { return lanes_[lane].reward; }
  bool done(std::size_t lane) const override { return lanes_[lane].done; }

  /// The wrapped per-lane environment (statistics readout).
  const Env& lane_env(std::size_t lane) const { return *envs_[lane]; }

 private:
  struct Lane {
    std::vector<float> observation;
    float reward = 0.0f;
    bool done = true;  // unfrozen only by reset_lane()
  };

  std::vector<std::unique_ptr<Env>> envs_;
  std::vector<Lane> lanes_;
};

/// A trainer whose rollout env is an EnvVector over `factory`-built lanes.
inline PpoTrainer scalar_trainer(const PpoTrainer::EnvFactory& factory,
                                 const PpoConfig& config, std::uint64_t seed,
                                 util::ThreadPool* pool = nullptr) {
  return PpoTrainer(
      nullptr, config, seed,
      [&](std::size_t lanes) { return std::make_unique<EnvVector>(lanes, factory); },
      pool);
}

}  // namespace deterrent::rl
