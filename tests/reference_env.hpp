// Independent reference for the DETERRENT MDP (§3.1–3.3), shared by the
// differential tests of core::CompatibleSetVectorEnv and its one-lane
// adapter core::CompatibleSetEnv.
//
// ReferenceEnv re-derives everything the production env keeps incrementally:
// the mask is recomputed from the member list after every step, the witness
// is the AND of every member signature, and every joint-satisfiability check
// a witness does not answer is a fresh root-level
// NetlistOracle::try_satisfiable call, with no retained solver trail and no
// reuse of an earlier Sat model. Observations, masks, rewards, done flags,
// members and pooled sets must match the production env exactly; the
// counters compare as
//   env.sat_queries() + env.model_hits() == ref.sat_queries()
//   env.witness_hits()                   == ref.witness_hits()
// (model hits stand for queries the reference asks; AllSteps has none).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "analysis/compatibility.hpp"
#include "analysis/rare_nets.hpp"
#include "core/compatible_set_env.hpp"
#include "core/set_pool.hpp"
#include "rl/env.hpp"
#include "sat/oracle.hpp"

namespace deterrent::core {

class ReferenceEnv final : public rl::Env {
 public:
  ReferenceEnv(const netlist::Netlist& netlist, std::span<const analysis::RareNet> rare,
               const analysis::CompatibilityMatrix& matrix, const EnvConfig& config,
               DistinctSetPool* pool)
      : rare_(rare.begin(), rare.end()),
        matrix_(&matrix),
        config_(config),
        pool_(pool),
        oracle_(netlist),
        mask_(rare.size()) {}

  std::size_t observation_size() const override { return rare_.size(); }
  std::size_t action_count() const override { return rare_.size(); }
  const util::BitVec& action_mask() const override { return mask_; }

  /// Starts from a uniformly drawn singleton-satisfiable rare net: one
  /// rng.below() over the ascending list of such nets.
  std::vector<float> reset(util::Rng& rng) override {
    std::vector<std::uint32_t> viable;
    for (std::uint32_t i = 0; i < rare_.size(); ++i)
      if (matrix_->singleton_satisfiable(i)) viable.push_back(i);
    if (viable.empty()) throw std::logic_error("no satisfiable rare net");
    members_.assign(1, viable[rng.below(viable.size())]);
    rejected_.clear();
    steps_ = 0;
    refresh_mask();
    return observation();
  }

  rl::StepResult step(std::uint32_t action) override {
    if (action >= rare_.size() || !mask_.test(action))
      throw std::logic_error("reference env: masked action chosen");
    ++steps_;
    rl::StepResult result;
    const bool fresh = !is_member(action) && pairwise_with_members(action);
    std::vector<std::uint32_t> grown = members_;
    grown.push_back(action);
    if (config_.reward_mode == RewardMode::AllSteps) {
      // Ground truth at every step: the whole grown set must be jointly
      // satisfiable.
      if (fresh && (witnessed(grown) || satisfiable(grown))) {
        members_ = std::move(grown);
        result.reward = size_reward(members_.size());
      } else {
        rejected_.push_back(action);
      }
    } else if (fresh) {
      members_ = std::move(grown);  // optimistic: verified at episode end
    } else {
      rejected_.push_back(action);
    }
    refresh_mask();

    const std::size_t max_steps = config_.max_steps != 0
                                      ? config_.max_steps
                                      : std::min<std::size_t>(rare_.size(), 128);
    result.done = mask_.none() || steps_ >= max_steps;
    if (result.done) {
      // The terminal mask stays the optimistic one; only the set is verified.
      if (config_.reward_mode == RewardMode::EndOfEpisode) {
        members_ = verify(members_);
        result.reward = size_reward(members_.size());
      }
      if (pool_ != nullptr) {
        util::BitVec set(rare_.size());
        for (const std::uint32_t m : members_) set.set(m);
        pool_->add(set);
      }
    }
    result.observation = observation();
    return result;
  }

  std::span<const std::uint32_t> members() const { return members_; }
  std::uint64_t sat_queries() const { return oracle_.query_count(); }
  std::uint64_t witness_hits() const { return witness_hits_; }

 private:
  bool is_member(std::uint32_t a) const {
    return std::find(members_.begin(), members_.end(), a) != members_.end();
  }

  bool pairwise_with_members(std::uint32_t a) const {
    return std::all_of(members_.begin(), members_.end(),
                       [&](std::uint32_t m) { return matrix_->compatible(m, a); });
  }

  /// Selectable actions: non-members not yet rejected this episode that are
  /// pairwise compatible with every member (Pairwise) or singleton
  /// satisfiable (None).
  void refresh_mask() {
    mask_.clear_all();
    for (std::uint32_t a = 0; a < rare_.size(); ++a) {
      if (is_member(a) ||
          std::find(rejected_.begin(), rejected_.end(), a) != rejected_.end())
        continue;
      const bool allowed = config_.mask_mode == MaskMode::Pairwise
                               ? pairwise_with_members(a)
                               : matrix_->singleton_satisfiable(a);
      if (allowed) mask_.set(a);
    }
  }

  std::vector<float> observation() const {
    std::vector<float> obs(rare_.size(), 0.0f);
    for (const std::uint32_t m : members_) obs[m] = 1.0f;
    return obs;
  }

  float size_reward(std::size_t n) const {
    return static_cast<float>(std::pow(static_cast<double>(n), config_.reward_exponent));
  }

  /// A random pattern that drove every net of `set` to its rare value at
  /// once proves the set satisfiable without a SAT call.
  bool witnessed(std::span<const std::uint32_t> set) {
    const auto* sigs = config_.witness_signatures;
    if (sigs == nullptr) return false;
    util::BitVec joint = (*sigs)[set[0]];
    for (const std::uint32_t m : set) joint &= (*sigs)[m];
    if (!joint.any()) return false;
    ++witness_hits_;
    return true;
  }

  bool satisfiable(std::span<const std::uint32_t> set) {
    std::vector<sat::Constraint> cs;
    for (const std::uint32_t m : set) cs.push_back({rare_[m].net, rare_[m].rare_value});
    return oracle_.try_satisfiable(cs, config_.sat_conflict_budget).value_or(false);
  }

  /// End-of-episode verification (§3.2): the longest satisfiable prefix by
  /// binary search, then a greedy retry of at most eoe_repair_budget of the
  /// members after the failing one.
  std::vector<std::uint32_t> verify(const std::vector<std::uint32_t>& members) {
    const auto prefix_ok = [&](std::size_t len) {
      const std::span<const std::uint32_t> prefix(members.data(), len);
      return witnessed(prefix) || satisfiable(prefix);
    };
    std::size_t lo = 1;
    std::size_t hi = members.size();
    if (prefix_ok(hi)) return members;
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      (prefix_ok(mid) ? lo : hi) = mid;
    }
    std::vector<std::uint32_t> kept(members.begin(),
                                    members.begin() + static_cast<std::ptrdiff_t>(lo));
    std::size_t tried = 0;
    for (std::size_t k = lo + 1; k < members.size() && tried < config_.eoe_repair_budget;
         ++k, ++tried) {
      kept.push_back(members[k]);
      if (!witnessed(kept) && !satisfiable(kept)) kept.pop_back();
    }
    return kept;
  }

  std::vector<analysis::RareNet> rare_;
  const analysis::CompatibilityMatrix* matrix_;
  EnvConfig config_;
  DistinctSetPool* pool_;
  sat::NetlistOracle oracle_;
  std::vector<std::uint32_t> members_;   // insertion order
  std::vector<std::uint32_t> rejected_;  // actions refused this episode
  util::BitVec mask_;
  std::size_t steps_ = 0;
  std::uint64_t witness_hits_ = 0;
};

}  // namespace deterrent::core
