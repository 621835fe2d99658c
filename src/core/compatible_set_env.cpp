#include "core/compatible_set_env.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>

#include "util/assert.hpp"

namespace deterrent::core {
namespace {

/// End-of-episode verification (§3.2) of one lane's episode on that lane's
/// oracle. Replaces `members` by its longest satisfiable prefix plus the
/// members a greedy repair can add back.
///
/// Every SAT query here is a prefix of `members` or "kept members + one
/// candidate", so try_extend keeps the shared prefix assumed on the solver
/// trail and a query costs about the propagation of what it adds. Answers
/// never depend on that: Sat and Unsat are facts about the netlist, and only
/// an exhausted conflict budget (counted as unsatisfiable) could differ.
void verify_episode(sat::NetlistOracle& oracle,
                    std::span<const analysis::RareNet> rare_nets,
                    const EnvConfig& config, std::vector<std::uint32_t>& members,
                    std::vector<sat::Constraint>& constraints,
                    std::uint64_t& witness_hits, std::uint64_t& model_hits) {
  const auto* sigs = config.witness_signatures;
  const auto constraint = [&](std::uint32_t m) {
    return sat::Constraint{rare_nets[m].net, rare_nets[m].rare_value};
  };
  const auto solve = [&] {
    return oracle.try_extend(constraints, config.sat_conflict_budget).value_or(false);
  };

  const auto joint_of = [&](std::size_t len) {  // AND of the first len signatures
    util::BitVec joint = (*sigs)[members[0]];
    for (std::size_t k = 1; k < len; ++k) joint &= (*sigs)[members[k]];
    return joint;
  };

  // Prefix satisfiability is monotone (constraints only accumulate), so a
  // binary search needs O(log T) SAT calls instead of one per step — the
  // mechanism that makes end-of-episode reward cheap (§3.2).
  auto prefix_sat = [&](std::size_t len) {
    if (sigs != nullptr && joint_of(len).any()) {
      ++witness_hits;
      return true;
    }
    constraints.clear();
    for (std::size_t k = 0; k < len; ++k) constraints.push_back(constraint(members[k]));
    return solve();
  };

  std::size_t lo = 1;  // singleton start is satisfiable by construction
  std::size_t hi = members.size();
  if (prefix_sat(hi)) return;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (prefix_sat(mid))
      lo = mid;
    else
      hi = mid;
  }

  // Greedy repair: pairwise evidence admitted members the joint check now
  // rejects, but usually only a few — retry members beyond the verified
  // prefix individually, up to the configured budget. Extra SAT calls are
  // paid only on truncated episodes and never exceed the all-steps per-step
  // cost, yet recover most of the set (the paper's small −5.6% quality gap
  // rather than a prefix cliff).
  std::vector<std::uint32_t> kept(members.begin(),
                                  members.begin() + static_cast<std::ptrdiff_t>(lo));
  util::BitVec joint = sigs != nullptr ? joint_of(lo) : util::BitVec();
  constraints.clear();
  for (const std::uint32_t m : kept) constraints.push_back(constraint(m));
  // While the oracle's last Sat model meets every kept member it proves any
  // candidate it also meets, exactly like a witness signature. A Sat answer
  // re-establishes that (its constraints are the new kept set); Unsat and
  // Unknown answers leave the model alone.
  bool model_meets_kept =
      std::all_of(constraints.begin(), constraints.end(),
                  [&](const sat::Constraint& c) { return oracle.model_satisfies(c); });
  std::size_t budget = config.eoe_repair_budget;
  for (std::size_t k = lo + 1; k < members.size() && budget > 0; ++k, --budget) {
    const std::uint32_t m = members[k];  // member lo itself broke the prefix
    constraints.push_back(constraint(m));
    bool accepted = false;
    if (sigs != nullptr && joint.intersects((*sigs)[m])) {
      ++witness_hits;
      accepted = true;
      model_meets_kept = model_meets_kept && oracle.model_satisfies(constraints.back());
    } else if (model_meets_kept && oracle.model_satisfies(constraints.back())) {
      ++model_hits;
      accepted = true;
    } else if (solve()) {
      accepted = true;
      model_meets_kept = true;
    }
    if (accepted) {
      if (sigs != nullptr) joint &= (*sigs)[m];
      kept.push_back(m);
    } else {
      constraints.pop_back();
    }
  }
  members = std::move(kept);
}

/// fn(k) for k in [0, n), across `pool` when there is one and n > 1.
void for_each_lane(util::ThreadPool* pool, std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && n > 1)
    pool->parallel_for(n, fn);
  else
    for (std::size_t k = 0; k < n; ++k) fn(k);
}

}  // namespace

CompatibleSetVectorEnv::CompatibleSetVectorEnv(
    const netlist::Netlist& netlist, std::span<const analysis::RareNet> rare_nets,
    const analysis::CompatibilityMatrix& matrix, const EnvConfig& config,
    DistinctSetPool* pool, std::size_t lanes, util::ThreadPool* threads)
    : netlist_(&netlist),
      rare_nets_(rare_nets.begin(), rare_nets.end()),
      matrix_(&matrix),
      config_(config),
      pool_(pool),
      viable_mask_(rare_nets.size()),
      threads_(threads) {
  DETERRENT_ASSERT(lanes >= 1, "CompatibleSetVectorEnv needs at least one lane");
  DETERRENT_ASSERT(matrix.size() == rare_nets_.size(),
                   "compatibility matrix / rare net size mismatch");
  DETERRENT_ASSERT(config_.witness_signatures == nullptr ||
                       config_.witness_signatures->size() == rare_nets_.size(),
                   "witness signature count / rare net count mismatch");
  max_steps_ = config_.max_steps != 0
                   ? config_.max_steps
                   : std::min<std::size_t>(rare_nets_.size(), 128);
  // Episodes start from a rare net whose singleton is satisfiable (§3.1),
  // and even unmasked agents may only pick nets that some pattern activates.
  for (std::uint32_t i = 0; i < rare_nets_.size(); ++i)
    if (matrix.singleton_satisfiable(i)) {
      viable_starts_.push_back(i);
      viable_mask_.set(i);
    }
  lanes_.resize(lanes);
  for (auto& lane : lanes_) {
    lane.state = util::BitVec(rare_nets_.size());
    lane.mask = util::BitVec(rare_nets_.size());
    lane.obs.assign(rare_nets_.size(), 0.0f);
  }
  oracles_.resize(lanes);
}

float CompatibleSetVectorEnv::size_reward(std::size_t set_size) const {
  if (config_.reward_exponent == 2.0) {
    const auto s = static_cast<float>(set_size);
    return s * s;
  }
  return static_cast<float>(
      std::pow(static_cast<double>(set_size), config_.reward_exponent));
}

sat::NetlistOracle& CompatibleSetVectorEnv::lane_oracle(std::size_t lane) {
  auto& oracle = oracles_[lane];
  if (!oracle) {
    oracle = std::make_unique<sat::NetlistOracle>(*netlist_);
    // Same verdicts, cheaper Sat answers; a model only ever serves as a
    // proof (verify_episode), so no reward or member depends on which one.
    oracle->branch_on_inputs();
  }
  return *oracle;
}

void CompatibleSetVectorEnv::rebuild_observation(Lane& lane) {
  std::fill(lane.obs.begin(), lane.obs.end(), 0.0f);
  for (const std::uint32_t m : lane.members) lane.obs[m] = 1.0f;
}

void CompatibleSetVectorEnv::reset_lane(std::size_t l, util::Rng& rng) {
  DETERRENT_ASSERT(l < lanes_.size(), "CompatibleSetVectorEnv lane out of range");
  Lane& lane = lanes_[l];
  lane.state.clear_all();
  lane.members.clear();
  lane.steps = 0;
  lane.open = true;
  lane.done = false;
  lane.reward = 0.0f;

  DETERRENT_ASSERT(!viable_starts_.empty(),
                   "no satisfiable rare net to start an episode");
  const std::uint32_t start = viable_starts_[rng.below(viable_starts_.size())];
  lane.state.set(start);
  lane.members.push_back(start);
  if (config_.witness_signatures != nullptr)
    lane.witness = (*config_.witness_signatures)[start];

  lane.mask = config_.mask_mode == MaskMode::Pairwise ? matrix_->row(start) : viable_mask_;
  lane.mask.set(start, false);
  rebuild_observation(lane);
}

bool CompatibleSetVectorEnv::pairwise_ok(const Lane& lane,
                                         std::uint32_t action) const {
  for (const std::uint32_t m : lane.members)
    if (!matrix_->compatible(m, action)) return false;
  return true;
}

void CompatibleSetVectorEnv::build_constraints(const Lane& lane,
                                               std::uint32_t extra_action) {
  scratch_constraints_.clear();
  scratch_constraints_.reserve(lane.members.size() + 1);
  for (const std::uint32_t m : lane.members)
    scratch_constraints_.push_back({rare_nets_[m].net, rare_nets_[m].rare_value});
  if (extra_action != static_cast<std::uint32_t>(-1))
    scratch_constraints_.push_back(
        {rare_nets_[extra_action].net, rare_nets_[extra_action].rare_value});
}

bool CompatibleSetVectorEnv::solve_joint(std::size_t lane,
                                         std::span<const sat::Constraint> constraints) {
  return lane_oracle(lane)
      .try_satisfiable(constraints, config_.sat_conflict_budget)
      .value_or(false);
}

void CompatibleSetVectorEnv::verify_lanes(std::span<const std::size_t> ending) {
  // Each lane verifies on its own oracle and scratch and counts into its own
  // slot; the totals are summed afterwards, so nothing shared is written.
  std::vector<std::array<std::uint64_t, 2>> hits(ending.size());  // witness, model
  const auto verify = [&](std::size_t k) {
    Lane& lane = lanes_[ending[k]];
    verify_episode(lane_oracle(ending[k]), rare_nets_, config_, lane.members,
                   lane.verify_scratch, hits[k][0], hits[k][1]);
  };
  for_each_lane(threads_, ending.size(), verify);
  for (const auto& [witness, model] : hits) {
    witness_hits_ += witness;
    model_hits_ += model;
  }
}

void CompatibleSetVectorEnv::finish_lane(std::size_t l) {
  Lane& lane = lanes_[l];
  lane.open = false;
  lane.done = true;
  if (config_.reward_mode == RewardMode::EndOfEpisode) {
    util::BitVec verified(rare_nets_.size());
    for (const std::uint32_t m : lane.members) verified.set(m);
    lane.state = std::move(verified);
    lane.reward = size_reward(lane.members.size());
    if (pool_ != nullptr) pool_->add(lane.state);
    rebuild_observation(lane);
  } else {
    if (pool_ != nullptr) pool_->add(lane.state);
  }
}

void CompatibleSetVectorEnv::step(std::span<const std::uint32_t> actions,
                                  const util::BitVec& active) {
  DETERRENT_ASSERT(actions.size() == lanes_.size() && active.size() == lanes_.size(),
                   "CompatibleSetVectorEnv::step batch size mismatch");

  const auto* sigs = config_.witness_signatures;
  enum class Verdict : std::uint8_t { Reject, Accept, NeedSat };
  // Small fixed-capacity per-step scratch; lanes() is bounded and the arrays
  // reset every call.
  std::vector<Verdict> verdicts(lanes_.size(), Verdict::Reject);
  std::vector<std::size_t> pending;

  // Phase 1 — per-lane screen + whole-word witness sweep across all active
  // lanes (AllSteps only; EndOfEpisode admits on pairwise evidence alone).
  for (std::size_t l = active.find_first(); l < lanes_.size();
       l = active.find_next(l + 1)) {
    Lane& lane = lanes_[l];
    DETERRENT_ASSERT(lane.open && !lane.done,
                     "CompatibleSetVectorEnv::step on a closed lane");
    const std::uint32_t action = actions[l];
    DETERRENT_ASSERT(action < rare_nets_.size(), "action out of range");
    DETERRENT_ASSERT(lane.mask.test(action), "masked action chosen");
    ++lane.steps;

    if (config_.reward_mode == RewardMode::AllSteps) {
      const bool screen_ok =
          (config_.mask_mode == MaskMode::Pairwise || pairwise_ok(lane, action)) &&
          !lane.state.test(action);
      if (!screen_ok) {
        verdicts[l] = Verdict::Reject;
      } else if (sigs != nullptr &&
                 lane.witness.intersects((*sigs)[action])) {
        ++witness_hits_;
        verdicts[l] = Verdict::Accept;
      } else {
        verdicts[l] = Verdict::NeedSat;
        pending.push_back(l);
      }
    } else {
      verdicts[l] = !lane.state.test(action) && pairwise_ok(lane, action)
                        ? Verdict::Accept
                        : Verdict::Reject;
    }
  }

  // Phase 2 — batched SAT dispatch for the witness misses. Constraints are
  // staged sequentially (scratch_constraints_ is shared), then each pending
  // lane solves on its private oracle, which sees only that lane's queries,
  // so the verdicts are bit-identical whether the lanes run sequentially or
  // across the pool.
  if (!pending.empty()) {
    std::vector<std::vector<sat::Constraint>> staged(pending.size());
    for (std::size_t k = 0; k < pending.size(); ++k) {
      build_constraints(lanes_[pending[k]], actions[pending[k]]);
      staged[k] = scratch_constraints_;
    }
    const auto solve_pending = [&](std::size_t k) {
      const std::size_t l = pending[k];
      verdicts[l] = solve_joint(l, staged[k]) ? Verdict::Accept : Verdict::Reject;
    };
    for_each_lane(threads_, pending.size(), solve_pending);
  }

  // Phase 3 — apply transitions and rewards, and note the lanes that end.
  std::vector<std::size_t> ending;
  for (std::size_t l = active.find_first(); l < lanes_.size();
       l = active.find_next(l + 1)) {
    Lane& lane = lanes_[l];
    const std::uint32_t action = actions[l];
    const bool accepted = verdicts[l] == Verdict::Accept;

    if (accepted) {
      lane.state.set(action);
      lane.members.push_back(action);
      lane.obs[action] = 1.0f;
      if (config_.reward_mode == RewardMode::AllSteps && sigs != nullptr)
        lane.witness &= (*sigs)[action];
      if (config_.mask_mode == MaskMode::Pairwise) lane.mask &= matrix_->row(action);
      lane.mask.set(action, false);
      lane.reward = config_.reward_mode == RewardMode::AllSteps
                        ? size_reward(lane.members.size())
                        : 0.0f;
    } else {
      lane.mask.set(action, false);
      lane.reward = 0.0f;
    }

    const bool out_of_actions = lane.mask.none();
    const bool out_of_steps = lane.steps >= max_steps_;
    if (out_of_actions || out_of_steps) ending.push_back(l);
  }

  // Phase 4 — terminations: verification (EndOfEpisode) across the lanes that
  // end together, then pool additions and terminal rewards in lane order.
  if (config_.reward_mode == RewardMode::EndOfEpisode) verify_lanes(ending);
  for (const std::size_t l : ending) finish_lane(l);
}

std::span<const float> CompatibleSetVectorEnv::observation(std::size_t lane) const {
  return lanes_[lane].obs;
}

const util::BitVec& CompatibleSetVectorEnv::action_mask(std::size_t lane) const {
  return lanes_[lane].mask;
}

float CompatibleSetVectorEnv::reward(std::size_t lane) const {
  return lanes_[lane].reward;
}

bool CompatibleSetVectorEnv::done(std::size_t lane) const {
  return lanes_[lane].done;
}

std::span<const std::uint32_t> CompatibleSetVectorEnv::members(
    std::size_t lane) const {
  return lanes_[lane].members;
}

std::uint64_t CompatibleSetVectorEnv::sat_queries() const {
  std::uint64_t total = 0;
  for (const auto& oracle : oracles_)
    if (oracle) total += oracle->query_count();
  return total;
}

CompatibleSetEnv::CompatibleSetEnv(const netlist::Netlist& netlist,
                                   std::span<const analysis::RareNet> rare_nets,
                                   const analysis::CompatibilityMatrix& matrix,
                                   const EnvConfig& config, DistinctSetPool* pool)
    : lane_(netlist, rare_nets, matrix, config, pool, 1), active_(1) {
  active_.set(0);
}

std::vector<float> CompatibleSetEnv::reset(util::Rng& rng) {
  lane_.reset_lane(0, rng);
  const auto obs = lane_.observation(0);
  return {obs.begin(), obs.end()};
}

rl::StepResult CompatibleSetEnv::step(std::uint32_t action) {
  lane_.step(std::span<const std::uint32_t>(&action, 1), active_);
  const auto obs = lane_.observation(0);
  return {{obs.begin(), obs.end()}, lane_.reward(0), lane_.done(0)};
}

}  // namespace deterrent::core
