#pragma once

#include <memory>
#include <vector>

#include "analysis/compatibility.hpp"
#include "analysis/rare_nets.hpp"
#include "core/set_pool.hpp"
#include "rl/env.hpp"
#include "sat/oracle.hpp"
#include "util/thread_pool.hpp"

namespace deterrent::core {

/// When the agent learns about compatibility (§3.2, Table 1).
enum class RewardMode {
  /// SAT-verify each chosen action against the current set and pay
  /// |s_{t+1}|² immediately — the basic formulation of §3.1.
  AllSteps,
  /// Trust the pairwise mask during the episode and verify once at the end,
  /// paying |longest satisfiable prefix|² as a terminal reward — the ≈86×
  /// faster variant of §3.2.
  EndOfEpisode,
};

/// Whether invalid actions are hidden from the agent (§3.3, Figure 2).
enum class MaskMode {
  /// Only actions pairwise-compatible with every member of the current set
  /// (and not already members) are selectable.
  Pairwise,
  /// All non-member actions stay selectable; incompatible choices waste the
  /// step (reward 0, state unchanged) — the inefficiency §3.3 eliminates.
  None,
};

struct EnvConfig {
  RewardMode reward_mode = RewardMode::AllSteps;
  MaskMode mask_mode = MaskMode::Pairwise;
  /// Episode step cap T. 0 ⇒ min(#rare nets, 128).
  std::size_t max_steps = 0;
  /// Conflict budget per SAT compatibility check (<0 = unlimited). Exhausted
  /// budget counts as incompatible — conservative, never unsound.
  std::int64_t sat_conflict_budget = 100000;
  /// Reward = |s_{t+1}|^reward_exponent on compatible growth. The paper uses
  /// 2 and notes any power > 1 works (the reward must be convex in |s| so
  /// that harder-won late additions pay more); the ablation bench sweeps it.
  double reward_exponent = 2.0;
  /// EndOfEpisode only: after the longest-satisfiable-prefix search, retry at
  /// most this many of the optimistically admitted members one by one
  /// (greedy repair). SIZE_MAX = repair everything (quality-first, the
  /// default); 0 = pure prefix truncation (the literal §3.2 scheme, cheapest).
  std::size_t eoe_repair_budget = static_cast<std::size_t>(-1);
  /// Optional per-rare-net simulation witness signatures (bit p set when
  /// random pattern p drove rare net i to its rare value), as produced by
  /// analysis::rare_activation_signatures / build_compatibility. When set, a
  /// non-empty intersection of member signatures is a constructive proof of
  /// joint satisfiability, so the env skips the SAT call — the offline
  /// simulation pre-filter of §3.3 applied inside the reward loop. A witness
  /// implies SAT-satisfiability, so as long as the oracle's conflict budget
  /// never trips, rewards and transitions are unchanged and only the SAT
  /// query count drops. When a budgeted SAT call *would* have timed out
  /// (conservatively rejecting a satisfiable set), the witness instead
  /// accepts it — a strictly sounder answer, but one that can differ from
  /// the witness-free env. Must outlive the env; one signature per rare net,
  /// all of equal pattern length.
  /// EndOfEpisode repair also accepts, without this table, a candidate the
  /// oracle's last Sat model proves (model_hits()). Answers, rewards, the
  /// pool and parameters are unchanged; sat_queries() (and so
  /// StageControl::sat_query_budget) depends on the oracle's history (lane
  /// count, resume); a PolicyArtifact differs only in history sat_queries
  /// and wall times.
  const std::vector<util::BitVec>* witness_signatures = nullptr;
  /// Not read. Kept only because the config block serializes it and the
  /// frozen end-to-end benchmark assigns it (docs/architecture.md); the
  /// lanes' SAT work runs on the pool passed to CompatibleSetVectorEnv.
  std::size_t sat_dispatch_threads = 0;
};

/// The DETERRENT Markov decision process (§3.1), as a lock-step batch of N
/// lanes (vectorized environments, §4.1):
///   state   — current set of compatible rare nets (observation: 0/1 vector)
///   action  — index of a rare net to add
///   reward  — |s_{t+1}|² when the addition keeps the set compatible, else 0
///
/// The lanes share one copy of the rare nets, compatibility matrix, witness
/// signatures and DistinctSetPool. Per step() they run in three phases: a
/// per-lane screen (membership + pairwise matrix), a whole-word witness sweep
/// (`util::BitVec` AND / intersect over the shared signature table — one
/// pass across all active lanes), and a batched SAT dispatch for the lanes
/// the witness could not answer. Episode-final sets are reported to the pool
/// (the verified set only, so every pooled set is realizable by a single
/// test pattern).
///
/// Determinism contract: lane l's trajectory depends only on the RNG stream
/// reset_lane() fed it and the actions applied to it. Each lane owns a
/// private, lazily-built oracle that sees only that lane's queries and
/// branches on the primary inputs only (NetlistOracle::branch_on_inputs:
/// same verdicts; its Sat models serve only as proofs), so an
/// N-lane env matches N one-lane envs fed the same streams and actions, with
/// or without a thread pool, even where a conflict-budget-exhausted Unknown
/// decides a verdict. The pool is a content-keyed set, so interleaved lane
/// completion order cannot leak into artifacts. Answers, rewards, the pool
/// and parameters never depend on which episodes a lane ran; sat_queries()
/// does, because repair answers from the lane oracle's last Sat model (see
/// EnvConfig::witness_signatures). tests/reference_env.hpp re-implements the
/// MDP independently (fresh root-level queries only) as the differential
/// reference.
class CompatibleSetVectorEnv final : public rl::VectorEnv {
 public:
  /// `threads` (optional, must outlive the env) runs the SAT work of lanes
  /// that need it in the same step() concurrently, each lane on its private
  /// oracle: an AllSteps step's pending checks, and the EndOfEpisode
  /// verification of lanes that finish together. Pool additions and rewards
  /// stay in lane order.
  CompatibleSetVectorEnv(const netlist::Netlist& netlist,
                         std::span<const analysis::RareNet> rare_nets,
                         const analysis::CompatibilityMatrix& matrix,
                         const EnvConfig& config, DistinctSetPool* pool,
                         std::size_t lanes, util::ThreadPool* threads = nullptr);

  std::size_t lanes() const override { return lanes_.size(); }
  std::size_t observation_size() const override { return rare_nets_.size(); }
  std::size_t action_count() const override { return rare_nets_.size(); }
  void reset_lane(std::size_t lane, util::Rng& rng) override;
  void step(std::span<const std::uint32_t> actions,
            const util::BitVec& active) override;
  std::span<const float> observation(std::size_t lane) const override;
  const util::BitVec& action_mask(std::size_t lane) const override;
  float reward(std::size_t lane) const override;
  bool done(std::size_t lane) const override;

  /// Members of `lane`'s current set in insertion order.
  std::span<const std::uint32_t> members(std::size_t lane) const;

  /// Total SAT queries across all lanes (Table 1's cost driver). Depends on
  /// the lane oracles' history; see model_hits().
  std::uint64_t sat_queries() const;

  /// Joint-satisfiability checks answered by a simulation witness instead of
  /// a SAT call (0 unless config.witness_signatures is set).
  std::uint64_t witness_hits() const { return witness_hits_; }

  /// EndOfEpisode repair checks answered by a lane oracle's last Sat model
  /// instead of a SAT call. sat_queries() + model_hits() is what a repair
  /// that asked the solver every time would have issued.
  std::uint64_t model_hits() const { return model_hits_; }

 private:
  struct Lane {
    util::BitVec state;                 // membership bitset
    util::BitVec mask;                  // valid actions
    util::BitVec witness;               // running AND of member signatures
    std::vector<std::uint32_t> members; // insertion order
    std::vector<float> obs;             // dense observation, kept incrementally
    std::vector<sat::Constraint> verify_scratch;  // EndOfEpisode verification
    float reward = 0.0f;
    std::size_t steps = 0;
    bool done = true;                   // unfrozen only by reset_lane()
    bool open = false;
  };

  float size_reward(std::size_t set_size) const;
  bool pairwise_ok(const Lane& lane, std::uint32_t action) const;
  sat::NetlistOracle& lane_oracle(std::size_t lane);
  void build_constraints(const Lane& lane, std::uint32_t extra_action);
  /// Answers "are these constraints jointly satisfiable" on the lane's
  /// oracle; exhausted budgets report false (conservative).
  bool solve_joint(std::size_t lane, std::span<const sat::Constraint> constraints);
  /// EndOfEpisode verification of the lanes ending in this step, across the
  /// pool when more than one ends.
  void verify_lanes(std::span<const std::size_t> ending);
  void finish_lane(std::size_t lane);
  void rebuild_observation(Lane& lane);

  const netlist::Netlist* netlist_;
  std::vector<analysis::RareNet> rare_nets_;
  const analysis::CompatibilityMatrix* matrix_;
  EnvConfig config_;
  DistinctSetPool* pool_;
  std::size_t max_steps_ = 0;
  std::vector<std::uint32_t> viable_starts_;  // singleton-satisfiable rare nets
  util::BitVec viable_mask_;                  // the same set as a bitset

  std::vector<Lane> lanes_;
  std::vector<std::unique_ptr<sat::NetlistOracle>> oracles_;  // one per lane, lazy
  util::ThreadPool* threads_ = nullptr;  // optional, see the constructor
  std::vector<sat::Constraint> scratch_constraints_;
  std::uint64_t witness_hits_ = 0;
  std::uint64_t model_hits_ = 0;
};

/// One-lane rl::Env view of CompatibleSetVectorEnv, for callers that run
/// one episode at a time. It holds no MDP logic of its own: reset, step,
/// mask and verification all run in the wrapped env's lane 0.
class CompatibleSetEnv final : public rl::Env {
 public:
  CompatibleSetEnv(const netlist::Netlist& netlist,
                   std::span<const analysis::RareNet> rare_nets,
                   const analysis::CompatibilityMatrix& matrix, const EnvConfig& config,
                   DistinctSetPool* pool);

  std::size_t observation_size() const override { return lane_.observation_size(); }
  std::size_t action_count() const override { return lane_.action_count(); }
  std::vector<float> reset(util::Rng& rng) override;
  rl::StepResult step(std::uint32_t action) override;
  const util::BitVec& action_mask() const override { return lane_.action_mask(0); }

  /// Members of the current set in insertion order.
  std::span<const std::uint32_t> members() const { return lane_.members(0); }
  std::uint64_t sat_queries() const { return lane_.sat_queries(); }
  std::uint64_t witness_hits() const { return lane_.witness_hits(); }
  std::uint64_t model_hits() const { return lane_.model_hits(); }

 private:
  CompatibleSetVectorEnv lane_;
  util::BitVec active_;  // lane 0 set
};

}  // namespace deterrent::core
