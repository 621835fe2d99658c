#include <gtest/gtest.h>

#include "bench_gen/random_circuit.hpp"
#include "core/compatible_set_env.hpp"
#include "core/pipeline.hpp"
#include "core/set_pool.hpp"
#include "util/thread_pool.hpp"

#include "reference_env.hpp"
#include "reference_sim.hpp"

namespace deterrent::core {
namespace {

using analysis::CompatibilityMatrix;
using analysis::RareNet;
using netlist::Netlist;

struct Fixture {
  Netlist netlist;
  std::vector<RareNet> rare;
  CompatibilityMatrix matrix;
};

Fixture make_fixture(std::uint64_t seed, std::size_t gates = 220,
                     double threshold = 0.15) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 16;
  p.n_outputs = 8;
  p.n_gates = gates;
  p.seed = seed;
  Fixture f{bench_gen::generate_random_circuit(p), {}, {}};
  util::Rng rng(seed * 3 + 1);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = threshold;
  rcfg.sim_patterns = 1 << 13;
  f.rare = analysis::find_rare_nets(f.netlist, rcfg, rng);
  f.matrix = analysis::build_compatibility(f.netlist, f.rare, {}, rng);
  return f;
}

// ------------------------------------------------------------ set pool -----

TEST(SetPool, DeduplicatesAndTracksMax) {
  DistinctSetPool pool;
  util::BitVec a(10);
  a.set(1);
  a.set(2);
  util::BitVec b(10);
  b.set(3);
  pool.add(a);
  pool.add(a);  // duplicate
  pool.add(b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.max_set_size(), 2u);
}

TEST(SetPool, IgnoresEmptySets) {
  DistinctSetPool pool;
  pool.add(util::BitVec(10));
  EXPECT_EQ(pool.size(), 0u);
}

TEST(SetPool, KLargestOrdering) {
  DistinctSetPool pool;
  for (std::size_t size : {1u, 4u, 2u, 5u, 3u}) {
    util::BitVec bv(16);
    for (std::size_t i = 0; i < size; ++i) bv.set(i + size);  // distinct contents
    pool.add(bv);
  }
  const auto top3 = pool.k_largest(3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].count(), 5u);
  EXPECT_EQ(top3[1].count(), 4u);
  EXPECT_EQ(top3[2].count(), 3u);
  EXPECT_EQ(pool.k_largest(100).size(), 5u);
}

TEST(SetPool, ThreadSafeAdds) {
  DistinctSetPool pool;
  util::ThreadPool threads(4);
  threads.parallel_for(400, [&pool](std::size_t i) {
    util::BitVec bv(64);
    bv.set(i % 64);
    pool.add(bv);
  });
  EXPECT_EQ(pool.size(), 64u);
}

// ------------------------------------------------------ env transitions ----

TEST(Env, ResetGivesSingletonObservation) {
  const Fixture f = make_fixture(31);
  if (f.rare.size() < 4) GTEST_SKIP();
  CompatibleSetEnv env(f.netlist, f.rare, f.matrix, {}, nullptr);
  util::Rng rng(1);
  const auto obs = env.reset(rng);
  EXPECT_EQ(obs.size(), f.rare.size());
  EXPECT_EQ(env.members().size(), 1u);
  std::size_t ones = 0;
  for (const float v : obs) ones += v == 1.0f;
  EXPECT_EQ(ones, 1u);
}

TEST(Env, MaskExcludesMembersAndIncompatibles) {
  const Fixture f = make_fixture(32);
  if (f.rare.size() < 4) GTEST_SKIP();
  CompatibleSetEnv env(f.netlist, f.rare, f.matrix, {}, nullptr);
  util::Rng rng(2);
  env.reset(rng);
  const std::uint32_t start = env.members()[0];
  const auto& mask = env.action_mask();
  EXPECT_FALSE(mask.test(start));
  for (std::size_t a = 0; a < f.rare.size(); ++a)
    if (mask.test(a))
      EXPECT_TRUE(f.matrix.compatible(start, static_cast<std::uint32_t>(a)));
}

TEST(Env, AllStepsRewardIsSquaredSize) {
  const Fixture f = make_fixture(33);
  if (f.rare.size() < 4) GTEST_SKIP();
  EnvConfig cfg;
  cfg.reward_mode = RewardMode::AllSteps;
  CompatibleSetEnv env(f.netlist, f.rare, f.matrix, cfg, nullptr);
  util::Rng rng(3);
  env.reset(rng);
  float expected_sq = 4.0f;  // |s|=2 after first accepted action
  while (true) {
    const auto& mask = env.action_mask();
    if (mask.none()) break;
    const auto action = static_cast<std::uint32_t>(mask.find_first());
    const std::size_t before = env.members().size();
    const auto step = env.step(action);
    if (env.members().size() > before) {
      EXPECT_EQ(step.reward, expected_sq);
      const float next = static_cast<float>(env.members().size() + 1);
      expected_sq = next * next;
    } else {
      EXPECT_EQ(step.reward, 0.0f);
    }
    if (step.done) break;
  }
}

TEST(Env, AllStepsMembersAlwaysJointlySatisfiable) {
  const Fixture f = make_fixture(34);
  if (f.rare.size() < 4) GTEST_SKIP();
  CompatibleSetEnv env(f.netlist, f.rare, f.matrix, {}, nullptr);
  sat::NetlistOracle oracle(f.netlist);
  util::Rng rng(4);
  for (int episode = 0; episode < 5; ++episode) {
    env.reset(rng);
    while (true) {
      const auto& mask = env.action_mask();
      if (mask.none()) break;
      // pick a random allowed action
      const auto indices = mask.to_indices();
      const auto action = indices[rng.below(indices.size())];
      const auto step = env.step(action);
      std::vector<sat::Constraint> cs;
      for (const auto m : env.members()) cs.push_back({f.rare[m].net, f.rare[m].rare_value});
      ASSERT_TRUE(oracle.satisfiable(cs)) << "episode " << episode;
      if (step.done) break;
    }
  }
}

TEST(Env, EpisodeEndsWhenMaskExhaustedOrMaxSteps) {
  const Fixture f = make_fixture(35);
  if (f.rare.size() < 4) GTEST_SKIP();
  EnvConfig cfg;
  cfg.max_steps = 3;
  CompatibleSetEnv env(f.netlist, f.rare, f.matrix, cfg, nullptr);
  util::Rng rng(5);
  env.reset(rng);
  int steps = 0;
  bool done = false;
  while (!done && steps < 100) {
    const auto& mask = env.action_mask();
    if (mask.none()) break;
    done = env.step(static_cast<std::uint32_t>(mask.find_first())).done;
    ++steps;
  }
  EXPECT_TRUE(done || steps <= 3);
  EXPECT_LE(steps, 3);
}

TEST(Env, FinalSetsLandInPool) {
  const Fixture f = make_fixture(36);
  if (f.rare.size() < 4) GTEST_SKIP();
  DistinctSetPool pool;
  CompatibleSetEnv env(f.netlist, f.rare, f.matrix, {}, &pool);
  util::Rng rng(6);
  for (int e = 0; e < 3; ++e) {
    env.reset(rng);
    while (true) {
      const auto& mask = env.action_mask();
      if (mask.none()) break;
      if (env.step(static_cast<std::uint32_t>(mask.find_first())).done) break;
    }
  }
  EXPECT_GT(pool.size(), 0u);
  EXPECT_GE(pool.max_set_size(), 1u);
}

TEST(Env, EndOfEpisodeRewardOnlyAtTerminal) {
  const Fixture f = make_fixture(37);
  if (f.rare.size() < 4) GTEST_SKIP();
  EnvConfig cfg;
  cfg.reward_mode = RewardMode::EndOfEpisode;
  DistinctSetPool pool;
  CompatibleSetEnv env(f.netlist, f.rare, f.matrix, cfg, &pool);
  sat::NetlistOracle oracle(f.netlist);
  util::Rng rng(7);
  env.reset(rng);
  float final_reward = 0.0f;
  while (true) {
    const auto& mask = env.action_mask();
    if (mask.none()) break;
    const auto step = env.step(static_cast<std::uint32_t>(mask.find_first()));
    if (!step.done) {
      EXPECT_EQ(step.reward, 0.0f);
    } else {
      final_reward = step.reward;
      break;
    }
  }
  const auto n = static_cast<float>(env.members().size());
  EXPECT_EQ(final_reward, n * n);
  // The verified prefix must be jointly satisfiable.
  std::vector<sat::Constraint> cs;
  for (const auto m : env.members()) cs.push_back({f.rare[m].net, f.rare[m].rare_value});
  EXPECT_TRUE(oracle.satisfiable(cs));
}

TEST(Env, EndOfEpisodeUsesFarFewerSatQueries) {
  const Fixture f = make_fixture(38, 300);
  if (f.rare.size() < 8) GTEST_SKIP();
  EnvConfig all_steps;
  all_steps.reward_mode = RewardMode::AllSteps;
  EnvConfig eoe;
  eoe.reward_mode = RewardMode::EndOfEpisode;
  CompatibleSetEnv env_all(f.netlist, f.rare, f.matrix, all_steps, nullptr);
  CompatibleSetEnv env_eoe(f.netlist, f.rare, f.matrix, eoe, nullptr);

  auto run = [](CompatibleSetEnv& env, util::Rng& rng) {
    for (int e = 0; e < 3; ++e) {
      env.reset(rng);
      while (true) {
        const auto& mask = env.action_mask();
        if (mask.none()) break;
        if (env.step(static_cast<std::uint32_t>(mask.find_first())).done) break;
      }
    }
  };
  util::Rng rng1(8);
  util::Rng rng2(8);
  run(env_all, rng1);
  run(env_eoe, rng2);
  EXPECT_LT(env_eoe.sat_queries(), env_all.sat_queries())
      << "end-of-episode mode must issue fewer SAT calls (Table 1's point)";
}

/// The simulation-witness shortcut (phase-1 signatures answering joint
/// satisfiability checks) must leave every observable — rewards, members,
/// terminal states — bit-identical, and only reduce SAT traffic. (Exact
/// equivalence assumes the SAT conflict budget never trips, which holds on
/// these small fixtures; see EnvConfig::witness_signatures.)
TEST(Env, WitnessSignaturesPreserveResultsAndCutSatQueries) {
  const Fixture f = make_fixture(40, 300);
  if (f.rare.size() < 8) GTEST_SKIP();
  util::Rng sig_rng(40 * 3 + 1);
  const auto signatures =
      analysis::rare_activation_signatures(f.netlist, f.rare, 1 << 13, sig_rng);

  for (const RewardMode mode : {RewardMode::AllSteps, RewardMode::EndOfEpisode}) {
    EnvConfig plain;
    plain.reward_mode = mode;
    EnvConfig witnessed = plain;
    witnessed.witness_signatures = &signatures;
    CompatibleSetEnv env_plain(f.netlist, f.rare, f.matrix, plain, nullptr);
    CompatibleSetEnv env_wit(f.netlist, f.rare, f.matrix, witnessed, nullptr);

    util::Rng rng1(9);
    util::Rng rng2(9);
    for (int e = 0; e < 3; ++e) {
      ASSERT_EQ(env_plain.reset(rng1), env_wit.reset(rng2));
      while (true) {
        const auto& mask = env_plain.action_mask();
        ASSERT_EQ(mask, env_wit.action_mask());
        if (mask.none()) break;
        const auto action = static_cast<std::uint32_t>(mask.find_first());
        const auto step_plain = env_plain.step(action);
        const auto step_wit = env_wit.step(action);
        ASSERT_EQ(step_plain.reward, step_wit.reward);
        ASSERT_EQ(step_plain.done, step_wit.done);
        ASSERT_EQ(step_plain.observation, step_wit.observation);
        if (step_plain.done) break;
      }
      ASSERT_EQ(std::vector<std::uint32_t>(env_plain.members().begin(),
                                           env_plain.members().end()),
                std::vector<std::uint32_t>(env_wit.members().begin(),
                                           env_wit.members().end()));
    }
    EXPECT_LE(env_wit.sat_queries(), env_plain.sat_queries());
    EXPECT_GT(env_wit.witness_hits(), 0u)
        << "witness shortcut never fired in mode " << static_cast<int>(mode);
  }
}

/// The env's incremental verification (retained assumption prefix, answers
/// from the last Sat model) must keep every episode's members and reward,
/// and every model hit must stand for exactly one query the fresh-query
/// reference makes.
TEST(Env, IncrementalRepairMatchesAFreshQueryReference) {
  std::uint64_t model_hits = 0;
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    const Fixture f = make_fixture(seed, 300);
    if (f.rare.size() < 8) continue;
    util::Rng sig_rng(seed * 3 + 1);
    const auto signatures =
        analysis::rare_activation_signatures(f.netlist, f.rare, 1 << 10, sig_rng);
    for (const bool with_sigs : {false, true}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " signatures " << with_sigs);
      EnvConfig cfg;
      cfg.reward_mode = RewardMode::EndOfEpisode;
      if (with_sigs) cfg.witness_signatures = &signatures;
      CompatibleSetEnv env(f.netlist, f.rare, f.matrix, cfg, nullptr);
      ReferenceEnv ref(f.netlist, f.rare, f.matrix, cfg, nullptr);

      util::Rng rng(seed + 5);
      for (int episode = 0; episode < 16; ++episode) {
        util::Rng ref_rng = rng;
        ASSERT_EQ(env.reset(rng), ref.reset(ref_rng)) << "episode " << episode;
        rl::StepResult step;
        while (!step.done && !env.action_mask().none()) {
          ASSERT_EQ(env.action_mask(), ref.action_mask()) << "episode " << episode;
          const auto indices = env.action_mask().to_indices();
          const auto action = static_cast<std::uint32_t>(indices[rng.below(indices.size())]);
          step = env.step(action);
          const auto ref_step = ref.step(action);
          ASSERT_EQ(step.reward, ref_step.reward) << "episode " << episode;
          ASSERT_EQ(step.done, ref_step.done) << "episode " << episode;
          ASSERT_EQ(step.observation, ref_step.observation) << "episode " << episode;
        }
        if (!step.done) continue;  // started with an empty mask: nothing verified
        ASSERT_EQ(std::vector<std::uint32_t>(env.members().begin(), env.members().end()),
                  std::vector<std::uint32_t>(ref.members().begin(), ref.members().end()))
            << "episode " << episode;
        const auto n = static_cast<float>(env.members().size());
        ASSERT_EQ(step.reward, n * n) << "episode " << episode;
        ASSERT_EQ(env.sat_queries() + env.model_hits(), ref.sat_queries())
            << "episode " << episode;
        ASSERT_EQ(env.witness_hits(), ref.witness_hits()) << "episode " << episode;
      }
      model_hits += env.model_hits();
    }
  }
  EXPECT_GT(model_hits, 0u) << "no repair check was answered by a Sat model";
}

/// Theorem 3.1 as an executable property: every action accepted by an
/// unmasked agent is available to (and accepted by) the masked agent from
/// the same start state.
TEST(Env, MaskingTheorem) {
  const Fixture f = make_fixture(39, 260);
  if (f.rare.size() < 6) GTEST_SKIP();
  EnvConfig unmasked;
  unmasked.mask_mode = MaskMode::None;
  EnvConfig masked;
  masked.mask_mode = MaskMode::Pairwise;

  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    CompatibleSetEnv env_u(f.netlist, f.rare, f.matrix, unmasked, nullptr);
    CompatibleSetEnv env_m(f.netlist, f.rare, f.matrix, masked, nullptr);
    util::Rng rng_u(seed);
    util::Rng rng_m(seed);  // same start net
    env_u.reset(rng_u);
    env_m.reset(rng_m);
    ASSERT_EQ(env_u.members()[0], env_m.members()[0]);

    util::Rng action_rng(seed + 100);
    std::vector<std::uint32_t> accepted;
    while (true) {
      const auto& mask = env_u.action_mask();
      if (mask.none()) break;
      const auto indices = mask.to_indices();
      const auto action = indices[action_rng.below(indices.size())];
      const std::size_t before = env_u.members().size();
      const auto step = env_u.step(action);
      if (env_u.members().size() > before) accepted.push_back(action);
      if (step.done) break;
    }
    // Replay the accepted actions on the masked agent.
    for (const auto action : accepted) {
      ASSERT_TRUE(env_m.action_mask().test(action))
          << "mask hides an action the unmasked agent validly took";
      const std::size_t before = env_m.members().size();
      env_m.step(action);
      ASSERT_EQ(env_m.members().size(), before + 1);
    }
    EXPECT_EQ(env_m.members().size(), env_u.members().size());
  }
}

// ------------------------------------------------------- pipeline ----------

TEST(Pipeline, RejectsSequentialNetlist) {
  netlist::NetlistBuilder b;
  const auto a = b.add_input();
  b.mark_output(b.add_dff(a));
  const Netlist nl = b.build();
  EXPECT_THROW(Pipeline(nl, {}), Error);
}

TEST(Pipeline, ExtractedPatternsRealizeTheirSets) {
  const Fixture f = make_fixture(41, 260);
  if (f.rare.size() < 6) GTEST_SKIP();
  DeterrentConfig cfg;
  cfg.updates = 4;
  cfg.k_patterns = 8;
  cfg.ppo.episodes_per_update = 6;
  cfg.rare.sim_patterns = 1 << 13;
  cfg.seed = 5;
  Pipeline pipeline(f.netlist, cfg);
  ASSERT_EQ(pipeline.run_remaining(), StageStatus::Complete);
  const sim::PatternSet& patterns = pipeline.patterns();
  ASSERT_GT(patterns.pattern_count(), 0u);
  EXPECT_LE(patterns.pattern_count(), cfg.k_patterns);
  ASSERT_EQ(patterns.pattern_count(), pipeline.extracted_sets().size());

  // Each pattern must drive every net of its set to the rare value.
  sim::Simulator sim(f.netlist);
  for (std::size_t k = 0; k < patterns.pattern_count(); ++k) {
    const auto values = sim.simulate_pattern(patterns.pattern(k));
    for (const auto idx : pipeline.extracted_sets()[k].to_indices()) {
      const auto& rn = pipeline.rare_nets()[idx];
      EXPECT_EQ(values[rn.net], rn.rare_value)
          << "pattern " << k << " fails its own set";
    }
  }
}

TEST(Pipeline, TrainingGrowsCompatibleSets) {
  const Fixture f = make_fixture(42, 300);
  if (f.rare.size() < 10) GTEST_SKIP();
  DeterrentConfig cfg;
  cfg.updates = 8;
  cfg.ppo.episodes_per_update = 8;
  cfg.seed = 3;
  Pipeline pipeline(f.netlist, cfg);
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);
  ASSERT_EQ(pipeline.run_compatibility(), StageStatus::Complete);
  ASSERT_EQ(pipeline.run_train(), StageStatus::Complete);
  const auto& history = pipeline.history();
  ASSERT_EQ(history.size(), 8u);
  EXPECT_GT(history.back().max_set_size, 1u);
  EXPECT_GT(history.back().cumulative_steps, history.front().cumulative_steps);
  // The distinct-set pool keeps growing as exploration proceeds. (Mean reward
  // itself is noisy under the boosted-entropy config, so it is not asserted.)
  EXPECT_GT(history.back().pool_size, history.front().pool_size);
  EXPECT_GE(history.back().max_set_size, history.front().max_set_size);
}

TEST(Pipeline, AdoptedRareNetsFeedTheLaterStages) {
  // The Figure 7 cross-threshold mechanism: analysis driven by a caller-
  // supplied rare-net list instead of the rare-net stage.
  const Fixture f = make_fixture(44, 220, 0.2);
  if (f.rare.size() < 6) GTEST_SKIP();
  DeterrentConfig cfg;
  cfg.updates = 2;
  cfg.ppo.episodes_per_update = 4;
  Pipeline pipeline(f.netlist, cfg);
  RareNetArtifact artifact;
  artifact.netlist_fingerprint = pipeline.netlist_fingerprint();
  artifact.threshold = cfg.rare.threshold;
  artifact.seed = cfg.seed;
  artifact.rare_nets = f.rare;
  artifact.rng_state_after = util::Rng(cfg.seed).state();
  pipeline.adopt(std::move(artifact));
  EXPECT_EQ(pipeline.next_stage(), Stage::Compatibility);
  ASSERT_EQ(pipeline.run_compatibility(), StageStatus::Complete);
  EXPECT_EQ(pipeline.rare_nets().size(), f.rare.size());
  ASSERT_EQ(pipeline.run_train(), StageStatus::Complete);
  EXPECT_GT(pipeline.pool().size(), 0u);
}

}  // namespace
}  // namespace deterrent::core
