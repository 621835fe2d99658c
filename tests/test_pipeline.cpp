// Staged-pipeline tests: artifact round trips, corruption handling,
// checkpoint/resume bit-identity against uninterrupted runs, stage control
// (cancellation + budgets), session persistence, and the multi-circuit
// campaign driver.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "bench_gen/library.hpp"
#include "bench_gen/random_circuit.hpp"
#include "core/campaign.hpp"
#include "core/deterrent.hpp"
#include "core/session.hpp"
#include "netlist/stats.hpp"
#include "sim/pattern_io.hpp"
#include "util/logging.hpp"

namespace deterrent::core {
namespace {

namespace fs = std::filesystem;

using netlist::Netlist;

Netlist make_circuit(std::uint64_t seed, std::size_t gates = 220) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 16;
  p.n_outputs = 8;
  p.n_gates = gates;
  p.seed = seed;
  return bench_gen::generate_random_circuit(p);
}

DeterrentConfig quick_config(std::uint64_t seed = 11) {
  DeterrentConfig cfg;
  cfg.rare.threshold = 0.15;
  cfg.rare.sim_patterns = 1 << 12;
  cfg.compat.sim_patterns = 1 << 12;
  cfg.env.reward_mode = RewardMode::EndOfEpisode;
  cfg.updates = 3;
  cfg.k_patterns = 8;
  cfg.seed = seed;
  cfg.ppo.episodes_per_update = 6;
  cfg.offline_threads = 2;
  return cfg;
}

/// Unique scratch directory, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("deterrent_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str(const char* file = nullptr) const {
    return file ? (path / file).string() : path.string();
  }
};

std::string patterns_text(const sim::PatternSet& patterns) {
  return sim::write_patterns_string(patterns);
}

// ------------------------------------------------------- round trips -------

TEST(Artifacts, RareNetRoundTrip) {
  const Netlist nl = make_circuit(31);
  Pipeline pipeline(nl, quick_config());
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);

  TempDir dir("rare_rt");
  const auto exported = pipeline.export_rare_nets();
  exported.save(dir.str("rare.art"));
  const auto loaded =
      RareNetArtifact::load(dir.str("rare.art"), pipeline.netlist_fingerprint());

  EXPECT_EQ(loaded.netlist_fingerprint, pipeline.netlist_fingerprint());
  EXPECT_EQ(loaded.rare_nets, exported.rare_nets);
  EXPECT_EQ(loaded.rng_state_after, exported.rng_state_after);
  EXPECT_EQ(loaded.rare_hash(), exported.rare_hash());
  EXPECT_DOUBLE_EQ(loaded.threshold, exported.threshold);
}

TEST(Artifacts, CompatibilityRoundTrip) {
  const Netlist nl = make_circuit(32);
  Pipeline pipeline(nl, quick_config());
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);
  ASSERT_EQ(pipeline.run_compatibility(), StageStatus::Complete);

  TempDir dir("compat_rt");
  const auto exported = pipeline.export_compatibility();
  exported.save(dir.str("compat.art"));
  const auto loaded = CompatibilityArtifact::load(dir.str("compat.art"));

  ASSERT_EQ(loaded.matrix.size(), exported.matrix.size());
  for (std::uint32_t i = 0; i < exported.matrix.size(); ++i)
    EXPECT_EQ(loaded.matrix.row(i), exported.matrix.row(i)) << "row " << i;
  EXPECT_EQ(loaded.witness_signatures, exported.witness_signatures);
  EXPECT_EQ(loaded.stats.pair_count, exported.stats.pair_count);
  EXPECT_EQ(loaded.stats.sim_resolved, exported.stats.sim_resolved);
  EXPECT_EQ(loaded.stats.sat_sat, exported.stats.sat_sat);
  EXPECT_EQ(loaded.rare_hash, exported.rare_hash);
}

TEST(Artifacts, PolicyRoundTrip) {
  const Netlist nl = make_circuit(33);
  Pipeline pipeline(nl, quick_config());
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);
  ASSERT_EQ(pipeline.run_compatibility(), StageStatus::Complete);
  ASSERT_EQ(pipeline.run_train(2), StageStatus::Complete);

  TempDir dir("policy_rt");
  const auto exported = pipeline.export_policy();
  exported.save(dir.str("policy.art"));
  const auto loaded = PolicyArtifact::load(dir.str("policy.art"));

  EXPECT_EQ(loaded.trainer.policy_params, exported.trainer.policy_params);
  EXPECT_EQ(loaded.trainer.value_params, exported.trainer.value_params);
  EXPECT_EQ(loaded.trainer.policy_opt.m, exported.trainer.policy_opt.m);
  EXPECT_EQ(loaded.trainer.policy_opt.v, exported.trainer.policy_opt.v);
  EXPECT_EQ(loaded.trainer.policy_opt.t, exported.trainer.policy_opt.t);
  EXPECT_EQ(loaded.trainer.rng_states, exported.trainer.rng_states);
  EXPECT_EQ(loaded.trainer.total_steps, exported.trainer.total_steps);
  ASSERT_EQ(loaded.history.size(), exported.history.size());
  for (std::size_t i = 0; i < exported.history.size(); ++i) {
    EXPECT_EQ(loaded.history[i].pool_size, exported.history[i].pool_size);
    EXPECT_EQ(loaded.history[i].sat_queries, exported.history[i].sat_queries);
    EXPECT_DOUBLE_EQ(loaded.history[i].ppo.total_loss, exported.history[i].ppo.total_loss);
  }
  // Pool contents are unordered; compare as sorted set lists.
  auto sort_sets = [](std::vector<util::BitVec> sets) {
    std::sort(sets.begin(), sets.end(), [](const util::BitVec& a, const util::BitVec& b) {
      return a.to_indices() < b.to_indices();
    });
    return sets;
  };
  EXPECT_EQ(sort_sets(loaded.pool_sets), sort_sets(exported.pool_sets));
}

TEST(Artifacts, PatternRoundTrip) {
  const Netlist nl = make_circuit(34);
  Pipeline pipeline(nl, quick_config());
  ASSERT_EQ(pipeline.run_remaining(), StageStatus::Complete);

  TempDir dir("pattern_rt");
  const auto exported = pipeline.export_patterns();
  exported.save(dir.str("patterns.art"));
  const auto loaded = PatternArtifact::load(dir.str("patterns.art"));

  EXPECT_EQ(patterns_text(loaded.patterns), patterns_text(exported.patterns));
  EXPECT_EQ(loaded.extracted_sets, exported.extracted_sets);
}

// --------------------------------------------------- corrupt artifacts -----

TEST(Artifacts, CorruptPayloadFailsLoudly) {
  const Netlist nl = make_circuit(35);
  Pipeline pipeline(nl, quick_config());
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);

  TempDir dir("corrupt");
  const std::string path = dir.str("rare.art");
  pipeline.export_rare_nets().save(path);

  // Flip one payload byte: the CRC must catch it.
  auto bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  ASSERT_GT(bytes.size(), 40u);
  bytes[40] = static_cast<char>(bytes[40] ^ 0x10);
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(RareNetArtifact::load(path), Error);
}

TEST(Artifacts, TruncatedFileFailsLoudly) {
  const Netlist nl = make_circuit(35);
  Pipeline pipeline(nl, quick_config());
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);

  TempDir dir("truncated");
  const std::string path = dir.str("rare.art");
  pipeline.export_rare_nets().save(path);
  fs::resize_file(path, fs::file_size(path) - 5);
  EXPECT_THROW(RareNetArtifact::load(path), Error);
}

TEST(Artifacts, WrongKindAndFingerprintFailLoudly) {
  const Netlist nl = make_circuit(35);
  const Netlist other = make_circuit(36);
  Pipeline pipeline(nl, quick_config());
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);

  TempDir dir("mismatch");
  const std::string path = dir.str("rare.art");
  pipeline.export_rare_nets().save(path);

  // Loading a rare-net file as a pattern artifact must be rejected by kind.
  EXPECT_THROW(PatternArtifact::load(path), Error);
  // Loading against a different circuit must be rejected by fingerprint.
  EXPECT_THROW(RareNetArtifact::load(path, netlist::structural_fingerprint(other)),
               Error);
  EXPECT_NE(netlist::structural_fingerprint(nl), netlist::structural_fingerprint(other));
}

TEST(Artifacts, CrossRunMixingFailsLoudly) {
  // A compatibility artifact built from one rare-net set must not adopt into
  // a pipeline holding different rare nets (same circuit, different seed ⇒
  // different simulation draws can shift the rare list / rng chain).
  const Netlist nl = make_circuit(37);
  Pipeline a(nl, quick_config(1));
  Pipeline b(nl, quick_config(2));
  ASSERT_EQ(a.run_rare_nets(), StageStatus::Complete);
  ASSERT_EQ(a.run_compatibility(), StageStatus::Complete);
  ASSERT_EQ(b.run_rare_nets(), StageStatus::Complete);

  auto compat = a.export_compatibility();
  if (rare_content_hash(b.netlist_fingerprint(), b.rare_nets()) != compat.rare_hash) {
    EXPECT_THROW(b.adopt(std::move(compat)), Error);
  } else {
    GTEST_SKIP() << "seeds produced identical rare-net sets";
  }
}

// ------------------------------------------------- resume bit-identity -----

TEST(Pipeline, StagedRunMatchesMonolithicRun) {
  const Netlist nl = make_circuit(40);
  const DeterrentConfig cfg = quick_config(5);

  // Uninterrupted facade run.
  Deterrent straight(nl, cfg);
  const auto straight_patterns = straight.run();

  // Staged run: a fresh Pipeline per stage, round-tripping every artifact
  // through disk — the strongest simulation of kill + new-process resume.
  TempDir dir("staged");
  {
    Session session(dir.str(), nl);
    auto p = session.resume_with(cfg);
    ASSERT_EQ(p->run_rare_nets(), StageStatus::Complete);
    session.save(*p);
  }
  {
    Session session(dir.str(), nl);
    auto p = session.resume();
    EXPECT_EQ(p->next_stage(), Stage::Compatibility);
    ASSERT_EQ(p->run_compatibility(), StageStatus::Complete);
    session.save(*p);
  }
  {
    Session session(dir.str(), nl);
    auto p = session.resume();
    EXPECT_EQ(p->next_stage(), Stage::Train);
    ASSERT_EQ(p->run_train(), StageStatus::Complete);
    session.save(*p);
  }
  Session session(dir.str(), nl);
  auto p = session.resume();
  EXPECT_EQ(p->next_stage(), Stage::Extract);
  ASSERT_EQ(p->run_extract(), StageStatus::Complete);
  session.save(*p);
  EXPECT_EQ(p->next_stage(), Stage::Done);

  EXPECT_GT(straight_patterns.pattern_count(), 0u);
  EXPECT_EQ(patterns_text(p->patterns()), patterns_text(straight_patterns));
  EXPECT_EQ(p->extracted_sets(), straight.extracted_sets());
  EXPECT_EQ(p->pool().size(), straight.pool().size());
}

TEST(Pipeline, MidTrainingCheckpointResumesBitIdentically) {
  const Netlist nl = make_circuit(41);
  DeterrentConfig cfg = quick_config(6);
  cfg.updates = 5;

  Deterrent straight(nl, cfg);
  const auto straight_patterns = straight.run();

  TempDir dir("midtrain");
  {
    Session session(dir.str(), nl);
    auto p = session.resume_with(cfg);
    ASSERT_EQ(p->run_rare_nets(), StageStatus::Complete);
    ASSERT_EQ(p->run_compatibility(), StageStatus::Complete);
    ASSERT_EQ(p->run_train(2), StageStatus::Complete);  // interrupted at 2/5
    session.save(*p);
  }
  Session session(dir.str(), nl);
  auto p = session.resume();
  EXPECT_EQ(p->history().size(), 2u);
  EXPECT_EQ(p->next_stage(), Stage::Train);
  ASSERT_EQ(p->run_remaining(), StageStatus::Complete);  // 3 more + extract

  EXPECT_EQ(p->history().size(), 5u);
  EXPECT_EQ(patterns_text(p->patterns()), patterns_text(straight_patterns));
  // The training trajectory itself must also be identical.
  const auto& h_resumed = p->history();
  const auto& h_straight = straight.history();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(h_resumed[i].cumulative_steps, h_straight[i].cumulative_steps) << i;
    EXPECT_EQ(h_resumed[i].pool_size, h_straight[i].pool_size) << i;
    EXPECT_DOUBLE_EQ(h_resumed[i].ppo.total_loss, h_straight[i].ppo.total_loss) << i;
  }
}

TEST(Pipeline, MidTrainingCheckpointWithRolloutLanesResumesBitIdentically) {
  // Same kill-and-resume drill as above, but with several rollout lanes:
  // the checkpoint is taken between batched updates and must restore the
  // whole trajectory. Also pins the pipeline-level half of the determinism
  // contract — 4-lane and 1-lane runs must emit identical patterns end to end.
  const Netlist nl = make_circuit(44);
  DeterrentConfig lanes_cfg = quick_config(8);
  lanes_cfg.updates = 5;
  lanes_cfg.ppo.rollout_lanes = 4;

  DeterrentConfig single_cfg = lanes_cfg;
  single_cfg.ppo.rollout_lanes = 1;

  Deterrent straight_lanes(nl, lanes_cfg);
  const auto lanes_patterns = straight_lanes.run();
  Deterrent straight_single(nl, single_cfg);
  const auto single_patterns = straight_single.run();
  EXPECT_EQ(patterns_text(lanes_patterns), patterns_text(single_patterns))
      << "4 rollout lanes and 1 lane diverged end to end";

  TempDir dir("midtrain_lanes");
  {
    Session session(dir.str(), nl);
    auto p = session.resume_with(lanes_cfg);
    ASSERT_EQ(p->run_rare_nets(), StageStatus::Complete);
    ASSERT_EQ(p->run_compatibility(), StageStatus::Complete);
    ASSERT_EQ(p->run_train(2), StageStatus::Complete);  // interrupted at 2/5
    session.save(*p);
  }
  Session session(dir.str(), nl);
  auto p = session.resume();
  EXPECT_EQ(p->history().size(), 2u);
  ASSERT_EQ(p->run_remaining(), StageStatus::Complete);

  EXPECT_EQ(p->history().size(), 5u);
  EXPECT_EQ(patterns_text(p->patterns()), patterns_text(lanes_patterns));
  const auto& h_resumed = p->history();
  const auto& h_straight = straight_lanes.history();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(h_resumed[i].cumulative_steps, h_straight[i].cumulative_steps) << i;
    EXPECT_EQ(h_resumed[i].pool_size, h_straight[i].pool_size) << i;
    EXPECT_DOUBLE_EQ(h_resumed[i].ppo.total_loss, h_straight[i].ppo.total_loss) << i;
  }
}

TEST(Pipeline, LegacyWorkerCountTrainsAsRolloutLanes) {
  // n_workers survives only as an alias of the lane count (the v5 config
  // block still serializes it), so a config saved with n_workers = 4 must
  // emit exactly the patterns of rollout_lanes = 4.
  const Netlist nl = make_circuit(45);
  DeterrentConfig lanes_cfg = quick_config(9);
  lanes_cfg.ppo.rollout_lanes = 4;
  DeterrentConfig legacy_cfg = quick_config(9);
  legacy_cfg.ppo.n_workers = 4;
  legacy_cfg.ppo.rollout_lanes = 1;

  Deterrent lanes(nl, lanes_cfg);
  Deterrent legacy(nl, legacy_cfg);
  const std::string lanes_text = patterns_text(lanes.run());
  EXPECT_FALSE(lanes_text.empty());
  EXPECT_EQ(patterns_text(legacy.run()), lanes_text);
}

TEST(Pipeline, WorkerCountDoesNotChangeTraining) {
  // offline_threads is also the train stage's pool (network passes, loss
  // loop, lane verification): one worker trains serially, and any count must give
  // the same parameters, optimizer state, pool and patterns.
  const Netlist nl = make_circuit(46);
  std::optional<PolicyArtifact> serial;
  std::string serial_text;
  for (const std::size_t threads : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "offline_threads=" << threads);
    DeterrentConfig cfg = quick_config(13);
    cfg.offline_threads = threads;
    cfg.ppo.rollout_lanes = 4;
    cfg.ppo.minibatch_size = 37;
    Pipeline p(nl, cfg);
    ASSERT_EQ(p.run_remaining(), StageStatus::Complete);
    PolicyArtifact policy = p.export_policy();
    const std::string text = patterns_text(p.patterns());
    if (!serial) {
      serial = std::move(policy);
      serial_text = text;
      EXPECT_FALSE(serial_text.empty());
      continue;
    }
    EXPECT_EQ(policy.trainer.policy_params, serial->trainer.policy_params);
    EXPECT_EQ(policy.trainer.value_params, serial->trainer.value_params);
    EXPECT_EQ(policy.trainer.policy_opt.m, serial->trainer.policy_opt.m);
    EXPECT_EQ(policy.trainer.policy_opt.v, serial->trainer.policy_opt.v);
    EXPECT_EQ(policy.trainer.policy_opt.t, serial->trainer.policy_opt.t);
    EXPECT_EQ(policy.trainer.value_opt.m, serial->trainer.value_opt.m);
    EXPECT_EQ(policy.trainer.value_opt.v, serial->trainer.value_opt.v);
    EXPECT_EQ(policy.trainer.value_opt.t, serial->trainer.value_opt.t);
    EXPECT_EQ(policy.pool_sets, serial->pool_sets);
    EXPECT_EQ(text, serial_text);
  }
}

// -------------------------------------------------------- stage control ----

TEST(Pipeline, TrainZeroUpdatesEdgeRunsOneUpdate) {
  // Historically train(0) with config.updates == 0 silently ran nothing;
  // the defined behavior is "use the config default, minimum one update".
  const Netlist nl = make_circuit(42);
  DeterrentConfig cfg = quick_config(7);
  cfg.updates = 0;
  Deterrent det(nl, cfg);
  det.prepare();
  det.train(0);
  EXPECT_EQ(det.history().size(), 1u);
  EXPECT_EQ(det.pipeline().effective_updates(), 1u);
}

TEST(Pipeline, CancellationStopsAtUpdateBoundary) {
  const Netlist nl = make_circuit(43);
  Pipeline pipeline(nl, quick_config(8));
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);
  ASSERT_EQ(pipeline.run_compatibility(), StageStatus::Complete);

  StageControl control;
  std::size_t events = 0;
  control.on_progress = [&](const StageProgress& p) {
    EXPECT_EQ(p.stage, Stage::Train);
    ++events;
    return p.current < 1;  // cancel once one update completed
  };
  EXPECT_EQ(pipeline.run_train(10, control), StageStatus::Cancelled);
  EXPECT_EQ(pipeline.history().size(), 1u);
  EXPECT_GE(events, 2u);

  // The cancelled pipeline remains consistent and can continue training.
  EXPECT_EQ(pipeline.run_train(1), StageStatus::Complete);
  EXPECT_EQ(pipeline.history().size(), 2u);
}

TEST(Pipeline, SatQueryBudgetStopsTraining) {
  const Netlist nl = make_circuit(44);
  DeterrentConfig cfg = quick_config(9);
  // Disable the witness shortcut so training issues real SAT queries.
  cfg.compat.sim_patterns = 0;
  Pipeline pipeline(nl, cfg);
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);
  ASSERT_EQ(pipeline.run_compatibility(), StageStatus::Complete);

  StageControl control;
  control.sat_query_budget = 1;
  EXPECT_EQ(pipeline.run_train(50, control), StageStatus::BudgetExhausted);
  EXPECT_LT(pipeline.history().size(), 50u);
  EXPECT_GE(pipeline.train_sat_queries(), 1u);
}

TEST(Pipeline, WallBudgetStopsTraining) {
  const Netlist nl = make_circuit(45);
  Pipeline pipeline(nl, quick_config(10));
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);
  ASSERT_EQ(pipeline.run_compatibility(), StageStatus::Complete);

  StageControl control;
  control.wall_budget_seconds = 1e-9;  // trips at the first checkpoint
  EXPECT_EQ(pipeline.run_train(50, control), StageStatus::BudgetExhausted);
  EXPECT_LT(pipeline.history().size(), 50u);
}

TEST(Pipeline, StageOrderIsEnforced) {
  const Netlist nl = make_circuit(46);
  Pipeline pipeline(nl, quick_config(11));
  EXPECT_THROW(pipeline.run_compatibility(), Error);
  EXPECT_THROW(pipeline.run_train(1), Error);
  EXPECT_THROW(pipeline.run_extract(), Error);
  EXPECT_THROW(pipeline.export_rare_nets(), Error);

  // Extraction with nothing trained (empty pool) must fail loudly instead of
  // producing an empty pattern artifact that resume would then trust.
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);
  ASSERT_EQ(pipeline.run_compatibility(), StageStatus::Complete);
  EXPECT_THROW(pipeline.run_extract(), Error);
}

// An exhausted SAT conflict budget counts a pair as incompatible, which can
// drop a real edge, so the compatibility stage must say so on stderr.
TEST(Pipeline, CompatTimeoutsAreReportedAsAWarning) {
  const Netlist nl = make_circuit(47);
  DeterrentConfig cfg = quick_config(12);
  cfg.compat.sim_patterns = 1 << 6;     // leave pairs for the solver
  cfg.compat.sat_conflict_budget = 0;   // every SAT query gives up at once
  Pipeline pipeline(nl, cfg);
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);

  const util::LogLevel saved = util::Log::level();
  util::Log::set_level(util::LogLevel::Info);
  ::testing::internal::CaptureStderr();
  const StageStatus status = pipeline.run_compatibility();
  const std::string log = ::testing::internal::GetCapturedStderr();
  util::Log::set_level(saved);

  ASSERT_EQ(status, StageStatus::Complete);
  const std::size_t timeouts = pipeline.compat_stats().timeout_pairs;
  ASSERT_GT(timeouts, 0u);
  EXPECT_NE(log.find(std::to_string(timeouts) + " timed out"), std::string::npos) << log;
  EXPECT_NE(log.find("exhausted the SAT conflict budget"), std::string::npos) << log;
}

TEST(Pipeline, TrainLogReportsEnvCounters) {
  const Netlist nl = make_circuit(47);
  Pipeline pipeline(nl, quick_config(12));
  ASSERT_EQ(pipeline.run_rare_nets(), StageStatus::Complete);
  ASSERT_EQ(pipeline.run_compatibility(), StageStatus::Complete);

  const util::LogLevel saved = util::Log::level();
  util::Log::set_level(util::LogLevel::Info);
  ::testing::internal::CaptureStderr();
  const StageStatus status = pipeline.run_train(2);
  const std::string log = ::testing::internal::GetCapturedStderr();
  util::Log::set_level(saved);

  ASSERT_EQ(status, StageStatus::Complete);
  EXPECT_NE(log.find("env SAT queries " + std::to_string(pipeline.train_sat_queries()) +
                     ", witness hits " + std::to_string(pipeline.train_witness_hits()) +
                     ", model hits " + std::to_string(pipeline.train_model_hits())),
            std::string::npos)
      << log;
}

TEST(Pipeline, TrainingAfterExtractionInvalidatesPatterns) {
  const Netlist nl = make_circuit(47);
  Pipeline pipeline(nl, quick_config(12));
  ASSERT_EQ(pipeline.run_remaining(), StageStatus::Complete);
  ASSERT_TRUE(pipeline.extract_done());
  const std::string first = patterns_text(pipeline.patterns());

  // More training grows the pool, so the old extraction is stale: the
  // pipeline must re-run Extract rather than skip to Done.
  ASSERT_EQ(pipeline.run_train(2), StageStatus::Complete);
  EXPECT_FALSE(pipeline.extract_done());
  EXPECT_THROW(pipeline.export_patterns(), Error);
  EXPECT_EQ(pipeline.next_stage(), Stage::Extract);
  ASSERT_EQ(pipeline.run_remaining(), StageStatus::Complete);
  EXPECT_TRUE(pipeline.extract_done());
  EXPECT_GT(pipeline.patterns().pattern_count(), 0u);
  (void)first;  // contents may or may not change; only the staleness contract matters
}

TEST(Session, TrainingPastAnExtractionDropsTheStalePatternArtifact) {
  // Complete run saved, then more training: the session must not keep the
  // outdated patterns.art, or the next resume would report Done and emit
  // patterns from the smaller pool.
  const Netlist nl = make_circuit(48);
  DeterrentConfig cfg = quick_config(13);
  cfg.updates = 4;

  TempDir dir("stale_patterns");
  Session session(dir.str(), nl);
  {
    auto p = session.resume_with(cfg);
    // Interrupted at 2/4 updates, but patterns already extracted once.
    ASSERT_EQ(p->run_rare_nets(), StageStatus::Complete);
    ASSERT_EQ(p->run_compatibility(), StageStatus::Complete);
    ASSERT_EQ(p->run_train(2), StageStatus::Complete);
    ASSERT_EQ(p->run_extract(), StageStatus::Complete);
    session.save(*p);
    ASSERT_TRUE(session.has_patterns());
    ASSERT_EQ(p->run_train(1), StageStatus::Complete);  // extraction now stale
    session.save(*p);
    EXPECT_FALSE(session.has_patterns());
  }
  auto p = session.resume();
  EXPECT_EQ(p->history().size(), 3u);
  EXPECT_EQ(p->next_stage(), Stage::Train);
  ASSERT_EQ(p->run_remaining(), StageStatus::Complete);

  // And the final result still matches an uninterrupted run.
  Deterrent straight(nl, cfg);
  EXPECT_EQ(patterns_text(p->patterns()), patterns_text(straight.run()));
}

TEST(Serialize, ForgedLengthPrefixesThrowInsteadOfAllocating) {
  // A CRC-valid payload whose element counts exceed the bytes present must
  // throw Error (the loud-failure contract), not bad_alloc/length_error.
  {
    util::BinaryWriter w;
    w.u64(std::uint64_t{1} << 40);  // bitvec claiming 2^40 bits, no words
    util::BinaryReader r(w.bytes());
    EXPECT_THROW(r.bitvec(), Error);
  }
  {
    util::BinaryWriter w;
    w.u64(std::uint64_t{1} << 62);  // f32 count whose byte size wraps 2^64
    util::BinaryReader r(w.bytes());
    EXPECT_THROW(r.f32_vec(), Error);
  }
  {
    util::BinaryWriter w;
    w.u64(~std::uint64_t{0});  // string length near 2^64: pos + n overflows
    util::BinaryReader r(w.bytes());
    EXPECT_THROW(r.str(), Error);
  }
  {
    // A bare envelope whose payload_size field is forged to ~2^64 so that
    // `payload_size + 4` wraps: the loader must throw Error, not build a
    // vector from an inverted iterator range.
    TempDir dir("forged_env");
    util::BinaryWriter w;
    for (const char m : {'D', 'E', 'T', 'A'}) w.u8(static_cast<std::uint8_t>(m));
    w.u32(static_cast<std::uint32_t>(ArtifactKind::RareNets));
    w.u32(kArtifactFormatVersion);
    w.u64(123);                          // fingerprint
    w.u64(~std::uint64_t{0} - 3);        // payload_size = 2^64 - 4
    std::ofstream out(dir.str("forged.art"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(w.bytes().data()),
              static_cast<std::streamsize>(w.bytes().size()));
    out.close();
    EXPECT_THROW(RareNetArtifact::load(dir.str("forged.art")), Error);
  }
}

// ------------------------------------------------------------ campaign -----

TEST(Campaign, RunsLibraryCircuitsConcurrentlyAndAggregates) {
  const auto b1 = bench_gen::load_benchmark("c2670_like");
  const auto b2 = bench_gen::load_benchmark("c6288_like");
  const auto b3 = bench_gen::load_benchmark("c5315_like");

  TempDir dir("campaign");
  CampaignConfig cfg;
  cfg.base = quick_config(3);
  cfg.base.rare.threshold = 0.1;
  cfg.base.rare.sim_patterns = 1 << 14;
  cfg.base.compat.sim_patterns = 1 << 13;
  cfg.base.updates = 2;
  cfg.base.offline_threads = 1;
  cfg.threads = 3;
  cfg.session_root = dir.str();

  Campaign campaign(cfg);
  campaign.add(b1.name, b1.scan.comb);
  campaign.add(b2.name, b2.scan.comb);
  campaign.add(b3.name, b3.scan.comb);

  const auto report = campaign.run();
  ASSERT_EQ(report.circuits.size(), 3u);
  EXPECT_EQ(report.completed, 3u);
  for (const auto& row : report.circuits) {
    EXPECT_TRUE(row.ok) << row.name << ": " << row.error;
    EXPECT_GT(row.rare_nets, 0u) << row.name;
    EXPECT_GT(row.patterns, 0u) << row.name;
  }
  EXPECT_EQ(report.total_patterns,
            report.circuits[0].patterns + report.circuits[1].patterns +
                report.circuits[2].patterns);
  const std::string table = report.to_table();
  EXPECT_NE(table.find("c2670_like"), std::string::npos);
  EXPECT_NE(table.find("3/3"), std::string::npos);

  // Re-running resumes every circuit from its session artifacts: identical
  // pattern counts, no retraining (pool/SAT stats come from the artifacts).
  Campaign again(cfg);
  again.add(b1.name, b1.scan.comb);
  again.add(b2.name, b2.scan.comb);
  again.add(b3.name, b3.scan.comb);
  const auto resumed = again.run();
  EXPECT_EQ(resumed.completed, 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(resumed.circuits[i].patterns, report.circuits[i].patterns);
    EXPECT_EQ(resumed.circuits[i].sat_queries, report.circuits[i].sat_queries);
  }
}

TEST(Campaign, SharedCancellationStopsAllCircuits) {
  const Netlist n1 = make_circuit(50);
  const Netlist n2 = make_circuit(51);
  CampaignConfig cfg;
  cfg.base = quick_config(4);
  cfg.base.updates = 50;  // far more than the cancel point allows
  cfg.threads = 2;
  Campaign campaign(cfg);
  campaign.add("a", n1);
  campaign.add("b", n2);

  StageControl control;
  std::atomic<int> train_events{0};
  control.on_progress = [&](const StageProgress& p) {
    if (p.stage == Stage::Train) return ++train_events <= 2;
    return true;
  };
  const auto report = campaign.run(control);
  std::size_t cancelled = 0;
  for (const auto& row : report.circuits) {
    EXPECT_TRUE(row.ok) << row.error;
    if (row.status == StageStatus::Cancelled) ++cancelled;
  }
  EXPECT_GE(cancelled, 1u);
  EXPECT_LT(report.completed, 2u);
}

}  // namespace
}  // namespace deterrent::core
