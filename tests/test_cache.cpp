// Content-addressed artifact cache tests: hit/miss/evict accounting,
// config-hash sensitivity (any serialized DeterrentConfig knob must change
// the key), the removed compatibility-build knobs, and corrupt-entry
// quarantine and regeneration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/compatibility.hpp"
#include "analysis/rare_nets.hpp"
#include "bench_gen/random_circuit.hpp"
#include "core/artifact_cache.hpp"
#include "core/session.hpp"
#include "netlist/stats.hpp"
#include "sim/pattern_io.hpp"
#include "util/faults.hpp"

namespace deterrent::core {
namespace {

namespace fs = std::filesystem;

using netlist::Netlist;

struct DisarmGuard {
  ~DisarmGuard() { util::faults::disarm_all(); }
};

Netlist make_circuit(std::uint64_t seed, std::size_t gates = 200) {
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
  cfg.updates = 2;
  cfg.k_patterns = 8;
  cfg.seed = seed;
  cfg.ppo.episodes_per_update = 4;
  cfg.offline_threads = 2;
  return cfg;
}

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("deterrent_cache_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str(const char* file = nullptr) const {
    return file ? (path / file).string() : path.string();
  }
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::string bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), offset);
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x20);
  std::ofstream(path, std::ios::binary) << bytes;
}

/// Runs the full pipeline in `dir` (optionally cache-attached) and returns
/// the extracted patterns text.
std::string run_to_completion(const Netlist& nl, const std::string& dir,
                              const DeterrentConfig& cfg,
                              ArtifactCache* cache = nullptr) {
  Session session(dir, nl);
  if (cache != nullptr) session.attach_cache(cache);
  auto pipeline = session.resume_or_init(cfg);
  const StageStatus status = pipeline->run_remaining();
  EXPECT_EQ(status, StageStatus::Complete);
  session.save(*pipeline);
  return sim::write_patterns_string(pipeline->patterns());
}

// ------------------------------------------------ hit / miss / evict ------

TEST(ArtifactCacheUnit, HitMissEvictAndStatsAccounting) {
  const Netlist nl = make_circuit(301);
  const DeterrentConfig cfg = quick_config(31);

  TempDir work("unit_work");
  TempDir cache_dir("unit_cache");
  ArtifactCache cache(cache_dir.str());
  run_to_completion(nl, work.str(), cfg, &cache);

  // One entry per completed stage: lint, rare, compat, policy, patterns.
  const ArtifactCacheStats after_run = cache.stats();
  EXPECT_EQ(after_run.stores, 5u);
  EXPECT_EQ(after_run.entries, 5u);
  EXPECT_GT(after_run.bytes, 0u);
  EXPECT_EQ(after_run.evicted_corrupt, 0u);

  const std::uint64_t fp = netlist::structural_fingerprint(nl);
  const std::uint64_t ch = config_hash(cfg);

  // Hit: the fetched copy is byte-identical to the published entry.
  TempDir out("unit_out");
  ASSERT_TRUE(cache.fetch(fp, ch, ArtifactKind::RareNets, out.str("rare.art")));
  EXPECT_EQ(read_bytes(out.str("rare.art")),
            read_bytes(cache.entry_path(fp, ch, ArtifactKind::RareNets)));

  // Misses: unknown config hash, unknown fingerprint. (The run itself already
  // recorded hydration misses against the then-empty cache, so compare
  // relative to that baseline.)
  EXPECT_FALSE(cache.fetch(fp, ch ^ 1, ArtifactKind::RareNets, out.str("m1.art")));
  EXPECT_FALSE(cache.fetch(fp ^ 1, ch, ArtifactKind::RareNets, out.str("m2.art")));
  const ArtifactCacheStats after_fetch = cache.stats();
  EXPECT_EQ(after_fetch.hits, 1u);
  EXPECT_EQ(after_fetch.misses, after_run.misses + 2);

  // Fingerprint-scoped eviction removes exactly this netlist's entries; a
  // foreign fingerprint removes nothing.
  EXPECT_EQ(cache.evict_fingerprint(fp ^ 1), 0u);
  EXPECT_EQ(cache.evict_fingerprint(fp), 5u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.fetch(fp, ch, ArtifactKind::RareNets, out.str("m3.art")));

  // evict_all on an already-empty cache is a no-op.
  EXPECT_EQ(cache.evict_all(), 0u);
}

// --------------------------------------------- cross-session hydration ----

TEST(ArtifactCacheIntegration, SecondSessionHydratesToDoneWithZeroSatQueries) {
  DisarmGuard guard;
  const Netlist nl = make_circuit(302);
  const DeterrentConfig cfg = quick_config(32);

  TempDir cache_dir("hyd_cache");
  ArtifactCache cache(cache_dir.str());
  TempDir first("hyd_first");
  const std::string baseline = run_to_completion(nl, first.str(), cfg, &cache);

  // A fresh session directory for the same (netlist, config) must hydrate
  // every stage from the cache and have nothing left to run. Arming a
  // first-hit SAT fault proves the hydrated run issues zero SAT queries.
  util::faults::arm_from_string("seed=1;sat.query=throw@1");
  TempDir second("hyd_second");
  Session session(second.str(), nl);
  session.attach_cache(&cache);
  auto pipeline = session.resume_or_init(cfg);
  EXPECT_EQ(pipeline->next_stage(), Stage::Done);
  EXPECT_EQ(pipeline->run_remaining(), StageStatus::Complete);
  session.save(*pipeline);
  util::faults::disarm_all();

  EXPECT_EQ(sim::write_patterns_string(pipeline->patterns()), baseline);
  // Hydrated stage files are byte-identical to the first session's.
  for (const char* file : {Session::kRareFile, Session::kCompatFile,
                           Session::kPolicyFile, Session::kPatternFile}) {
    EXPECT_EQ(read_bytes(first.str(file)), read_bytes(second.str(file))) << file;
  }
  EXPECT_GE(cache.stats().hits, 5u);
}

// ---------------------------------------------- config-hash sensitivity ---

TEST(ArtifactCacheUnit, ConfigHashIsSensitiveToEverySerializedBlock) {
  const DeterrentConfig base = quick_config(33);
  const std::uint64_t base_hash = config_hash(base);
  EXPECT_EQ(base_hash, config_hash(quick_config(33)));  // deterministic

  // One representative knob per serialized config block (see write_config):
  // any of them changing must change the cache key.
  std::vector<DeterrentConfig> mutants;
  const auto mut = [&]() -> DeterrentConfig& {
    mutants.push_back(base);
    return mutants.back();
  };
  mut().lint.enabled = !base.lint.enabled;
  mut().lint.trigger_width = base.lint.trigger_width + 1;
  mut().lint.disabled.push_back("some-rule");
  mut().rare.threshold = base.rare.threshold + 0.01;
  mut().rare.sim_patterns = base.rare.sim_patterns + 1;
  mut().compat.sim_patterns = base.compat.sim_patterns + 1;
  mut().compat.sat_conflict_budget = base.compat.sat_conflict_budget + 1;
  mut().compat.shard_count = base.compat.shard_count + 3;
  mut().env.reward_mode = RewardMode::AllSteps;
  mut().env.max_steps = base.env.max_steps + 1;
  mut().env.sat_dispatch_threads = base.env.sat_dispatch_threads + 2;
  mut().ppo.entropy_coef = base.ppo.entropy_coef + 0.5f;
  mut().ppo.rollout_lanes = base.ppo.rollout_lanes + 1;
  mut().ppo.n_workers = base.ppo.n_workers + 1;
  mut().updates = base.updates + 1;
  mut().k_patterns = base.k_patterns + 1;
  mut().seed = base.seed + 1;
  mut().offline_threads = base.offline_threads + 1;

  for (std::size_t i = 0; i < mutants.size(); ++i)
    EXPECT_NE(config_hash(mutants[i]), base_hash) << "mutant " << i;
}

// The config block layout is frozen at format v5: the removed SAT knobs
// (solver inprocessing and the clause-sharing portfolio) still occupy their
// slots at the old defaults, so a default config keys and serializes exactly
// as before and no cache entry or session is invalidated. The constant is
// the default config's hash from before those knobs were removed.
TEST(ArtifactCacheUnit, DefaultConfigHashIsStableAcrossTheSatKnobRemoval) {
  EXPECT_EQ(config_hash(DeterrentConfig{}), 0x90aa682ff908716aull);
}

// The portfolio and the sharded build are gone; their fields survive only
// for callers that pin them to 0 or 1, and 2 or more throws.
TEST(ArtifactCacheUnit, CompatibilityBuildRejectsThePortfolioAndShards) {
  const Netlist nl = make_circuit(305);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = 0.15;
  rcfg.sim_patterns = 1 << 10;
  util::Rng rare_rng(5);
  const auto rare = analysis::find_rare_nets(nl, rcfg, rare_rng);
  analysis::CompatibilityBuildConfig ccfg;
  ccfg.sim_patterns = 1 << 8;
  ccfg.portfolio_threads = 2;
  util::Rng rng(6);
  EXPECT_THROW(analysis::build_compatibility(nl, rare, ccfg, rng), Error);
  ccfg.portfolio_threads = 0;
  util::Rng rng2(6);
  EXPECT_NO_THROW(analysis::build_compatibility(nl, rare, ccfg, rng2));

  ccfg.shard_count = 2;
  util::Rng rng3(6);
  EXPECT_THROW(analysis::build_compatibility(nl, rare, ccfg, rng3), Error);
  for (const std::size_t shards : {std::size_t{0}, std::size_t{1}}) {
    ccfg.shard_count = shards;
    util::Rng rng4(6);
    EXPECT_NO_THROW(analysis::build_compatibility(nl, rare, ccfg, rng4))
        << "shard_count=" << shards;
  }
}

TEST(ArtifactCacheIntegration, ChangedConfigNeverHydrates) {
  const Netlist nl = make_circuit(303);
  const DeterrentConfig cfg = quick_config(34);

  TempDir cache_dir("cfg_cache");
  ArtifactCache cache(cache_dir.str());
  TempDir first("cfg_first");
  run_to_completion(nl, first.str(), cfg, &cache);

  // Same netlist, one changed knob: the key misses and nothing hydrates.
  DeterrentConfig other = cfg;
  other.seed = cfg.seed + 1;
  TempDir second("cfg_second");
  Session session(second.str(), nl);
  session.attach_cache(&cache);
  auto pipeline = session.resume_or_init(other);
  EXPECT_FALSE(session.has_rare_nets());
  EXPECT_FALSE(session.has_patterns());
  EXPECT_NE(pipeline->next_stage(), Stage::Done);
}

// ------------------------------------------- corruption quarantine --------

TEST(ArtifactCacheIntegration, CorruptEntryIsEvictedAndRegenerated) {
  const Netlist nl = make_circuit(304);
  const DeterrentConfig cfg = quick_config(35);

  TempDir cache_dir("corr_cache");
  ArtifactCache cache(cache_dir.str());
  TempDir first("corr_first");
  const std::string baseline = run_to_completion(nl, first.str(), cfg, &cache);

  // Silently flip one payload byte in the cached rare-nets entry. The next
  // fetch must detect it (CRC), evict the entry, and report a miss — never
  // serve the bytes.
  const std::uint64_t fp = netlist::structural_fingerprint(nl);
  const std::uint64_t ch = config_hash(cfg);
  const std::string entry = cache.entry_path(fp, ch, ArtifactKind::RareNets);
  ASSERT_TRUE(fs::exists(entry));
  flip_byte(entry, 40);

  TempDir second("corr_second");
  const std::string regenerated = run_to_completion(nl, second.str(), cfg, &cache);
  EXPECT_EQ(regenerated, baseline);
  EXPECT_GE(cache.stats().evicted_corrupt, 1u);

  // The regeneration re-published a valid entry in place of the corrupt one:
  // it loads cleanly and a third session hydrates straight to Done.
  ASSERT_TRUE(fs::exists(entry));
  EXPECT_NO_THROW((void)RareNetArtifact::load(entry, fp));
  TempDir third("corr_third");
  Session session(third.str(), nl);
  session.attach_cache(&cache);
  EXPECT_EQ(session.resume_or_init(cfg)->next_stage(), Stage::Done);
}

}  // namespace
}  // namespace deterrent::core
