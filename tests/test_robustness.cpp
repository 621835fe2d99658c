// Self-healing integration tests: session quarantine of corrupt artifacts,
// campaign retry/backoff/quarantine semantics, torn-write recovery, stage
// watchdog timeouts, and the randomized fault-injection soak that forces
// every compiled fault site to fire inside a multi-circuit campaign.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_gen/random_circuit.hpp"
#include "core/campaign.hpp"
#include "core/session.hpp"
#include "sim/pattern_io.hpp"
#include "util/faults.hpp"

namespace deterrent::core {
namespace {

namespace fs = std::filesystem;

using netlist::Netlist;
using util::faults::Action;
using util::faults::FaultSpec;

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
             ("deterrent_rob_" + tag + "_" + std::to_string(::getpid()))) {
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

/// Runs the full pipeline in `dir` and returns the extracted patterns text.
std::string run_to_completion(const Netlist& nl, const std::string& dir,
                              const DeterrentConfig& cfg) {
  Session session(dir, nl);
  auto pipeline = session.resume_or_init(cfg);
  const StageStatus status = pipeline->run_remaining();
  EXPECT_EQ(status, StageStatus::Complete);
  session.save(*pipeline);
  return sim::write_patterns_string(pipeline->patterns());
}

// ----------------------------------------- corruption quarantine ----------

TEST(Robustness, SessionQuarantinesAndRegeneratesEveryArtifactKind) {
  const Netlist nl = make_circuit(71);
  const DeterrentConfig cfg = quick_config(5);

  TempDir base("quar_base");
  const std::string baseline = run_to_completion(nl, base.str(), cfg);
  ASSERT_FALSE(baseline.empty());
  const std::string baseline_patterns_art = read_bytes(base.str(Session::kPatternFile));

  const char* kinds[] = {Session::kRareFile, Session::kCompatFile,
                         Session::kPolicyFile, Session::kPatternFile};
  for (const char* kind : kinds) {
    for (const bool truncate : {true, false}) {
      TempDir dir(std::string("quar_") + kind + (truncate ? "_t" : "_f"));
      // Seed the directory with a complete healthy run, then damage one file
      // the way an interrupted write (truncate) or silent media corruption
      // (bit flip) would.
      run_to_completion(nl, dir.str(), cfg);
      const std::string victim = dir.str(kind);
      if (truncate)
        fs::resize_file(victim, fs::file_size(victim) / 2);
      else
        flip_byte(victim, fs::file_size(victim) / 2);

      Session session(dir.str(), nl);
      auto pipeline = session.resume_or_init(cfg);
      ASSERT_EQ(session.quarantined().size(), 1u) << kind;
      EXPECT_EQ(session.quarantined()[0], kind);
      EXPECT_TRUE(fs::exists(victim + ".corrupt")) << kind;
      EXPECT_FALSE(fs::exists(victim)) << kind;

      // The damaged stage (and everything after it) regenerates to a final
      // state bit-identical to the undamaged baseline.
      EXPECT_EQ(pipeline->run_remaining(), StageStatus::Complete) << kind;
      session.save(*pipeline);
      EXPECT_EQ(sim::write_patterns_string(pipeline->patterns()), baseline) << kind;
      EXPECT_EQ(read_bytes(dir.str(Session::kPatternFile)), baseline_patterns_art)
          << kind;
    }
  }
}

TEST(Robustness, CorruptMetaFallsBackToSuppliedConfig) {
  const Netlist nl = make_circuit(72);
  const DeterrentConfig cfg = quick_config(6);
  TempDir dir("meta");
  run_to_completion(nl, dir.str(), cfg);
  flip_byte(dir.str(Session::kMetaFile), 30);

  Session session(dir.str(), nl);
  auto pipeline = session.resume_or_init(cfg);
  ASSERT_GE(session.quarantined().size(), 1u);
  EXPECT_EQ(session.quarantined()[0], Session::kMetaFile);
  EXPECT_TRUE(fs::exists(dir.str() + "/session.meta.corrupt"));
  EXPECT_EQ(pipeline->config().seed, cfg.seed);
  // The meta file was rewritten from the fallback, so a plain resume works.
  EXPECT_TRUE(session.has_meta());
  EXPECT_NO_THROW(session.load_config());
}

// -------------------------------------------------- campaign retries ------

TEST(Robustness, RetryBackoffScheduleIsClampedAndCapped) {
  // base 1ms, cap 10ms: 1, 2, 4, 8, then pinned at the cap forever.
  const double expected[] = {1.0, 2.0, 4.0, 8.0, 10.0, 10.0, 10.0};
  for (std::size_t attempt = 0; attempt < 7; ++attempt)
    EXPECT_DOUBLE_EQ(retry_backoff_delay_ms(1.0, attempt, 10.0),
                     expected[attempt])
        << "attempt " << attempt;
  // Attempt numbers far past the shift width neither overflow nor wrap back
  // to a short sleep — the old `base * (1ULL << attempt)` did exactly that.
  EXPECT_DOUBLE_EQ(retry_backoff_delay_ms(1.0, 4000, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(retry_backoff_delay_ms(250.0, ~std::size_t{0}, 1000.0), 1000.0);
  // cap <= 0 disables the cap, but the exponent still saturates at 62.
  EXPECT_DOUBLE_EQ(retry_backoff_delay_ms(1.0, 100, 0.0),
                   static_cast<double>(1ULL << 62));
  // Non-positive base never sleeps, whatever the attempt.
  EXPECT_DOUBLE_EQ(retry_backoff_delay_ms(0.0, 5, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(retry_backoff_delay_ms(-3.0, 5, 10.0), 0.0);
}

TEST(Robustness, CampaignRetriesTransientFaultAndSucceeds) {
  DisarmGuard guard;
  const Netlist nl = make_circuit(73);
  TempDir dir("retry");

  CampaignConfig cfg;
  cfg.base = quick_config(7);
  cfg.base.offline_threads = 1;
  cfg.threads = 1;
  cfg.session_root = dir.str();
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 1.0;

  // One transient failure at the second stage boundary: the first attempt
  // dies mid-run, the retry resumes from the session and completes.
  FaultSpec spec;
  spec.action = Action::Throw;
  spec.nth = 2;
  util::faults::arm("pipeline.stage_boundary", spec);

  Campaign campaign(cfg);
  campaign.add("rc", nl);
  const auto report = campaign.run();
  ASSERT_EQ(report.circuits.size(), 1u);
  EXPECT_TRUE(report.circuits[0].ok) << report.circuits[0].error;
  EXPECT_EQ(report.circuits[0].attempts, 2u);
  EXPECT_FALSE(report.circuits[0].quarantined);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_NE(report.to_table().find("(x2)"), std::string::npos);
}

TEST(Robustness, CampaignQuarantinesPermanentErrorWithoutRetrying) {
  const Netlist nl = make_circuit(74);
  CampaignConfig cfg;
  cfg.base = quick_config(8);
  // An impossible rareness threshold: "no rare nets" is a configuration
  // error no retry can fix.
  cfg.base.rare.threshold = 1e-12;
  cfg.threads = 1;
  cfg.max_retries = 3;
  cfg.retry_backoff_ms = 1.0;

  Campaign campaign(cfg);
  campaign.add("rc", nl);
  const auto report = campaign.run();
  ASSERT_EQ(report.circuits.size(), 1u);
  EXPECT_FALSE(report.circuits[0].ok);
  EXPECT_TRUE(report.circuits[0].quarantined);
  EXPECT_EQ(report.circuits[0].attempts, 1u);  // no retry on PermanentError
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_NE(report.to_table().find("quarantined"), std::string::npos);
}

TEST(Robustness, CampaignContainsNonStdExceptions) {
  const Netlist nl = make_circuit(75);
  CampaignConfig cfg;
  cfg.base = quick_config(9);
  cfg.threads = 1;
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 1.0;

  Campaign campaign(cfg);
  campaign.add("rc", nl);
  campaign.set_evaluator([](const CampaignCircuit&, const Pipeline&,
                            const sim::PatternSet&) -> double {
    throw 42;  // not a std::exception
  });
  const auto report = campaign.run();  // must not terminate the process
  ASSERT_EQ(report.circuits.size(), 1u);
  EXPECT_FALSE(report.circuits[0].ok);
  EXPECT_TRUE(report.circuits[0].quarantined);
  EXPECT_NE(report.circuits[0].error.find("non-std"), std::string::npos);
}

// ------------------------------------------------------ torn writes -------

TEST(Robustness, TornWriteIsQuarantinedOnResume) {
  DisarmGuard guard;
  const Netlist nl = make_circuit(76);
  const DeterrentConfig cfg = quick_config(10);

  TempDir base("torn_base");
  const std::string baseline = run_to_completion(nl, base.str(), cfg);

  for (const char* action : {"torn-truncate", "torn-flip"}) {
    TempDir dir(std::string("torn_") + action);
    // Write #3 of a fresh session run is rare_nets.art (meta is #1, the
    // lint sidecar #2): the file reaches its final name damaged, exactly
    // like a power loss.
    util::faults::arm_from_string(std::string("serialize.write_artifact=") +
                                  action + "@3");
    run_to_completion(nl, dir.str(), cfg);
    util::faults::disarm_all();
    EXPECT_THROW(RareNetArtifact::load(dir.str(Session::kRareFile)), Error) << action;

    Session session(dir.str(), nl);
    auto pipeline = session.resume_or_init(cfg);
    ASSERT_EQ(session.quarantined().size(), 1u) << action;
    EXPECT_EQ(session.quarantined()[0], Session::kRareFile);
    EXPECT_EQ(pipeline->run_remaining(), StageStatus::Complete);
    session.save(*pipeline);
    EXPECT_EQ(sim::write_patterns_string(pipeline->patterns()), baseline) << action;
  }
}

// --------------------------------------------------------- watchdog -------

TEST(Robustness, WatchdogConvertsHangIntoTimedOutStage) {
  DisarmGuard guard;
  const Netlist nl = make_circuit(77);
  const DeterrentConfig cfg = quick_config(12);

  FaultSpec spec;
  spec.action = Action::Hang;
  spec.nth = 1;
  spec.hang_ms = 60'000;
  util::faults::arm("sat.query", spec);

  Pipeline pipeline(nl, cfg);
  StageControl control;
  control.stage_timeout_seconds = 0.3;
  // The hang fires at the first SAT query (compatibility build, inside a
  // worker thread); the adopted watchdog deadline converts it into a clean
  // TimedOut instead of a wedged stage.
  EXPECT_EQ(pipeline.run_remaining(control), StageStatus::TimedOut);
  EXPECT_FALSE(pipeline.compatibility_done());

  // Disarmed, the same pipeline object simply reruns the stage.
  util::faults::disarm_all();
  EXPECT_EQ(pipeline.run_remaining(control), StageStatus::Complete);
  EXPECT_GT(pipeline.patterns().pattern_count(), 0u);
}

TEST(Robustness, TrainFaultPoisonsPipelineAndSaveSkipsPolicy) {
  DisarmGuard guard;
  const Netlist nl = make_circuit(78);
  const DeterrentConfig cfg = quick_config(13);
  TempDir dir("poison");

  Session session(dir.str(), nl);
  auto pipeline = session.resume_or_init(cfg);
  ASSERT_EQ(pipeline->run_rare_nets(), StageStatus::Complete);
  ASSERT_EQ(pipeline->run_compatibility(), StageStatus::Complete);
  session.save(*pipeline);
  ASSERT_FALSE(session.has_policy());

  // Fail the first training-time SAT query: the exception escapes mid-update,
  // so the in-memory trainer state is suspect and must not be checkpointed.
  FaultSpec spec;
  spec.action = Action::Throw;
  spec.nth = 1;
  util::faults::arm("sat.query", spec);
  EXPECT_THROW(pipeline->run_train(), FaultInjectedError);
  util::faults::disarm_all();
  EXPECT_TRUE(pipeline->poisoned());

  session.save(*pipeline);
  EXPECT_FALSE(session.has_policy());  // poisoned state was not persisted

  // Recovery path: rebuild from the saved artifacts and finish cleanly.
  auto recovered = session.resume_or_init(cfg);
  EXPECT_TRUE(session.quarantined().empty());
  EXPECT_FALSE(recovered->poisoned());
  EXPECT_EQ(recovered->run_remaining(), StageStatus::Complete);
  session.save(*recovered);
  EXPECT_TRUE(session.has_policy());
}

// -------------------------------------------------------------- soak ------

TEST(Robustness, FaultInjectionSoakNeverCrashesAndHealsBitIdentically) {
  DisarmGuard guard;
  const Netlist c1 = make_circuit(81, 180);
  const Netlist c2 = make_circuit(82, 180);
  const Netlist c3 = make_circuit(83, 180);

  CampaignConfig cfg;
  cfg.base = quick_config(21);
  cfg.base.offline_threads = 1;
  // Per-step SAT rewards on four lanes with a two-thread lane SAT dispatch
  // pool, so training fans out through util::ThreadPool — with every thread
  // count at 1 the pool paths run inline and the threadpool.task site would
  // never be reached.
  cfg.base.env.reward_mode = RewardMode::AllSteps;
  cfg.base.ppo.rollout_lanes = 4;
  cfg.base.env.sat_dispatch_threads = 2;
  cfg.threads = 1;  // deterministic hit ordering across the whole campaign
  cfg.max_retries = 6;
  cfg.retry_backoff_ms = 1.0;
  cfg.stage_timeout_seconds = 1.0;

  const auto enroll = [&](Campaign& campaign) {
    campaign.add("soak1", c1);
    campaign.add("soak2", c2);
    campaign.add("soak3", c3);
  };

  // Faultless baseline campaign.
  TempDir base("soak_base");
  cfg.session_root = base.str();
  Campaign baseline(cfg);
  enroll(baseline);
  const auto clean = baseline.run();
  ASSERT_EQ(clean.completed, 3u);

  // Fault plan: every compiled site armed with a one-shot (Nth-hit) fault —
  // transient throws, a hang long enough that only the watchdog ends it,
  // silent bit flips, and a load-time throw (which needs a retry's resume
  // to even reach a load). All fire within the first circuit's attempts.
  // The faulted campaign also shares an artifact cache so the cache.* sites
  // are reachable: cache.fetch throws on the first hydration probe, and
  // cache.store tears a published entry (any later probe of that entry must
  // evict it rather than serve it — fetch validates the whole envelope).
  TempDir dir("soak");
  TempDir cache("soak_cache");
  cfg.session_root = dir.str();
  cfg.cache_dir = cache.str();
  util::faults::arm_from_string(
      "seed=9;"
      "pipeline.stage_boundary=throw@4;"
      "threadpool.task=throw@1;"
      "sat.query=hang@5:60000;"
      "serialize.write_artifact=torn-flip@3;"
      "session.load_artifact=throw@2;"
      "cache.fetch=throw@1;"
      "cache.store=torn-flip@1");

  Campaign campaign(cfg);
  enroll(campaign);
  const auto report = campaign.run();

  // Invariant: no crash, no deadlock (we got here), and every circuit either
  // healed to a clean completion or reports a clean degraded status.
  ASSERT_EQ(report.circuits.size(), 3u);
  for (const auto& row : report.circuits) {
    if (!row.ok) {
      EXPECT_FALSE(row.error.empty()) << row.name;
      EXPECT_TRUE(row.quarantined) << row.name;
    }
  }
  // One-shot faults with generous retries: the campaign must fully heal.
  EXPECT_EQ(report.completed, 3u) << report.to_table();

  // Every registered site actually fired at least once.
  for (const auto& site : util::faults::known_sites())
    EXPECT_GE(util::faults::fired_count(site), 1u) << site;
  util::faults::disarm_all();

  // No torn temp files left anywhere in the session tree.
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }

  // Disarmed re-run over the same sessions: resume never breaks (any
  // lingering corrupt file quarantines and regenerates), and the final
  // patterns are bit-identical to the faultless baseline.
  Campaign rerun(cfg);
  enroll(rerun);
  const auto healed = rerun.run();
  EXPECT_EQ(healed.completed, 3u) << healed.to_table();
  const char* names[] = {"soak1", "soak2", "soak3"};
  for (const char* name : names) {
    const std::string a =
        read_bytes((base.path / name / Session::kPatternFile).string());
    const std::string b =
        read_bytes((dir.path / name / Session::kPatternFile).string());
    ASSERT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name << ": healed patterns diverged from baseline";
  }
}

}  // namespace
}  // namespace deterrent::core
