// End-to-end DETERRENT benchmark program: one workload per process, one
// pipeline job at a time (a closed loop with a single client).
//
//   e2e_bench --workload <name> --seed <n> --trace <0|1> --work-dir <dir>
//             [--trace-out <file>] [--record-dir <dir>]
//
// The library is driven from outside, stage by stage, through its public
// API (core::Pipeline / core::Session / core::ArtifactCache). --trace 0
// prints the end-to-end metrics; --trace 1 prints the per-layer split, taken
// from one separately traced cold run plus replays of the compatibility
// simulation and the training stage. The last stdout line is one JSON
// object; the exit code is non-zero when any correctness gate fails. See
// README.md for the workloads, the metrics and the gates.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/compatibility.hpp"
#include "bench_gen/library.hpp"
#include "core/artifact_cache.hpp"
#include "core/compatible_set_env.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "rl/ppo.hpp"
#include "sim/engine.hpp"
#include "trojan/coverage.hpp"
#include "trojan/trojan.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fs = std::filesystem;
using namespace deterrent;

namespace {

// ------------------------------------------------------------ workloads ----

struct Workload {
  const char* name;
  const char* design;   ///< bench_gen profile (fixed netlist)
  std::size_t updates;  ///< PPO updates in the train stage
};

constexpr Workload kWorkloads[] = {
    {"compat_s15850", "s15850_like", 4},  // Sat-heavy offline phase
    {"unsat_mips16", "mips16_like", 4},   // Unsat-heavy, largest netlist; by hand only
    {"train_c5315", "c5315_like", 10},    // training-dominated
};

constexpr std::size_t kSetupPerPhase = 25;    // set-ups before the jobs and after each
constexpr std::size_t kWarmPerJob = 20;       // warm_s is the median of all of these
constexpr std::size_t kJobs = 3;              // cold jobs per run
constexpr std::size_t kTrojansPerJob = 3000;  // evaluation population, width 4
constexpr unsigned kTriggerWidth = 4;

// Thread discipline: at most two busy threads in every stage. The CLI
// defaults (offline phase on every hardware thread, 8 rollout worker threads)
// made the compatibility build bimodal on a shared 4-core host, so these pins
// come from the benchmark, never from library defaults.
core::DeterrentConfig make_config(const Workload& w, std::uint64_t seed) {
  core::DeterrentConfig c;
  c.seed = seed;
  c.updates = w.updates;
  c.k_patterns = 64;
  c.offline_threads = 2;
  c.compat.portfolio_threads = 0;
  c.compat.shard_count = 0;
  c.env.reward_mode = core::RewardMode::EndOfEpisode;
  c.env.sat_dispatch_threads = 0;
  c.ppo.n_workers = 1;
  c.ppo.rollout_lanes = 8;
  return c;
}

// ---------------------------------------------------------------- trace ----

/// In-memory span recorder, written as Chrome trace-event JSON at exit.
/// Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  int begin(const std::string& name) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now_us(), 0.0, parent, {}});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    open_.pop_back();
  }

  void annotate(int id, const std::string& key, double value) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].args[key] = value;
  }

  /// Duration in seconds of the most recent closed span called `name`.
  double last_seconds(const std::string& name) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
      if (it->name == name && it->end_us > 0.0) return (it->end_us - it->start_us) * 1e-6;
    return 0.0;
  }

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> all_seconds(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_)
      if (s.name == name && s.end_us > 0.0) out.push_back((s.end_us - s.start_us) * 1e-6);
    return out;
  }

  /// Summed duration of the direct children of the last span called `name`.
  double child_seconds(const std::string& name) const {
    int parent = -1;
    for (int i = static_cast<int>(spans_.size()) - 1; i >= 0 && parent < 0; --i)
      if (spans_[static_cast<std::size_t>(i)].name == name) parent = i;
    double total = 0.0;
    for (const auto& s : spans_)
      if (s.parent == parent && parent >= 0) total += (s.end_us - s.start_us) * 1e-6;
    return total;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      char head[160];
      std::snprintf(head, sizeof head, "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                    s.start_us, s.end_us - s.start_us);
      out << (i ? ",\n" : "\n") << head << "\"name\":\"" << s.name << "\",\"args\":{";
      out << "\"parent\":\""
          << (s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : "") << '"';
      for (const auto& [key, value] : s.args) out << ",\"" << key << "\":" << value;
      out << "}}";
    }
    out << "\n]}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    std::map<std::string, double> args;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Span {
 public:
  Span(Tracer& tracer, const std::string& name) : tracer_(tracer), id_(tracer.begin(name)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// -------------------------------------------------------------- helpers ----

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// Correctness-gate ledger: every operation is attempted once and failed at
/// most once; each failed check is logged to stderr with its reason.
struct Gate {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool global_ok = true;

  /// Records one operation whose checks all passed iff `ok`.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "e2e_bench: FAILED %s\n", what.c_str());
    }
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      global_ok = false;
      std::fprintf(stderr, "e2e_bench: FAILED %s\n", what.c_str());
    }
  }
};

/// Re-simulates the extracted patterns in W-word sweeps and counts patterns
/// that fail to drive every rare net of their set to its rare value.
std::size_t resim_failures(const netlist::Netlist& comb, const core::Pipeline& p) {
  const auto& patterns = p.patterns();
  const auto& sets = p.extracted_sets();
  const auto rare = p.rare_nets();
  if (sets.size() != patterns.pattern_count()) return patterns.pattern_count() + 1;
  std::vector<std::vector<std::uint32_t>> members(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) members[i] = sets[i].to_indices();
  std::size_t bad = 0;
  sim::Engine engine(comb);
  engine.sweep(patterns, [&](std::size_t first_block, std::size_t n_words,
                             const sim::EvalBuffer& buf) {
    for (std::size_t w = 0; w < n_words; ++w) {
      for (std::size_t b = 0; b < 64; ++b) {
        const std::size_t pat = (first_block + w) * 64 + b;
        if (pat >= patterns.pattern_count()) return;
        for (const std::uint32_t idx : members[pat]) {
          const bool value = (buf.word(rare[idx].net, w) >> b) & 1ULL;
          if (value != rare[idx].rare_value) {
            ++bad;
            break;
          }
        }
      }
    }
  });
  return bad;
}

/// Off-diagonal compatibility counters. CompatibilityBuildStats counts the
/// i == j singleton queries into pair_count / sim_resolved / sat_*, while
/// edge_count() excludes the diagonal; the diagonal share is recovered here
/// from the witness signatures and the finalized matrix.
struct CompatCounts {
  std::size_t rare = 0, pairs = 0, sim_resolved = 0, sat_sat = 0, sat_unsat = 0,
              timeouts = 0, edges = 0, sat_queries = 0;
  bool reconciled = false;
};

CompatCounts compat_counts(const core::Pipeline& p) {
  const auto& st = p.compat_stats();
  const auto& m = p.matrix();
  const auto& sig = p.witness_signatures();
  const std::size_t n = p.rare_nets().size();
  std::size_t diag_sim = 0, diag_sat = 0;
  bool observed = true;  // every rare net was seen at its rare value
  for (std::uint32_t i = 0; i < n; ++i) {
    observed = observed && p.rare_nets()[i].probability > 0.0;
    if (sig[i].any())
      ++diag_sim;
    else if (m.singleton_satisfiable(i))
      ++diag_sat;
  }
  // Rare nets are observed in simulation, so no singleton is Unsat: a
  // singleton that was neither witnessed nor proven Sat ran out of budget.
  const std::size_t diag_timeouts = n - diag_sim - diag_sat;
  CompatCounts c;
  c.rare = n;
  c.pairs = st.pair_count - n;
  c.sim_resolved = st.sim_resolved - diag_sim;
  c.sat_sat = st.sat_sat - diag_sat;
  c.sat_unsat = st.sat_unsat;
  c.timeouts = st.timeout_pairs - diag_timeouts;
  c.edges = m.edge_count();
  c.sat_queries = st.sat_sat + st.sat_unsat + st.timeout_pairs;
  c.reconciled = observed && st.pair_count == n * (n + 1) / 2 &&
                 st.sim_resolved >= diag_sim && st.sat_sat >= diag_sat &&
                 st.timeout_pairs >= diag_timeouts &&
                 diag_timeouts == st.unsat_singletons &&
                 st.sim_resolved + st.sat_sat - (n - st.unsat_singletons) == c.edges &&
                 c.sim_resolved + c.sat_sat + c.sat_unsat + c.timeouts == c.pairs;
  return c;
}

// ------------------------------------------------------------ cold / warm --

struct ColdRun {
  std::unique_ptr<core::Pipeline> pipeline;
  double seconds = 0.0;
  fs::path dir;           ///< holds session/ and cache/
  std::string patterns;   ///< bytes of session/patterns.art
};

/// One cold job: empty session, empty cache, every stage, then Session::save
/// (which publishes to the cache). Only the stage calls and the save are
/// timed; opening the session, the cache and the pipeline is set-up.
ColdRun run_cold(const netlist::Netlist& comb, const core::DeterrentConfig& config,
                 const fs::path& dir, Tracer& tr) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  core::Session session((dir / "session").string(), comb);
  core::ArtifactCache cache((dir / "cache").string());
  session.attach_cache(&cache);
  ColdRun run;
  run.dir = dir;
  run.pipeline = std::make_unique<core::Pipeline>(comb, config);
  core::Pipeline& p = *run.pipeline;
  const auto stage = [&](const char* name, auto&& call) {
    Span s(tr, name);
    const core::StageStatus status = call();
    if (status != core::StageStatus::Complete)
      throw std::runtime_error(std::string("stage ") + name + " ended " +
                               core::to_string(status));
  };
  util::Stopwatch watch;
  {
    Span root(tr, "time_to_patterns");
    stage("lint", [&] { return p.run_lint(); });
    stage("rare", [&] { return p.run_rare_nets(); });
    stage("compat", [&] { return p.run_compatibility(); });
    stage("train", [&] { return p.run_train(); });
    stage("extract", [&] { return p.run_extract(); });
    Span s(tr, "save");
    session.save(p);
  }
  run.seconds = watch.elapsed_seconds();
  std::fprintf(stderr, "e2e_bench: cold job %s: %.3f s\n", dir.filename().c_str(), run.seconds);
  run.patterns = read_bytes(dir / "session" / core::Session::kPatternFile);
  return run;
}

/// Every count and checksum a cold job produces; identical across processes
/// and tracing for a fixed workload and job seed.
std::string record_of(const ColdRun& c) {
  const auto& q = *c.pipeline;
  const CompatCounts k = compat_counts(q);
  std::ostringstream s;
  s << "rare=" << k.rare << " edges=" << k.edges << " sim=" << k.sim_resolved
    << " sat=" << k.sat_sat << " unsat=" << k.sat_unsat << " timeouts=" << k.timeouts
    << " pool=" << q.pool().size() << " patterns=" << q.patterns().pattern_count()
    << " checksum=" << std::hex << fnv1a(c.patterns);
  return s.str();
}

/// One warm job: a fresh session directory hydrated from the cache the cold
/// job filled. Only resume is timed. Returns true when resume reached Done
/// without running a stage and its patterns match the cold bytes.
bool run_warm(const netlist::Netlist& comb, const core::DeterrentConfig& config,
              const ColdRun& cold, const fs::path& dir, Tracer& tr, double& seconds) {
  fs::remove_all(dir);
  core::Session session(dir.string(), comb);
  core::ArtifactCache cache((cold.dir / "cache").string());
  session.attach_cache(&cache);
  util::Stopwatch watch;
  std::unique_ptr<core::Pipeline> p;
  {
    Span s(tr, "hydrate");
    p = session.resume_or_init(config);
  }
  seconds = watch.elapsed_seconds();
  return p->next_stage() == core::Stage::Done && cache.stats().hits >= 4 &&
         read_bytes(dir / core::Session::kPatternFile) == cold.patterns;
}

// ------------------------------------------------------- training replay --

/// Timing decorator: forwards every call to a CompatibleSetVectorEnv and
/// accumulates the wall time and lane-steps spent inside the environment.
class TimedVectorEnv final : public rl::VectorEnv {
 public:
  explicit TimedVectorEnv(std::unique_ptr<core::CompatibleSetVectorEnv> inner)
      : inner_(std::move(inner)) {}

  std::size_t lanes() const override { return inner_->lanes(); }
  std::size_t observation_size() const override { return inner_->observation_size(); }
  std::size_t action_count() const override { return inner_->action_count(); }
  void reset_lane(std::size_t lane, util::Rng& rng) override {
    util::Stopwatch w;
    inner_->reset_lane(lane, rng);
    seconds += w.elapsed_seconds();
  }
  void step(std::span<const std::uint32_t> actions, const util::BitVec& active) override {
    util::Stopwatch w;
    inner_->step(actions, active);
    seconds += w.elapsed_seconds();
    lane_steps += active.count();
  }
  std::span<const float> observation(std::size_t lane) const override {
    return inner_->observation(lane);
  }
  const util::BitVec& action_mask(std::size_t lane) const override {
    return inner_->action_mask(lane);
  }
  float reward(std::size_t lane) const override { return inner_->reward(lane); }
  bool done(std::size_t lane) const override { return inner_->done(lane); }

  const core::CompatibleSetVectorEnv& inner() const { return *inner_; }

  double seconds = 0.0;
  std::uint64_t lane_steps = 0;

 private:
  std::unique_ptr<core::CompatibleSetVectorEnv> inner_;
};

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ------------------------------------------------------------------ main ----

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  fs::path work_dir;
  fs::path trace_out;
  fs::path record_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--work-dir") a.work_dir = value;
    else if (key == "--trace-out") a.trace_out = value;
    else if (key == "--record-dir") a.record_dir = value;
    else throw std::runtime_error("unknown flag " + key);
  }
  if (a.work_dir.empty()) throw std::runtime_error("--work-dir is required");
  return a;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, const Gate& gate, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", gate.attempted, gate.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads)
    if (args.workload == w.name) wl = &w;
  if (wl == nullptr) throw std::runtime_error("unknown workload " + args.workload);
  util::Log::set_level(util::LogLevel::Warn);

  Tracer tr(args.trace);
  Gate gate;
  fs::remove_all(args.work_dir);
  fs::create_directories(args.work_dir);

  // ---- set-up: design generation + full scan, session/cache/pipeline open.
  // It is sampled in phases spread over the run (before the jobs and after
  // each), because one set-up takes milliseconds and a single burst of host
  // load would otherwise set the median.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    for (std::size_t r = 0; r < kSetupPerPhase; ++r) {
      util::Stopwatch watch;
      Span setup(tr, "setup");
      bench_gen::Benchmark b;
      {
        Span load(tr, "netlist.load");
        b = bench_gen::load_benchmark(wl->design);
      }
      const fs::path dir = args.work_dir / ("setup" + std::to_string(setup_s.size()));
      core::Session session((dir / "session").string(), b.scan.comb);
      core::ArtifactCache cache((dir / "cache").string());
      session.attach_cache(&cache);
      core::Pipeline pipeline(b.scan.comb, make_config(*wl, args.seed));
      setup_s.push_back(watch.elapsed_seconds());
    }
  };
  set_up();
  const bench_gen::Benchmark bench = bench_gen::load_benchmark(wl->design);
  const netlist::Netlist& comb = bench.scan.comb;

  // ---- cold jobs, untraced. Each job is one input: the design under its
  // own seed, derived from --seed. The job count is fixed, so every run of a
  // workload does the same work; several inputs per run average out how much
  // the work varies by seed. One pipeline is alive at a time, so peak RSS
  // covers one job.
  const std::size_t jobs = kJobs;
  Tracer off(false);
  std::vector<double> cold_s, warm_s;
  double coverage_sum = 0.0, rare_per_pattern_sum = 0.0, test_length_sum = 0.0;
  double sat_total = 0.0, sat_decided = 0.0;
  std::optional<ColdRun> job;
  core::DeterrentConfig config;
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::uint64_t seed = args.seed * 16 + j;
    config = make_config(*wl, seed);
    job.reset();
    job.emplace(run_cold(comb, config, args.work_dir / ("cold" + std::to_string(j)), off));
    cold_s.push_back(job->seconds);
    const core::Pipeline& p = *job->pipeline;

    const std::size_t bad = resim_failures(comb, p);
    gate.op(bad == 0, "cold job " + std::to_string(j) + ": " + std::to_string(bad) +
                          " patterns fail re-simulation");
    const CompatCounts cc = compat_counts(p);
    gate.check(cc.reconciled, "compat counter reconciliation");

    // Evaluation, outside the timed window: SAT-validated width-4 trojans.
    std::vector<trojan::Trojan> trojans;
    {
      Span s(tr, "trojan.sample");
      sat::NetlistOracle oracle(comb);
      util::Rng rng(seed ^ 0x7f4a7c15ULL);
      trojan::TrojanSampleConfig tcfg;
      tcfg.width = kTriggerWidth;
      tcfg.count = kTrojansPerJob;
      trojans = trojan::sample_trojans(comb, p.rare_nets(), tcfg, oracle, rng);
    }
    gate.check(trojans.size() == kTrojansPerJob,
               "trojan population size " + std::to_string(trojans.size()));
    double coverage = 0.0;
    {
      Span s(tr, "coverage.eval");
      coverage = trojan::evaluate_coverage(comb, trojans, p.patterns()).coverage_percent();
    }
    const std::size_t test_length = p.patterns().pattern_count();
    gate.check(test_length > 0, "no patterns extracted");
    double members = 0.0;
    for (const auto& set : p.extracted_sets()) members += static_cast<double>(set.count());
    coverage_sum += coverage;
    rare_per_pattern_sum += test_length ? members / static_cast<double>(test_length) : 0.0;
    test_length_sum += static_cast<double>(test_length);
    // find_pattern runs without a conflict budget, so every extract query is
    // decided; compat queries that ran out of budget are the undecided share.
    const double queries =
        static_cast<double>(cc.sat_queries + p.pool().k_largest(config.k_patterns).size());
    sat_total += queries;
    sat_decided += queries - static_cast<double>(p.compat_stats().timeout_pairs);

    // Determinism across processes: a job's seed always gives the same record.
    if (!args.record_dir.empty()) {
      std::ostringstream rec;
      rec << record_of(*job) << " coverage=" << coverage << '\n';
      fs::create_directories(args.record_dir);
      const fs::path file = args.record_dir / (args.workload + "-" + std::to_string(seed));
      if (fs::exists(file)) {
        gate.check(read_bytes(file) == rec.str(), "record drift vs an earlier run of this seed: " +
                                                      read_bytes(file) + " now " + rec.str());
      } else {
        const fs::path tmp = file.string() + ".tmp";
        std::ofstream(tmp) << rec.str();
        fs::rename(tmp, file);
      }
    }
    // Warm jobs: fresh sessions hydrated from this job's cache. Spreading
    // them over the run keeps one slow stretch of disk from setting warm_s.
    for (std::size_t r = 0; r < kWarmPerJob; ++r) {
      double s = 0.0;
      gate.op(run_warm(comb, config, *job, args.work_dir / "warm", tr, s),
              "warm job did not hydrate to Done with byte-identical patterns");
      warm_s.push_back(s);
    }
    set_up();
    if (j + 1 < jobs) fs::remove_all(job->dir);
  }
  const ColdRun& last = *job;
  const core::Pipeline& p = *last.pipeline;
  const double n_jobs = static_cast<double>(jobs);

  std::vector<Metric> metrics;
  if (!args.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"time_to_patterns_s", median(cold_s), "s"},
        {"warm_s", median(warm_s), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
        {"trigger_coverage_pct", coverage_sum / n_jobs, "%"},
        {"rare_per_pattern", rare_per_pattern_sum / n_jobs, "count"},
        {"test_length", test_length_sum / n_jobs, "count"},
        {"sat_decided_pct", 100.0 * sat_decided / sat_total, "%"},
    };
  } else {
    const CompatCounts cc = compat_counts(p);
    const std::size_t test_length = p.patterns().pattern_count();

    // ---- the last job, again, traced; its stage spans give the split.
    const ColdRun traced = run_cold(comb, config, args.work_dir / "traced", tr);
    gate.op(record_of(traced) == record_of(last) && traced.patterns == last.patterns,
            "traced cold job differs from the untraced one: " + record_of(traced));
    const double stage_sum = tr.child_seconds("time_to_patterns");
    const double traced_total = tr.last_seconds("time_to_patterns");

    // ---- compatibility replay: phase-1 signatures from the carried RNG.
    double sim_s = 0.0;
    {
      Span s(tr, "compat.sim_replay");
      util::Rng rng;
      rng.set_state(p.export_rare_nets().rng_state_after);
      util::ThreadPool workers(config.offline_threads);
      util::Stopwatch w;
      const auto sigs = analysis::rare_activation_signatures(
          comb, p.rare_nets(), config.compat.sim_patterns, rng, &workers);
      sim_s = w.elapsed_seconds();
      gate.op(sigs == p.witness_signatures(), "signature replay differs from the pipeline's");
    }
    const double compat_s = tr.last_seconds("compat");

    // ---- training replay through a timing VectorEnv decorator.
    core::DistinctSetPool pool;
    core::EnvConfig env_cfg = config.env;
    env_cfg.witness_signatures = &p.witness_signatures();
    TimedVectorEnv* timed = nullptr;
    rl::PpoTrainer trainer(
        [&](std::size_t) -> std::unique_ptr<rl::Env> {
          return std::make_unique<core::CompatibleSetEnv>(comb, p.rare_nets(), p.matrix(),
                                                          env_cfg, &pool);
        },
        config.ppo, config.seed,
        [&](std::size_t lanes) -> std::unique_ptr<rl::VectorEnv> {
          auto env = std::make_unique<TimedVectorEnv>(std::make_unique<core::CompatibleSetVectorEnv>(
              comb, p.rare_nets(), p.matrix(), env_cfg, &pool, lanes));
          timed = env.get();
          return env;
        });
    std::vector<double> update_s;
    double train_replay_s = 0.0;
    {
      Span replay(tr, "train.replay");
      for (std::size_t u = 0; u < config.updates; ++u) {
        Span s(tr, "train.update");
        const double env_before = timed->seconds;
        util::Stopwatch w;
        trainer.update();
        update_s.push_back(w.elapsed_seconds());
        tr.annotate(s.id(), "env_s", timed->seconds - env_before);
        train_replay_s += update_s.back();
      }
    }
    const auto policy = p.export_policy();
    const auto replayed = trainer.state();
    gate.op(pool.k_largest(pool.size()) == policy.pool_sets &&
                same_floats(replayed.policy_params, policy.trainer.policy_params) &&
                same_floats(replayed.value_params, policy.trainer.value_params) &&
                replayed.total_steps == policy.trainer.total_steps &&
                timed->lane_steps == trainer.total_steps(),
            "training replay differs from the pipeline's pool or parameters");
    const auto& env = timed->inner();
    const double env_queries = static_cast<double>(env.sat_queries());
    const double env_hits = static_cast<double>(env.witness_hits());

    const std::size_t candidates = p.pool().k_largest(config.k_patterns).size();
    const auto cache_stats = core::ArtifactCache((last.dir / "cache").string()).stats();

    const double cover_pct = 100.0 * stage_sum / traced_total;
    gate.check(cover_pct >= 95.0, "stage spans cover only " + std::to_string(cover_pct) + "%");

    metrics = {
        {"netlist.load_s", median(tr.all_seconds("netlist.load")), "s"},
        {"lint.s", tr.last_seconds("lint"), "s"},
        {"rare.s", tr.last_seconds("rare"), "s"},
        {"compat.s", compat_s, "s"},
        {"train.s", tr.last_seconds("train"), "s"},
        {"extract.s", tr.last_seconds("extract"), "s"},
        {"save.s", tr.last_seconds("save"), "s"},
        {"hydrate.s", median(tr.all_seconds("hydrate")), "s"},
        {"compat.sim_s", sim_s, "s"},
        {"compat.sat_s", compat_s - sim_s, "s"},
        {"compat.sat_sat", static_cast<double>(cc.sat_sat), "count"},
        {"compat.sat_unsat", static_cast<double>(cc.sat_unsat), "count"},
        {"compat.timeouts", static_cast<double>(cc.timeouts), "count"},
        {"compat.sat_ms_per_query",
         1e3 * (compat_s - sim_s) / static_cast<double>(std::max<std::size_t>(cc.sat_queries, 1)),
         "ms"},
        {"compat.pairs", static_cast<double>(cc.pairs), "count"},
        {"compat.sim_resolved", static_cast<double>(cc.sim_resolved), "count"},
        {"compat.sim_resolved_ratio",
         static_cast<double>(cc.sim_resolved) / static_cast<double>(std::max<std::size_t>(cc.pairs, 1)),
         "ratio"},
        {"compat.edges", static_cast<double>(cc.edges), "count"},
        {"train.update_s", median(update_s), "s"},
        {"train.nn_s", train_replay_s - timed->seconds, "s"},
        {"env.step_s", timed->seconds, "s"},
        {"env.steps", static_cast<double>(trainer.total_steps()), "count"},
        {"env.episodes", static_cast<double>(trainer.total_episodes()), "count"},
        {"env.sat_queries", env_queries, "count"},
        {"env.witness_hits", env_hits, "count"},
        {"env.witness_hit_ratio", env_hits / std::max(1.0, env_hits + env_queries), "ratio"},
        {"extract.queries", static_cast<double>(candidates), "count"},
        {"extract.distinct_ratio",
         static_cast<double>(test_length) / static_cast<double>(std::max<std::size_t>(candidates, 1)),
         "ratio"},
        {"cache.entries", static_cast<double>(cache_stats.entries), "count"},
        {"cache.bytes", static_cast<double>(cache_stats.bytes), "bytes"},
        {"trojan.sample_s", tr.last_seconds("trojan.sample"), "s"},
        {"coverage.eval_s", tr.last_seconds("coverage.eval"), "s"},
        {"trace.overhead_pct", 100.0 * (traced_total - last.seconds) / last.seconds, "%"},
        {"trace.stage_cover_pct", cover_pct, "%"},
    };
    if (!args.trace_out.empty()) {
      fs::create_directories(args.trace_out.parent_path());
      tr.write_chrome(args.trace_out.string());
    }
  }

  fs::remove_all(args.work_dir);
  const bool correct = gate.global_ok && gate.failed == 0;
  print_result(correct, gate, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: error: %s\n", e.what());
    return 2;
  }
}
