// Micro-benchmark: PPO training throughput at one rollout lane vs wider
// lane counts — the updates/sec currency behind Table 1's steps/min.
//
// Runs the same training workload (compatible-set MDP on a full-scan
// benchmark cone) at rollout_lanes = 1 (the baseline: the same one-path
// trainer, one episode at a time) and at each requested lane count, timing
// each update() and reporting the median update's rate; then runs the lane
// list again with a 2-thread pool shared by the trainer and the env, as
// core::Pipeline trains. Training is
// contractually bit-identical at every lane count and with or without the
// pool, so the bench doubles as a differential check: every configuration
// folds its per-update statistics and final network parameters into an
// episode checksum, and any divergence fails the run ("checksums_identical"
// in the JSON, exit code 1).
//
//   ./micro_ppo [output.json] [lanes]      (default: BENCH_sim.json 1,8,64)
//
// `lanes` is a comma-separated lane-count list; the token "native" means the
// hardware concurrency. Appends a "ppo" block into the output JSON if it
// already exists (micro_sim/micro_sat write the rest of the file); re-runs
// replace a previous "ppo" block instead of duplicating it.
// DETERRENT_BENCH_MODE=quick shrinks the workload for CI smoke runs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

#include "analysis/compatibility.hpp"
#include "bench_gen/library.hpp"
#include "core/compatible_set_env.hpp"
#include "core/artifacts.hpp"
#include "rl/ppo.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace deterrent;

namespace {

struct EnvFixture {
  bench_gen::Benchmark bench;
  std::vector<analysis::RareNet> rare;
  analysis::CompatibilityMatrix matrix;
  std::vector<util::BitVec> signatures;

  explicit EnvFixture(const std::string& name)
      : bench(bench_gen::load_benchmark(name)) {
    util::Rng rng(1);
    util::ThreadPool pool;
    rare = analysis::find_rare_nets(bench.scan.comb, {}, rng, &pool);
    // Reuse the phase-1 activation signatures as the env's witness table —
    // the same wiring core::Pipeline uses, so the bench sees the production
    // witness hit rate (a pairwise-compatible pair proven by simulation
    // shares a pattern with the joint-witness sweep).
    matrix = analysis::build_compatibility(bench.scan.comb, rare, {}, rng, &pool,
                                           nullptr, &signatures);
  }
};

void fold(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;  // FNV-1a step
}

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(v));
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::uint64_t bits(float v) {
  std::uint32_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

struct LaneResult {
  std::size_t lanes = 1;
  std::size_t threads = 1;  // 1 = serial, else the pool's thread count
  double updates_per_sec = 0.0;    // 1 / median seconds of one timed update
  double env_steps_per_sec = 0.0;  // over all timed updates
  double speedup_vs_single = 0.0;
  std::uint64_t checksum = 0;  // episodes + params digest; must match across lanes
  // Env SAT traffic over the whole run, warmup included. These depend on
  // each lane oracle's history (end-of-episode repair answers from the
  // oracle's last Sat model), so unlike the checksum they vary by lane count.
  std::uint64_t env_sat_queries = 0;
  std::uint64_t model_hits = 0;
};

/// Trains a fresh seed-7 trainer at the given lane count, on `threads` when
/// given: one untimed warmup update, then `updates` separately timed ones.
/// The checksum digests every per-update statistic and the final network
/// parameters — bit-identical collection and optimization across lane
/// counts and thread counts is the pass condition.
LaneResult run_lanes(const EnvFixture& fx, const core::EnvConfig& env_cfg,
                     rl::PpoConfig ppo, std::size_t lanes, std::size_t updates,
                     util::ThreadPool* threads) {
  LaneResult result;
  result.lanes = lanes;
  result.threads = threads != nullptr ? threads->thread_count() : 1;
  ppo.rollout_lanes = lanes;

  core::DistinctSetPool pool;
  const auto vector_factory = [&](std::size_t n) -> std::unique_ptr<rl::VectorEnv> {
    return std::make_unique<core::CompatibleSetVectorEnv>(
        fx.bench.scan.comb, fx.rare, fx.matrix, env_cfg, &pool, n, threads);
  };
  rl::PpoTrainer trainer(nullptr, ppo, 7, vector_factory, threads);

  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto digest_update = [&](const rl::PpoUpdateStats& stats) {
    fold(h, stats.steps);
    fold(h, stats.episodes);
    fold(h, bits(stats.mean_episode_reward));
    fold(h, bits(stats.total_loss));
  };

  digest_update(trainer.update());  // warmup: touches every lazy lane oracle

  // Each update is timed on its own and the rate is the median's: one host
  // hiccup then moves a row by one update's share, not the whole block's.
  std::vector<double> update_seconds(updates);
  util::Stopwatch watch;
  const std::uint64_t steps_before = trainer.total_steps();
  for (std::size_t u = 0; u < updates; ++u) {
    util::Stopwatch one;
    digest_update(trainer.update());
    update_seconds[u] = one.elapsed_seconds();
  }
  const double seconds = watch.elapsed_seconds();
  std::sort(update_seconds.begin(), update_seconds.end());
  const double median =
      (update_seconds[(updates - 1) / 2] + update_seconds[updates / 2]) / 2;

  for (const float p : trainer.policy().flat_params()) fold(h, bits(p));
  for (const float p : trainer.value().flat_params()) fold(h, bits(p));
  result.checksum = h;
  const auto& env = static_cast<const core::CompatibleSetVectorEnv&>(trainer.vector_env());
  result.env_sat_queries = env.sat_queries();
  result.model_hits = env.model_hits();
  result.updates_per_sec = 1.0 / median;
  result.env_steps_per_sec =
      static_cast<double>(trainer.total_steps() - steps_before) / seconds;
  return result;
}

std::vector<std::size_t> parse_lanes(const std::string& csv) {
  std::vector<std::size_t> lanes;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token == "native") {
      const unsigned hw = std::thread::hardware_concurrency();
      lanes.push_back(hw == 0 ? 8 : hw);
    } else if (!token.empty()) {
      lanes.push_back(static_cast<std::size_t>(std::stoul(token)));
    }
  }
  return lanes;
}

int run_micro_ppo(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sim.json";
  const bench::BenchMode mode = bench::bench_mode_from_env();
  const std::string bench_name =
      mode == bench::BenchMode::Quick ? "c2670_like" : "mips16_like";
  const std::size_t updates = mode == bench::BenchMode::Quick ? 2 : 5;

  std::vector<std::size_t> lanes =
      argc > 2 ? parse_lanes(argv[2])
               : std::vector<std::size_t>{1, 8, 64};
  if (lanes.empty() || lanes.front() != 1) lanes.insert(lanes.begin(), 1);

  const EnvFixture fx(bench_name);
  if (fx.rare.size() < 4) {
    std::fprintf(stderr, "micro_ppo: too few rare nets in %s\n", bench_name.c_str());
    return 1;
  }

  core::EnvConfig env_cfg;
  env_cfg.reward_mode = core::RewardMode::EndOfEpisode;
  env_cfg.witness_signatures = &fx.signatures;
  env_cfg.max_steps = std::min<std::size_t>(fx.rare.size(), 64);

  rl::PpoConfig ppo = core::DeterrentConfig::boosted_ppo_defaults();
  ppo.episodes_per_update =
      std::max<std::size_t>(mode == bench::BenchMode::Quick ? 32 : 64,
                            *std::max_element(lanes.begin(), lanes.end()));

  std::printf(
      "micro_ppo: %s, %zu gates, %zu rare nets, %zu episodes/update, "
      "%zu timed updates (%s mode)\n",
      bench_name.c_str(), fx.bench.scan.comb.gate_count(), fx.rare.size(),
      ppo.episodes_per_update, updates, bench::to_string(mode));

  std::vector<LaneResult> results;
  util::ThreadPool two(2);
  for (util::ThreadPool* threads : {static_cast<util::ThreadPool*>(nullptr), &two})
    for (const std::size_t n : lanes)
      results.push_back(run_lanes(fx, env_cfg, ppo, n, updates, threads));

  bool checksums_identical = true;
  for (auto& r : results) {
    r.speedup_vs_single = r.updates_per_sec / results[0].updates_per_sec;
    checksums_identical = checksums_identical && r.checksum == results[0].checksum;
  }

  std::printf("\n%8s %8s %14s %16s %10s %12s %12s %18s\n", "lanes", "threads",
              "updates/s", "env_steps/s", "speedup", "sat_queries", "model_hits",
              "episode_checksum");
  for (const auto& r : results)
    std::printf("%8zu %8zu %14.3f %16.1f %9.2fx %12llu %12llu %18llx\n", r.lanes,
                r.threads, r.updates_per_sec, r.env_steps_per_sec, r.speedup_vs_single,
                static_cast<unsigned long long>(r.env_sat_queries),
                static_cast<unsigned long long>(r.model_hits),
                static_cast<unsigned long long>(r.checksum));
  std::printf("episode checksums lane- and thread-count-invariant: %s\n",
              checksums_identical ? "yes" : "NO — DIFFERENTIAL MISMATCH");

  const bench::JsonSplice splice = bench::json_splice(out_path, "ppo");
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_ppo: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "%s", splice.head.c_str());
  std::fprintf(f, "\n  \"ppo\": {\n");
  std::fprintf(f, "    \"benchmark\": \"%s\",\n", bench_name.c_str());
  std::fprintf(f, "    \"mode\": \"%s\",\n", bench::to_string(mode));
  std::fprintf(f, "    \"gates\": %zu,\n", fx.bench.scan.comb.gate_count());
  std::fprintf(f, "    \"rare_nets\": %zu,\n", fx.rare.size());
  std::fprintf(f, "    \"episodes_per_update\": %zu,\n", ppo.episodes_per_update);
  std::fprintf(f, "    \"updates_timed\": %zu,\n", updates);
  std::fprintf(f, "    \"checksums_identical\": %s,\n",
               checksums_identical ? "true" : "false");
  std::fprintf(f, "    \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "      {\"lanes\": %zu, \"threads\": %zu, \"updates_per_sec\": %.6e, "
                 "\"env_steps_per_sec\": %.6e, \"speedup_vs_single\": %.4f, "
                 "\"env_sat_queries\": %llu, \"model_hits\": %llu, "
                 "\"episode_checksum\": \"%llx\"}%s\n",
                 r.lanes, r.threads, r.updates_per_sec, r.env_steps_per_sec,
                 r.speedup_vs_single,
                 static_cast<unsigned long long>(r.env_sat_queries),
                 static_cast<unsigned long long>(r.model_hits),
                 static_cast<unsigned long long>(r.checksum),
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  }%s", splice.tail.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return checksums_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_micro_ppo(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micro_ppo: %s\n", e.what());
    return 1;
  }
}
