// Quickstart: run the complete DETERRENT pipeline on a small benchmark and
// check the generated test patterns against randomly inserted Trojans.
//
//   ./quickstart [benchmark_name | path/to/netlist.bench]
//
// Default benchmark: c2670_like. Any ISCAS `.bench` file also works.
#include <cstdio>
#include <string>

#include "bench_gen/library.hpp"
#include "core/pipeline.hpp"
#include "netlist/stats.hpp"
#include "trojan/coverage.hpp"
#include "trojan/trojan.hpp"
#include "util/timer.hpp"

using namespace deterrent;

int main(int argc, char** argv) {
  const std::string target = argc > 1 ? argv[1] : "c2670_like";
  const bool from_file = target.find(".bench") != std::string::npos;
  bench_gen::Benchmark bench = from_file ? bench_gen::load_benchmark_file(target)
                                         : bench_gen::load_benchmark(target);

  const auto stats = netlist::compute_stats(bench.scan.comb);
  std::printf("== DETERRENT quickstart on %s ==\n%s\n\n", bench.name.c_str(),
              stats.to_string().c_str());

  // 1. Configure the pipeline: rareness threshold 0.1 (the paper's default),
  //    a modest training budget, and 32 output patterns.
  core::DeterrentConfig config;
  config.rare.threshold = 0.1;
  config.updates = 20;
  config.k_patterns = 32;
  config.seed = 42;

  core::Pipeline deterrent(bench.scan.comb, config);

  // 2. Offline phase: rare nets + pairwise compatibility (Figure 4, left).
  util::Stopwatch watch;
  deterrent.run_rare_nets();
  deterrent.run_compatibility();
  std::printf("offline: %zu rare nets, %zu compatible pairs (%.2fs)\n",
              deterrent.rare_nets().size(), deterrent.matrix().edge_count(),
              watch.elapsed_seconds());

  // 3. Train the PPO agent on the compatible-set MDP.
  watch.restart();
  deterrent.run_train();
  std::printf("training: %zu distinct sets, largest = %zu rare nets (%.2fs)\n",
              deterrent.pool().size(), deterrent.pool().max_set_size(),
              watch.elapsed_seconds());

  // 4. Extract test patterns from the k largest compatible sets via SAT.
  deterrent.run_extract();
  const sim::PatternSet& patterns = deterrent.patterns();
  std::printf("extracted %zu test patterns\n\n", patterns.pattern_count());

  // 5. Adversary simulation: insert 100 random 4-width Trojans (validated by
  //    SAT) and measure trigger coverage.
  sat::NetlistOracle oracle(bench.scan.comb);
  util::Rng rng(7);
  trojan::TrojanSampleConfig tcfg;
  tcfg.width = 4;
  tcfg.count = 100;
  const auto trojans =
      trojan::sample_trojans(bench.scan.comb, deterrent.rare_nets(), tcfg, oracle, rng);

  const auto coverage = trojan::evaluate_coverage(bench.scan.comb, trojans, patterns);
  util::Rng rng2(8);
  const auto random_patterns =
      sim::PatternSet::random(bench.scan.comb.inputs().size(), 10000, rng2);
  const auto random_cov =
      trojan::evaluate_coverage(bench.scan.comb, trojans, random_patterns);

  std::printf("inserted %zu valid Trojans (width 4)\n", trojans.size());
  std::printf("DETERRENT : %5.1f%% trigger coverage with %zu patterns\n",
              coverage.coverage_percent(), patterns.pattern_count());
  std::printf("random    : %5.1f%% trigger coverage with %zu patterns\n",
              random_cov.coverage_percent(), random_patterns.pattern_count());
  return 0;
}
