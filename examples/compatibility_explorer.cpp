// Compatibility explorer: inspect the offline phase of DETERRENT.
//
// Prints the rare-net census for a benchmark (probability histogram, rare
// values), builds the pairwise compatibility matrix, reports how much the
// simulation pre-filter saved over pure SAT, samples a few maximal cliques
// TARMAC-style, and writes the compatibility graph as Graphviz DOT.
//
//   ./compatibility_explorer [benchmark_name] [output.dot]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/compatibility.hpp"
#include "analysis/rare_nets.hpp"
#include "baselines/tarmac.hpp"
#include "bench_gen/library.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace deterrent;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "c6288_like";
  const std::string dot_path = argc > 2 ? argv[2] : "";
  auto bench = bench_gen::load_benchmark(name);
  const auto& nl = bench.scan.comb;

  util::Rng rng(1);
  util::ThreadPool pool;

  analysis::RareNetConfig rare_cfg;
  rare_cfg.threshold = 0.1;
  const auto rare = analysis::find_rare_nets(nl, rare_cfg, rng, &pool);
  std::printf("== %s: %zu rare nets at threshold %.2f ==\n\n", name.c_str(),
              rare.size(), rare_cfg.threshold);

  // Probability histogram of the rare nets.
  std::size_t buckets[5] = {0, 0, 0, 0, 0};  // [0,.02) [.02,.04) ... [.08,.1)
  std::size_t rare_at_one = 0;
  for (const auto& rn : rare) {
    const auto b = std::min<std::size_t>(4, static_cast<std::size_t>(rn.probability / 0.02));
    buckets[b]++;
    rare_at_one += rn.rare_value;
  }
  util::Table hist({"P(rare value)", "# nets"});
  const char* ranges[5] = {"[0.00,0.02)", "[0.02,0.04)", "[0.04,0.06)",
                           "[0.06,0.08)", "[0.08,0.10)"};
  for (int b = 0; b < 5; ++b) hist.add_row({ranges[b], std::to_string(buckets[b])});
  hist.print();
  std::printf("rare value 1: %zu nets, rare value 0: %zu nets\n\n", rare_at_one,
              rare.size() - rare_at_one);

  // Compatibility matrix with build statistics.
  analysis::CompatibilityBuildStats stats;
  const auto matrix = analysis::build_compatibility(nl, rare, {}, rng, &pool, &stats);
  // pair_count includes the rare.size() singleton checks; edges do not.
  std::printf("compatibility: %zu/%zu pairs compatible (avg degree %.1f)\n",
              matrix.edge_count(), stats.pair_count - rare.size(),
              matrix.average_degree());
  std::printf("  resolved by simulation co-occurrence : %zu\n", stats.sim_resolved);
  std::printf("  resolved by SAT (sat/unsat)          : %zu/%zu\n", stats.sat_sat,
              stats.sat_unsat);
  std::printf("  sat proven by a harvested model      : %zu\n", stats.harvested);
  std::printf("  sat proven by its own justification  : %zu\n", stats.justified);
  std::printf("  justification fallbacks              : %zu\n", stats.justify_fallbacks);
  std::printf("  solver calls made                    : %zu\n", stats.solver_calls());
  std::printf("  unsatisfiable singletons             : %zu\n", stats.unsat_singletons);
  std::printf("  build time                           : %.2fs\n\n", stats.build_seconds);

  // Sample maximal cliques the way TARMAC does.
  baselines::TarmacConfig tcfg;
  tcfg.n_patterns = 8;
  const auto tarmac = baselines::run_tarmac(nl, rare, matrix, tcfg, rng);
  std::printf("8 sampled maximal compatible sets (TARMAC-style): sizes");
  for (const auto s : tarmac.clique_sizes) std::printf(" %zu", s);
  std::printf("\n");

  if (!dot_path.empty()) {
    std::ofstream dot(dot_path);
    dot << "graph compat {\n  node [shape=point];\n";
    for (std::uint32_t i = 0; i < matrix.size(); ++i)
      for (std::uint32_t j = i + 1; j < matrix.size(); ++j)
        if (matrix.compatible(i, j)) dot << "  n" << i << " -- n" << j << ";\n";
    dot << "}\n";
    std::printf("wrote compatibility graph to %s\n", dot_path.c_str());
  }
  return 0;
}
