// Trojan detection campaign: the scenario from the paper's introduction.
//
// A fab-inserted Trojan hides behind a rare trigger; the defender only has
// the golden netlist. This example plays both sides:
//   * the adversary inserts a real Trojan (trigger AND-tree + XOR payload)
//     into the design and we verify its stealth against random testing;
//   * the defender generates test sets with DETERRENT and two baselines and
//     applies them to the infected chip — a test "detects" the Trojan when
//     some pattern makes the infected outputs differ from the golden ones.
//
//   ./trojan_campaign [benchmark_name]
#include <bit>
#include <cstdio>
#include <string>

#include "baselines/atpg_like.hpp"
#include "baselines/tarmac.hpp"
#include "bench_gen/library.hpp"
#include "core/pipeline.hpp"
#include "sim/engine.hpp"
#include "trojan/coverage.hpp"
#include "trojan/trojan.hpp"
#include "util/table.hpp"

using namespace deterrent;

namespace {

/// Counts patterns whose primary outputs differ between golden and infected —
/// i.e. the payload became visible on a pin. Both netlists are swept in
/// lock-step 64-pattern blocks; a pattern is exposing when any output word
/// lane differs.
std::size_t exposing_patterns(const netlist::Netlist& golden,
                              const netlist::Netlist& infected,
                              const sim::PatternSet& patterns) {
  const sim::Engine gengine(golden);
  const sim::Engine iengine(infected);
  sim::EvalBuffer ibuf;
  std::size_t exposed = 0;
  gengine.sweep(patterns, [&](std::size_t first_block, std::size_t n_words,
                              const sim::EvalBuffer& gbuf) {
    iengine.evaluate_blocks(ibuf, patterns, first_block, n_words);
    for (std::size_t w = 0; w < n_words; ++w) {
      std::uint64_t differs = 0;
      for (std::size_t o = 0; o < golden.outputs().size(); ++o)
        differs |= gbuf.word(golden.outputs()[o], w) ^
                   ibuf.word(infected.outputs()[o], w);
      differs &= patterns.valid_mask(first_block + w);
      exposed += static_cast<std::size_t>(std::popcount(differs));
    }
  });
  return exposed;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "c5315_like";
  auto bench = bench_gen::load_benchmark(name);
  const auto& golden = bench.scan.comb;
  std::printf("== Trojan campaign on %s (%zu gates) ==\n\n", name.c_str(),
              golden.gate_count());

  // --- defender preparation (golden netlist only) --------------------------
  core::DeterrentConfig config;
  config.updates = 25;
  config.k_patterns = 64;
  config.seed = 11;
  core::Pipeline deterrent(golden, config);
  deterrent.run_rare_nets();
  deterrent.run_compatibility();
  std::printf("defender: %zu rare nets below threshold %.2f\n",
              deterrent.rare_nets().size(), config.rare.threshold);

  // --- adversary: pick a stealthy Trojan, build the infected chip ----------
  sat::NetlistOracle oracle(golden);
  util::Rng adversary_rng(666);
  trojan::TrojanSampleConfig tcfg;
  tcfg.width = 4;
  tcfg.count = 1;
  const auto chosen =
      trojan::sample_trojans(golden, deterrent.rare_nets(), tcfg, oracle, adversary_rng);
  if (chosen.empty()) {
    std::printf("no satisfiable trigger found — circuit too small, try another\n");
    return 1;
  }
  const trojan::Trojan& ht = chosen.front();
  const netlist::Netlist infected = trojan::apply_trojan(golden, ht);
  std::printf("adversary: inserted width-%u trigger on nets {", ht.width());
  for (const auto& rn : ht.trigger)
    std::printf(" %s@%d", golden.name(rn.net).empty()
                              ? ("n" + std::to_string(rn.net)).c_str()
                              : golden.name(rn.net).c_str(),
                rn.rare_value ? 1 : 0);
  std::printf(" }, payload XOR on net %u\n\n", ht.payload_net);

  // --- stealth check: does random manufacturing test expose it? ------------
  util::Rng tester_rng(1);
  const auto random_10k = sim::PatternSet::random(golden.inputs().size(), 10000, tester_rng);
  std::printf("stealth: %zu of 10000 random patterns expose the payload\n\n",
              exposing_patterns(golden, infected, random_10k));

  // --- defender test generation ---------------------------------------------
  deterrent.run_train();
  deterrent.run_extract();
  const sim::PatternSet& det_patterns = deterrent.patterns();

  util::Rng baseline_rng(2);
  const auto atpg = baselines::run_atpg_like(golden, deterrent.rare_nets(), baseline_rng);
  baselines::TarmacConfig tarmac_cfg;
  tarmac_cfg.n_patterns = 256;
  const auto tarmac = baselines::run_tarmac(golden, deterrent.rare_nets(),
                                            deterrent.matrix(), tarmac_cfg, baseline_rng);

  util::Table table({"Technique", "Patterns", "Exposing patterns", "Detected"});
  auto report = [&](const char* technique, const sim::PatternSet& patterns) {
    const std::size_t exposed = exposing_patterns(golden, infected, patterns);
    table.add_row({technique, std::to_string(patterns.pattern_count()),
                   std::to_string(exposed), exposed > 0 ? "YES" : "no"});
  };
  report("DETERRENT", det_patterns);
  report("TARMAC", tarmac.patterns);
  report("ATPG-like", atpg.patterns);
  report("Random-10k", random_10k);
  table.print();
  return 0;
}
