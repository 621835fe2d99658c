// Scan-chain demo: how DETERRENT handles sequential designs.
//
// Loads the MIPS16-like processor (or any sequential benchmark), shows the
// full-scan transform (every flip-flop becomes a controllable/observable
// pseudo-pin), runs one processor cycle through the combinational view, and
// exports the design as `.bench`.
//
//   ./scan_chain_demo [benchmark_name]
#include <cstdio>
#include <string>

#include "bench_gen/library.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "sim/engine.hpp"
#include "sim/pattern.hpp"

using namespace deterrent;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "mips16_like";
  auto bench = bench_gen::load_benchmark(name);

  const auto orig_stats = netlist::compute_stats(bench.original);
  const auto scan_stats = netlist::compute_stats(bench.scan.comb);
  std::printf("== %s ==\noriginal : %s\nscan view: %s\n\n", name.c_str(),
              orig_stats.to_string().c_str(), scan_stats.to_string().c_str());
  std::printf("full scan exposes %zu state bits as pseudo inputs and %zu data\n"
              "nets as pseudo outputs; one test pattern now assigns %zu bits.\n\n",
              bench.scan.pseudo_inputs.size(), bench.scan.pseudo_outputs.size(),
              bench.scan.comb.inputs().size());

  if (!bench.original.is_sequential()) {
    std::printf("(%s is combinational; scan view is the identity)\n", name.c_str());
  } else {
    // Drive one combinational cycle: all-zero state, a NOP-ish instruction.
    const sim::Engine engine(bench.scan.comb);
    sim::EvalBuffer buf;
    sim::Pattern pattern(bench.scan.comb.inputs().size());  // all zeros
    const auto values = engine.evaluate_pattern(buf, pattern);
    std::size_t ones = 0;
    for (const auto po : bench.scan.comb.outputs()) ones += values[po];
    std::printf("cycle with all-zero state: %zu of %zu outputs high\n\n", ones,
                bench.scan.comb.outputs().size());
  }

  const std::string bench_path = name + ".bench";
  netlist::write_bench_file(bench.original, bench_path);
  std::printf("exported %s (re-load with load_benchmark_file)\n", bench_path.c_str());

  // Round-trip sanity: the exported .bench reparses identically.
  const auto reloaded = bench_gen::load_benchmark_file(bench_path);
  std::printf("round trip: %zu gates -> %zu gates, %zu FFs -> %zu FFs\n",
              bench.original.gate_count(), reloaded.original.gate_count(),
              bench.original.dffs().size(), reloaded.original.dffs().size());
  return 0;
}
