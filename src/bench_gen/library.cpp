#include "bench_gen/library.hpp"

#include "bench_gen/mips16.hpp"
#include "bench_gen/multiplier.hpp"
#include "bench_gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "util/assert.hpp"

namespace deterrent::bench_gen {

namespace {

Benchmark from_netlist(std::string name, netlist::Netlist nl, std::size_t paper_rare,
                       std::size_t paper_gates) {
  Benchmark bench;
  bench.name = std::move(name);
  bench.original = std::move(nl);
  bench.scan = netlist::make_full_scan(bench.original);
  bench.paper_rare_nets = paper_rare;
  bench.paper_gates = paper_gates;
  return bench;
}

/// ISCAS-85-family profile: calibrated so the rare-net fraction at θ=0.1
/// lands near the paper's Table 2 census (≈5–8% of gates). XOR-rich, narrow
/// gates and a shallow wiring bias keep most signal probabilities near 0.5.
RandomCircuitProfile combinational_profile(std::string name, std::size_t inputs,
                                           std::size_t outputs, std::size_t gates,
                                           std::uint64_t seed) {
  RandomCircuitProfile p;
  p.name = std::move(name);
  p.n_inputs = inputs;
  p.n_outputs = outputs;
  p.n_gates = gates;
  p.seed = seed;
  p.w_xor = 0.20;
  p.w_not = 0.25;
  p.w_buf = 0.10;
  p.wide_gate_fraction = 0.0;
  p.locality_bias = 0.3;
  return p;
}

/// ISCAS-89-family profile: the s-series circuits are much rarer-net-dense
/// (≈25–33% of gates at θ=0.1); wide AND/NOR gates and deep local wiring
/// reproduce that.
RandomCircuitProfile sequential_profile(std::string name, std::size_t inputs,
                                        std::size_t outputs, std::size_t gates,
                                        std::size_t dffs, std::uint64_t seed) {
  RandomCircuitProfile p;
  p.name = std::move(name);
  p.n_inputs = inputs;
  p.n_outputs = outputs;
  p.n_gates = gates;
  p.n_dffs = dffs;
  p.seed = seed;
  p.w_and = 0.34;
  p.w_nor = 0.22;
  p.w_xor = 0.03;
  p.w_xnor = 0.02;
  p.wide_gate_fraction = 0.15;
  p.locality_bias = 0.8;
  return p;
}

}  // namespace

std::vector<std::string> benchmark_names() {
  return {"c2670_like",  "c5315_like",  "c6288_like",  "c7552_like",
          "s13207_like", "s15850_like", "s35932_like", "mips16_like"};
}

Benchmark load_benchmark(const std::string& name) {
  // Paper reference numbers: Table 2 (rare nets at θ=0.1, gate count).
  if (name == "c2670_like") {
    return from_netlist(name, generate_random_circuit(combinational_profile(
                                  name, 233, 140, 775, 2670)),
                        43, 775);
  }
  if (name == "c5315_like") {
    return from_netlist(name, generate_random_circuit(combinational_profile(
                                  name, 178, 123, 2307, 5315)),
                        165, 2307);
  }
  if (name == "c6288_like") {
    // The real structure: a 16×16 array multiplier, like ISCAS-85 c6288.
    return from_netlist(name, generate_array_multiplier(16), 186, 2416);
  }
  if (name == "c7552_like") {
    return from_netlist(name, generate_random_circuit(combinational_profile(
                                  name, 207, 108, 3513, 7552)),
                        282, 3513);
  }
  if (name == "s13207_like") {
    return from_netlist(name, generate_random_circuit(sequential_profile(
                                  name, 62, 152, 1801, 400, 13207)),
                        604, 1801);
  }
  if (name == "s15850_like") {
    return from_netlist(name, generate_random_circuit(sequential_profile(
                                  name, 77, 150, 2412, 450, 15850)),
                        649, 2412);
  }
  if (name == "s35932_like") {
    return from_netlist(name, generate_random_circuit(sequential_profile(
                                  name, 35, 320, 4736, 1024, 35932)),
                        1151, 4736);
  }
  if (name == "mips16_like") {
    return from_netlist(name, generate_mips16(), 1005, 23511);
  }
  throw Error("unknown benchmark '" + name + "' (see benchmark_names())");
}

Benchmark load_benchmark_file(const std::string& path) {
  Benchmark bench;
  bench.name = path;
  auto parsed = netlist::read_bench_file_checked(path);
  if (!parsed.ok())
    throw Error(path + ": line " + std::to_string(parsed.diagnostics[0].line) + ": " +
                parsed.diagnostics[0].message);
  bench.original = std::move(*parsed.netlist);
  bench.scan = netlist::make_full_scan(bench.original);
  return bench;
}

}  // namespace deterrent::bench_gen
