#pragma once

#include <string>
#include <vector>

#include "netlist/scan.hpp"

namespace deterrent::bench_gen {

/// A ready-to-analyze benchmark: the original (possibly sequential) netlist
/// plus its full-scan combinational view, and the paper's reference numbers
/// for the corresponding Table 2 row.
struct Benchmark {
  std::string name;
  netlist::Netlist original;
  netlist::ScanView scan;  ///< scan.comb is the analysis/simulation target

  std::size_t paper_rare_nets = 0;  ///< Table 2 "Number of rare nets"
  std::size_t paper_gates = 0;      ///< Table 2 "# Gates"
};

/// Loads one of the named profile benchmarks standing in for the paper's
/// suite (DESIGN.md §2): c2670_like, c5315_like, c6288_like (true 16×16 array
/// multiplier), c7552_like, s13207_like, s15850_like, s35932_like (sequential,
/// full-scanned), mips16_like (processor). Throws deterrent::Error for
/// unknown names.
Benchmark load_benchmark(const std::string& name);

/// Loads a user-provided ISCAS `.bench` netlist (e.g. a real c2670) and wraps
/// it in the same interface, so genuine benchmarks drop in without code
/// changes. Throws deterrent::Error when the file is unreadable or the
/// checked parse reports a diagnostic (the first one is named).
Benchmark load_benchmark_file(const std::string& path);

/// All built-in profile names, Table 2 order.
std::vector<std::string> benchmark_names();

}  // namespace deterrent::bench_gen
