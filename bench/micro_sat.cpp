// Micro-benchmark: incremental SAT oracle throughput on netlist CNFs.
//
// Backs §3.3/§5 — the offline pairwise phase and the per-step compatibility
// checks issue tens of thousands of assumption-based rare-net queries against
// one solver instance; queries/sec is the figure of merit. Runs one fixed
// pair-query stream over a full-scan benchmark cone through three
// sat::NetlistOracle legs: a plain one (full branching, as the environments,
// extraction and the baselines use it), one that branches on the primary
// inputs only (NetlistOracle::branch_on_inputs, the compatibility build's
// fallback query), and one that answers by justification
// (NetlistOracle::justify, the compatibility build's first query). All legs
// must answer Sat on the same queries ("verdicts_match"), and every Sat
// answer's input pattern from any leg — the justification leg's candidates
// included — is re-simulated through sim::Engine and must drive both
// constrained nets to their required values ("models_verified" — the bench
// doubles as an end-to-end solver/encoder check).
//
//   ./micro_sat [output.json]           (default output: BENCH_sim.json)
//
// Appends a "sat" block into the output JSON if it already exists (micro_sim
// writes the rest of the file); otherwise writes a fresh root object. Re-runs
// replace a previous "sat" block instead of duplicating it.
// DETERRENT_BENCH_MODE=quick shrinks the workload for CI smoke runs.
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

#include "analysis/rare_nets.hpp"
#include "bench_gen/library.hpp"
#include "sat/oracle.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace deterrent;

namespace {

using QueryStream = std::vector<std::array<sat::Constraint, 2>>;

/// A fixed, seed-reproducible stream of rare-net pair queries — the workload
/// shape of the offline compatibility phase (is rare net i at its rare value
/// compatible with rare net j at its rare value?).
QueryStream make_queries(const std::vector<analysis::RareNet>& rare,
                         std::size_t n_queries) {
  QueryStream stream;
  util::Rng rng(3);
  for (std::size_t q = 0; q < n_queries; ++q) {
    const auto i = rng.below(rare.size());
    auto j = rng.below(rare.size());
    if (j == i) j = (j + 1) % rare.size();
    stream.push_back(
        std::array<sat::Constraint, 2>{sat::Constraint{rare[i].net, rare[i].rare_value},
                                       sat::Constraint{rare[j].net, rare[j].rare_value}});
  }
  return stream;
}

struct StreamResult {
  double queries_per_sec = 0.0;
  std::vector<sim::Pattern> models;      // input pattern of every Sat answer
  std::vector<std::size_t> model_query;  // stream index of each pattern
};

enum class Leg { Plain, InputBranching, Justification };

/// Runs the full query stream through a fresh oracle and returns
/// queries/sec (oracle construction is setup, not counted — the paper's
/// workload amortizes one encoding over the whole pairwise phase).
StreamResult run_stream(const netlist::Netlist& nl, const QueryStream& stream, Leg leg) {
  StreamResult r;
  sat::NetlistOracle oracle(nl);
  if (leg != Leg::Plain) oracle.branch_on_inputs();
  util::Stopwatch watch;
  for (std::size_t q = 0; q < stream.size(); ++q) {
    if (leg == Leg::Justification) {
      auto answer = oracle.justify(stream[q], -1);
      if (answer.verdict != sat::Justification::Verdict::Candidate) continue;
      r.models.push_back(std::move(answer.candidate));
    } else {
      if (!oracle.satisfiable(stream[q])) continue;
      r.models.push_back(oracle.input_model());
    }
    r.model_query.push_back(q);
  }
  r.queries_per_sec = static_cast<double>(stream.size()) / watch.elapsed_seconds();
  return r;
}

/// Re-simulates every Sat pattern: each must drive both constrained nets of
/// its query to the required values.
bool verify_models(const netlist::Netlist& nl, const QueryStream& stream,
                   const StreamResult& r) {
  const sim::Engine engine(nl);
  sim::EvalBuffer buf;
  for (std::size_t m = 0; m < r.models.size(); ++m) {
    const std::vector<bool> values = engine.evaluate_pattern(buf, r.models[m]);
    for (const auto& c : stream[r.model_query[m]])
      if (values[c.net] != c.value) return false;
  }
  return true;
}

int run_micro_sat(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sim.json";
  const bench::BenchMode mode = bench::bench_mode_from_env();

  const std::string bench_name =
      mode == bench::BenchMode::Quick ? "s13207_like" : "mips16_like";
  const std::size_t n_queries = mode == bench::BenchMode::Quick ? 300 : 1500;

  const bench_gen::Benchmark bench = bench_gen::load_benchmark(bench_name);
  const netlist::Netlist& nl = bench.scan.comb;

  analysis::RareNetConfig rare_config;
  rare_config.threshold = 0.1;
  rare_config.sim_patterns = 1 << 12;
  util::Rng rare_rng(1);
  const auto rare = analysis::find_rare_nets(nl, rare_config, rare_rng);
  if (rare.size() < 2) {
    std::fprintf(stderr, "micro_sat: too few rare nets in %s\n", bench_name.c_str());
    return 1;
  }
  const QueryStream stream = make_queries(rare, n_queries);

  std::printf("micro_sat: %s, %zu gates, %zu rare nets, %zu pair queries (%s mode)\n",
              bench_name.c_str(), nl.gate_count(), rare.size(), stream.size(),
              bench::to_string(mode));

  const StreamResult plain = run_stream(nl, stream, Leg::Plain);
  const StreamResult inputs = run_stream(nl, stream, Leg::InputBranching);
  const StreamResult justified = run_stream(nl, stream, Leg::Justification);
  const bool verdicts_match = plain.model_query == inputs.model_query &&
                              plain.model_query == justified.model_query;
  const bool models_verified = verify_models(nl, stream, plain) &&
                               verify_models(nl, stream, inputs) &&
                               verify_models(nl, stream, justified);
  const double sat_fraction =
      static_cast<double>(plain.models.size()) / static_cast<double>(stream.size());

  std::printf("\nplain oracle:           %.1f queries/s, sat fraction %.3f\n",
              plain.queries_per_sec, sat_fraction);
  std::printf("input-branching oracle: %.1f queries/s (%.2fx)\n", inputs.queries_per_sec,
              inputs.queries_per_sec / plain.queries_per_sec);
  std::printf("justifying oracle:      %.1f queries/s (%.2fx)\n",
              justified.queries_per_sec, justified.queries_per_sec / plain.queries_per_sec);
  std::printf("Sat verdicts match: %s\n", verdicts_match ? "yes" : "NO — VERDICT MISMATCH");
  std::printf("Sat patterns re-simulated: %zu + %zu + %zu, all verified: %s\n",
              plain.models.size(), inputs.models.size(), justified.models.size(),
              models_verified ? "yes" : "NO — MODEL MISMATCH");

  const bench::JsonSplice splice = bench::json_splice(out_path, "sat");
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_sat: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "%s", splice.head.c_str());
  std::fprintf(f, "\n  \"sat\": {\n");
  std::fprintf(f, "    \"benchmark\": \"%s\",\n", bench_name.c_str());
  std::fprintf(f, "    \"mode\": \"%s\",\n", bench::to_string(mode));
  std::fprintf(f, "    \"gates\": %zu,\n", nl.gate_count());
  std::fprintf(f, "    \"rare_nets\": %zu,\n", rare.size());
  std::fprintf(f, "    \"queries\": %zu,\n", stream.size());
  std::fprintf(f, "    \"sat_fraction\": %.4f,\n", sat_fraction);
  std::fprintf(f, "    \"plain_queries_per_sec\": %.6e,\n", plain.queries_per_sec);
  std::fprintf(f, "    \"input_branching_queries_per_sec\": %.6e,\n",
               inputs.queries_per_sec);
  std::fprintf(f, "    \"justified_queries_per_sec\": %.6e,\n", justified.queries_per_sec);
  std::fprintf(f, "    \"sat_models\": %zu,\n", plain.models.size());
  std::fprintf(f, "    \"verdicts_match\": %s,\n", verdicts_match ? "true" : "false");
  std::fprintf(f, "    \"models_verified\": %s\n", models_verified ? "true" : "false");
  std::fprintf(f, "  }%s", splice.tail.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return verdicts_match && models_verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_micro_sat(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micro_sat: %s\n", e.what());
    return 1;
  }
}
