// Micro-benchmark: bit-parallel logic simulation throughput, old vs new.
//
// Backs the paper's feasibility arguments — rare-net discovery, the
// compatibility pre-filter, and coverage evaluation all ride on raw
// simulation speed. Compares the seed's single-word, per-gate-dispatch
// simulator against sim::Engine at several sweep widths W (W x 64 patterns
// per pass), across every SIMD kernel backend this host supports (scalar /
// NEON / AVX2 / AVX-512), and with pattern-stripe thread parallelism,
// reporting gate-evaluations/sec. Also times incremental re-simulation of
// single-bit mutations against full sweeps ("incremental" JSON block).
//
//   ./micro_sim [output.json]           (default output: BENCH_sim.json)
//
// DETERRENT_BENCH_MODE=quick shrinks the circuit and pattern count for CI
// smoke runs; default/full use a >= 20k-gate circuit at >= 16k patterns.
// DETERRENT_FORCE_ISA pins the backend of the main engine rows; the per-ISA
// "simd" sweep always measures every supported backend regardless.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

#include "bench_gen/random_circuit.hpp"
#include "netlist/gate.hpp"
#include "sim/engine.hpp"
#include "sim/kernels/dispatch.hpp"
#include "sim/pattern.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace deterrent;

namespace {

/// The seed repository's simulator, reproduced verbatim as the comparison
/// baseline: one 64-pattern word per pass, a per-gate scratch copy of the
/// fanin words, and an out-of-line eval_word call per gate.
class SeedSimulator {
 public:
  explicit SeedSimulator(const netlist::Netlist& netlist) : netlist_(&netlist) {
    values_.resize(netlist.net_count(), 0);
  }

  std::span<const std::uint64_t> simulate_block(
      std::span<const std::uint64_t> input_words) {
    const auto& nl = *netlist_;
    for (std::size_t i = 0; i < input_words.size(); ++i)
      values_[nl.inputs()[i]] = input_words[i];
    for (netlist::NetId id : nl.topo_order()) {
      const netlist::GateType type = nl.type(id);
      if (type == netlist::GateType::Input) continue;
      const auto fanins = nl.fanins(id);
      scratch_.resize(fanins.size());
      for (std::size_t k = 0; k < fanins.size(); ++k) scratch_[k] = values_[fanins[k]];
      values_[id] = netlist::eval_word(type, scratch_);
    }
    return values_;
  }

 private:
  const netlist::Netlist* netlist_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> scratch_;
};

struct Result {
  std::string config;
  std::size_t threads = 1;
  std::size_t words = 1;
  double gate_evals_per_sec = 0.0;
  double speedup_vs_seed = 0.0;
  std::uint64_t checksum = 0;  ///< XOR of all output-net value words (sanity)
};

struct Workload {
  netlist::Netlist netlist;
  sim::PatternSet patterns;
  double gate_evals_per_sweep = 0.0;
};

/// Runs `sweep` repeatedly until the measured time is stable enough, and
/// returns gate-evals/sec for the best repetition (minimum time — standard
/// micro-bench practice to suppress scheduler noise).
template <typename SweepFn>
double measure(const Workload& w, double min_seconds, SweepFn&& sweep) {
  double best = 0.0;
  double total = 0.0;
  int reps = 0;
  while (total < min_seconds || reps < 3) {
    util::Stopwatch watch;
    sweep();
    const double s = watch.elapsed_seconds();
    total += s;
    ++reps;
    best = std::max(best, w.gate_evals_per_sweep / s);
    if (reps > 50) break;
  }
  return best;
}

/// Times `run` repeatedly (best-of reps, same policy as measure()) for
/// workloads with their own unit of work, such as mutation loops.
template <typename RunFn>
double time_best(double min_seconds, RunFn&& run) {
  double best = 1e300, total = 0.0;
  int reps = 0;
  while (total < min_seconds || reps < 3) {
    util::Stopwatch watch;
    run();
    const double s = watch.elapsed_seconds();
    total += s;
    ++reps;
    best = std::min(best, s);
    if (reps > 50) break;
  }
  return best;
}

std::uint64_t checksum_outputs(const netlist::Netlist& nl,
                               std::span<const std::uint64_t> values_word_per_net) {
  std::uint64_t sum = 0;
  for (const netlist::NetId out : nl.outputs()) sum ^= values_word_per_net[out];
  return sum;
}

/// One single-threaded whole-set sweep measurement of `engine` at the given
/// width: gate-evals/sec (best rep) plus the XOR output checksum, the shared
/// unit of work behind the W-sweep and per-ISA rows.
struct SweepMeasurement {
  double gate_evals_per_sec = 0.0;
  std::uint64_t checksum = 0;
};

SweepMeasurement measure_engine_sweep(const Workload& w, double min_seconds,
                                      const sim::Engine& engine, std::size_t words) {
  sim::EvalBuffer buf;
  SweepMeasurement m;
  m.gate_evals_per_sec = measure(w, min_seconds, [&] {
    m.checksum = 0;
    const std::size_t n_blocks = w.patterns.block_count();
    for (std::size_t first = 0; first < n_blocks; first += words) {
      const std::size_t n = std::min(words, n_blocks - first);
      engine.evaluate_blocks(buf, w.patterns, first, n);
      for (std::size_t ww = 0; ww < n; ++ww)
        for (const netlist::NetId out : w.netlist.outputs())
          m.checksum ^= buf.word(out, ww);
    }
  });
  return m;
}

}  // namespace

namespace {

int run_micro_sim(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sim.json";
  const bench::BenchMode mode = bench::bench_mode_from_env();

  Workload w;
  bench_gen::RandomCircuitProfile profile;
  profile.name = "micro_sim_random";
  profile.seed = 7;
  profile.wide_gate_fraction = 0.15;
  std::size_t n_patterns;
  if (mode == bench::BenchMode::Quick) {
    profile.n_inputs = 96;
    profile.n_outputs = 48;
    profile.n_gates = 6000;
    n_patterns = 4096;
  } else {
    profile.n_inputs = 128;
    profile.n_outputs = 64;
    profile.n_gates = 24000;
    n_patterns = 16384;
  }
  w.netlist = bench_gen::generate_random_circuit(profile);
  util::Rng rng(11);
  w.patterns = sim::PatternSet::random(w.netlist.inputs().size(), n_patterns, rng);
  w.gate_evals_per_sweep = static_cast<double>(w.netlist.gate_count()) *
                           static_cast<double>(n_patterns);
  const double min_seconds = mode == bench::BenchMode::Quick ? 0.1 : 0.3;

  std::printf("micro_sim: %zu gates, %zu nets, %zu inputs, %zu patterns (%s mode)\n",
              w.netlist.gate_count(), w.netlist.net_count(), w.netlist.inputs().size(),
              n_patterns, bench::to_string(mode));

  std::vector<Result> results;

  // --- seed word simulator (the old hot path) ------------------------------
  {
    SeedSimulator seed_sim(w.netlist);
    std::uint64_t sum = 0;
    const double rate = measure(w, min_seconds, [&] {
      sum = 0;
      for (std::size_t b = 0; b < w.patterns.block_count(); ++b) {
        const auto values = seed_sim.simulate_block(w.patterns.block(b));
        sum ^= checksum_outputs(w.netlist, values);
      }
    });
    results.push_back({"seed_word_simulator", 1, 1, rate, 1.0, sum});
  }
  const double seed_rate = results[0].gate_evals_per_sec;
  const std::uint64_t seed_checksum = results[0].checksum;

  // --- engine, single thread, W in {1, 4, 8} -------------------------------
  // Uses the default backend selection, so these rows honor a forced
  // DETERRENT_FORCE_ISA (reported as "engine_isa" in the JSON).
  const sim::Engine engine(w.netlist);
  for (const std::size_t words : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const auto m = measure_engine_sweep(w, min_seconds, engine, words);
    results.push_back({"engine_w" + std::to_string(words), 1, words,
                       m.gate_evals_per_sec, m.gate_evals_per_sec / seed_rate,
                       m.checksum});
  }

  // --- engine, per-ISA kernel backends, W = 8 ------------------------------
  // One engine per supported backend on the same workload; the scalar row is
  // the speedup reference. Checksums must equal the seed simulator's — the
  // backends are required to be bit-identical, not just fast.
  struct IsaResult {
    util::Isa isa;
    double gate_evals_per_sec = 0.0;
    double speedup_vs_scalar = 0.0;
    std::uint64_t checksum = 0;
    bool checksums_ok = false;
  };
  std::vector<IsaResult> isa_results;
  {
    // Measure the scalar baseline explicitly first (it is always supported)
    // instead of relying on supported_isas() listing Scalar before the wide
    // backends — the speedup denominator must never be an uninitialized 0.
    const sim::Engine scalar_engine(w.netlist, util::Isa::Scalar);
    const auto sm = measure_engine_sweep(w, min_seconds, scalar_engine,
                                         sim::Engine::kDefaultWords);
    const double scalar_rate = sm.gate_evals_per_sec;
    if (!(scalar_rate > 0.0)) {
      std::fprintf(stderr, "micro_sim: scalar baseline rate is not positive\n");
      return 1;
    }
    isa_results.push_back({util::Isa::Scalar, sm.gate_evals_per_sec, 1.0,
                           sm.checksum, sm.checksum == seed_checksum});
    for (const util::Isa isa : util::supported_isas(sim::kernels::table_or_null)) {
      if (isa == util::Isa::Scalar) continue;
      const sim::Engine isa_engine(w.netlist, isa);
      const auto m = measure_engine_sweep(w, min_seconds, isa_engine,
                                          sim::Engine::kDefaultWords);
      isa_results.push_back({isa, m.gate_evals_per_sec,
                             m.gate_evals_per_sec / scalar_rate, m.checksum,
                             m.checksum == seed_checksum});
    }
  }

  // --- engine, pattern-stripe parallel, W = 8 ------------------------------
  for (const std::size_t n_threads : {std::size_t{2}, std::size_t{4}}) {
    util::ThreadPool pool(n_threads);
    constexpr std::size_t kWords = sim::Engine::kDefaultWords;
    std::vector<std::uint64_t> partial(pool.thread_count(), 0);
    std::uint64_t sum = 0;
    const double rate = measure(w, min_seconds, [&] {
      std::fill(partial.begin(), partial.end(), 0);
      pool.parallel_chunks(
          w.patterns.block_count(),
          [&](std::size_t thread, std::size_t begin, std::size_t end) {
            sim::EvalBuffer buf;
            for (std::size_t first = begin; first < end; first += kWords) {
              const std::size_t n = std::min(kWords, end - first);
              engine.evaluate_blocks(buf, w.patterns, first, n);
              for (std::size_t ww = 0; ww < n; ++ww)
                for (const netlist::NetId out : w.netlist.outputs())
                  partial[thread] ^= buf.word(out, ww);
            }
          });
      sum = 0;
      for (const std::uint64_t p : partial) sum ^= p;
    });
    results.push_back({"engine_w8_t" + std::to_string(n_threads), n_threads, kWords,
                       rate, rate / seed_rate, sum});
  }

  // --- incremental re-simulation: single-bit mutation loop -----------------
  // The MERO/TGRL-style workload: flip one input bit, re-simulate, read the
  // outputs. Full sweeps re-run the whole program per mutation; resimulate
  // re-evaluates only the flipped bit's fanout cone (with change cut-off).
  //
  // Mutation loops operate on *full-scan* netlists, where most inputs are
  // pseudo-PIs (scanned flip-flops) with shallow individual cones — so this
  // workload keeps the gate count but uses a scan-profile input count
  // instead of the dense 128-input mesh above.
  std::size_t n_mutations = mode == bench::BenchMode::Quick ? 2000 : 10000;
  std::size_t mut_inputs, mut_gates;
  if (mode == bench::BenchMode::Quick) {
    mut_inputs = 512;
    mut_gates = 6000;
  } else {
    mut_inputs = 2048;
    mut_gates = 24000;
  }
  double mut_full_per_sec = 0.0, mut_inc_per_sec = 0.0;
  double incremental_speedup = 0.0, avg_gate_evals_per_mutation = 0.0;
  bool incremental_checksum_ok = false;
  {
    bench_gen::RandomCircuitProfile mprofile;
    mprofile.name = "micro_sim_scan_profile";
    mprofile.seed = 13;
    mprofile.wide_gate_fraction = 0.15;
    mprofile.n_inputs = mut_inputs;
    mprofile.n_outputs = 64;
    mprofile.n_gates = mut_gates;
    const netlist::Netlist scan_nl = bench_gen::generate_random_circuit(mprofile);
    const sim::Engine scan_engine(scan_nl);

    util::Rng mrng(23);
    const std::size_t n_inputs = scan_nl.inputs().size();
    std::vector<std::uint32_t> flips(n_mutations);
    for (auto& f : flips) f = static_cast<std::uint32_t>(mrng.below(n_inputs));
    std::vector<std::uint64_t> base(n_inputs);
    for (auto& b : base) b = mrng.next_word();

    sim::EvalBuffer buf;
    std::vector<std::uint64_t> words;
    std::uint64_t full_sum = 0, inc_sum = 0;
    std::size_t inc_ops_total = 0;
    const double full_s = time_best(min_seconds, [&] {
      words = base;
      full_sum = 0;
      scan_engine.evaluate(buf, words, 1);
      for (const std::uint32_t f : flips) {
        words[f] = ~words[f];
        scan_engine.evaluate(buf, words, 1);
        for (const netlist::NetId out : scan_nl.outputs()) full_sum ^= buf.word(out, 0);
      }
    });
    const double inc_s = time_best(min_seconds, [&] {
      words = base;
      inc_sum = 0;
      inc_ops_total = 0;
      scan_engine.evaluate(buf, words, 1);
      for (const std::uint32_t f : flips) {
        words[f] = ~words[f];
        inc_ops_total += scan_engine.resimulate(buf, {&f, 1}, {&words[f], 1});
        for (const netlist::NetId out : scan_nl.outputs()) inc_sum ^= buf.word(out, 0);
      }
    });

    mut_full_per_sec = static_cast<double>(n_mutations) / full_s;
    mut_inc_per_sec = static_cast<double>(n_mutations) / inc_s;
    incremental_speedup = full_s / inc_s;
    avg_gate_evals_per_mutation =
        static_cast<double>(inc_ops_total) / static_cast<double>(n_mutations);
    incremental_checksum_ok = full_sum == inc_sum;

    std::printf(
        "\nincremental re-simulation (%zu single-bit mutations, scan profile: "
        "%zu gates, %zu inputs):\n",
        n_mutations, scan_nl.gate_count(), n_inputs);
    std::printf("  full sweeps        %12.0f mutations/s (%zu gate evals each)\n",
                mut_full_per_sec, scan_nl.gate_count());
    std::printf("  resimulate         %12.0f mutations/s (%.1f gate evals each)\n",
                mut_inc_per_sec, avg_gate_evals_per_mutation);
    std::printf("  speedup            %12.2fx, checksums %s\n", incremental_speedup,
                incremental_checksum_ok ? "match" : "MISMATCH");
  }

  // --- report --------------------------------------------------------------
  bool checksums_ok = incremental_checksum_ok;
  std::printf("\n%-22s %8s %6s %16s %10s\n", "config", "threads", "words",
              "gate_evals/s", "speedup");
  for (const auto& r : results) {
    std::printf("%-22s %8zu %6zu %16.3e %9.2fx\n", r.config.c_str(), r.threads,
                r.words, r.gate_evals_per_sec, r.speedup_vs_seed);
    if (r.checksum != seed_checksum) {
      checksums_ok = false;
      std::printf("  !! checksum mismatch vs seed simulator (%016llx vs %016llx)\n",
                  static_cast<unsigned long long>(r.checksum),
                  static_cast<unsigned long long>(seed_checksum));
    }
  }

  std::printf("\nSIMD kernel backends (W = %zu; engine rows above used: %s):\n",
              sim::Engine::kDefaultWords, util::to_string(engine.isa()));
  std::printf("%-10s %16s %18s %10s\n", "isa", "gate_evals/s", "speedup_vs_scalar",
              "checksums");
  for (const auto& r : isa_results) {
    std::printf("%-10s %16.3e %17.2fx %10s\n", util::to_string(r.isa),
                r.gate_evals_per_sec, r.speedup_vs_scalar,
                r.checksums_ok ? "ok" : "MISMATCH");
    checksums_ok = checksums_ok && r.checksums_ok;
  }
  std::printf("checksums: %s\n", checksums_ok ? "all match" : "MISMATCH");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_sim: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_sim\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", bench::to_string(mode));
  std::fprintf(f, "  \"gates\": %zu,\n", w.netlist.gate_count());
  std::fprintf(f, "  \"nets\": %zu,\n", w.netlist.net_count());
  std::fprintf(f, "  \"inputs\": %zu,\n", w.netlist.inputs().size());
  std::fprintf(f, "  \"patterns\": %zu,\n", n_patterns);
  std::fprintf(f, "  \"checksums_ok\": %s,\n", checksums_ok ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"threads\": %zu, \"words\": %zu, "
                 "\"gate_evals_per_sec\": %.6e, \"speedup_vs_seed\": %.4f}%s\n",
                 r.config.c_str(), r.threads, r.words, r.gate_evals_per_sec,
                 r.speedup_vs_seed, i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  // The backend the engine_w* rows above actually ran on (honors a forced
  // DETERRENT_FORCE_ISA); the per-ISA rows below are self-labeled.
  std::fprintf(f, "  \"engine_isa\": \"%s\",\n",
               util::to_string(engine.isa()));
  std::fprintf(f, "  \"simd\": [\n");
  for (std::size_t i = 0; i < isa_results.size(); ++i) {
    const auto& r = isa_results[i];
    std::fprintf(f,
                 "    {\"isa\": \"%s\", \"words\": %zu, \"gate_evals_per_sec\": "
                 "%.6e, \"speedup_vs_scalar\": %.4f, \"checksums_ok\": %s}%s\n",
                 util::to_string(r.isa), sim::Engine::kDefaultWords,
                 r.gate_evals_per_sec, r.speedup_vs_scalar,
                 r.checksums_ok ? "true" : "false",
                 i + 1 == isa_results.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"incremental\": {\n");
  std::fprintf(f, "    \"scan_profile_gates\": %zu,\n", mut_gates);
  std::fprintf(f, "    \"scan_profile_inputs\": %zu,\n", mut_inputs);
  std::fprintf(f, "    \"single_bit_mutations\": %zu,\n", n_mutations);
  std::fprintf(f, "    \"full_mutations_per_sec\": %.6e,\n", mut_full_per_sec);
  std::fprintf(f, "    \"incremental_mutations_per_sec\": %.6e,\n", mut_inc_per_sec);
  std::fprintf(f, "    \"avg_gate_evals_per_mutation\": %.2f,\n",
               avg_gate_evals_per_mutation);
  std::fprintf(f, "    \"speedup_vs_full\": %.4f,\n", incremental_speedup);
  std::fprintf(f, "    \"checksum_ok\": %s\n", incremental_checksum_ok ? "true" : "false");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return checksums_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_micro_sim(argc, argv);
  } catch (const std::exception& e) {  // e.g. a bad DETERRENT_FORCE_ISA value
    std::fprintf(stderr, "micro_sim: %s\n", e.what());
    return 1;
  }
}
