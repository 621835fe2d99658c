// Differential tests for the batch simulation engine: sim::Engine must agree
// bit-exactly with the scalar reference oracle (evaluate_naive) on every gate
// type, arity, circuit shape, sweep width W, and pattern-count boundary, its
// threaded sweeps must agree with single-threaded ones, and every SIMD kernel
// backend this host supports must agree word-for-word with the scalar backend
// on both full evaluation and incremental re-simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "analysis/compatibility.hpp"
#include "analysis/rare_nets.hpp"
#include "bench_gen/random_circuit.hpp"
#include "sim/engine.hpp"
#include "rl/adam.hpp"
#include "rl/mlp.hpp"
#include "sim/kernels/dispatch.hpp"
#include "sim/probability.hpp"
#include "trojan/coverage.hpp"
#include "util/thread_pool.hpp"

#include "helpers.hpp"
#include "reference_sim.hpp"

namespace deterrent::sim {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using netlist::NetId;
using util::Isa;

Netlist random_circuit(std::uint64_t seed, std::size_t gates = 150,
                       std::size_t inputs = 10) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = inputs;
  p.n_outputs = 6;
  p.n_gates = gates;
  p.seed = seed;
  p.wide_gate_fraction = 0.25;  // force plenty of n-ary fallback ops
  return bench_gen::generate_random_circuit(p);
}

/// Engine values of every net for every pattern, evaluated in sweeps of
/// `words_per_sweep` blocks, flattened to per-pattern bool rows.
std::vector<std::vector<bool>> engine_all_values(const Netlist& nl,
                                                 const PatternSet& patterns,
                                                 std::size_t words_per_sweep) {
  const Engine engine(nl);
  std::vector<std::vector<bool>> rows(patterns.pattern_count(),
                                      std::vector<bool>(nl.net_count()));
  engine.sweep(
      patterns,
      [&](std::size_t first_block, std::size_t n_words, const EvalBuffer& buf) {
        for (std::size_t w = 0; w < n_words; ++w) {
          const std::uint64_t valid = patterns.valid_mask(first_block + w);
          for (int lane = 0; lane < 64; ++lane) {
            if (!((valid >> lane) & 1ULL)) continue;
            const std::size_t pat = (first_block + w) * 64 + static_cast<std::size_t>(lane);
            for (NetId id = 0; id < nl.net_count(); ++id)
              rows[pat][id] = (buf.word(id, w) >> lane) & 1ULL;
          }
        }
      },
      words_per_sweep);
  return rows;
}

std::vector<bool> naive_for_pattern(const Netlist& nl, const PatternSet& patterns,
                                    std::size_t pat) {
  std::vector<bool> inputs(nl.inputs().size());
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = patterns.bit(pat, i);
  return evaluate_naive(nl, inputs);
}

// ------------------------------------------------------------ gate types ---

TEST(Engine, RejectsSequential) {
  NetlistBuilder b;
  const NetId a = b.add_input();
  const NetId q = b.add_dff(a);
  b.mark_output(q);
  const Netlist nl = b.build();
  EXPECT_THROW(Engine{nl}, Error);
}

TEST(Engine, ConstantsMatchNaive) {
  NetlistBuilder b;
  const NetId a = b.add_input();
  const NetId c0 = b.add_const(false);
  const NetId c1 = b.add_const(true);
  const NetId y = b.add_gate(GateType::And, {a, c1});
  b.mark_output(c0);
  b.mark_output(y);
  const Netlist nl = b.build();
  const Engine engine(nl);
  for (const bool av : {false, true}) {
    Pattern p(1);
    p.set(0, av);
    const auto got = engine.evaluate_pattern(p);
    const auto want = evaluate_naive(nl, {av});
    for (NetId id = 0; id < nl.net_count(); ++id) EXPECT_EQ(got[id], want[id]);
  }
}

/// Exhaustive check of one gate of the given type/arity against the naive
/// oracle — covers the Buf/Not specializations (arity 1), the two-operand
/// kernels (arity 2), and the CSR n-ary fallback (arity >= 3, including
/// arities beyond what the random generator emits).
class EngineGateTypes
    : public ::testing::TestWithParam<std::tuple<GateType, std::size_t>> {};

TEST_P(EngineGateTypes, ExhaustiveMatchesNaive) {
  const auto [type, arity] = GetParam();
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (std::size_t i = 0; i < arity; ++i) ins.push_back(b.add_input());
  const NetId y = b.add_gate(type, ins);
  b.mark_output(y);
  const Netlist nl = b.build();

  PatternSet patterns(arity);
  const std::size_t total = std::size_t{1} << arity;
  for (std::size_t v = 0; v < total; ++v) {
    Pattern p(arity);
    for (std::size_t i = 0; i < arity; ++i) p.set(i, (v >> i) & 1);
    patterns.push(p);
  }

  const auto rows = engine_all_values(nl, patterns, 1);
  for (std::size_t pat = 0; pat < total; ++pat) {
    const auto want = naive_for_pattern(nl, patterns, pat);
    for (NetId id = 0; id < nl.net_count(); ++id)
      ASSERT_EQ(rows[pat][id], want[id])
          << netlist::to_string(type) << " arity " << arity << " pattern " << pat;
  }
}

INSTANTIATE_TEST_SUITE_P(
    UnaryGates, EngineGateTypes,
    ::testing::Combine(::testing::Values(GateType::Buf, GateType::Not),
                       ::testing::Values(std::size_t{1})));

INSTANTIATE_TEST_SUITE_P(
    NaryGates, EngineGateTypes,
    ::testing::Combine(::testing::Values(GateType::And, GateType::Nand, GateType::Or,
                                         GateType::Nor, GateType::Xor, GateType::Xnor),
                       ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                                         std::size_t{5}, std::size_t{7})));

// -------------------------------------------------- random differential ----

/// (seed, pattern_count, words_per_sweep) — pattern counts deliberately not
/// multiples of 64 to exercise the last-block valid_mask path, and W spans
/// the specialized sweep widths.
class EngineDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t, std::size_t>> {
};

TEST_P(EngineDifferential, MatchesNaiveOnRandomCircuits) {
  const auto [seed, pattern_count, words] = GetParam();
  const Netlist nl = random_circuit(seed);
  util::Rng rng(seed * 131 + 17);
  const auto patterns = PatternSet::random(nl.inputs().size(), pattern_count, rng);

  const auto rows = engine_all_values(nl, patterns, words);
  for (std::size_t pat = 0; pat < pattern_count; ++pat) {
    const auto want = naive_for_pattern(nl, patterns, pat);
    for (NetId id = 0; id < nl.net_count(); ++id)
      ASSERT_EQ(rows[pat][id], want[id]) << "net " << id << " pattern " << pat;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByWidth, EngineDifferential,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(std::size_t{63}, std::size_t{130},
                                         std::size_t{257}),
                       ::testing::Values(std::size_t{1}, std::size_t{4},
                                         std::size_t{8})));

TEST(Engine, SweepWidthInvariant) {
  // The same pattern set must produce identical value words at every sweep
  // width, including widths without a specialized kernel (3, 5) that take the
  // generic runtime-W path.
  const Netlist nl = random_circuit(9, 200, 12);
  util::Rng rng(1234);
  const auto patterns = PatternSet::random(nl.inputs().size(), 300, rng);
  const auto reference = engine_all_values(nl, patterns, 1);
  for (const std::size_t words : {std::size_t{3}, std::size_t{5}, std::size_t{8}}) {
    const auto rows = engine_all_values(nl, patterns, words);
    ASSERT_EQ(rows, reference) << "words_per_sweep " << words;
  }
}

TEST(Engine, EvaluatePatternMatchesNaive) {
  const Netlist nl = random_circuit(4);
  const Engine engine(nl);
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    Pattern p(nl.inputs().size());
    std::vector<bool> inputs(nl.inputs().size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs[i] = rng.bernoulli(0.5);
      p.set(i, inputs[i]);
    }
    EXPECT_EQ(engine.evaluate_pattern(p), evaluate_naive(nl, inputs));
  }
}

// ----------------------------------------------------------- determinism ---

TEST(Engine, ThreadedSignalStatsMatchSingleThreaded) {
  const Netlist nl = random_circuit(21, 250, 14);
  util::ThreadPool pool(4);
  util::Rng rng1(77);
  util::Rng rng2(77);
  const auto seq = estimate_signal_stats(nl, 5000, rng1, nullptr);
  const auto par = estimate_signal_stats(nl, 5000, rng2, &pool);
  ASSERT_EQ(seq.ones, par.ones);
}

TEST(Engine, ThreadedSignaturesMatchSingleThreaded) {
  const Netlist nl = random_circuit(22, 250, 14);
  util::Rng stats_rng(3);
  const auto stats = estimate_signal_stats(nl, 4096, stats_rng);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = 0.3;  // generous: we only need a non-trivial net list
  const auto rare = analysis::find_rare_nets(nl, stats, rcfg);
  ASSERT_FALSE(rare.empty());

  util::ThreadPool pool(4);
  util::Rng rng1(5);
  util::Rng rng2(5);
  const auto seq = analysis::rare_activation_signatures(nl, rare, 777, rng1, nullptr);
  const auto par = analysis::rare_activation_signatures(nl, rare, 777, rng2, &pool);
  ASSERT_EQ(seq, par);
}

TEST(Engine, SignaturesMatchPerPatternSimulation) {
  // Whole-word signature writes must agree with a pattern-at-a-time check.
  const Netlist nl = random_circuit(23, 180, 10);
  util::Rng stats_rng(3);
  const auto stats = estimate_signal_stats(nl, 4096, stats_rng);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = 0.3;
  const auto rare = analysis::find_rare_nets(nl, stats, rcfg);
  ASSERT_FALSE(rare.empty());

  const std::size_t n_patterns = 130;  // non-multiple of 64
  util::Rng sig_rng(9);
  const auto sigs = analysis::rare_activation_signatures(nl, rare, n_patterns, sig_rng);
  // rare_activation_signatures draws its PatternSet first with the given rng;
  // replay the identical draw to recover the patterns it simulated.
  util::Rng replay_rng(9);
  const auto patterns = PatternSet::random(nl.inputs().size(), n_patterns, replay_rng);

  for (std::size_t r = 0; r < rare.size(); ++r) {
    for (std::size_t pat = 0; pat < n_patterns; ++pat) {
      const auto values = naive_for_pattern(nl, patterns, pat);
      ASSERT_EQ(sigs[r].test(pat), values[rare[r].net] == rare[r].rare_value)
          << "rare " << r << " pattern " << pat;
    }
  }
}

// ------------------------------------------------ incremental resimulate ---

std::vector<std::uint64_t> random_input_words(std::size_t n_inputs, std::size_t words,
                                              util::Rng& rng) {
  std::vector<std::uint64_t> v(n_inputs * words);
  for (auto& w : v) w = rng.next_word();
  return v;
}

/// Long mutate/resimulate chains with dirty sets of varying size
/// (single-bit, multi-bit, near-dense) must stay bit-identical to a
/// from-scratch evaluate of the same input state, for every net.
class EngineIncremental : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineIncremental, ChainMatchesFullEvaluate) {
  const std::uint64_t seed = GetParam();
  const Netlist nl = random_circuit(seed, 250, 16);
  const Engine engine(nl);
  const std::size_t n_inputs = nl.inputs().size();
  util::Rng rng(seed * 977 + 5);

  auto inputs = random_input_words(n_inputs, 1, rng);
  EvalBuffer inc, full;
  engine.evaluate(inc, inputs, 1);
  ASSERT_TRUE(inc.primed_for(engine));

  const std::size_t dirty_sizes[] = {1, 1, 2, 5, 1, n_inputs, 3, 1};
  for (int step = 0; step < 40; ++step) {
    const std::size_t n_dirty = dirty_sizes[step % std::size(dirty_sizes)];
    std::vector<std::uint32_t> dirty;
    std::vector<std::uint64_t> dirty_words;
    for (std::size_t j = 0; j < n_dirty; ++j) {
      const auto i = static_cast<std::uint32_t>(rng.below(n_inputs));
      dirty.push_back(i);
      // Occasionally re-submit the unchanged value to exercise the
      // no-actual-change skip.
      const std::uint64_t nw = rng.bernoulli(0.2) ? inputs[i] : rng.next_word();
      dirty_words.push_back(nw);
      inputs[i] = nw;  // duplicates: later entries win, as spec'd
    }
    const std::size_t evaluated = engine.resimulate(inc, dirty, dirty_words);
    EXPECT_LE(evaluated, nl.gate_count());

    engine.evaluate(full, inputs, 1);
    ASSERT_EQ(std::vector<std::uint64_t>(inc.flat().begin(), inc.flat().end()),
              std::vector<std::uint64_t>(full.flat().begin(), full.flat().end()))
        << "step " << step << " dirty " << n_dirty;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineIncremental, ::testing::Values(1, 2, 3));

/// Every gate type / arity under single-bit resimulation: a one-gate netlist
/// walked through all input combinations one bit flip at a time (Gray code)
/// must match the naive oracle at each step.
class EngineIncrementalGateTypes
    : public ::testing::TestWithParam<std::tuple<GateType, std::size_t>> {};

TEST_P(EngineIncrementalGateTypes, GrayWalkMatchesNaive) {
  const auto [type, arity] = GetParam();
  if ((type == GateType::Buf || type == GateType::Not) && arity != 1)
    GTEST_SKIP() << "unary gates only take one fanin";
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (std::size_t i = 0; i < arity; ++i) ins.push_back(b.add_input());
  const NetId y = b.add_gate(type, ins);
  b.mark_output(y);
  const Netlist nl = b.build();
  const Engine engine(nl);

  std::vector<std::uint64_t> words(arity, 0);  // start at all-zero, W = 1
  EvalBuffer buf;
  engine.evaluate(buf, words, 1);
  std::size_t code = 0;
  for (std::size_t step = 1; step < (std::size_t{1} << arity); ++step) {
    const std::size_t next = step ^ (step >> 1);  // Gray walk over all combos
    const auto bit = static_cast<std::uint32_t>(std::countr_zero(code ^ next));
    code = next;
    words[bit] = ~words[bit];
    engine.resimulate(buf, {&bit, 1}, {&words[bit], 1});

    std::vector<bool> in_bits(arity);
    for (std::size_t i = 0; i < arity; ++i) in_bits[i] = words[i] & 1ULL;
    const auto want = evaluate_naive(nl, in_bits);
    for (NetId id = 0; id < nl.net_count(); ++id)
      ASSERT_EQ(bool(buf.word(id, 0) & 1ULL), want[id])
          << netlist::to_string(type) << " arity " << arity << " step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, EngineIncrementalGateTypes,
    ::testing::Combine(::testing::Values(GateType::And, GateType::Nand, GateType::Or,
                                         GateType::Nor, GateType::Xor, GateType::Xnor,
                                         GateType::Buf, GateType::Not),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{5})));

TEST(Engine, ResimulateSingleBitTouchesSubsetOfProgram) {
  // On a circuit with many inputs, a single-bit flip must re-evaluate a
  // proper subset of the program — the whole point of the incremental mode.
  const Netlist nl = random_circuit(12, 2000, 64);
  const Engine engine(nl);
  util::Rng rng(42);
  auto inputs = random_input_words(nl.inputs().size(), 1, rng);
  EvalBuffer buf;
  engine.evaluate(buf, inputs, 1);
  std::size_t total = 0;
  for (std::uint32_t bit = 0; bit < 32; ++bit) {
    inputs[bit] = ~inputs[bit];
    total += engine.resimulate(buf, {&bit, 1}, {&inputs[bit], 1});
  }
  EXPECT_LT(total, 32 * nl.gate_count());
}

/// Pins the exact dense-fallback crossover of Engine::resimulate: with
/// `dirty * 4 >= inputs` the call abandons the event-driven worklist for a
/// full program sweep. The two code paths are told apart through the
/// gate-evaluation count — each input here drives one private NOT (cone size
/// 1) while a constant-fed buffer chain pads the program, so the worklist
/// path returns the dirty count and the dense path returns the program size.
/// Values must be identical to a from-scratch evaluate on both sides.
class EngineDenseFallbackBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineDenseFallbackBoundary, ThresholdCrossoverIsExactAndBitIdentical) {
  const std::size_t n_inputs = GetParam();
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (std::size_t i = 0; i < n_inputs; ++i) ins.push_back(b.add_input());
  for (const NetId in : ins) b.mark_output(b.add_gate(GateType::Not, {in}));
  // Padding outside every input cone: the program must be strictly larger
  // than any dirty set so the two return values cannot collide.
  NetId pad = b.add_const(false);
  for (int k = 0; k < 8; ++k) pad = b.add_gate(GateType::Buf, {pad});
  b.mark_output(pad);
  const Netlist nl = b.build();
  const Engine engine(nl);

  // Integer form of "dirty/inputs >= 1/4": smallest dirty count with
  // dirty * 4 >= n_inputs.
  const std::size_t threshold = (n_inputs + 3) / 4;
  ASSERT_GE(threshold, 2u) << "need threshold-1 >= 1 dirty input";

  util::Rng rng(n_inputs * 37 + 1);
  auto inputs = random_input_words(n_inputs, 1, rng);
  EvalBuffer inc, full;
  engine.evaluate(inc, inputs, 1);

  for (const std::size_t n_dirty : {threshold - 1, threshold, threshold + 1}) {
    ASSERT_LE(n_dirty, n_inputs);
    std::vector<std::uint32_t> dirty;
    std::vector<std::uint64_t> dirty_words;
    for (std::size_t j = 0; j < n_dirty; ++j) {
      dirty.push_back(static_cast<std::uint32_t>(j));
      dirty_words.push_back(~inputs[j]);
      inputs[j] = ~inputs[j];
    }
    const std::size_t evaluated = engine.resimulate(inc, dirty, dirty_words);
    if (n_dirty < threshold) {
      // Worklist path: exactly the flipped inputs' private cones.
      EXPECT_EQ(evaluated, n_dirty) << "expected the event-driven path";
    } else {
      // Dense fallback: one full sweep, program size evaluations.
      EXPECT_EQ(evaluated, nl.gate_count()) << "expected the dense fallback";
    }
    engine.evaluate(full, inputs, 1);
    ASSERT_EQ(std::vector<std::uint64_t>(inc.flat().begin(), inc.flat().end()),
              std::vector<std::uint64_t>(full.flat().begin(), full.flat().end()))
        << n_inputs << " inputs, " << n_dirty << " dirty";
  }
}

/// 16 divides evenly (threshold 4 == 16/4); 17 and 18 exercise the rounding
/// of the integer comparison (threshold 5); 8 is the smallest interesting
/// program.
INSTANTIATE_TEST_SUITE_P(InputCounts, EngineDenseFallbackBoundary,
                         ::testing::Values(std::size_t{8}, std::size_t{16},
                                           std::size_t{17}, std::size_t{18}));

TEST(Engine, DenseFallbackCountsSubmittedEntriesNotActualChanges) {
  // The fallback heuristic triggers on the *submitted* dirty-entry count,
  // before no-change filtering: submitting every input with unchanged words
  // takes the dense path (program-size evaluations) yet stays bit-identical.
  const Netlist nl = random_circuit(8, 120, 12);
  const Engine engine(nl);
  util::Rng rng(77);
  const auto inputs = random_input_words(nl.inputs().size(), 1, rng);
  EvalBuffer buf, reference;
  engine.evaluate(buf, inputs, 1);
  engine.evaluate(reference, inputs, 1);
  std::vector<std::uint32_t> dirty(nl.inputs().size());
  for (std::uint32_t i = 0; i < dirty.size(); ++i) dirty[i] = i;
  EXPECT_EQ(engine.resimulate(buf, dirty, inputs), nl.gate_count());
  ASSERT_EQ(std::vector<std::uint64_t>(buf.flat().begin(), buf.flat().end()),
            std::vector<std::uint64_t>(reference.flat().begin(),
                                       reference.flat().end()));
}

TEST(EngineDeath, ResimulateRequiresPrimedBuffer) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Netlist nl = random_circuit(5);
  const Engine engine(nl);
  EvalBuffer unprimed;
  const std::uint32_t bit = 0;
  const std::uint64_t word = ~0ULL;
  EXPECT_DEATH(engine.resimulate(unprimed, {&bit, 1}, {&word, 1}),
               "primed");
}

TEST(EngineDeath, ResimulateRequiresOneWordBuffer) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Netlist nl = random_circuit(5);
  const Engine engine(nl);
  util::Rng rng(9);
  EvalBuffer wide;
  engine.evaluate(wide, random_input_words(nl.inputs().size(), 2, rng), 2);
  const std::uint32_t bit = 0;
  const std::uint64_t word = ~0ULL;
  EXPECT_DEATH(engine.resimulate(wide, {&bit, 1}, {&word, 1}), "one word");
}

// --------------------------------------------------- SIMD kernel backends ---

std::vector<std::uint64_t> to_words(std::span<const std::uint64_t> s) {
  return {s.begin(), s.end()};
}

/// The simulation family's runnable backends, narrowest first.
std::vector<Isa> sim_isas() { return util::supported_isas(kernels::table_or_null); }

TEST(EngineSimd, DetectionIsSaneAndStable) {
  const auto isas = sim_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::Scalar);  // scalar is always runnable
  for (const auto isa : isas) {
    EXPECT_TRUE(util::cpu_supports(isa));
    EXPECT_NE(kernels::table_or_null(isa), nullptr);
  }
  EXPECT_EQ(sim_isas(), isas);
  // The widest pick must itself be supported and at least as wide as
  // anything else.
  const auto widest = util::widest_supported_isa(kernels::table_or_null);
  EXPECT_EQ(widest, isas.back());
  for (const auto isa : isas) EXPECT_GE(static_cast<int>(widest), static_cast<int>(isa));
}

TEST(EngineSimd, IsaNamesRoundTrip) {
  for (const auto isa : util::kAllIsas)
    EXPECT_EQ(util::parse_isa(util::to_string(isa)), isa);
  EXPECT_FALSE(util::parse_isa("sse9").has_value());
  EXPECT_FALSE(util::parse_isa("").has_value());
}

/// Full evaluate: every supported backend must produce a value buffer
/// bit-identical to the scalar backend's, for every net and word — including
/// ragged sweep widths that exercise the wide kernels' tail handling (the
/// AVX-512 masked tail and the scalar tails of narrower backends) both below
/// one register (W=3, 5, 7) and past it (W=9, 11, 13).
TEST(EngineSimd, BackendsBitIdenticalOnEvaluate) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Netlist nl = random_circuit(seed, 300, 14);
    const Engine scalar_engine(nl, Isa::Scalar);
    ASSERT_EQ(scalar_engine.isa(), Isa::Scalar);
    for (const auto isa : sim_isas()) {
      const Engine backend(nl, isa);
      EXPECT_EQ(backend.isa(), isa);
      for (const std::size_t words :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
            std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{11},
            std::size_t{13}}) {
        util::Rng rng(seed * 71 + words);
        const auto inputs = random_input_words(nl.inputs().size(), words, rng);
        EvalBuffer ref, got;
        scalar_engine.evaluate(ref, inputs, words);
        backend.evaluate(got, inputs, words);
        ASSERT_EQ(to_words(got.flat()), to_words(ref.flat()))
            << util::to_string(isa) << " seed " << seed << " W " << words;
      }
    }
  }
}

/// Incremental resimulate: the same mutate/resimulate chain, run through
/// every backend, must track the scalar backend word-for-word at every step
/// (dirty sets span single-bit, multi-bit, and the dense-fallback regime).
TEST(EngineSimd, BackendsBitIdenticalOnResimulate) {
  const Netlist nl = random_circuit(17, 300, 16);
  const std::size_t n_inputs = nl.inputs().size();
  const Engine scalar_engine(nl, Isa::Scalar);
  for (const auto isa : sim_isas()) {
    const Engine backend(nl, isa);
    util::Rng rng(138);
    auto inputs = random_input_words(n_inputs, 1, rng);
    EvalBuffer ref, got;
    scalar_engine.evaluate(ref, inputs, 1);
    backend.evaluate(got, inputs, 1);

    const std::size_t dirty_sizes[] = {1, 2, 1, 5, n_inputs, 1, 3};
    for (int step = 0; step < 30; ++step) {
      const std::size_t n_dirty = dirty_sizes[step % std::size(dirty_sizes)];
      std::vector<std::uint32_t> dirty;
      std::vector<std::uint64_t> dirty_words;
      for (std::size_t j = 0; j < n_dirty; ++j) {
        const auto i = static_cast<std::uint32_t>(rng.below(n_inputs));
        dirty.push_back(i);
        const std::uint64_t nw = rng.next_word();
        dirty_words.push_back(nw);
        inputs[i] = nw;
      }
      scalar_engine.resimulate(ref, dirty, dirty_words);
      backend.resimulate(got, dirty, dirty_words);
      ASSERT_EQ(to_words(got.flat()), to_words(ref.flat()))
          << util::to_string(isa) << " step " << step;
    }
  }
}

TEST(EngineSimd, ForcedIsaConstructorArgument) {
  const Netlist nl = random_circuit(6);
  for (const auto isa : sim_isas())
    EXPECT_EQ(Engine(nl, isa).isa(), isa);
}

TEST(EngineSimd, ForcedIsaEnvOverride) {
  const Netlist nl = random_circuit(6);
  {
    ScopedEnv env(util::kForceIsaEnv, "scalar");
    EXPECT_EQ(Engine(nl).isa(), Isa::Scalar);
  }
  {
    // Empty means unset: auto-detect, never an error.
    ScopedEnv env(util::kForceIsaEnv, "");
    EXPECT_EQ(Engine(nl).isa(), util::widest_supported_isa(kernels::table_or_null));
  }
  {
    ScopedEnv env(util::kForceIsaEnv, "sse9");
    EXPECT_THROW(Engine{nl}, Error);
  }
}

TEST(EngineSimd, ForcingUnsupportedIsaThrows) {
  // Find a backend this host cannot run. x86 hosts can never run NEON and
  // aarch64 hosts can never run AVX2, so at least one always exists.
  const auto isas = sim_isas();
  std::optional<Isa> unsupported;
  for (const auto isa : {Isa::Neon, Isa::Avx2, Isa::Avx512})
    if (std::ranges::find(isas, isa) == isas.end()) {
      unsupported = isa;
      break;
    }
  ASSERT_TRUE(unsupported.has_value());

  const Netlist nl = random_circuit(6);
  EXPECT_THROW(Engine(nl, *unsupported), Error);
  EXPECT_THROW(kernels::select_kernel_table(*unsupported), Error);
  {
    ScopedEnv env(util::kForceIsaEnv, util::to_string(*unsupported));
    EXPECT_THROW(Engine{nl}, Error);
  }
}

// Both kernel families read DETERRENT_FORCE_ISA through the one policy, so a
// name either pins the engine and the network to the same backend or is
// rejected by both. The MLP family has no NEON tables: its Neon is its scalar
// table, which an x86 host must still refuse to "run".
TEST(KernelPolicy, ForcedIsaAgreesAcrossFamilies) {
  const Netlist nl = random_circuit(6);
  for (const char* name : {"scalar", "neon", "avx2", "avx512", "sse9", ""}) {
    SCOPED_TRACE(testing::Message() << util::kForceIsaEnv << "='" << name << "'");
    const ScopedEnv env(util::kForceIsaEnv, name);
    std::optional<Isa> engine_isa;
    std::optional<Isa> mlp_isa;
    try {
      engine_isa = Engine(nl).isa();
    } catch (const Error&) {
    }
    try {
      util::Rng init(1);
      rl::Mlp net({4, 8, 2}, init);
      const rl::Adam opt(net.params());
      mlp_isa = net.isa();
    } catch (const Error&) {
    }
    ASSERT_EQ(engine_isa.has_value(), mlp_isa.has_value());
    if (engine_isa.has_value())
      EXPECT_EQ(*mlp_isa, *engine_isa == Isa::Neon ? Isa::Scalar : *engine_isa);
  }
}

// -------------------------------------------------------------- coverage ---

TEST(Engine, CoverageMatchesNaivePerPattern) {
  const Netlist nl = random_circuit(31, 200, 10);
  util::Rng stats_rng(3);
  const auto stats = estimate_signal_stats(nl, 4096, stats_rng);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = 0.4;
  const auto rare = analysis::find_rare_nets(nl, stats, rcfg);
  ASSERT_GE(rare.size(), 4u);

  // Synthetic trojans over rare-net pairs; coverage only reads the trigger.
  std::vector<trojan::Trojan> trojans;
  for (std::size_t i = 0; i + 1 < rare.size() && trojans.size() < 12; i += 2)
    trojans.push_back({{rare[i], rare[i + 1]}, 0});

  util::Rng rng(55);
  const auto patterns = PatternSet::random(nl.inputs().size(), 200, rng);
  const auto result = trojan::evaluate_coverage(nl, trojans, patterns);

  for (std::size_t t = 0; t < trojans.size(); ++t) {
    std::size_t want = trojan::CoverageResult::kNever;
    for (std::size_t pat = 0; pat < patterns.pattern_count(); ++pat) {
      const auto values = naive_for_pattern(nl, patterns, pat);
      bool fired = true;
      for (const auto& rn : trojans[t].trigger)
        fired = fired && values[rn.net] == rn.rare_value;
      if (fired) {
        want = pat;
        break;
      }
    }
    EXPECT_EQ(result.first_activation[t], want) << "trojan " << t;
  }
}

}  // namespace
}  // namespace deterrent::sim
