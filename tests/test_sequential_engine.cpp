// Differential tests for the event-driven multi-trace sequential engine:
// sim::SequentialEngine must agree bit-exactly — every net, every cycle,
// every trace lane, every supported SIMD kernel backend — with the seed
// repository's sequential stepping semantics (one full combinational
// evaluation per cycle, then Q <= D), reproduced here as an independent
// reference. Includes the randomized circuit × stimulus × reset-state fuzz
// loop, a Gray-code stimulus walk that exercises the sparse resimulate path
// one flipped input at a time, and the MIPS16 trojan soak. Single-trace
// cases pin plain stepping semantics: a toggle, a shift register,
// reset/set_state, and a program run on the MIPS16 core.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_gen/mips16.hpp"
#include "bench_gen/random_circuit.hpp"
#include "netlist/scan.hpp"
#include "sim/kernels/dispatch.hpp"
#include "sim/sequential_engine.hpp"
#include "sim/simulator.hpp"
#include "trojan/trojan.hpp"
#include "util/rng.hpp"

namespace deterrent::sim {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using netlist::NetId;

/// The seed repository's SequentialSimulator, reproduced verbatim as the
/// differential reference: one *full* combinational evaluation per cycle
/// (never the incremental path), single trace, std::vector<bool> values.
/// SequentialEngine is the only sequential simulator in the library, so the
/// reference lives here to stay independent of it.
class SeedSequentialSimulator {
 public:
  explicit SeedSequentialSimulator(const Netlist& netlist)
      : netlist_(&netlist),
        scan_(netlist::make_full_scan(netlist)),
        comb_sim_(scan_.comb),
        state_(scan_.pseudo_inputs.size(), false) {}

  void reset(bool value = false) {
    std::fill(state_.begin(), state_.end(), value);
  }

  void set_state(NetId q, bool value) {
    for (std::size_t i = 0; i < scan_.pseudo_inputs.size(); ++i)
      if (scan_.pseudo_inputs[i] == q) {
        state_[i] = value;
        return;
      }
    FAIL() << "set_state: net is not a DFF output";
  }

  bool state(NetId q) const {
    for (std::size_t i = 0; i < scan_.pseudo_inputs.size(); ++i)
      if (scan_.pseudo_inputs[i] == q) return state_[i];
    ADD_FAILURE() << "state: net is not a DFF output";
    return false;
  }

  const std::vector<bool>& step(const Pattern& inputs) {
    const auto scan_inputs = scan_.comb.inputs();
    Pattern combined(scan_inputs.size());
    std::size_t pi_index = 0;
    std::size_t ff_index = 0;
    for (std::size_t i = 0; i < scan_inputs.size(); ++i) {
      const NetId net = scan_inputs[i];
      if (ff_index < scan_.pseudo_inputs.size() &&
          scan_.pseudo_inputs[ff_index] == net) {
        combined.set(i, state_[ff_index]);
        ++ff_index;
      } else {
        combined.set(i, inputs.test(pi_index));
        ++pi_index;
      }
    }
    values_ = comb_sim_.simulate_pattern(combined);
    for (std::size_t i = 0; i < scan_.pseudo_inputs.size(); ++i)
      state_[i] = values_[scan_.pseudo_outputs[i]];
    return values_;
  }

 private:
  const Netlist* netlist_;
  netlist::ScanView scan_;
  Simulator comb_sim_;
  std::vector<bool> state_;
  std::vector<bool> values_;
};

Netlist random_sequential_circuit(std::uint64_t seed, std::size_t gates = 160,
                                  std::size_t inputs = 8, std::size_t dffs = 10) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = inputs;
  p.n_outputs = 5;
  p.n_gates = gates;
  p.n_dffs = dffs;
  p.seed = seed;
  p.wide_gate_fraction = 0.2;
  return bench_gen::generate_random_circuit(p);
}

/// Builds the input-major word stimulus for one cycle from per-trace
/// patterns: word w of input i carries bit lane t = stimulus[w*64+t].
std::vector<std::uint64_t> pack_cycle(const std::vector<Pattern>& trace_patterns,
                                      std::size_t n_inputs, std::size_t words) {
  std::vector<std::uint64_t> packed(n_inputs * words, 0);
  for (std::size_t t = 0; t < trace_patterns.size(); ++t)
    for (std::size_t i = 0; i < n_inputs; ++i)
      if (trace_patterns[t].test(i)) packed[i * words + (t >> 6)] |= 1ULL << (t & 63);
  return packed;
}

// --------------------------------------------- randomized differential -----

/// Random sequential circuit × random multi-cycle stimulus × random reset
/// states, checked against the seed reference for every supported kernel
/// backend and every trace lane (trace count deliberately not a multiple of
/// 64, so the last state word is ragged).
class SequentialEngineDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SequentialEngineDifferential, AllBackendsAllLanesMatchSeedSimulator) {
  const std::uint64_t seed = GetParam();
  const Netlist nl = random_sequential_circuit(seed);
  const std::size_t n_inputs = nl.inputs().size();
  constexpr std::size_t kTraces = 130;  // 3 words, ragged last lane group
  constexpr std::size_t kCycles = 12;

  // Draw per-trace reset states and stimulus once.
  util::Rng rng(seed * 613 + 7);
  std::vector<std::vector<bool>> reset_state(kTraces);  // [trace][dff]
  for (auto& s : reset_state) {
    s.resize(nl.dffs().size());
    for (std::size_t k = 0; k < s.size(); ++k) s[k] = rng.bernoulli(0.5);
  }
  std::vector<std::vector<Pattern>> stimulus(kCycles);  // [cycle][trace]
  for (auto& cycle : stimulus) {
    cycle.reserve(kTraces);
    for (std::size_t t = 0; t < kTraces; ++t) {
      Pattern p(n_inputs);
      for (std::size_t i = 0; i < n_inputs; ++i) p.set(i, rng.bernoulli(0.5));
      cycle.push_back(std::move(p));
    }
  }

  // Seed-reference trajectories, one independent run per trace.
  std::vector<std::vector<std::vector<bool>>> want(kTraces);  // [trace][cycle][net]
  SeedSequentialSimulator ref(nl);
  for (std::size_t t = 0; t < kTraces; ++t) {
    ref.reset(false);
    for (std::size_t k = 0; k < nl.dffs().size(); ++k)
      ref.set_state(nl.dffs()[k], reset_state[t][k]);
    for (std::size_t c = 0; c < kCycles; ++c) want[t].push_back(ref.step(stimulus[c][t]));
  }

  for (const auto isa : kernels::supported_isas()) {
    SequentialEngine seq(nl, kTraces, isa);
    ASSERT_EQ(seq.engine().isa(), isa);
    ASSERT_EQ(seq.words(), 3u);
    for (std::size_t t = 0; t < kTraces; ++t)
      for (std::size_t k = 0; k < nl.dffs().size(); ++k)
        seq.set_state(nl.dffs()[k], t, reset_state[t][k]);
    for (std::size_t c = 0; c < kCycles; ++c) {
      seq.step(pack_cycle(stimulus[c], n_inputs, seq.words()));
      for (std::size_t t = 0; t < kTraces; ++t)
        for (NetId id = 0; id < nl.net_count(); ++id)
          ASSERT_EQ(seq.value(id, t), want[t][c][id])
              << kernels::to_string(isa) << " seed " << seed << " cycle " << c
              << " trace " << t << " net " << id;
    }
    EXPECT_EQ(seq.cycle_count(), kCycles);
    // Post-run state (the value every Q takes next cycle) must agree too.
    SeedSequentialSimulator state_ref(nl);
    for (std::size_t t = 0; t < kTraces; ++t) {
      state_ref.reset(false);
      for (std::size_t k = 0; k < nl.dffs().size(); ++k)
        state_ref.set_state(nl.dffs()[k], reset_state[t][k]);
      for (std::size_t c = 0; c < kCycles; ++c) state_ref.step(stimulus[c][t]);
      for (const NetId q : nl.dffs())
        ASSERT_EQ(seq.state(q, t), state_ref.state(q))
            << kernels::to_string(isa) << " trace " << t << " dff " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequentialEngineDifferential,
                         ::testing::Values(1, 2, 3, 4));

/// Gray-code stimulus walk: exactly one primary input flips per cycle, so
/// every cycle's dirty set is {one PI} ∪ {changed Qs} — the sparse
/// resimulate path the sequential engine was built around.
TEST(SequentialEngine, GrayCodeStimulusWalkMatchesSeedSimulator) {
  const Netlist nl = random_sequential_circuit(9, 200, 8, 12);
  const std::size_t n_inputs = nl.inputs().size();
  ASSERT_EQ(n_inputs, 8u);

  SeedSequentialSimulator ref(nl);
  ref.reset(false);
  SequentialEngine seq(nl, 1);

  std::size_t code = 0;
  for (std::size_t step = 0; step < (std::size_t{1} << n_inputs); ++step) {
    code = step ^ (step >> 1);
    Pattern p(n_inputs);
    for (std::size_t i = 0; i < n_inputs; ++i) p.set(i, (code >> i) & 1);
    const auto& want = ref.step(p);
    seq.step_broadcast(p);
    for (NetId id = 0; id < nl.net_count(); ++id)
      ASSERT_EQ(seq.value(id, 0), want[id]) << "step " << step << " net " << id;
  }
  // The walk must actually have used the incremental path: total gate
  // evaluations well under cycles × program size.
  EXPECT_LT(seq.gate_evals(),
            seq.cycle_count() * static_cast<std::uint64_t>(nl.gate_count()));
}

// ------------------------------------------------------------- semantics ----

TEST(SequentialEngine, BroadcastKeepsTracesInLockstep) {
  const Netlist nl = random_sequential_circuit(5);
  SequentialEngine seq(nl, 70);  // ragged: 70 traces in 2 words
  util::Rng rng(17);
  for (int cycle = 0; cycle < 6; ++cycle) {
    Pattern p(nl.inputs().size());
    for (std::size_t i = 0; i < p.size(); ++i) p.set(i, rng.bernoulli(0.5));
    seq.step_broadcast(p);
    for (NetId id = 0; id < nl.net_count(); ++id)
      for (std::size_t t = 1; t < seq.trace_count(); ++t)
        ASSERT_EQ(seq.value(id, t), seq.value(id, 0)) << "net " << id << " trace " << t;
  }
}

TEST(SequentialEngine, ResetRestartsAndSetStateMidRunPropagates) {
  const Netlist nl = random_sequential_circuit(6);
  SeedSequentialSimulator ref(nl);
  SequentialEngine seq(nl, 1);
  util::Rng rng(23);
  auto random_pattern = [&] {
    Pattern p(nl.inputs().size());
    for (std::size_t i = 0; i < p.size(); ++i) p.set(i, rng.bernoulli(0.5));
    return p;
  };

  ref.reset(true);
  seq.reset(true);
  for (int cycle = 0; cycle < 5; ++cycle) {
    const Pattern p = random_pattern();
    const auto& want = ref.step(p);
    seq.step_broadcast(p);
    for (NetId id = 0; id < nl.net_count(); ++id) ASSERT_EQ(seq.value(id, 0), want[id]);
  }
  // Mid-run state override must dirty exactly that Q and track the reference.
  const NetId q = nl.dffs()[2];
  ref.set_state(q, !ref.state(q));
  seq.set_state(q, 0, !seq.state(q, 0));
  for (int cycle = 0; cycle < 5; ++cycle) {
    const Pattern p = random_pattern();
    const auto& want = ref.step(p);
    seq.step_broadcast(p);
    for (NetId id = 0; id < nl.net_count(); ++id) ASSERT_EQ(seq.value(id, 0), want[id]);
  }
  // reset() restarts the cycle counter and the next step is a fresh full
  // evaluation (state all-zero again).
  ref.reset(false);
  seq.reset(false);
  EXPECT_EQ(seq.cycle_count(), 0u);
  const Pattern p = random_pattern();
  const auto& want = ref.step(p);
  seq.step_broadcast(p);
  EXPECT_EQ(seq.cycle_count(), 1u);
  for (NetId id = 0; id < nl.net_count(); ++id) ASSERT_EQ(seq.value(id, 0), want[id]);
}

TEST(SequentialEngine, StateWordsBulkInitializationMatchesPerBitSets) {
  const Netlist nl = random_sequential_circuit(7);
  SequentialEngine a(nl, 128);
  SequentialEngine b(nl, 128);
  util::Rng rng(31);
  for (const NetId q : nl.dffs()) {
    std::vector<std::uint64_t> words(a.words());
    for (auto& w : words) w = rng.next_word();
    a.set_state_words(q, words);
    for (std::size_t t = 0; t < b.trace_count(); ++t)
      b.set_state(q, t, (words[t >> 6] >> (t & 63)) & 1ULL);
    for (std::size_t t = 0; t < a.trace_count(); ++t)
      ASSERT_EQ(a.state(q, t), b.state(q, t));
  }
  Pattern p(nl.inputs().size());
  a.step_broadcast(p);
  b.step_broadcast(p);
  for (NetId id = 0; id < nl.net_count(); ++id)
    for (std::size_t t = 0; t < a.trace_count(); ++t)
      ASSERT_EQ(a.value(id, t), b.value(id, t));
}

TEST(SequentialEngine, CombinationalNetlistIsABatchedEvaluator) {
  // No DFFs: every "cycle" is just an evaluation of the stimulus; the
  // incremental path still applies between cycles.
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 6;
  p.n_outputs = 4;
  p.n_gates = 80;
  p.seed = 3;
  const Netlist nl = bench_gen::generate_random_circuit(p);
  ASSERT_FALSE(nl.is_sequential());
  SequentialEngine seq(nl, 1);
  Simulator comb(nl);
  util::Rng rng(5);
  for (int cycle = 0; cycle < 10; ++cycle) {
    Pattern pat(nl.inputs().size());
    for (std::size_t i = 0; i < pat.size(); ++i) pat.set(i, rng.bernoulli(0.5));
    seq.step_broadcast(pat);
    const auto want = comb.simulate_pattern(pat);
    for (NetId id = 0; id < nl.net_count(); ++id)
      ASSERT_EQ(seq.value(id, 0), want[id]) << "cycle " << cycle;
  }
}

// ----------------------------------------------- single-trace stepping -----

TEST(SequentialSim, ToggleFlipFlop) {
  // q <= NOT(q): a divide-by-two toggle.
  NetlistBuilder b;
  const NetId q = b.add_dff(netlist::kNoNet, "q");
  const NetId nq = b.add_gate(GateType::Not, {q}, "nq");
  b.set_dff_input(q, nq);
  b.mark_output(q);
  const Netlist nl = b.build();

  SequentialEngine seq(nl, 1);
  seq.reset(false);
  const Pattern no_inputs(0);
  for (int cycle = 0; cycle < 8; ++cycle) {
    const bool before = seq.state(q, 0);
    seq.step_broadcast(no_inputs);
    EXPECT_EQ(seq.state(q, 0), !before) << "cycle " << cycle;
  }
  EXPECT_EQ(seq.cycle_count(), 8u);
}

TEST(SequentialSim, ShiftRegister) {
  NetlistBuilder b;
  const NetId din = b.add_input("din");
  const NetId q0 = b.add_dff(din, "q0");
  const NetId q1 = b.add_dff(q0, "q1");
  const NetId q2 = b.add_dff(q1, "q2");
  b.mark_output(q2);
  const Netlist nl = b.build();

  SequentialEngine seq(nl, 1);
  seq.reset(false);
  const bool stream[] = {true, false, true, true, false, false};
  std::vector<bool> seen;
  for (const bool bit : stream) {
    Pattern p(1);
    p.set(0, bit);
    seq.step_broadcast(p);
    seen.push_back(seq.state(q2, 0));
  }
  // q2 lags din by 3 cycles.
  EXPECT_FALSE(seen[0]);
  EXPECT_FALSE(seen[1]);
  EXPECT_TRUE(seen[2]);   // stream[0]
  EXPECT_FALSE(seen[3]);  // stream[1]
  EXPECT_TRUE(seen[4]);   // stream[2]
}

TEST(SequentialSim, ResetAndSetState) {
  NetlistBuilder b;
  const NetId q = b.add_dff(netlist::kNoNet, "q");
  b.set_dff_input(q, q);  // hold
  b.mark_output(q);
  const Netlist nl = b.build();
  SequentialEngine seq(nl, 1);
  seq.reset(true);
  EXPECT_TRUE(seq.state(q, 0));
  seq.set_state(q, 0, false);
  EXPECT_FALSE(seq.state(q, 0));
  seq.step_broadcast(Pattern(0));
  EXPECT_FALSE(seq.state(q, 0));  // hold keeps value
}

TEST(SequentialSim, CounterOnRandomSequentialCircuit) {
  // Smoke: a generated sequential circuit steps for many cycles without
  // violating any internal invariant, and the value buffer stays sized to
  // the design.
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 8;
  p.n_outputs = 4;
  p.n_gates = 150;
  p.n_dffs = 12;
  p.seed = 77;
  const Netlist nl = bench_gen::generate_random_circuit(p);
  SequentialEngine seq(nl, 1);
  seq.reset();
  util::Rng rng(5);
  for (int cycle = 0; cycle < 50; ++cycle) {
    Pattern inputs(8);
    for (int i = 0; i < 8; ++i) inputs.set(i, rng.bernoulli(0.5));
    seq.step_broadcast(inputs);
    ASSERT_EQ(seq.values().net_count(), nl.net_count());
  }
  EXPECT_EQ(seq.cycle_count(), 50u);
}

/// Executes a 4-instruction program on the MIPS16-like processor, cycle by
/// cycle, feeding the instruction stream through the instruction port —
/// end-to-end evidence that the generated netlist is a working CPU.
TEST(SequentialSim, Mips16RunsAProgram) {
  const Netlist cpu = bench_gen::generate_mips16({});
  SequentialEngine seq(cpu, 1);
  seq.reset(false);  // PC=0, all regs 0

  auto encode = [](unsigned op, unsigned rs, unsigned rt, unsigned rd) {
    return static_cast<std::uint16_t>((op << 12) | (rs << 8) | (rt << 4) | rd);
  };
  constexpr unsigned kAdd = 0, kMul = 9, kAddi = 13;

  // Program (destination is the rd/imm field; ADDI writes r[imm]):
  //   ADDI r3, r0, 3     -> r3 = 3
  //   ADD  r2 = r3 + r3  -> r2 = 6
  //   MUL  r5 = r2 * r3  -> r5 = 18, LO = 18
  //   ADD  r6 = r5 + r2  -> r6 = 24
  const std::uint16_t program[] = {
      encode(kAddi, 0, 0, 3),
      encode(kAdd, 3, 3, 2),
      encode(kMul, 2, 3, 5),
      encode(kAdd, 5, 2, 6),
  };

  auto read_reg = [&](unsigned r) {
    std::uint16_t value = 0;
    for (unsigned bit = 0; bit < 16; ++bit) {
      const auto q = cpu.find("r" + std::to_string(r) + "_" + std::to_string(bit));
      EXPECT_TRUE(q.has_value());
      value |= static_cast<std::uint16_t>(seq.state(*q, 0)) << bit;
    }
    return value;
  };
  auto read_pc = [&]() {
    std::uint16_t value = 0;
    for (unsigned bit = 0; bit < 16; ++bit)
      value |= static_cast<std::uint16_t>(
                   seq.state(*cpu.find("pc" + std::to_string(bit)), 0))
               << bit;
    return value;
  };

  for (const std::uint16_t instr : program) {
    Pattern inputs(32);  // instr[16] + mem_rdata[16]
    for (unsigned bit = 0; bit < 16; ++bit) inputs.set(bit, (instr >> bit) & 1u);
    seq.step_broadcast(inputs);
  }

  EXPECT_EQ(read_reg(3), 3u);
  EXPECT_EQ(read_reg(2), 6u);
  EXPECT_EQ(read_reg(5), 18u);
  EXPECT_EQ(read_reg(6), 24u);
  EXPECT_EQ(read_pc(), 4u);  // four sequential instructions
}

// -------------------------------------------------------- MIPS16 soak -------

std::uint16_t encode(unsigned op, unsigned rs, unsigned rt, unsigned rd) {
  return static_cast<std::uint16_t>((op << 12) | (rs << 8) | (rt << 4) | rd);
}

/// Multi-hundred-cycle program on the MIPS16 core with a trojan inserted:
/// the sequential engine must report the trigger firing on exactly the same
/// cycle as the seed simulator, and the side-channel trace (per-cycle toggle
/// counts over all nets) must be bit-identical.
TEST(SequentialEngineSoak, Mips16TrojanTriggerAndSideChannelTraceMatchSeed) {
  const Netlist cpu = bench_gen::generate_mips16({});

  // Trigger: low byte of the PC equals 5 — guaranteed to fire while the
  // straight-line prologue executes, and rare afterwards.
  trojan::Trojan ht;
  for (unsigned bit = 0; bit < 8; ++bit) {
    const auto q = cpu.find("pc" + std::to_string(bit));
    ASSERT_TRUE(q.has_value());
    ht.trigger.push_back({*q, ((5u >> bit) & 1u) != 0, 0.0});
  }
  // Payload on a register bit: consumers of r3_0 see it XORed with the
  // trigger once infected.
  const auto payload = cpu.find("r3_0");
  ASSERT_TRUE(payload.has_value());
  ht.payload_net = *payload;
  // payload_is_safe's fanout BFS crosses register boundaries, so it is
  // over-conservative on sequential designs (the register file feeds the PC
  // *through* flip-flops). apply_trojan's builder validates combinational
  // acyclicity and is the authoritative check here — it throws if the
  // payload genuinely fed the trigger combinationally.
  NetId trigger_net = netlist::kNoNet;
  const Netlist infected = trojan::apply_trojan(cpu, ht, &trigger_net);
  ASSERT_NE(trigger_net, netlist::kNoNet);
  ASSERT_TRUE(infected.is_sequential());

  // Program: a straight-line arithmetic prologue (so the PC marches through
  // 5), then a random instruction soup — branches, loads, multiplies,
  // whatever the rng draws. ~320 cycles.
  constexpr std::size_t kCycles = 320;
  util::Rng rng(2026);
  std::vector<std::uint16_t> program;
  for (unsigned k = 0; k < 10; ++k)
    program.push_back(encode(13, 0, static_cast<unsigned>(k & 3), k + 1));  // ADDI
  while (program.size() < kCycles)
    program.push_back(static_cast<std::uint16_t>(rng.next_word() & 0xffff));

  SeedSequentialSimulator ref(infected);
  ref.reset(false);
  SequentialEngine seq(infected, 1);

  std::size_t ref_first_fire = kCycles;
  std::size_t seq_first_fire = kCycles;
  std::vector<std::size_t> ref_trace, seq_trace;  // per-cycle toggle counts
  std::vector<bool> prev_ref(infected.net_count(), false);
  std::vector<bool> prev_seq(infected.net_count(), false);
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    Pattern inputs(32);  // instr[16] + mem_rdata[16]
    for (unsigned bit = 0; bit < 16; ++bit)
      inputs.set(bit, (program[cycle] >> bit) & 1u);
    const auto& want = ref.step(inputs);
    seq.step_broadcast(inputs);

    std::size_t ref_toggles = 0, seq_toggles = 0;
    for (NetId id = 0; id < infected.net_count(); ++id) {
      const bool rv = want[id];
      const bool sv = seq.value(id, 0);
      ASSERT_EQ(sv, rv) << "cycle " << cycle << " net " << id;
      ref_toggles += rv != prev_ref[id];
      seq_toggles += sv != prev_seq[id];
      prev_ref[id] = rv;
      prev_seq[id] = sv;
    }
    ref_trace.push_back(ref_toggles);
    seq_trace.push_back(seq_toggles);
    if (want[trigger_net] && ref_first_fire == kCycles) ref_first_fire = cycle;
    if (seq.value(trigger_net, 0) && seq_first_fire == kCycles) seq_first_fire = cycle;
  }

  EXPECT_LT(ref_first_fire, kCycles) << "trigger never fired in the soak program";
  EXPECT_EQ(seq_first_fire, ref_first_fire);
  EXPECT_EQ(seq_trace, ref_trace);
  // A program workload is exactly the steady-state case the engine targets:
  // the mean per-cycle activity must be well below the program size.
  EXPECT_LT(seq.gate_evals(), kCycles * static_cast<std::uint64_t>(
                                  seq.engine().target().gate_count()));
}

}  // namespace
}  // namespace deterrent::sim
