#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

#include "bench_gen/library.hpp"
#include "bench_gen/mips16.hpp"
#include "bench_gen/multiplier.hpp"
#include "bench_gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/scan.hpp"
#include "netlist/stats.hpp"
#include "trojan/trojan.hpp"
#include "util/rng.hpp"

#include "reference_sim.hpp"

namespace deterrent::bench_gen {
namespace {

using netlist::Netlist;
using netlist::NetId;

// ------------------------------------------------------ random circuit -----

TEST(RandomCircuit, DeterministicForSeed) {
  RandomCircuitProfile p;
  p.n_gates = 300;
  p.seed = 99;
  const Netlist a = generate_random_circuit(p);
  const Netlist b = generate_random_circuit(p);
  ASSERT_EQ(a.net_count(), b.net_count());
  for (NetId id = 0; id < a.net_count(); ++id) {
    ASSERT_EQ(a.type(id), b.type(id));
    const auto fa = a.fanins(id);
    const auto fb = b.fanins(id);
    ASSERT_EQ(std::vector<NetId>(fa.begin(), fa.end()),
              std::vector<NetId>(fb.begin(), fb.end()));
  }
}

TEST(RandomCircuit, SeedChangesStructure) {
  RandomCircuitProfile p;
  p.n_gates = 300;
  p.seed = 1;
  const Netlist a = generate_random_circuit(p);
  p.seed = 2;
  const Netlist b = generate_random_circuit(p);
  bool any_diff = a.net_count() != b.net_count();
  for (NetId id = 0; !any_diff && id < a.net_count(); ++id)
    any_diff = a.type(id) != b.type(id);
  EXPECT_TRUE(any_diff);
}

TEST(RandomCircuit, HonorsProfileCounts) {
  RandomCircuitProfile p;
  p.n_inputs = 40;
  p.n_outputs = 20;
  p.n_gates = 500;
  p.n_dffs = 30;
  p.seed = 5;
  const Netlist nl = generate_random_circuit(p);
  const auto stats = netlist::compute_stats(nl);
  EXPECT_EQ(stats.input_count, 40u);
  EXPECT_EQ(stats.gate_count, 500u);
  EXPECT_EQ(stats.dff_count, 30u);
  EXPECT_LE(stats.output_count, 20u);
  EXPECT_GT(stats.output_count, 0u);
}

TEST(RandomCircuit, SequentialProfileSurvivesScanAndSim) {
  RandomCircuitProfile p;
  p.n_gates = 400;
  p.n_dffs = 50;
  p.seed = 7;
  const Netlist nl = generate_random_circuit(p);
  EXPECT_TRUE(nl.is_sequential());
  const auto view = netlist::make_full_scan(nl);
  EXPECT_FALSE(view.comb.is_sequential());
  EXPECT_EQ(view.pseudo_inputs.size(), 50u);
  sim::Simulator sim(view.comb);  // must construct and run
  util::Rng rng(1);
  const auto patterns = sim::PatternSet::random(view.comb.inputs().size(), 64, rng);
  sim.simulate(patterns, [](std::size_t, std::uint64_t, std::span<const std::uint64_t>) {});
}

// ---------------------------------------------------------- multiplier -----

class MultiplierWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(MultiplierWidths, ComputesProducts) {
  const unsigned width = GetParam();
  const Netlist nl = generate_array_multiplier(width);
  ASSERT_EQ(nl.inputs().size(), 2u * width);
  ASSERT_EQ(nl.outputs().size(), 2u * width);
  sim::Simulator sim(nl);
  util::Rng rng(width);

  for (int trial = 0; trial < 40; ++trial) {
    const std::uint64_t a = rng.below(1ULL << width);
    const std::uint64_t b = rng.below(1ULL << width);
    sim::Pattern p(2 * width);
    for (unsigned i = 0; i < width; ++i) {
      p.set(i, (a >> i) & 1ULL);
      p.set(width + i, (b >> i) & 1ULL);
    }
    const auto values = sim.simulate_pattern(p);
    std::uint64_t product = 0;
    for (unsigned i = 0; i < 2 * width; ++i)
      product |= static_cast<std::uint64_t>(values[nl.outputs()[i]]) << i;
    ASSERT_EQ(product, a * b) << a << "×" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MultiplierWidths, ::testing::Values(2, 3, 4, 8, 16));

TEST(Multiplier, C6288LikeGateCountInRange) {
  const Netlist nl = generate_array_multiplier(16);
  const auto stats = netlist::compute_stats(nl);
  // ISCAS-85 c6288 is ~2.4k cells (NOR implementation); the functional FA
  // implementation lands in the same ballpark.
  EXPECT_GT(stats.gate_count, 1000u);
  EXPECT_LT(stats.gate_count, 3500u);
  EXPECT_GT(stats.max_level, 30u);  // deep carry chains
}

// -------------------------------------------------------------- MIPS16 -----

/// Drives the full-scan view of the generated processor one cycle at a time.
class Mips16Test : public ::testing::Test {
 protected:
  static constexpr unsigned kAdd = 0, kSub = 1, kAnd = 2, kOr = 3, kXor = 4,
                            kNor = 5, kSlt = 6, kSll = 7, kSrl = 8, kMul = 9,
                            kLw = 10, kSw = 11, kBeq = 12, kAddi = 13, kJmp = 14,
                            kMflo = 15;

  void SetUp() override {
    view_ = netlist::make_full_scan(generate_mips16({}));
    sim_ = std::make_unique<sim::Simulator>(view_.comb);
    const auto inputs = view_.comb.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i)
      input_index_[view_.comb.name(inputs[i])] = i;
    for (std::size_t i = 0; i < view_.pseudo_inputs.size(); ++i)
      pseudo_index_[view_.pseudo_inputs[i]] = i;
  }

  void set_word(sim::Pattern& p, const std::string& prefix, std::uint16_t value) {
    for (unsigned b = 0; b < 16; ++b) {
      const auto it = input_index_.find(prefix + std::to_string(b));
      ASSERT_NE(it, input_index_.end()) << prefix << b;
      p.set(it->second, (value >> b) & 1u);
    }
  }

  static std::uint16_t encode(unsigned op, unsigned rs, unsigned rt, unsigned rd) {
    return static_cast<std::uint16_t>((op << 12) | (rs << 8) | (rt << 4) | rd);
  }

  /// Runs one cycle. regs[0] is ignored (R0 == 0).
  std::vector<bool> cycle(std::uint16_t instr, std::uint16_t mem_rdata,
                          std::uint16_t pc, const std::array<std::uint16_t, 16>& regs,
                          std::uint16_t hi = 0, std::uint16_t lo = 0) {
    sim::Pattern p(view_.comb.inputs().size());
    set_word(p, "instr", instr);
    set_word(p, "mem_rdata", mem_rdata);
    set_word(p, "pc", pc);
    for (unsigned r = 1; r < 16; ++r)
      set_word(p, "r" + std::to_string(r) + "_", regs[r]);
    set_word(p, "hi", hi);
    set_word(p, "lo", lo);
    return sim_->simulate_pattern(p);
  }

  std::uint16_t out_word(const std::vector<bool>& values, std::size_t offset) const {
    std::uint16_t w = 0;
    for (unsigned b = 0; b < 16; ++b)
      w |= static_cast<std::uint16_t>(values[view_.comb.outputs()[offset + b]]) << b;
    return w;
  }

  // Output layout: [0,16) mem_addr; [16,32) mem_wdata; 32 mem_write;
  // 33 take_branch; [34,50) wb.
  std::uint16_t mem_addr(const std::vector<bool>& v) const { return out_word(v, 0); }
  std::uint16_t mem_wdata(const std::vector<bool>& v) const { return out_word(v, 16); }
  bool mem_write(const std::vector<bool>& v) const {
    return v[view_.comb.outputs()[32]];
  }
  bool take_branch(const std::vector<bool>& v) const {
    return v[view_.comb.outputs()[33]];
  }
  std::uint16_t wb(const std::vector<bool>& v) const { return out_word(v, 34); }

  /// Next-cycle value of a named state word (via the scan pseudo-outputs).
  std::uint16_t next_state(const std::vector<bool>& values, const std::string& prefix) {
    std::uint16_t w = 0;
    for (unsigned b = 0; b < 16; ++b) {
      const auto q = view_.comb.find(prefix + std::to_string(b));
      EXPECT_TRUE(q.has_value()) << prefix << b;
      const std::size_t idx = pseudo_index_.at(*q);
      w |= static_cast<std::uint16_t>(values[view_.pseudo_outputs[idx]]) << b;
    }
    return w;
  }

  netlist::ScanView view_;
  std::unique_ptr<sim::Simulator> sim_;
  std::map<std::string, std::size_t> input_index_;
  std::map<NetId, std::size_t> pseudo_index_;
};

TEST_F(Mips16Test, StructureIsSubstantial) {
  const auto stats = netlist::compute_stats(view_.comb);
  EXPECT_GT(stats.gate_count, 3000u);
  EXPECT_EQ(stats.input_count, 16u + 16u + (16u + 240u + 32u));
}

TEST_F(Mips16Test, ArithmeticOps) {
  std::array<std::uint16_t, 16> regs{};
  regs[1] = 0x1234;
  regs[2] = 0x0fff;
  util::Rng rng(3);
  for (int trial = 0; trial < 12; ++trial) {
    regs[1] = static_cast<std::uint16_t>(rng.below(65536));
    regs[2] = static_cast<std::uint16_t>(rng.below(65536));
    auto v = cycle(encode(kAdd, 1, 2, 3), 0, 0x10, regs);
    EXPECT_EQ(wb(v), static_cast<std::uint16_t>(regs[1] + regs[2]));
    EXPECT_EQ(next_state(v, "r3_"), static_cast<std::uint16_t>(regs[1] + regs[2]));
    v = cycle(encode(kSub, 1, 2, 3), 0, 0x10, regs);
    EXPECT_EQ(wb(v), static_cast<std::uint16_t>(regs[1] - regs[2]));
  }
}

TEST_F(Mips16Test, LogicOps) {
  std::array<std::uint16_t, 16> regs{};
  regs[4] = 0xA5C3;
  regs[5] = 0x0F0F;
  auto v = cycle(encode(kAnd, 4, 5, 6), 0, 0, regs);
  EXPECT_EQ(wb(v), 0xA5C3 & 0x0F0F);
  v = cycle(encode(kOr, 4, 5, 6), 0, 0, regs);
  EXPECT_EQ(wb(v), 0xA5C3 | 0x0F0F);
  v = cycle(encode(kXor, 4, 5, 6), 0, 0, regs);
  EXPECT_EQ(wb(v), 0xA5C3 ^ 0x0F0F);
  v = cycle(encode(kNor, 4, 5, 6), 0, 0, regs);
  EXPECT_EQ(wb(v), static_cast<std::uint16_t>(~(0xA5C3 | 0x0F0F)));
}

TEST_F(Mips16Test, SetLessThanSigned) {
  std::array<std::uint16_t, 16> regs{};
  regs[1] = static_cast<std::uint16_t>(-5);
  regs[2] = 3;
  auto v = cycle(encode(kSlt, 1, 2, 3), 0, 0, regs);
  EXPECT_EQ(wb(v), 1u);  // -5 < 3
  v = cycle(encode(kSlt, 2, 1, 3), 0, 0, regs);
  EXPECT_EQ(wb(v), 0u);
}

TEST_F(Mips16Test, Shifts) {
  std::array<std::uint16_t, 16> regs{};
  regs[2] = 0x00F1;
  for (unsigned sh = 0; sh < 16; sh += 3) {
    auto v = cycle(encode(kSll, 1, 2, sh), 0, 0, regs);
    EXPECT_EQ(wb(v), static_cast<std::uint16_t>(regs[2] << sh)) << "sll " << sh;
    v = cycle(encode(kSrl, 1, 2, sh), 0, 0, regs);
    EXPECT_EQ(wb(v), static_cast<std::uint16_t>(regs[2] >> sh)) << "srl " << sh;
  }
}

TEST_F(Mips16Test, MultiplyUpdatesHiLo) {
  std::array<std::uint16_t, 16> regs{};
  regs[1] = 0x0123;
  regs[2] = 0x0456;
  const std::uint32_t product = 0x0123u * 0x0456u;
  const auto v = cycle(encode(kMul, 1, 2, 3), 0, 0, regs);
  EXPECT_EQ(wb(v), static_cast<std::uint16_t>(product & 0xFFFF));
  EXPECT_EQ(next_state(v, "lo"), static_cast<std::uint16_t>(product & 0xFFFF));
  EXPECT_EQ(next_state(v, "hi"), static_cast<std::uint16_t>(product >> 16));
}

TEST_F(Mips16Test, MfloReadsLo) {
  std::array<std::uint16_t, 16> regs{};
  const auto v = cycle(encode(kMflo, 0, 0, 7), 0, 0, regs, /*hi=*/0xAAAA,
                       /*lo=*/0xBEEF);
  EXPECT_EQ(wb(v), 0xBEEF);
  EXPECT_EQ(next_state(v, "r7_"), 0xBEEF);
}

TEST_F(Mips16Test, LoadStoreAndAddressing) {
  std::array<std::uint16_t, 16> regs{};
  regs[1] = 0x2000;
  // LW r3, 2(r1): wb = mem_rdata; addr = r1 + 2.
  auto v = cycle(encode(kLw, 1, 0, 2), 0xCAFE, 0, regs);
  EXPECT_EQ(wb(v), 0xCAFE);
  EXPECT_EQ(mem_addr(v), 0x2002);
  EXPECT_FALSE(mem_write(v));
  // SW r2, -1(r1): addr = r1 - 1 (sign-extended imm), wdata = r2.
  regs[2] = 0x7777;
  v = cycle(encode(kSw, 1, 2, 0xF), 0, 0, regs);
  EXPECT_EQ(mem_addr(v), 0x1FFF);
  EXPECT_EQ(mem_wdata(v), 0x7777);
  EXPECT_TRUE(mem_write(v));
}

TEST_F(Mips16Test, LoadWritesTargetOfRtFieldEncodedInRd) {
  std::array<std::uint16_t, 16> regs{};
  const auto v = cycle(encode(kLw, 1, 0, 2), 0xD00D, 0, regs);
  // Destination is the rd field (2 here): r2 next state gets the loaded word.
  EXPECT_EQ(next_state(v, "r2_"), 0xD00D);
}

TEST_F(Mips16Test, BranchEqualTakenAndNotTaken) {
  std::array<std::uint16_t, 16> regs{};
  regs[1] = 42;
  regs[2] = 42;
  regs[3] = 43;
  // BEQ r1, r2, +3: pc_next = pc + 1 + 3.
  auto v = cycle(encode(kBeq, 1, 2, 3), 0, 0x100, regs);
  EXPECT_TRUE(take_branch(v));
  EXPECT_EQ(next_state(v, "pc"), 0x104);
  // Not equal: fall through.
  v = cycle(encode(kBeq, 1, 3, 3), 0, 0x100, regs);
  EXPECT_FALSE(take_branch(v));
  EXPECT_EQ(next_state(v, "pc"), 0x101);
  // Negative offset: imm4 = 0xF = -1 ⇒ pc+1-1 = pc.
  v = cycle(encode(kBeq, 1, 2, 0xF), 0, 0x100, regs);
  EXPECT_EQ(next_state(v, "pc"), 0x100);
}

TEST_F(Mips16Test, JumpReplacesLow12Bits) {
  std::array<std::uint16_t, 16> regs{};
  const std::uint16_t instr = static_cast<std::uint16_t>((kJmp << 12) | 0x0ABC);
  const auto v = cycle(instr, 0, 0xF123, regs);
  EXPECT_EQ(next_state(v, "pc"), 0xFABC);
}

TEST_F(Mips16Test, AddiSignExtends) {
  std::array<std::uint16_t, 16> regs{};
  regs[1] = 100;
  auto v = cycle(encode(kAddi, 1, 0, 5), 0, 0, regs);
  EXPECT_EQ(wb(v), 105);
  v = cycle(encode(kAddi, 1, 0, 0xF), 0, 0, regs);  // imm = -1
  EXPECT_EQ(wb(v), 99);
}

TEST_F(Mips16Test, WritesToR0AreIgnoredAndOthersHold) {
  std::array<std::uint16_t, 16> regs{};
  regs[1] = 7;
  regs[5] = 0x5555;
  // ADD r0 = r1 + r1: no architectural register may change except pc.
  const auto v = cycle(encode(kAdd, 1, 1, 0), 0, 0x10, regs);
  for (unsigned r = 1; r < 16; ++r)
    EXPECT_EQ(next_state(v, "r" + std::to_string(r) + "_"), regs[r]) << "r" << r;
}

TEST_F(Mips16Test, UnrelatedRegistersHoldDuringWrite) {
  std::array<std::uint16_t, 16> regs{};
  regs[1] = 10;
  regs[2] = 20;
  regs[9] = 0x9999;
  const auto v = cycle(encode(kAdd, 1, 2, 3), 0, 0, regs);
  EXPECT_EQ(next_state(v, "r3_"), 30u);
  EXPECT_EQ(next_state(v, "r9_"), 0x9999);
  EXPECT_EQ(next_state(v, "r1_"), 10u);
}

// -------------------------------------------------------------- library ----

TEST(Library, AllNamedBenchmarksLoad) {
  for (const auto& name : benchmark_names()) {
    const Benchmark bench = load_benchmark(name);
    EXPECT_EQ(bench.name, name);
    EXPECT_FALSE(bench.scan.comb.is_sequential());
    EXPECT_GT(bench.scan.comb.gate_count(), 100u);
    EXPECT_GT(bench.paper_gates, 0u);
  }
}

TEST(Library, UnknownNameThrows) { EXPECT_THROW(load_benchmark("c9999"), Error); }

TEST(Library, GateCountsTrackPaper) {
  // Combinational profiles are sized to the paper's gate column exactly;
  // structural generators (multiplier, mips) land within a factor of ~2.5
  // in at least one direction documented in EXPERIMENTS.md.
  for (const auto& name : {"c2670_like", "c5315_like", "c7552_like", "s13207_like"}) {
    const Benchmark bench = load_benchmark(name);
    EXPECT_EQ(bench.original.gate_count(), bench.paper_gates) << name;
  }
}

TEST(Library, SequentialProfilesAreSequential) {
  for (const auto& name : {"s13207_like", "s15850_like", "s35932_like", "mips16_like"}) {
    const Benchmark bench = load_benchmark(name);
    EXPECT_TRUE(bench.original.is_sequential()) << name;
    EXPECT_FALSE(bench.scan.pseudo_inputs.empty()) << name;
  }
}

TEST(Library, FileLoadRoundTrip) {
  const Benchmark mult = load_benchmark("c6288_like");
  const std::string path = ::testing::TempDir() + "/c6288_like.bench";
  netlist::write_bench_file(mult.original, path);
  const Benchmark loaded = load_benchmark_file(path);
  EXPECT_EQ(loaded.original.gate_count(), mult.original.gate_count());
  EXPECT_EQ(loaded.original.inputs().size(), mult.original.inputs().size());
}

TEST(Library, FileLoadRejectsMalformedBench) {
  const std::string path = ::testing::TempDir() + "/malformed.bench";
  std::ofstream(path) << "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
  try {
    load_benchmark_file(path);
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------ sequential stepping -------

/// Reference sequential semantics for the generators' flip-flops: one full
/// combinational evaluation of the full-scan view per cycle, then Q <= D.
/// Single trace, std::vector<bool> values indexed by NetId (make_full_scan
/// keeps the ids of the original design).
class SeedSequentialSimulator {
 public:
  explicit SeedSequentialSimulator(const Netlist& netlist)
      : scan_(netlist::make_full_scan(netlist)),
        comb_sim_(scan_.comb),
        state_(scan_.pseudo_inputs.size(), false) {}

  void reset(bool value = false) { std::fill(state_.begin(), state_.end(), value); }

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

  /// One clock cycle: evaluates every net from the primary `inputs` and the
  /// current state, then latches each D into its Q. Returns the cycle's net
  /// values.
  const std::vector<bool>& step(const sim::Pattern& inputs) {
    const auto scan_inputs = scan_.comb.inputs();
    sim::Pattern combined(scan_inputs.size());
    std::size_t pi_index = 0;
    std::size_t ff_index = 0;
    for (std::size_t i = 0; i < scan_inputs.size(); ++i) {
      if (ff_index < scan_.pseudo_inputs.size() &&
          scan_.pseudo_inputs[ff_index] == scan_inputs[i]) {
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
  netlist::ScanView scan_;
  sim::Simulator comb_sim_;
  std::vector<bool> state_;
  std::vector<bool> values_;
};

std::uint16_t encode_mips16(unsigned op, unsigned rs, unsigned rt, unsigned rd) {
  return static_cast<std::uint16_t>((op << 12) | (rs << 8) | (rt << 4) | rd);
}

/// The MIPS16 input pattern of one cycle: instr[16] + mem_rdata[16] = 0.
sim::Pattern mips16_inputs(std::uint16_t instr) {
  sim::Pattern inputs(32);
  for (unsigned bit = 0; bit < 16; ++bit) inputs.set(bit, (instr >> bit) & 1u);
  return inputs;
}

TEST(SequentialSim, ToggleFlipFlop) {
  // q <= NOT(q): a divide-by-two toggle.
  netlist::NetlistBuilder b;
  const NetId q = b.add_dff(netlist::kNoNet, "q");
  const NetId nq = b.add_gate(netlist::GateType::Not, {q}, "nq");
  b.set_dff_input(q, nq);
  b.mark_output(q);
  const Netlist nl = b.build();

  SeedSequentialSimulator seq(nl);
  seq.reset(false);
  const sim::Pattern no_inputs(0);
  for (int cycle = 0; cycle < 8; ++cycle) {
    const bool before = seq.state(q);
    seq.step(no_inputs);
    EXPECT_EQ(seq.state(q), !before) << "cycle " << cycle;
  }
}

TEST(SequentialSim, ShiftRegister) {
  netlist::NetlistBuilder b;
  const NetId din = b.add_input("din");
  const NetId q0 = b.add_dff(din, "q0");
  const NetId q1 = b.add_dff(q0, "q1");
  const NetId q2 = b.add_dff(q1, "q2");
  b.mark_output(q2);
  const Netlist nl = b.build();

  SeedSequentialSimulator seq(nl);
  seq.reset(false);
  const bool stream[] = {true, false, true, true, false, false};
  std::vector<bool> seen;
  for (const bool bit : stream) {
    sim::Pattern p(1);
    p.set(0, bit);
    seq.step(p);
    seen.push_back(seq.state(q2));
  }
  // q2 lags din by 3 cycles.
  EXPECT_FALSE(seen[0]);
  EXPECT_FALSE(seen[1]);
  EXPECT_TRUE(seen[2]);   // stream[0]
  EXPECT_FALSE(seen[3]);  // stream[1]
  EXPECT_TRUE(seen[4]);   // stream[2]
}

TEST(SequentialSim, ResetAndSetState) {
  netlist::NetlistBuilder b;
  const NetId q = b.add_dff(netlist::kNoNet, "q");
  b.set_dff_input(q, q);  // hold
  b.mark_output(q);
  const Netlist nl = b.build();
  SeedSequentialSimulator seq(nl);
  seq.reset(true);
  EXPECT_TRUE(seq.state(q));
  seq.set_state(q, false);
  EXPECT_FALSE(seq.state(q));
  seq.step(sim::Pattern(0));
  EXPECT_FALSE(seq.state(q));  // hold keeps value
}

TEST(SequentialSim, CounterOnRandomSequentialCircuit) {
  // Smoke: a generated sequential circuit steps for many cycles, every net
  // gets a value each cycle, and the flip-flops latch their D inputs.
  RandomCircuitProfile p;
  p.n_inputs = 8;
  p.n_outputs = 4;
  p.n_gates = 150;
  p.n_dffs = 12;
  p.seed = 77;
  const Netlist nl = generate_random_circuit(p);
  SeedSequentialSimulator seq(nl);
  seq.reset();
  util::Rng rng(5);
  for (int cycle = 0; cycle < 50; ++cycle) {
    sim::Pattern inputs(8);
    for (int i = 0; i < 8; ++i) inputs.set(i, rng.bernoulli(0.5));
    const auto& values = seq.step(inputs);
    ASSERT_EQ(values.size(), nl.net_count());
    for (const NetId q : nl.dffs())
      ASSERT_EQ(seq.state(q), values[nl.fanins(q)[0]]) << "cycle " << cycle;
  }
}

/// Executes a 4-instruction program on the MIPS16-like processor, cycle by
/// cycle, feeding the instruction stream through the instruction port —
/// end-to-end evidence that the generated netlist is a working CPU.
TEST(SequentialSim, Mips16RunsAProgram) {
  const Netlist cpu = generate_mips16({});
  SeedSequentialSimulator seq(cpu);
  seq.reset(false);  // PC=0, all regs 0

  constexpr unsigned kAdd = 0, kMul = 9, kAddi = 13;
  // Program (destination is the rd/imm field; ADDI writes r[imm]):
  //   ADDI r3, r0, 3     -> r3 = 3
  //   ADD  r2 = r3 + r3  -> r2 = 6
  //   MUL  r5 = r2 * r3  -> r5 = 18, LO = 18
  //   ADD  r6 = r5 + r2  -> r6 = 24
  const std::uint16_t program[] = {
      encode_mips16(kAddi, 0, 0, 3),
      encode_mips16(kAdd, 3, 3, 2),
      encode_mips16(kMul, 2, 3, 5),
      encode_mips16(kAdd, 5, 2, 6),
  };
  for (const std::uint16_t instr : program) seq.step(mips16_inputs(instr));

  const auto read_word = [&](const std::string& prefix) {
    std::uint16_t value = 0;
    for (unsigned bit = 0; bit < 16; ++bit) {
      const auto q = cpu.find(prefix + std::to_string(bit));
      EXPECT_TRUE(q.has_value()) << prefix << bit;
      if (q) value |= static_cast<std::uint16_t>(seq.state(*q)) << bit;
    }
    return value;
  };
  EXPECT_EQ(read_word("r3_"), 3u);
  EXPECT_EQ(read_word("r2_"), 6u);
  EXPECT_EQ(read_word("r5_"), 18u);
  EXPECT_EQ(read_word("r6_"), 24u);
  EXPECT_EQ(read_word("pc"), 4u);  // four sequential instructions
}

/// A trojan on a sequential design: apply_trojan inserts a trigger on the
/// low byte of the MIPS16 PC (== 5) with its payload on a register bit. The
/// infected core must stay a working sequential netlist, and the trigger
/// must fire exactly when the straight-line ADDI prologue reaches PC 5.
TEST(SequentialSim, Mips16PcTrojanFiresDuringAddiPrologue) {
  const Netlist cpu = generate_mips16({});
  trojan::Trojan ht;
  for (unsigned bit = 0; bit < 8; ++bit) {
    const auto q = cpu.find("pc" + std::to_string(bit));
    ASSERT_TRUE(q.has_value());
    ht.trigger.push_back({*q, ((5u >> bit) & 1u) != 0, 0.0});
  }
  const auto payload = cpu.find("r3_0");
  ASSERT_TRUE(payload.has_value());
  ht.payload_net = *payload;
  // payload_is_safe's fanout BFS crosses register boundaries, so it is
  // over-conservative on sequential designs; apply_trojan's builder checks
  // combinational acyclicity and throws if the payload fed the trigger.
  NetId trigger_net = netlist::kNoNet;
  const Netlist infected = trojan::apply_trojan(cpu, ht, &trigger_net);
  ASSERT_NE(trigger_net, netlist::kNoNet);
  ASSERT_TRUE(infected.is_sequential());

  SeedSequentialSimulator seq(infected);
  seq.reset(false);
  for (unsigned k = 0; k < 10; ++k) {
    const auto& values =
        seq.step(mips16_inputs(encode_mips16(13, 0, k & 3, k + 1)));  // ADDI
    EXPECT_EQ(values[trigger_net], k == 5) << "cycle " << k;
  }
}

}  // namespace
}  // namespace deterrent::bench_gen
