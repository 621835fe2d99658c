#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "netlist/bench_io.hpp"
#include "netlist/gate.hpp"
#include "netlist/netlist.hpp"
#include "netlist/scan.hpp"
#include "netlist/stats.hpp"
#include "util/rng.hpp"

#include "helpers.hpp"

namespace deterrent::netlist {
namespace {

// --------------------------------------------------- gate evaluation -------

struct TruthCase {
  GateType type;
  std::vector<char> inputs;  // contiguous bools (std::vector<bool> is packed)
  bool expected;
};

class GateTruth : public ::testing::TestWithParam<TruthCase> {};

TEST_P(GateTruth, BoolMatches) {
  const auto& c = GetParam();
  const auto buf = std::make_unique<bool[]>(std::max<std::size_t>(1, c.inputs.size()));
  for (std::size_t i = 0; i < c.inputs.size(); ++i) buf[i] = c.inputs[i] != 0;
  EXPECT_EQ(eval_bool(c.type, std::span<const bool>(buf.get(), c.inputs.size())),
            c.expected);
}

TEST_P(GateTruth, WordMatchesBoolOnAllLanes) {
  const auto& c = GetParam();
  std::vector<std::uint64_t> words(c.inputs.size());
  for (std::size_t i = 0; i < c.inputs.size(); ++i)
    words[i] = c.inputs[i] ? ~0ULL : 0ULL;
  const std::uint64_t out = eval_word(c.type, words);
  EXPECT_EQ(out, c.expected ? ~0ULL : 0ULL);
}

INSTANTIATE_TEST_SUITE_P(
    TruthTables, GateTruth,
    ::testing::Values(
        TruthCase{GateType::Buf, {false}, false}, TruthCase{GateType::Buf, {true}, true},
        TruthCase{GateType::Not, {false}, true}, TruthCase{GateType::Not, {true}, false},
        TruthCase{GateType::And, {false, false}, false},
        TruthCase{GateType::And, {true, false}, false},
        TruthCase{GateType::And, {true, true}, true},
        TruthCase{GateType::And, {true, true, true}, true},
        TruthCase{GateType::And, {true, true, false}, false},
        TruthCase{GateType::Nand, {true, true}, false},
        TruthCase{GateType::Nand, {true, false}, true},
        TruthCase{GateType::Or, {false, false}, false},
        TruthCase{GateType::Or, {false, true}, true},
        TruthCase{GateType::Or, {false, false, true}, true},
        TruthCase{GateType::Nor, {false, false}, true},
        TruthCase{GateType::Nor, {true, false}, false},
        TruthCase{GateType::Xor, {false, true}, true},
        TruthCase{GateType::Xor, {true, true}, false},
        TruthCase{GateType::Xor, {true, true, true}, true},
        TruthCase{GateType::Xor, {true, true, false, true}, true},
        TruthCase{GateType::Xnor, {true, true}, true},
        TruthCase{GateType::Xnor, {true, false}, false},
        TruthCase{GateType::Xnor, {true, true, true}, false},
        TruthCase{GateType::Const0, {}, false}, TruthCase{GateType::Const1, {}, true}));

TEST(GateEval, WordMixedLanes) {
  // lane k of inputs: a = k&1, b = k&2.
  const std::uint64_t a = 0xAAAAAAAAAAAAAAAAULL;  // alternating
  const std::uint64_t b = 0xCCCCCCCCCCCCCCCCULL;
  std::vector<std::uint64_t> in{a, b};
  EXPECT_EQ(eval_word(GateType::And, in), a & b);
  EXPECT_EQ(eval_word(GateType::Or, in), a | b);
  EXPECT_EQ(eval_word(GateType::Xor, in), a ^ b);
  EXPECT_EQ(eval_word(GateType::Nand, in), ~(a & b));
  EXPECT_EQ(eval_word(GateType::Nor, in), ~(a | b));
  EXPECT_EQ(eval_word(GateType::Xnor, in), ~(a ^ b));
}

TEST(GateMeta, FaninBounds) {
  EXPECT_EQ(fanin_bounds(GateType::Input).max, 0u);
  EXPECT_EQ(fanin_bounds(GateType::Not).min, 1u);
  EXPECT_EQ(fanin_bounds(GateType::Not).max, 1u);
  EXPECT_EQ(fanin_bounds(GateType::And).min, 1u);
  EXPECT_EQ(fanin_bounds(GateType::And).max, 0u);  // unbounded
  EXPECT_EQ(fanin_bounds(GateType::Dff).min, 1u);
}

TEST(GateMeta, Classification) {
  EXPECT_TRUE(is_combinational_source(GateType::Input));
  EXPECT_TRUE(is_combinational_source(GateType::Dff));
  EXPECT_TRUE(is_combinational_source(GateType::Const0));
  EXPECT_FALSE(is_combinational_source(GateType::And));
  EXPECT_TRUE(is_combinational_cell(GateType::And));
  EXPECT_FALSE(is_combinational_cell(GateType::Input));
  EXPECT_FALSE(is_combinational_cell(GateType::Dff));
}

// -------------------------------------------------------- builder ----------

TEST(Builder, SimpleAndGate) {
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId c = b.add_input("b");
  const NetId y = b.add_gate(GateType::And, {a, c}, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  EXPECT_EQ(nl.net_count(), 3u);
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.type(y), GateType::And);
  ASSERT_EQ(nl.fanins(y).size(), 2u);
  EXPECT_EQ(nl.fanins(y)[0], a);
  EXPECT_EQ(nl.level(y), 1u);
  EXPECT_EQ(nl.level(a), 0u);
}

TEST(Builder, FindByName) {
  NetlistBuilder b;
  const NetId a = b.add_input("alpha");
  b.mark_output(b.add_gate(GateType::Not, {a}, "omega"));
  const Netlist nl = b.build();
  EXPECT_EQ(nl.find("alpha"), std::optional<NetId>(a));
  EXPECT_TRUE(nl.find("omega").has_value());
  EXPECT_FALSE(nl.find("missing").has_value());
}

TEST(Builder, ForwardDeclarationResolved) {
  NetlistBuilder b;
  const NetId y = b.declare("y");  // used before definition
  const NetId a = b.add_input("a");
  const NetId z = b.add_gate(GateType::Not, {y}, "z");
  b.define_gate(y, GateType::Buf, {a});
  b.mark_output(z);
  const Netlist nl = b.build();
  EXPECT_EQ(nl.type(y), GateType::Buf);
  EXPECT_EQ(nl.level(z), 2u);
}

TEST(Builder, UndefinedNetThrows) {
  NetlistBuilder b;
  b.declare("ghost");
  EXPECT_THROW(b.build(), Error);
}

TEST(Builder, DoubleDefinitionThrows) {
  NetlistBuilder b;
  const NetId y = b.declare("y");
  b.define_input(y);
  EXPECT_THROW(b.define_input(y), Error);
}

TEST(Builder, ArityViolationThrows) {
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId c = b.add_input("b");
  const NetId bad = b.declare("bad");
  b.define_gate(bad, GateType::Not, {a, c});  // NOT with two fanins
  EXPECT_THROW(b.build(), Error);
}

TEST(Builder, CombinationalCycleThrows) {
  NetlistBuilder b;
  const NetId x = b.declare("x");
  const NetId y = b.declare("y");
  b.define_gate(x, GateType::Not, {y});
  b.define_gate(y, GateType::Not, {x});
  EXPECT_THROW(b.build(), Error);
}

TEST(Builder, DffBreaksCycle) {
  // x = NOT(q); q = DFF(x)  — legal sequential feedback.
  NetlistBuilder b;
  const NetId q = b.add_dff(kNoNet, "q");
  const NetId x = b.add_gate(GateType::Not, {q}, "x");
  b.set_dff_input(q, x);
  b.mark_output(x);
  const Netlist nl = b.build();
  EXPECT_TRUE(nl.is_sequential());
  EXPECT_EQ(nl.dffs().size(), 1u);
  EXPECT_EQ(nl.fanins(q)[0], x);
}

TEST(Builder, DanglingDffInputThrows) {
  NetlistBuilder b;
  b.add_dff(kNoNet, "q");  // data input never set
  EXPECT_THROW(b.build(), Error);
}

TEST(Builder, TopoOrderRespectsDependencies) {
  util::Rng rng(5);
  NetlistBuilder b;
  std::vector<NetId> nets;
  for (int i = 0; i < 10; ++i) nets.push_back(b.add_input());
  for (int i = 0; i < 200; ++i) {
    const NetId f1 = nets[rng.below(nets.size())];
    const NetId f2 = nets[rng.below(nets.size())];
    nets.push_back(b.add_gate(f1 == f2 ? GateType::Not : GateType::And,
                              f1 == f2 ? std::vector<NetId>{f1}
                                       : std::vector<NetId>{f1, f2}));
  }
  b.mark_output(nets.back());
  const Netlist nl = b.build();

  std::vector<std::size_t> position(nl.net_count());
  const auto order = nl.topo_order();
  ASSERT_EQ(order.size(), nl.net_count());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (NetId id = 0; id < nl.net_count(); ++id)
    for (const NetId f : nl.fanins(id))
      EXPECT_LT(position[f], position[id]) << "net " << id;
}

TEST(Builder, FanoutsAreInverseOfFanins) {
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId y1 = b.add_gate(GateType::Not, {a});
  const NetId y2 = b.add_gate(GateType::Buf, {a});
  const NetId y3 = b.add_gate(GateType::And, {y1, y2});
  b.mark_output(y3);
  const Netlist nl = b.build();
  const auto fo = nl.fanouts(a);
  EXPECT_EQ(fo.size(), 2u);
  EXPECT_EQ(nl.fanouts(y3).size(), 0u);
}

TEST(Builder, GateCountExcludesInputsAndDffs) {
  NetlistBuilder b;
  const NetId a = b.add_input();
  const NetId q = b.add_dff(a);
  const NetId y = b.add_gate(GateType::Not, {q});
  b.mark_output(y);
  const Netlist nl = b.build();
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_EQ(nl.net_count(), 3u);
}

// ------------------------------------------------------------ scan ---------

TEST(Scan, CombinationalIsIdentity) {
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId y = b.add_gate(GateType::Not, {a}, "y");
  b.mark_output(y);
  const Netlist nl = b.build();
  const ScanView view = make_full_scan(nl);
  EXPECT_EQ(view.comb.net_count(), nl.net_count());
  EXPECT_TRUE(view.pseudo_inputs.empty());
  EXPECT_EQ(view.comb.inputs().size(), 1u);
  EXPECT_EQ(view.comb.outputs().size(), 1u);
}

TEST(Scan, DffsBecomePseudoInputsAndOutputs) {
  NetlistBuilder b;
  const NetId a = b.add_input("a");
  const NetId q = b.add_dff(kNoNet, "q");
  const NetId x = b.add_gate(GateType::Xor, {a, q}, "x");
  b.set_dff_input(q, x);
  b.mark_output(x);
  const Netlist nl = b.build();

  const ScanView view = make_full_scan(nl);
  EXPECT_FALSE(view.comb.is_sequential());
  ASSERT_EQ(view.pseudo_inputs.size(), 1u);
  EXPECT_EQ(view.pseudo_inputs[0], q);  // ids preserved
  ASSERT_EQ(view.pseudo_outputs.size(), 1u);
  EXPECT_EQ(view.pseudo_outputs[0], x);
  EXPECT_EQ(view.comb.type(q), GateType::Input);
  EXPECT_EQ(view.comb.inputs().size(), 2u);
  // Original output plus the pseudo output (x twice is legal: once PO, once D).
  EXPECT_EQ(view.comb.outputs().size(), 2u);
}

TEST(Scan, IdStabilityOnLargerDesign) {
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(b.add_input());
  std::vector<NetId> qs;
  for (int i = 0; i < 4; ++i) qs.push_back(b.add_dff(kNoNet));
  std::vector<NetId> gates;
  for (int i = 0; i < 30; ++i) {
    const NetId f1 = i % 2 ? ins[i % 8] : qs[i % 4];
    const NetId f2 = ins[(i * 3) % 8];
    gates.push_back(b.add_gate(f1 == f2 ? GateType::Not : GateType::Nand,
                               f1 == f2 ? std::vector<NetId>{f1}
                                        : std::vector<NetId>{f1, f2}));
  }
  for (std::size_t i = 0; i < qs.size(); ++i) b.set_dff_input(qs[i], gates[20 + i]);
  b.mark_output(gates.back());
  const Netlist nl = b.build();
  const ScanView view = make_full_scan(nl);
  for (NetId id = 0; id < nl.net_count(); ++id) {
    if (nl.type(id) == GateType::Dff) {
      EXPECT_EQ(view.comb.type(id), GateType::Input);
    } else {
      EXPECT_EQ(view.comb.type(id), nl.type(id));
    }
  }
}

// -------------------------------------------------------- bench I/O --------

constexpr const char* kC17 = R"(# c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
)";

TEST(BenchIO, ParsesC17) {
  const Netlist nl = parse_bench(kC17);
  EXPECT_EQ(nl.inputs().size(), 5u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.gate_count(), 6u);
  const auto g22 = nl.find("G22");
  ASSERT_TRUE(g22.has_value());
  EXPECT_EQ(nl.type(*g22), GateType::Nand);
}

TEST(BenchIO, UsesBeforeDefinitions) {
  const Netlist nl = parse_bench("OUTPUT(y)\ny = AND(a, b)\nINPUT(a)\nINPUT(b)\n");
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.gate_count(), 1u);
}

TEST(BenchIO, ParsesDffAndConstants) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nOUTPUT(q)\nq = DFF(n1)\nn1 = XOR(a, q)\nz = CONST0()\n"
      "o = VDD()\n");
  EXPECT_TRUE(nl.is_sequential());
  EXPECT_EQ(nl.dffs().size(), 1u);
  EXPECT_EQ(nl.type(*nl.find("z")), GateType::Const0);
  EXPECT_EQ(nl.type(*nl.find("o")), GateType::Const1);
}

TEST(BenchIO, AcceptsAliases) {
  const Netlist nl = parse_bench("INPUT(a)\nOUTPUT(y)\nn = INV(a)\ny = BUFF(n)\n");
  EXPECT_EQ(nl.type(*nl.find("n")), GateType::Not);
  EXPECT_EQ(nl.type(*nl.find("y")), GateType::Buf);
}

/// The diagnostic codes of a checked parse, in report order.
std::vector<std::string> diagnostic_codes(const std::string& text) {
  std::vector<std::string> codes;
  for (const auto& d : read_bench_string_checked(text).diagnostics)
    codes.push_back(d.code);
  return codes;
}

TEST(BenchIO, UnknownCellIsReportedWithLineNumber) {
  const auto result = read_bench_string_checked("INPUT(a)\ny = FROB(a)\n");
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].code, "parse.cell");
  EXPECT_EQ(result.diagnostics[0].line, 2u);
}

TEST(BenchIO, UnbalancedParenIsSyntaxError) {
  EXPECT_EQ(diagnostic_codes("INPUT(a\n"), std::vector<std::string>{"parse.syntax"});
  EXPECT_EQ(diagnostic_codes("INPUT(a)\ny = AND a, a)\n"),
            std::vector<std::string>{"parse.syntax"});
}

TEST(BenchIO, UndefinedNetIsUndriven) {
  EXPECT_EQ(diagnostic_codes("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"),
            std::vector<std::string>{"drc.undriven"});
}

TEST(BenchIO, RoundTripPreservesStructure) {
  const Netlist original = parse_bench(kC17);
  const Netlist reparsed = parse_bench(write_bench_string(original));
  EXPECT_EQ(reparsed.net_count(), original.net_count());
  EXPECT_EQ(reparsed.gate_count(), original.gate_count());
  EXPECT_EQ(reparsed.inputs().size(), original.inputs().size());
  EXPECT_EQ(reparsed.outputs().size(), original.outputs().size());
  // Same names, same types, same fanin names.
  for (NetId id = 0; id < original.net_count(); ++id) {
    const auto other = reparsed.find(original.name(id));
    ASSERT_TRUE(other.has_value()) << original.name(id);
    EXPECT_EQ(reparsed.type(*other), original.type(id));
    EXPECT_EQ(reparsed.fanins(*other).size(), original.fanins(id).size());
  }
}

TEST(BenchIO, RoundTripSequential) {
  const char* src =
      "INPUT(a)\nOUTPUT(x)\nq = DFF(x)\nx = XOR(a, q)\n";
  const Netlist original = parse_bench(src);
  const Netlist reparsed = parse_bench(write_bench_string(original));
  EXPECT_TRUE(reparsed.is_sequential());
  EXPECT_EQ(reparsed.dffs().size(), 1u);
}

// ----------------------------------------------------------- stats ---------

TEST(Stats, CountsByType) {
  const Netlist nl = parse_bench(kC17);
  const NetlistStats stats = compute_stats(nl);
  EXPECT_EQ(stats.gate_count, 6u);
  EXPECT_EQ(stats.input_count, 5u);
  EXPECT_EQ(stats.output_count, 2u);
  EXPECT_EQ(stats.count_by_type[static_cast<std::size_t>(GateType::Nand)], 6u);
  EXPECT_EQ(stats.max_level, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_fanin, 2.0);
  EXPECT_FALSE(stats.to_string().empty());
}

}  // namespace
}  // namespace deterrent::netlist
