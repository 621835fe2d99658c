// Linter tests: rule registry, per-rule clean/violating pairs on minimal
// hand-built netlists, the checked bench parser and its malformed-input
// corpus, the JSON report, the trojan screen against real insertions, and the
// end-to-end front-door wiring (pipeline stage 0, session sidecar, campaign
// quarantine).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/lint.hpp"
#include "analysis/rare_nets.hpp"
#include "bench_gen/library.hpp"
#include "bench_gen/random_circuit.hpp"
#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "netlist/bench_io.hpp"
#include "sat/oracle.hpp"
#include "trojan/trojan.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace deterrent::analysis {
namespace {

namespace fs = std::filesystem;

using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using netlist::NetId;

bool has_rule(const LintReport& report, std::string_view rule) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const LintDiagnostic& d) { return d.rule == rule; });
}

const LintDiagnostic* find_rule(const LintReport& report, std::string_view rule) {
  for (const auto& d : report.diagnostics)
    if (d.rule == rule) return &d;
  return nullptr;
}

std::string rules_of(const LintReport& report) {
  std::string out;
  for (const auto& d : report.diagnostics) out += d.rule + " [" + d.net_name + "]; ";
  return out;
}

/// INPUT(a) INPUT(b) → y = AND(a, b) → OUTPUT(y): the smallest netlist every
/// rule agrees is clean.
Netlist tiny_clean() {
  NetlistBuilder b;
  const NetId a = b.declare("a"), bb = b.declare("b"), y = b.declare("y");
  b.define_input(a);
  b.define_input(bb);
  b.define_gate(y, GateType::And, {a, bb});
  b.mark_output(y);
  return b.build();
}

// ------------------------------------------------------- rule registry -----

TEST(LintRegistry, CatalogHasUniqueIdsAndBothTiers) {
  const auto rules = lint_rules();
  ASSERT_GE(rules.size(), 12u);
  bool saw_drc = false, saw_trojan = false, saw_parse = false;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    for (std::size_t j = i + 1; j < rules.size(); ++j)
      EXPECT_STRNE(rules[i].id, rules[j].id);
    if (std::string_view(rules[i].tier) == "drc") saw_drc = true;
    if (std::string_view(rules[i].tier) == "trojan") saw_trojan = true;
    if (std::string_view(rules[i].tier) == "parse") saw_parse = true;
  }
  EXPECT_TRUE(saw_drc);
  EXPECT_TRUE(saw_trojan);
  EXPECT_TRUE(saw_parse);
}

TEST(LintRegistry, FindLintRule) {
  const LintRule* rule = find_lint_rule("drc.cycle");
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->severity, LintSeverity::Error);
  EXPECT_EQ(find_lint_rule("no.such.rule"), nullptr);
}

TEST(LintConfigTest, DisabledListAndUnknownIds) {
  LintConfig cfg;
  EXPECT_TRUE(cfg.rule_enabled("drc.dangling"));
  cfg.disabled = {"drc.dangling", "not-a-rule"};
  EXPECT_FALSE(cfg.rule_enabled("drc.dangling"));
  EXPECT_TRUE(cfg.rule_enabled("drc.cycle"));
}

// ------------------------------------------------------- report basics -----

TEST(LintReportTest, CountsSummaryAndRejects) {
  LintReport report;
  report.diagnostics.push_back({"drc.cycle", LintSeverity::Error, 0, "x", 0, "m"});
  report.diagnostics.push_back({"drc.dangling", LintSeverity::Warning, 1, "y", 0, "m"});
  report.diagnostics.push_back({"drc.const-logic", LintSeverity::Info, 2, "z", 0, "m"});
  EXPECT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.warnings(), 1u);
  EXPECT_EQ(report.infos(), 1u);
  EXPECT_TRUE(report.rejects(LintSeverity::Error));
  EXPECT_TRUE(report.rejects(LintSeverity::Info));
  EXPECT_EQ(report.summary(), "1 error, 1 warning, 1 info");

  LintReport clean;
  EXPECT_FALSE(clean.rejects(LintSeverity::Info));
  EXPECT_EQ(clean.summary(), "clean");
}

TEST(LintReportTest, JsonShapeAndEscaping) {
  LintReport report;
  report.diagnostics.push_back(
      {"drc.dangling", LintSeverity::Warning, 3, "we\"ird\\name", 7, "tab\there"});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos);
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);

  LintReport clean;
  EXPECT_NE(clean.to_json().find("\"clean\":true"), std::string::npos);
}

TEST(Linter, CleanNetlistProducesNoDiagnostics) {
  const LintReport report = Linter().lint(tiny_clean());
  EXPECT_TRUE(report.diagnostics.empty()) << rules_of(report);
}

// ---------------------------------------------------- DRC rule pairs -------

TEST(LintRuleNoOutputs, FiresOnlyWithoutOutputs) {
  NetlistBuilder b;
  const NetId a = b.declare("a"), y = b.declare("y");
  b.define_input(a);
  b.define_gate(y, GateType::Not, {a});
  const LintReport bad = Linter().lint(b.build());
  EXPECT_TRUE(has_rule(bad, "drc.no-outputs")) << rules_of(bad);
  EXPECT_FALSE(has_rule(Linter().lint(tiny_clean()), "drc.no-outputs"));
}

TEST(LintRuleUnusedInput, FiresOnlyOnUnconsumedInput) {
  NetlistBuilder b;
  const NetId a = b.declare("a"), unused = b.declare("unused"), y = b.declare("y");
  b.define_input(a);
  b.define_input(unused);
  b.define_gate(y, GateType::Not, {a});
  b.mark_output(y);
  const LintReport bad = Linter().lint(b.build());
  const LintDiagnostic* d = find_rule(bad, "drc.unused-input");
  ASSERT_NE(d, nullptr) << rules_of(bad);
  EXPECT_EQ(d->net_name, "unused");
  EXPECT_FALSE(has_rule(Linter().lint(tiny_clean()), "drc.unused-input"));
}

TEST(LintRuleDangling, FiresOnlyOnFanoutFreeInternalNet) {
  NetlistBuilder b;
  const NetId a = b.declare("a"), bb = b.declare("b");
  const NetId y = b.declare("y"), stub = b.declare("stub");
  b.define_input(a);
  b.define_input(bb);
  b.define_gate(y, GateType::And, {a, bb});
  b.define_gate(stub, GateType::Or, {a, bb});  // no consumers, not an output
  b.mark_output(y);
  const LintReport bad = Linter().lint(b.build());
  const LintDiagnostic* d = find_rule(bad, "drc.dangling");
  ASSERT_NE(d, nullptr) << rules_of(bad);
  EXPECT_EQ(d->net_name, "stub");
  EXPECT_FALSE(has_rule(Linter().lint(tiny_clean()), "drc.dangling"));
}

TEST(LintRuleDeadCone, FiresOnlyOnConsumedButUnreachableLogic) {
  NetlistBuilder b;
  const NetId a = b.declare("a"), bb = b.declare("b"), y = b.declare("y");
  const NetId dead = b.declare("dead"), sink = b.declare("sink");
  b.define_input(a);
  b.define_input(bb);
  b.define_gate(y, GateType::And, {a, bb});
  // `dead` HAS a consumer (`sink`), but the cone never reaches an output —
  // that consumer is what separates dead-cone from plain dangling.
  b.define_gate(dead, GateType::Or, {a, bb});
  b.define_gate(sink, GateType::Not, {dead});
  b.mark_output(y);
  const LintReport bad = Linter().lint(b.build());
  const LintDiagnostic* d = find_rule(bad, "drc.dead-cone");
  ASSERT_NE(d, nullptr) << rules_of(bad);
  EXPECT_EQ(d->net_name, "dead");
  EXPECT_FALSE(has_rule(Linter().lint(tiny_clean()), "drc.dead-cone"));
}

TEST(LintRuleConstLogic, FiresOnlyOnConstantGates) {
  NetlistBuilder b;
  const NetId a = b.declare("a"), zero = b.declare("zero");
  const NetId g = b.declare("g"), y = b.declare("y");
  b.define_input(a);
  b.define_gate(zero, GateType::Const0, {});
  b.define_gate(g, GateType::And, {a, zero});  // constant 0 under propagation
  b.define_gate(y, GateType::Or, {g, a});
  b.mark_output(y);
  const LintReport bad = Linter().lint(b.build());
  const LintDiagnostic* d = find_rule(bad, "drc.const-logic");
  ASSERT_NE(d, nullptr) << rules_of(bad);
  EXPECT_EQ(d->net_name, "g");
  EXPECT_FALSE(has_rule(Linter().lint(tiny_clean()), "drc.const-logic"));
}

TEST(LintRuleConstOutput, FiresOnlyOnConstantPrimaryOutput) {
  // Ternary propagation is structural, so XOR(a, a) stays X; feed the output
  // from an explicit constant instead.
  NetlistBuilder b;
  const NetId a = b.declare("a"), zero = b.declare("zero"), y = b.declare("y");
  b.define_input(a);
  b.define_gate(zero, GateType::Const0, {});
  b.define_gate(y, GateType::And, {a, zero});
  b.mark_output(y);
  const LintReport bad = Linter().lint(b.build());
  const LintDiagnostic* d = find_rule(bad, "drc.const-output");
  ASSERT_NE(d, nullptr) << rules_of(bad);
  EXPECT_EQ(d->net_name, "y");
  EXPECT_FALSE(has_rule(Linter().lint(tiny_clean()), "drc.const-output"));
}

TEST(LintRuleDffConst, FiresOnConstantDAndOnSelfLoop) {
  NetlistBuilder b;
  const NetId one = b.declare("one"), q = b.declare("q"), y = b.declare("y");
  b.define_gate(one, GateType::Const1, {});
  b.define_dff(q, one);
  b.define_gate(y, GateType::Buf, {q});
  b.mark_output(y);
  const LintReport bad = Linter().lint(b.build());
  EXPECT_TRUE(has_rule(bad, "drc.dff-const")) << rules_of(bad);

  NetlistBuilder s;
  const NetId q2 = s.declare("q2"), y2 = s.declare("y2");
  s.define_dff(q2, q2);  // q' = q: the register can never change value
  s.define_gate(y2, GateType::Buf, {q2});
  s.mark_output(y2);
  const LintReport loop = Linter().lint(s.build());
  EXPECT_TRUE(has_rule(loop, "drc.dff-const")) << rules_of(loop);

  NetlistBuilder ok;
  const NetId d = ok.declare("d"), q3 = ok.declare("q3"), y3 = ok.declare("y3");
  ok.define_input(d);
  ok.define_dff(q3, d);
  ok.define_gate(y3, GateType::Not, {q3});
  ok.mark_output(y3);
  EXPECT_FALSE(has_rule(Linter().lint(ok.build()), "drc.dff-const"));
}

TEST(LintRuleDffDead, FiresOnlyOnUnconsumedRegister) {
  NetlistBuilder b;
  const NetId d = b.declare("d"), q = b.declare("q"), y = b.declare("y");
  b.define_input(d);
  b.define_dff(q, d);  // no consumers, not an output
  b.define_gate(y, GateType::Buf, {d});
  b.mark_output(y);
  const LintReport bad = Linter().lint(b.build());
  const LintDiagnostic* diag = find_rule(bad, "drc.dff-dead");
  ASSERT_NE(diag, nullptr) << rules_of(bad);
  EXPECT_EQ(diag->net_name, "q");
}

TEST(LintRuleDuplicateGate, FiresOnlyOnRedundantGates) {
  NetlistBuilder b;
  const NetId a = b.declare("a"), bb = b.declare("b");
  const NetId g1 = b.declare("g1"), g2 = b.declare("g2"), y = b.declare("y");
  b.define_input(a);
  b.define_input(bb);
  b.define_gate(g1, GateType::And, {a, bb});
  b.define_gate(g2, GateType::And, {bb, a});  // same function, commuted fanins
  b.define_gate(y, GateType::Xor, {g1, g2});
  b.mark_output(y);
  const LintReport bad = Linter().lint(b.build());
  const LintDiagnostic* d = find_rule(bad, "drc.duplicate-gate");
  ASSERT_NE(d, nullptr) << rules_of(bad);
  EXPECT_EQ(d->net_name, "g2");
  EXPECT_FALSE(has_rule(Linter().lint(tiny_clean()), "drc.duplicate-gate"));
}

// ------------------------------------------------- trojan screen rules -----

/// Balanced AND tree over `width` fresh inputs; returns the root.
NetId build_and_tree(NetlistBuilder& b, unsigned width, const std::string& prefix) {
  std::vector<NetId> layer;
  for (unsigned i = 0; i < width; ++i) {
    const NetId in = b.declare(prefix + "_in" + std::to_string(i));
    b.define_input(in);
    layer.push_back(in);
  }
  unsigned next = 0;
  while (layer.size() > 1) {
    std::vector<NetId> reduced;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      const NetId g = b.declare(prefix + "_and" + std::to_string(next++));
      b.define_gate(g, GateType::And, {layer[i], layer[i + 1]});
      reduced.push_back(g);
    }
    if (layer.size() % 2 == 1) reduced.push_back(layer.back());
    layer = std::move(reduced);
  }
  return layer.front();
}

TEST(LintRuleNearUnexcitable, FiresOnDeepConjunctionOnly) {
  // 25 unbiased inputs conjoined: P(1) = 2^-25 < the 2^-24 default threshold.
  NetlistBuilder b;
  const NetId root = build_and_tree(b, 25, "t");
  const NetId y = b.declare("y");
  b.define_gate(y, GateType::Buf, {root});
  b.mark_output(y);
  const LintReport bad = Linter().lint(b.build());
  EXPECT_TRUE(has_rule(bad, "trojan.near-unexcitable")) << rules_of(bad);

  // 8 inputs: P(1) = 2^-8, far above the threshold.
  NetlistBuilder ok;
  const NetId root8 = build_and_tree(ok, 8, "t");
  const NetId y8 = ok.declare("y8");
  ok.define_gate(y8, GateType::Buf, {root8});
  ok.mark_output(y8);
  EXPECT_FALSE(has_rule(Linter().lint(ok.build()), "trojan.near-unexcitable"));
}

TEST(LintRuleShadowCone, FiresOnDeepUnobservableLogicOnly) {
  // A chain of ANDs: observability of the head grows ~2 per level, so depth
  // 40 crosses a lowered threshold of 50 while the tail stays observable.
  NetlistBuilder b;
  NetId prev = b.declare("head");
  b.define_input(prev);
  for (unsigned i = 0; i < 40; ++i) {
    const NetId side = b.declare("side" + std::to_string(i));
    b.define_input(side);
    const NetId g = b.declare("chain" + std::to_string(i));
    b.define_gate(g, GateType::And, {prev, side});
    prev = g;
  }
  b.mark_output(prev);
  LintConfig cfg;
  cfg.shadow_co = 50;
  const LintReport bad = Linter(cfg).lint(b.build());
  const LintDiagnostic* d = find_rule(bad, "trojan.shadow-cone");
  ASSERT_NE(d, nullptr) << rules_of(bad);
  // The rule anchors on gates (inputs are excluded), so the first gate of
  // the chain is the least observable flagged net.
  EXPECT_EQ(d->net_name, "chain0");

  // The same netlist under the default threshold is quiet.
  NetlistBuilder b2;
  NetId prev2 = b2.declare("head");
  b2.define_input(prev2);
  for (unsigned i = 0; i < 40; ++i) {
    const NetId side = b2.declare("side" + std::to_string(i));
    b2.define_input(side);
    const NetId g = b2.declare("chain" + std::to_string(i));
    b2.define_gate(g, GateType::And, {prev2, side});
    prev2 = g;
  }
  b2.mark_output(prev2);
  EXPECT_FALSE(has_rule(Linter().lint(b2.build()), "trojan.shadow-cone"));
}

TEST(LintRuleTriggerShape, FiresOnWideRareConeFeedingOnePayload) {
  // A 16-input AND cone (activation 2^-16 <= 2^-12) XOR-ed into one payload:
  // the canonical inserted-trigger shape.
  NetlistBuilder b;
  const NetId root = build_and_tree(b, 16, "t");
  const NetId carrier = b.declare("carrier"), y = b.declare("y");
  b.define_input(carrier);
  b.define_gate(y, GateType::Xor, {carrier, root});
  b.mark_output(y);
  const LintReport bad = Linter().lint(b.build());
  const LintDiagnostic* d = find_rule(bad, "trojan.trigger-shape");
  ASSERT_NE(d, nullptr) << rules_of(bad);
  EXPECT_EQ(d->net, root);

  // A 4-input cone is ordinary decode logic: too narrow, too likely.
  NetlistBuilder ok;
  const NetId root4 = build_and_tree(ok, 4, "t");
  const NetId carrier4 = ok.declare("carrier"), y4 = ok.declare("y4");
  ok.define_input(carrier4);
  ok.define_gate(y4, GateType::Xor, {carrier4, root4});
  ok.mark_output(y4);
  EXPECT_FALSE(has_rule(Linter().lint(ok.build()), "trojan.trigger-shape"));
}

TEST(Linter, DisabledRuleIsSuppressed) {
  NetlistBuilder b;
  const NetId a = b.declare("a"), bb = b.declare("b");
  const NetId y = b.declare("y"), stub = b.declare("stub");
  b.define_input(a);
  b.define_input(bb);
  b.define_gate(y, GateType::And, {a, bb});
  b.define_gate(stub, GateType::Or, {a, bb});
  b.mark_output(y);
  const Netlist nl = b.build();
  ASSERT_TRUE(has_rule(Linter().lint(nl), "drc.dangling"));
  LintConfig cfg;
  cfg.disabled = {"drc.dangling"};
  EXPECT_FALSE(has_rule(Linter(cfg).lint(nl), "drc.dangling"));
}

TEST(Linter, MaxPerRuleCapsAndCountsSuppressed) {
  NetlistBuilder b;
  const NetId a = b.declare("a"), bb = b.declare("b"), y = b.declare("y");
  b.define_input(a);
  b.define_input(bb);
  b.define_gate(y, GateType::And, {a, bb});
  b.mark_output(y);
  for (int i = 0; i < 10; ++i)
    b.define_gate(b.declare("stub" + std::to_string(i)), GateType::Xor, {a, bb});
  LintConfig cfg;
  cfg.max_per_rule = 3;
  const LintReport report = Linter(cfg).lint(b.build());
  std::size_t dangling = 0;
  for (const auto& d : report.diagnostics)
    if (d.rule == "drc.dangling") ++dangling;
  // 3 findings + 1 summary line; the other 7 are counted as suppressed.
  EXPECT_EQ(dangling, 4u);
  EXPECT_GE(report.suppressed, 7u);
}

TEST(Linter, DeterministicReports) {
  const Netlist nl = bench_gen::load_benchmark("c2670_like").original;
  const LintReport a = Linter().lint(nl);
  const LintReport b = Linter().lint(nl);
  EXPECT_EQ(a.diagnostics, b.diagnostics);
  EXPECT_EQ(a.to_json(), b.to_json());
}

// ----------------------------------------------- checked parser bridge -----

TEST(ParseBridge, AppendParseDiagnosticsMapsCodes) {
  const auto result = netlist::read_bench_string_checked(
      "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n");
  ASSERT_FALSE(result.ok());
  LintReport report;
  append_parse_diagnostics(report, result.diagnostics, LintConfig{});
  const LintDiagnostic* d = find_rule(report, "drc.undriven");
  ASSERT_NE(d, nullptr) << rules_of(report);
  EXPECT_EQ(d->net_name, "ghost");
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_TRUE(report.rejects(LintSeverity::Error));
}

TEST(ParseBridge, UnknownCodeFallsBackToSyntax) {
  std::vector<netlist::ParseDiagnostic> diags{{3, "made.up", "n", "mystery"}};
  LintReport report;
  append_parse_diagnostics(report, diags, LintConfig{});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "parse.syntax");
  EXPECT_EQ(report.diagnostics[0].line, 3u);
}

// --------------------------------------------- malformed-input corpus ------

struct CorpusCase {
  std::string file;
  std::vector<std::string> expected;  ///< codes from the "# expect:" header
};

std::vector<CorpusCase> load_corpus() {
  const std::string dir = std::string(DETERRENT_SOURCE_DIR) + "/tests/corpus/netlist";
  std::vector<CorpusCase> cases;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".bench") continue;
    CorpusCase tc;
    tc.file = entry.path().string();
    std::ifstream in(tc.file);
    std::string header;
    std::getline(in, header);
    const auto pos = header.find("# expect:");
    EXPECT_NE(pos, std::string::npos) << tc.file << " lacks a '# expect:' header";
    std::istringstream codes(header.substr(pos + 9));
    std::string code;
    while (codes >> code) tc.expected.push_back(code);
    cases.push_back(std::move(tc));
  }
  return cases;
}

TEST(Corpus, CheckedParserMatchesExpectations) {
  const auto cases = load_corpus();
  ASSERT_GE(cases.size(), 10u);
  for (const auto& tc : cases) {
    const auto result = netlist::read_bench_file_checked(tc.file);
    if (tc.expected.empty()) {
      EXPECT_TRUE(result.ok()) << tc.file << ": "
                               << (result.diagnostics.empty()
                                       ? "?"
                                       : result.diagnostics[0].message);
      continue;
    }
    EXPECT_FALSE(result.ok()) << tc.file;
    for (const auto& code : tc.expected) {
      const bool found = std::any_of(
          result.diagnostics.begin(), result.diagnostics.end(),
          [&](const netlist::ParseDiagnostic& d) { return d.code == code; });
      EXPECT_TRUE(found) << tc.file << ": expected " << code;
    }
    // Every diagnostic names a code the registry (or parse tier) knows.
    for (const auto& d : result.diagnostics)
      EXPECT_NE(find_lint_rule(d.code), nullptr) << tc.file << ": " << d.code;
  }
}

// ----------------------------------------------------- differential --------

TEST(LintDifferential, EveryGeneratorLintsFreeOfErrors) {
  for (const auto& name : bench_gen::benchmark_names()) {
    const auto bench = bench_gen::load_benchmark(name);
    const LintReport report = Linter().lint(bench.original);
    EXPECT_EQ(report.errors(), 0u) << name << ": " << rules_of(report);
  }
}

TEST(LintDifferential, CombinationalProfilesHaveNoTrojanFindings) {
  // The s*-profiles deliberately synthesize deep biased AND stacks (that is
  // where the paper's rare nets come from), so the screen flagging them is
  // correct; the c*-profiles and the processor must stay quiet.
  for (const std::string name :
       {"c2670_like", "c5315_like", "c6288_like", "c7552_like", "mips16_like"}) {
    const auto bench = bench_gen::load_benchmark(name);
    const LintReport report = Linter().lint(bench.original);
    for (const auto& d : report.diagnostics)
      EXPECT_NE(d.rule.find("trojan."), 0u) << name << ": " << d.rule << " on "
                                            << d.net_name;
  }
}

TEST(LintDifferential, RoundTrippedBenchOutputStaysErrorFree) {
  const auto bench = bench_gen::load_benchmark("c5315_like");
  const auto result =
      netlist::read_bench_string_checked(netlist::write_bench_string(bench.original));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Linter().lint(*result.netlist).errors(), 0u);
}

// --------------------------------------------------- trojan insertion ------

TEST(TrojanScreen, InsertedTriggerTripsScreenWithProvenance) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 32;
  p.n_outputs = 8;
  p.n_gates = 600;
  p.seed = 18;
  const Netlist golden = bench_gen::generate_random_circuit(p);
  ASSERT_EQ(Linter().lint(golden).errors(), 0u);

  util::Rng rng(19);
  RareNetConfig rcfg;
  rcfg.threshold = 0.2;
  rcfg.sim_patterns = 1 << 12;
  const auto rare = find_rare_nets(golden, rcfg, rng);
  ASSERT_GE(rare.size(), 10u);

  sat::NetlistOracle oracle(golden);
  trojan::TrojanSampleConfig tcfg;
  tcfg.width = 10;
  tcfg.count = 1;
  tcfg.max_attempts_per_trojan = 5000;
  const auto trojans = trojan::sample_trojans(golden, rare, tcfg, oracle, rng);
  ASSERT_EQ(trojans.size(), 1u);

  NetId trigger_net = netlist::kNoNet;
  const Netlist infected = trojan::apply_trojan(golden, trojans[0], &trigger_net);
  const LintReport report = Linter().lint(infected);
  bool flagged = false;
  for (const auto& d : report.diagnostics)
    if (d.rule.rfind("trojan.", 0) == 0 && d.net == trigger_net) flagged = true;
  EXPECT_TRUE(flagged) << "trigger net " << trigger_net
                       << " not flagged; report: " << rules_of(report);
}

TEST(TrojanScreen, Mips16InsertionTripsScreen) {
  const auto bench = bench_gen::load_benchmark("mips16_like");
  const Netlist& golden = bench.scan.comb;
  // The golden scan view carries no trojan-tier findings (differential above).
  util::Rng rng(7);
  RareNetConfig rcfg;
  rcfg.threshold = 0.1;
  rcfg.sim_patterns = 1 << 12;
  const auto rare = find_rare_nets(golden, rcfg, rng);
  ASSERT_GE(rare.size(), 12u);

  sat::NetlistOracle oracle(golden);
  trojan::TrojanSampleConfig tcfg;
  tcfg.width = 12;
  tcfg.count = 1;
  const auto trojans = trojan::sample_trojans(golden, rare, tcfg, oracle, rng);
  ASSERT_EQ(trojans.size(), 1u);

  NetId trigger_net = netlist::kNoNet;
  const Netlist infected = trojan::apply_trojan(golden, trojans[0], &trigger_net);
  const LintReport report = Linter().lint(infected);
  const LintDiagnostic* hit = nullptr;
  for (const auto& d : report.diagnostics)
    if (d.rule.rfind("trojan.", 0) == 0 && d.net == trigger_net) hit = &d;
  ASSERT_NE(hit, nullptr) << "trigger " << trigger_net << " unflagged: "
                          << rules_of(report);
  EXPECT_GE(static_cast<int>(hit->severity), static_cast<int>(LintSeverity::Warning));
}

}  // namespace
}  // namespace deterrent::analysis

// ------------------------------------------------- front-door wiring -------

namespace deterrent::core {
namespace {

namespace fs = std::filesystem;
using analysis::LintSeverity;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using netlist::NetId;

/// Combinational circuit with one dangling gate — a warning, not an error,
/// so the default front door passes it but fail_on=warning rejects it.
Netlist warned_circuit() {
  NetlistBuilder b;
  const NetId a = b.declare("a"), bb = b.declare("b");
  const NetId y = b.declare("y"), stub = b.declare("stub");
  b.define_input(a);
  b.define_input(bb);
  b.define_gate(y, GateType::Nand, {a, bb});
  b.define_gate(stub, GateType::Nor, {a, bb});
  b.mark_output(y);
  return b.build();
}

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("deterrent_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

TEST(PipelineLint, FrontDoorRunsBeforeRareNetsAndPassesCleanDesigns) {
  const Netlist nl = warned_circuit();
  DeterrentConfig cfg;
  Pipeline pipeline(nl, cfg);
  EXPECT_EQ(pipeline.next_stage(), Stage::Lint);
  EXPECT_EQ(pipeline.run_lint(), StageStatus::Complete);
  EXPECT_TRUE(pipeline.lint_done());
  EXPECT_FALSE(pipeline.lint_rejected());
  EXPECT_GE(pipeline.lint_report().warnings(), 1u);
  EXPECT_EQ(pipeline.next_stage(), Stage::RareNets);
}

TEST(PipelineLint, DisabledLintSkipsStageZero) {
  const Netlist nl = warned_circuit();
  DeterrentConfig cfg;
  cfg.lint.enabled = false;
  Pipeline pipeline(nl, cfg);
  EXPECT_EQ(pipeline.next_stage(), Stage::RareNets);
  EXPECT_EQ(pipeline.run_lint(), StageStatus::Complete);
  EXPECT_FALSE(pipeline.lint_done());
}

TEST(PipelineLint, FailOnWarningRejectsAndPinsTheStage) {
  const Netlist nl = warned_circuit();
  DeterrentConfig cfg;
  cfg.lint.fail_on = LintSeverity::Warning;
  Pipeline pipeline(nl, cfg);
  EXPECT_EQ(pipeline.run_lint(), StageStatus::Rejected);
  EXPECT_TRUE(pipeline.lint_rejected());
  EXPECT_EQ(pipeline.next_stage(), Stage::Lint);  // pinned: no later stage runs
  EXPECT_EQ(pipeline.run_lint(), StageStatus::Rejected);
  EXPECT_EQ(pipeline.run_remaining(), StageStatus::Rejected);
  EXPECT_THROW(pipeline.run_rare_nets(), PermanentError);
}

TEST(PipelineLint, RareNetsRunsTheFrontDoorImplicitly) {
  const Netlist nl = warned_circuit();
  DeterrentConfig cfg;
  cfg.lint.fail_on = LintSeverity::Warning;
  Pipeline pipeline(nl, cfg);
  // Legacy prepare() flows call run_rare_nets directly; the verdict must
  // still gate them.
  EXPECT_EQ(pipeline.run_rare_nets(), StageStatus::Rejected);
  EXPECT_FALSE(pipeline.rare_nets_done());
}

TEST(PipelineLint, LintArtifactRoundTrip) {
  const Netlist nl = warned_circuit();
  DeterrentConfig cfg;
  Pipeline pipeline(nl, cfg);
  ASSERT_EQ(pipeline.run_lint(), StageStatus::Complete);

  TempDir dir("lint_rt");
  const auto exported = pipeline.export_lint();
  const std::string file = (dir.path / "lint.art").string();
  exported.save(file);
  const auto loaded = LintArtifact::load(file, pipeline.netlist_fingerprint());
  EXPECT_EQ(loaded.rejected, exported.rejected);
  EXPECT_EQ(loaded.fail_on, exported.fail_on);
  EXPECT_EQ(loaded.report.diagnostics, exported.report.diagnostics);
  EXPECT_EQ(loaded.report.suppressed, exported.report.suppressed);

  Pipeline fresh(nl, cfg);
  fresh.adopt(loaded);
  EXPECT_TRUE(fresh.lint_done());
  EXPECT_FALSE(fresh.lint_rejected());
  EXPECT_EQ(fresh.lint_report().diagnostics, pipeline.lint_report().diagnostics);
}

TEST(PipelineLint, AdoptionReappliesTheCurrentFailOn) {
  const Netlist nl = warned_circuit();
  DeterrentConfig lenient;
  Pipeline first(nl, lenient);
  ASSERT_EQ(first.run_lint(), StageStatus::Complete);

  DeterrentConfig strict;
  strict.lint.fail_on = LintSeverity::Warning;
  Pipeline second(nl, strict);
  second.adopt(first.export_lint());
  // The stored verdict was "pass", but under the stricter config the same
  // report rejects — adoption must not smuggle the design past the door.
  EXPECT_TRUE(second.lint_rejected());
}

TEST(SessionLint, VerdictPersistsAsSidecarAndSurvivesResume) {
  const Netlist nl = warned_circuit();
  TempDir dir("lint_session");
  DeterrentConfig cfg;
  cfg.lint.fail_on = LintSeverity::Warning;

  Session session(dir.str(), nl);
  session.save_config(cfg);
  auto pipeline = session.resume();
  EXPECT_EQ(pipeline->run_remaining(), StageStatus::Rejected);
  session.save(*pipeline);
  EXPECT_TRUE(session.has_lint());

  // Resume adopts the sidecar: the design stays rejected without re-linting,
  // and the report's diagnostics are still available.
  auto resumed = session.resume();
  EXPECT_TRUE(resumed->lint_done());
  EXPECT_TRUE(resumed->lint_rejected());
  EXPECT_EQ(resumed->lint_report().diagnostics, pipeline->lint_report().diagnostics);
  EXPECT_EQ(resumed->run_remaining(), StageStatus::Rejected);
}

TEST(SessionLint, CorruptSidecarIsQuarantinedWithoutEndingThePrefix) {
  const Netlist nl = warned_circuit();
  TempDir dir("lint_corrupt");
  DeterrentConfig cfg;
  Session session(dir.str(), nl);
  session.save_config(cfg);
  auto pipeline = session.resume();
  ASSERT_EQ(pipeline->run_lint(), StageStatus::Complete);
  session.save(*pipeline);
  ASSERT_TRUE(session.has_lint());

  {
    std::ofstream out(session.path(Session::kLintFile),
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  auto resumed = session.resume();
  EXPECT_FALSE(resumed->lint_done());  // verdict lost, lint will re-run
  ASSERT_EQ(session.quarantined().size(), 1u);
  EXPECT_EQ(session.quarantined()[0], Session::kLintFile);
}

TEST(CampaignLint, RejectedCircuitIsQuarantinedWithoutRetries) {
  const Netlist bad = warned_circuit();
  CampaignConfig cfg;
  cfg.base.lint.fail_on = LintSeverity::Warning;
  cfg.base.rare.sim_patterns = 1 << 8;
  cfg.base.updates = 1;
  cfg.max_retries = 3;
  cfg.retry_backoff_ms = 0.0;
  Campaign campaign(cfg);
  campaign.add("warned", bad);
  const auto report = campaign.run();
  ASSERT_EQ(report.circuits.size(), 1u);
  const auto& row = report.circuits[0];
  EXPECT_FALSE(row.ok);
  EXPECT_TRUE(row.quarantined);
  EXPECT_EQ(row.status, StageStatus::Rejected);
  EXPECT_EQ(row.attempts, 1u);  // deterministic verdict: no retry burned
  EXPECT_TRUE(row.lint_ran);
  EXPECT_GE(row.lint_warnings, 1u);
  EXPECT_NE(row.error.find("rejected by lint"), std::string::npos);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_NE(report.to_table().find("Lint"), std::string::npos);
}

}  // namespace
}  // namespace deterrent::core
