#include "analysis/lint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <unordered_map>

#include "analysis/scoap.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/scan.hpp"
#include "util/assert.hpp"

namespace deterrent::analysis {

using netlist::GateType;
using netlist::Netlist;
using netlist::NetId;

const char* to_string(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::Info: return "info";
    case LintSeverity::Warning: return "warning";
    case LintSeverity::Error: return "error";
  }
  return "unknown";
}

namespace {

// Registry order is report order: parse tier (fires via
// append_parse_diagnostics), structural DRC, then the trojan screen.
constexpr LintRule kRules[] = {
    {"parse.syntax", LintSeverity::Error, "parse",
     "line is not valid .bench syntax"},
    {"parse.cell", LintSeverity::Error, "parse", "unknown cell in gate definition"},
    {"parse.limit", LintSeverity::Error, "parse",
     "design exceeds the untrusted-input size cap"},
    {"drc.undriven", LintSeverity::Error, "drc", "net is used but never driven"},
    {"drc.multi-driven", LintSeverity::Error, "drc",
     "net has more than one driver"},
    {"drc.cycle", LintSeverity::Error, "drc",
     "combinational cycle (feedback not broken by a DFF)"},
    {"drc.arity", LintSeverity::Error, "drc",
     "fanin count outside the cell's bounds"},
    {"drc.no-outputs", LintSeverity::Warning, "drc",
     "design has no primary outputs; nothing is observable"},
    {"drc.unused-input", LintSeverity::Warning, "drc",
     "primary input drives nothing"},
    {"drc.dangling", LintSeverity::Warning, "drc",
     "internal net has no consumers and is not an output"},
    {"drc.dead-cone", LintSeverity::Warning, "drc",
     "net cannot reach any primary output"},
    {"drc.const-output", LintSeverity::Warning, "drc",
     "primary output is statically constant"},
    {"drc.dff-const", LintSeverity::Warning, "drc",
     "flip-flop state can never change after reset"},
    {"drc.dff-dead", LintSeverity::Warning, "drc",
     "flip-flop output drives nothing"},
    {"drc.const-logic", LintSeverity::Info, "drc",
     "gate evaluates to a constant under constant propagation"},
    {"drc.duplicate-gate", LintSeverity::Info, "drc",
     "gate duplicates another gate's function (same cell, same fanins)"},
    {"trojan.near-unexcitable", LintSeverity::Warning, "trojan",
     "net's rarer value has a vanishing static probability (trigger candidate)"},
    {"trojan.shadow-cone", LintSeverity::Warning, "trojan",
     "net is live yet nearly unobservable by SCOAP (payload hiding spot)"},
    {"trojan.trigger-shape", LintSeverity::Warning, "trojan",
     "wide single-use AND cone with vanishing activation probability"},
};

std::size_t rule_index(std::string_view id) {
  for (std::size_t i = 0; i < std::size(kRules); ++i)
    if (id == kRules[i].id) return i;
  return std::size(kRules);
}

std::string display_name(const Netlist& nl, NetId net) {
  const std::string& given = nl.name(net);
  if (!given.empty()) return given;
  return "n" + std::to_string(net);
}

/// Accumulates findings per rule (registry order), then applies the
/// per-rule cap so a pathological design cannot flood the report.
class Collector {
 public:
  explicit Collector(const LintConfig& config) : config_(config) {}

  bool enabled(std::string_view rule) const { return config_.rule_enabled(rule); }

  void add(const Netlist& nl, std::string_view rule, NetId net, std::string message) {
    if (!enabled(rule)) return;
    const std::size_t idx = rule_index(rule);
    DETERRENT_ASSERT(idx < std::size(kRules), "lint rule not in registry");
    LintDiagnostic d;
    d.rule = std::string(rule);
    d.severity = kRules[idx].severity;
    d.net = net;
    if (net != netlist::kNoNet) d.net_name = display_name(nl, net);
    d.message = std::move(message);
    by_rule_[idx].push_back(std::move(d));
  }

  LintReport finish() {
    LintReport report;
    for (auto& [idx, list] : by_rule_) {
      std::stable_sort(list.begin(), list.end(),
                       [](const LintDiagnostic& a, const LintDiagnostic& b) {
                         return a.net < b.net;
                       });
      const std::size_t cap = config_.max_per_rule;
      if (cap != 0 && list.size() > cap) {
        const std::size_t dropped = list.size() - cap;
        list.resize(cap);
        LintDiagnostic tail;
        tail.rule = kRules[idx].id;
        tail.severity = kRules[idx].severity;
        tail.message = std::to_string(dropped) + " further " +
                       std::string(kRules[idx].id) + " finding" +
                       (dropped == 1 ? "" : "s") + " suppressed (max-per-rule " +
                       std::to_string(cap) + ")";
        list.push_back(std::move(tail));
        report.suppressed += dropped;
      }
      for (auto& d : list) report.diagnostics.push_back(std::move(d));
    }
    return report;
  }

 private:
  const LintConfig& config_;
  std::map<std::size_t, std::vector<LintDiagnostic>> by_rule_;  // keyed by registry index
};

// ---- static analyses shared by several rules --------------------------------

/// Ternary constant propagation over the topological order. -1 = unknown (X).
enum class Tern : std::int8_t { Zero = 0, One = 1, X = 2 };

std::vector<Tern> propagate_constants(const Netlist& nl) {
  std::vector<Tern> value(nl.net_count(), Tern::X);
  for (NetId id : nl.topo_order()) {
    switch (nl.type(id)) {
      case GateType::Const0: value[id] = Tern::Zero; break;
      case GateType::Const1: value[id] = Tern::One; break;
      case GateType::Input:
      case GateType::Dff: value[id] = Tern::X; break;
      case GateType::Buf: value[id] = value[nl.fanins(id)[0]]; break;
      case GateType::Not: {
        const Tern v = value[nl.fanins(id)[0]];
        value[id] = v == Tern::X ? Tern::X : (v == Tern::Zero ? Tern::One : Tern::Zero);
        break;
      }
      case GateType::And:
      case GateType::Nand: {
        bool any_zero = false, all_one = true;
        for (NetId f : nl.fanins(id)) {
          if (value[f] == Tern::Zero) any_zero = true;
          if (value[f] != Tern::One) all_one = false;
        }
        Tern v = any_zero ? Tern::Zero : (all_one ? Tern::One : Tern::X);
        if (nl.type(id) == GateType::Nand && v != Tern::X)
          v = v == Tern::Zero ? Tern::One : Tern::Zero;
        value[id] = v;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        bool any_one = false, all_zero = true;
        for (NetId f : nl.fanins(id)) {
          if (value[f] == Tern::One) any_one = true;
          if (value[f] != Tern::Zero) all_zero = false;
        }
        Tern v = any_one ? Tern::One : (all_zero ? Tern::Zero : Tern::X);
        if (nl.type(id) == GateType::Nor && v != Tern::X)
          v = v == Tern::Zero ? Tern::One : Tern::Zero;
        value[id] = v;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        bool any_x = false, parity = nl.type(id) == GateType::Xnor;
        for (NetId f : nl.fanins(id)) {
          if (value[f] == Tern::X) { any_x = true; break; }
          parity ^= value[f] == Tern::One;
        }
        value[id] = any_x ? Tern::X : (parity ? Tern::One : Tern::Zero);
        break;
      }
    }
  }
  return value;
}

/// Static signal probability under the fanin-independence assumption:
/// P(input) = P(dff) = 0.5; gates compose their fanin probabilities.
std::vector<double> propagate_probability(const Netlist& nl) {
  std::vector<double> p(nl.net_count(), 0.5);
  for (NetId id : nl.topo_order()) {
    const auto fi = nl.fanins(id);
    switch (nl.type(id)) {
      case GateType::Input:
      case GateType::Dff: p[id] = 0.5; break;
      case GateType::Const0: p[id] = 0.0; break;
      case GateType::Const1: p[id] = 1.0; break;
      case GateType::Buf: p[id] = p[fi[0]]; break;
      case GateType::Not: p[id] = 1.0 - p[fi[0]]; break;
      case GateType::And:
      case GateType::Nand: {
        double prod = 1.0;
        for (NetId f : fi) prod *= p[f];
        p[id] = nl.type(id) == GateType::And ? prod : 1.0 - prod;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        double prod = 1.0;
        for (NetId f : fi) prod *= 1.0 - p[f];
        p[id] = nl.type(id) == GateType::Or ? 1.0 - prod : prod;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        double acc = 0.0;  // P(parity over processed fanins == 1)
        for (NetId f : fi) acc = acc * (1.0 - p[f]) + p[f] * (1.0 - acc);
        p[id] = nl.type(id) == GateType::Xor ? acc : 1.0 - acc;
        break;
      }
    }
  }
  return p;
}

/// Reverse reachability from primary outputs over the fanin relation (DFF
/// data edges included, so state feeding an observable cone counts as live).
std::vector<bool> reaches_output(const Netlist& nl) {
  std::vector<bool> live(nl.net_count(), false);
  std::vector<NetId> stack;
  for (NetId out : nl.outputs())
    if (!live[out]) { live[out] = true; stack.push_back(out); }
  while (!stack.empty()) {
    const NetId id = stack.back();
    stack.pop_back();
    for (NetId f : nl.fanins(id))
      if (!live[f]) { live[f] = true; stack.push_back(f); }
  }
  return live;
}

// ---- rule passes ------------------------------------------------------------

void rule_no_outputs(const Netlist& nl, Collector& out) {
  if (nl.outputs().empty() && nl.net_count() > 0)
    out.add(nl, "drc.no-outputs", netlist::kNoNet,
            "design has no primary outputs; every net is unobservable");
}

void rule_unused_and_dangling(const Netlist& nl, Collector& out) {
  std::vector<bool> is_output(nl.net_count(), false);
  for (NetId o : nl.outputs()) is_output[o] = true;
  for (NetId id = 0; id < nl.net_count(); ++id) {
    if (!nl.fanouts(id).empty() || is_output[id]) continue;
    switch (nl.type(id)) {
      case GateType::Input:
        out.add(nl, "drc.unused-input", id,
                "primary input '" + display_name(nl, id) + "' drives nothing");
        break;
      case GateType::Dff:
        out.add(nl, "drc.dff-dead", id,
                "flip-flop '" + display_name(nl, id) +
                    "' output drives nothing; dead state bit");
        break;
      default:
        out.add(nl, "drc.dangling", id,
                "net '" + display_name(nl, id) +
                    "' has no consumers and is not an output");
        break;
    }
  }
}

void rule_dead_cone(const Netlist& nl, Collector& out) {
  if (nl.outputs().empty()) return;  // drc.no-outputs already covers the design
  const std::vector<bool> live = reaches_output(nl);
  for (NetId id = 0; id < nl.net_count(); ++id) {
    if (live[id]) continue;
    // Direct zero-fanout nets are reported by the dangling/unused/dff-dead
    // rules; the dead-cone rule covers nets whose consumers are all dead.
    if (nl.fanouts(id).empty()) continue;
    out.add(nl, "drc.dead-cone", id,
            "net '" + display_name(nl, id) +
                "' cannot reach any primary output (dead cone)");
  }
}

void rule_constants(const Netlist& nl, const std::vector<Tern>& value,
                    Collector& out) {
  std::vector<bool> is_output(nl.net_count(), false);
  for (NetId o : nl.outputs()) is_output[o] = true;

  for (NetId id = 0; id < nl.net_count(); ++id) {
    const GateType type = nl.type(id);
    const bool is_const_cell = type == GateType::Const0 || type == GateType::Const1;
    if (value[id] != Tern::X && !is_const_cell &&
        netlist::is_combinational_cell(type)) {
      out.add(nl, "drc.const-logic", id,
              "gate '" + display_name(nl, id) + "' (" +
                  std::string(netlist::to_string(type)) +
                  ") always evaluates to " +
                  (value[id] == Tern::One ? "1" : "0"));
    }
    if (is_output[id] && value[id] != Tern::X) {
      out.add(nl, "drc.const-output", id,
              "primary output '" + display_name(nl, id) + "' is stuck at " +
                  (value[id] == Tern::One ? "1" : "0"));
    }
  }

  for (NetId q : nl.dffs()) {
    const auto fi = nl.fanins(q);
    if (fi.empty()) continue;
    const NetId d = fi[0];
    if (value[d] != Tern::X) {
      out.add(nl, "drc.dff-const", q,
              "flip-flop '" + display_name(nl, q) + "' loads the constant " +
                  (value[d] == Tern::One ? "1" : "0") + " every cycle");
    } else if (d == q) {
      out.add(nl, "drc.dff-const", q,
              "flip-flop '" + display_name(nl, q) +
                  "' feeds itself; state can never change");
    }
  }
}

void rule_duplicate_gate(const Netlist& nl, Collector& out) {
  // Key = cell type + sorted fanins (all recognized cells are symmetric in
  // their inputs except none — BUF/NOT are unary, so sorting is harmless).
  std::unordered_map<std::string, NetId> seen;
  for (NetId id = 0; id < nl.net_count(); ++id) {
    const GateType type = nl.type(id);
    if (!netlist::is_combinational_cell(type) || nl.fanins(id).empty()) continue;
    std::vector<NetId> key_fanins(nl.fanins(id).begin(), nl.fanins(id).end());
    std::sort(key_fanins.begin(), key_fanins.end());
    std::string key = std::to_string(static_cast<int>(type));
    for (NetId f : key_fanins) {
      key += ',';
      key += std::to_string(f);
    }
    auto [it, inserted] = seen.emplace(std::move(key), id);
    if (!inserted) {
      out.add(nl, "drc.duplicate-gate", id,
              "gate '" + display_name(nl, id) + "' duplicates '" +
                  display_name(nl, it->second) + "' (same cell, same fanins)");
    }
  }
}

void rule_near_unexcitable(const Netlist& nl, const std::vector<double>& prob,
                           const std::vector<Tern>& value, const LintConfig& config,
                           Collector& out) {
  for (NetId id = 0; id < nl.net_count(); ++id) {
    if (!netlist::is_combinational_cell(nl.type(id))) continue;
    if (value[id] != Tern::X) continue;  // statically constant: a DRC finding
    const double rare = std::min(prob[id], 1.0 - prob[id]);
    if (rare > config.unexcitable_prob) continue;
    const bool rare_value = prob[id] < 0.5;
    std::ostringstream msg;
    msg << "net '" << display_name(nl, id) << "' reaches " << (rare_value ? 1 : 0)
        << " with static probability " << rare
        << " (near-unexcitable; classic trigger node)";
    out.add(nl, "trojan.near-unexcitable", id, msg.str());
  }
}

void rule_shadow_cone(const Netlist& nl, const ScoapValues& scoap,
                      const std::vector<Tern>& value, const LintConfig& config,
                      Collector& out) {
  if (nl.outputs().empty()) return;
  const std::vector<bool> live = reaches_output(nl);
  for (NetId id = 0; id < nl.net_count(); ++id) {
    if (!live[id]) continue;  // dead cones are DRC findings, not shadow cones
    if (!netlist::is_combinational_cell(nl.type(id))) continue;
    if (value[id] != Tern::X) continue;
    if (scoap.co[id] < config.shadow_co) continue;
    std::ostringstream msg;
    msg << "net '" << display_name(nl, id) << "' has SCOAP observability "
        << (scoap.co[id] >= ScoapValues::kInfinity ? std::string("infinite")
                                                   : std::to_string(scoap.co[id]))
        << " (>= " << config.shadow_co
        << "): effects here are almost invisible at the outputs";
    out.add(nl, "trojan.shadow-cone", id, msg.str());
  }
}

/// Collapses the single-use AND cone rooted at `root` and returns its support
/// (distinct leaf nets). Internal nodes must be AND gates consumed only by the
/// cone; BUF/NOT wrappers are folded into their source net, so a trigger built
/// from inverted literals still counts one leaf per source.
std::size_t and_cone_support(const Netlist& nl, NetId root,
                             std::vector<NetId>& scratch) {
  scratch.clear();
  std::vector<NetId> stack{root};
  while (!stack.empty()) {
    const NetId id = stack.back();
    stack.pop_back();
    for (NetId f : nl.fanins(id)) {
      NetId leaf = f;
      // Fold literal wrappers: the leaf identity is the driven source net.
      while ((nl.type(leaf) == GateType::Not || nl.type(leaf) == GateType::Buf) &&
             nl.fanouts(leaf).size() == 1)
        leaf = nl.fanins(leaf)[0];
      if (nl.type(leaf) == GateType::And && nl.fanouts(leaf).size() == 1) {
        stack.push_back(leaf);
      } else {
        scratch.push_back(leaf);
      }
    }
  }
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  return scratch.size();
}

void rule_trigger_shape(const Netlist& nl, const std::vector<double>& prob,
                        const LintConfig& config, Collector& out) {
  std::vector<NetId> support;
  for (NetId id = 0; id < nl.net_count(); ++id) {
    const GateType type = nl.type(id);
    if (type != GateType::And && type != GateType::Nand) continue;
    // Roots are cone tops: skip internal nodes of a larger single-use cone.
    if (nl.fanouts(id).size() == 1) {
      const NetId consumer = nl.fanouts(id)[0];
      if (nl.type(consumer) == GateType::And) continue;
    }
    if (nl.fanouts(id).size() > config.trigger_max_fanout) continue;
    const double activation = type == GateType::And ? prob[id] : 1.0 - prob[id];
    if (activation > config.trigger_prob) continue;
    const std::size_t width = and_cone_support(nl, id, support);
    if (width < config.trigger_width) continue;
    std::ostringstream msg;
    msg << "net '" << display_name(nl, id) << "' tops a " << width
        << "-input AND cone with activation probability " << activation
        << " and fanout " << nl.fanouts(id).size()
        << " (trigger-shaped structure)";
    out.add(nl, "trojan.trigger-shape", id, msg.str());
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::span<const LintRule> lint_rules() { return kRules; }

const LintRule* find_lint_rule(std::string_view id) {
  const std::size_t idx = rule_index(id);
  return idx < std::size(kRules) ? &kRules[idx] : nullptr;
}

bool LintConfig::rule_enabled(std::string_view id) const {
  return std::find(disabled.begin(), disabled.end(), id) == disabled.end();
}

std::size_t LintReport::count(LintSeverity severity) const {
  std::size_t n = 0;
  for (const auto& d : diagnostics) n += d.severity == severity ? 1 : 0;
  return n;
}

bool LintReport::rejects(LintSeverity fail_on) const {
  for (const auto& d : diagnostics)
    if (d.severity >= fail_on) return true;
  return false;
}

std::string LintReport::summary() const {
  const std::size_t e = errors(), w = warnings(), i = infos();
  if (e + w + i == 0) return "clean";
  std::string out;
  auto bucket = [&out](std::size_t n, const char* noun) {
    if (n == 0) return;
    if (!out.empty()) out += ", ";
    out += std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
  };
  bucket(e, "error");
  bucket(w, "warning");
  bucket(i, "info");
  return out;
}

std::string LintReport::to_json() const {
  std::ostringstream out;
  out << "{\"clean\":" << (diagnostics.empty() ? "true" : "false")
      << ",\"errors\":" << errors() << ",\"warnings\":" << warnings()
      << ",\"infos\":" << infos() << ",\"suppressed\":" << suppressed
      << ",\"diagnostics\":[";
  bool first = true;
  for (const auto& d : diagnostics) {
    if (!first) out << ",";
    first = false;
    out << "{\"rule\":\"" << json_escape(d.rule) << "\",\"severity\":\""
        << to_string(d.severity) << "\",";
    if (d.net == netlist::kNoNet)
      out << "\"net\":null,";
    else
      out << "\"net\":" << d.net << ",";
    out << "\"net_name\":\"" << json_escape(d.net_name) << "\",\"line\":" << d.line
        << ",\"message\":\"" << json_escape(d.message) << "\"}";
  }
  out << "]}";
  return out.str();
}

Linter::Linter(LintConfig config) : config_(std::move(config)) {}

LintReport Linter::lint(const Netlist& nl) const {
  Collector out(config_);

  rule_no_outputs(nl, out);
  rule_unused_and_dangling(nl, out);
  rule_dead_cone(nl, out);

  const std::vector<Tern> value = propagate_constants(nl);
  rule_constants(nl, value, out);
  rule_duplicate_gate(nl, out);

  const bool trojan_tier = out.enabled("trojan.near-unexcitable") ||
                           out.enabled("trojan.shadow-cone") ||
                           out.enabled("trojan.trigger-shape");
  if (trojan_tier && nl.net_count() > 0) {
    const std::vector<double> prob = propagate_probability(nl);
    rule_near_unexcitable(nl, prob, value, config_, out);
    rule_trigger_shape(nl, prob, config_, out);
    if (out.enabled("trojan.shadow-cone")) {
      // SCOAP needs a combinational view; the full-scan transform preserves
      // net ids, so scan-view measures anchor directly to original nets.
      const netlist::ScanView scan = netlist::make_full_scan(nl);
      const ScoapValues scoap = compute_scoap(scan.comb);
      rule_shadow_cone(nl, scoap, value, config_, out);
    }
  }

  return out.finish();
}

void append_parse_diagnostics(LintReport& report,
                              std::span<const netlist::ParseDiagnostic> parse,
                              const LintConfig& config) {
  for (const auto& p : parse) {
    const LintRule* rule = find_lint_rule(p.code);
    if (rule == nullptr) rule = find_lint_rule("parse.syntax");
    if (!config.rule_enabled(rule->id)) continue;
    LintDiagnostic d;
    d.rule = rule->id;
    d.severity = rule->severity;
    d.net = netlist::kNoNet;  // the source never built; only the name is known
    d.net_name = p.net;
    d.line = p.line;
    d.message = p.message;
    report.diagnostics.push_back(std::move(d));
  }
}

}  // namespace deterrent::analysis
