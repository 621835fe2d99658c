#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/assert.hpp"

namespace deterrent::netlist {

namespace {

std::string strip(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

/// Internal unwind token for one malformed line: carries the structured
/// diagnostic so the parser can record it and keep parsing.
struct LineFail {
  ParseDiagnostic diagnostic;
};

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& message,
                             std::string code = "parse.syntax",
                             std::string net = "") {
  throw LineFail{{line_no, std::move(code), std::move(net), message}};
}

std::optional<GateType> cell_from_name(const std::string& word) {
  const std::string w = upper(word);
  if (w == "BUF" || w == "BUFF") return GateType::Buf;
  if (w == "NOT" || w == "INV") return GateType::Not;
  if (w == "AND") return GateType::And;
  if (w == "NAND") return GateType::Nand;
  if (w == "OR") return GateType::Or;
  if (w == "NOR") return GateType::Nor;
  if (w == "XOR") return GateType::Xor;
  if (w == "XNOR") return GateType::Xnor;
  if (w == "DFF") return GateType::Dff;
  if (w == "CONST0" || w == "GND") return GateType::Const0;
  if (w == "CONST1" || w == "VDD") return GateType::Const1;
  return std::nullopt;
}

class Parser {
 public:
  /// Never throws on malformed content: every problem in the file becomes a
  /// diagnostic (a bad line is skipped, parsing continues) and the netlist is
  /// built only when the source is fully clean.
  BenchParseResult parse(std::istream& in) {
    BenchParseResult result;
    std::string line;
    std::size_t line_no = 0;
    while (next_line(in, line, line_no)) {
      if (builder_.net_count() >= kMaxCheckedNets) {
        result.diagnostics.push_back(
            {line_no, "parse.limit", "",
             "net count exceeds the checked-parse cap of " +
                 std::to_string(kMaxCheckedNets) + "; refusing to build"});
        return result;
      }
      try {
        parse_line(line, line_no);
      } catch (const LineFail& fail) {
        result.diagnostics.push_back(fail.diagnostic);
      }
    }
    for (NetId out : pending_outputs_) builder_.mark_output(out);
    for (const auto& issue : builder_.validate())
      result.diagnostics.push_back(from_issue(issue));
    if (result.diagnostics.empty()) result.netlist = builder_.build();
    return result;
  }

 private:
  static bool next_line(std::istream& in, std::string& line, std::size_t& line_no) {
    while (std::getline(in, line)) {
      ++line_no;
      auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      line = strip(line);
      if (!line.empty()) return true;
    }
    return false;
  }

  ParseDiagnostic from_issue(const BuildIssue& issue) const {
    ParseDiagnostic d;
    d.net = builder_.name(issue.net);
    d.message = issue.message;
    switch (issue.kind) {
      case BuildIssue::Kind::Undefined:
        d.code = "drc.undriven";
        break;
      case BuildIssue::Kind::Arity:
        d.code = "drc.arity";
        break;
      case BuildIssue::Kind::Cycle:
        d.code = "drc.cycle";
        break;
      case BuildIssue::Kind::OutOfRangeFanin:
        d.code = "parse.syntax";
        break;
    }
    if (auto it = net_lines_.find(issue.net); it != net_lines_.end()) d.line = it->second;
    return d;
  }

  void parse_line(const std::string& line, std::size_t line_no) {
    auto eq = line.find('=');
    if (eq == std::string::npos) {
      parse_io_decl(line, line_no);
      return;
    }
    const std::string lhs = strip(line.substr(0, eq));
    const std::string rhs = strip(line.substr(eq + 1));
    if (lhs.empty()) parse_fail(line_no, "missing net name before '='");

    auto open = rhs.find('(');
    auto close = rhs.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open)
      parse_fail(line_no, "expected CELL(arg, ...) on right-hand side");
    if (!strip(rhs.substr(close + 1)).empty())
      parse_fail(line_no, "unexpected text after ')'");

    const std::string cell_name = strip(rhs.substr(0, open));
    auto cell = cell_from_name(cell_name);
    if (!cell)
      parse_fail(line_no, "unknown cell '" + cell_name + "'", "parse.cell", lhs);

    std::vector<NetId> fanins;
    const std::string args = rhs.substr(open + 1, close - open - 1);
    if (!strip(args).empty()) {
      std::size_t start = 0;
      while (true) {
        const auto comma = args.find(',', start);
        const std::string arg =
            strip(comma == std::string::npos ? args.substr(start)
                                             : args.substr(start, comma - start));
        // An empty token means a doubled, leading, or trailing comma — the
        // old stringstream splitter silently swallowed the trailing case.
        if (arg.empty())
          parse_fail(line_no, "empty argument in cell " + cell_name, "parse.syntax",
                     lhs);
        fanins.push_back(net_by_name(arg, line_no));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }

    const NetId net = net_by_name(lhs, line_no);
    check_single_driver(net, lhs, line_no);
    if (*cell == GateType::Dff) {
      if (fanins.size() != 1)
        parse_fail(line_no, "DFF takes exactly one argument", "drc.arity", lhs);
      builder_.define_dff(net, fanins[0]);
    } else if (*cell == GateType::Const0 || *cell == GateType::Const1) {
      if (!fanins.empty())
        parse_fail(line_no, "constants take no arguments", "drc.arity", lhs);
      builder_.define_gate(net, *cell, {});
    } else {
      builder_.define_gate(net, *cell, std::move(fanins));
    }
    driver_lines_.emplace(net, line_no);
    net_lines_[net] = line_no;
  }

  void parse_io_decl(const std::string& line, std::size_t line_no) {
    auto open = line.find('(');
    auto close = line.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open)
      parse_fail(line_no, "expected INPUT(name) or OUTPUT(name)");
    if (!strip(line.substr(close + 1)).empty())
      parse_fail(line_no, "unexpected text after ')'");
    const std::string kind = upper(strip(line.substr(0, open)));
    const std::string net_name = strip(line.substr(open + 1, close - open - 1));
    if (net_name.empty()) parse_fail(line_no, "empty net name in " + kind);
    if (kind == "INPUT") {
      const NetId net = net_by_name(net_name, line_no);
      check_single_driver(net, net_name, line_no);
      builder_.define_input(net);
      driver_lines_.emplace(net, line_no);
      net_lines_[net] = line_no;
    } else if (kind == "OUTPUT") {
      pending_outputs_.push_back(net_by_name(net_name, line_no));
    } else {
      parse_fail(line_no, "unknown declaration '" + kind + "'");
    }
  }

  /// A second INPUT/gate definition for the same net is a multi-driven net;
  /// report it with the line of the first driver for provenance.
  void check_single_driver(NetId net, const std::string& net_name,
                           std::size_t line_no) {
    auto it = driver_lines_.find(net);
    if (it == driver_lines_.end()) return;
    parse_fail(line_no,
               "net '" + net_name + "' driven more than once (first driven at line " +
                   std::to_string(it->second) + ")",
               "drc.multi-driven", net_name);
  }

  NetId net_by_name(const std::string& net_name, std::size_t line_no) {
    auto it = by_name_.find(net_name);
    if (it != by_name_.end()) return it->second;
    NetId id = builder_.declare(net_name);
    by_name_.emplace(net_name, id);
    net_lines_.emplace(id, line_no);  // first reference: undriven-net provenance
    return id;
  }

  NetlistBuilder builder_;
  std::unordered_map<std::string, NetId> by_name_;
  std::unordered_map<NetId, std::size_t> driver_lines_;  // net -> defining line
  std::unordered_map<NetId, std::size_t> net_lines_;     // net -> best-known line
  std::vector<NetId> pending_outputs_;
};

std::string printable_name(const Netlist& netlist, NetId net) {
  const std::string& given = netlist.name(net);
  if (!given.empty()) return given;
  std::string name = "n";
  name += std::to_string(net);
  return name;
}

std::string_view bench_cell_name(GateType type) {
  switch (type) {
    case GateType::Buf: return "BUF";
    case GateType::Not: return "NOT";
    case GateType::And: return "AND";
    case GateType::Nand: return "NAND";
    case GateType::Or: return "OR";
    case GateType::Nor: return "NOR";
    case GateType::Xor: return "XOR";
    case GateType::Xnor: return "XNOR";
    case GateType::Dff: return "DFF";
    case GateType::Const0: return "CONST0";
    case GateType::Const1: return "CONST1";
    default: DETERRENT_ASSERT(false, "no bench cell for this gate type");
  }
  return "";
}

}  // namespace

BenchParseResult read_bench_string_checked(const std::string& text) {
  std::istringstream iss(text);
  return Parser{}.parse(iss);
}

BenchParseResult read_bench_file_checked(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open bench file: " + path);
  return Parser{}.parse(in);
}

void write_bench(const Netlist& netlist, std::ostream& out) {
  out << "# written by deterrent\n";
  for (NetId in_net : netlist.inputs())
    out << "INPUT(" << printable_name(netlist, in_net) << ")\n";
  for (NetId out_net : netlist.outputs())
    out << "OUTPUT(" << printable_name(netlist, out_net) << ")\n";
  for (NetId id = 0; id < netlist.net_count(); ++id) {
    const GateType type = netlist.type(id);
    if (type == GateType::Input) continue;
    out << printable_name(netlist, id) << " = " << bench_cell_name(type) << "(";
    bool first = true;
    for (NetId f : netlist.fanins(id)) {
      if (!first) out << ", ";
      out << printable_name(netlist, f);
      first = false;
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Netlist& netlist) {
  std::ostringstream oss;
  write_bench(netlist, oss);
  return oss.str();
}

void write_bench_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open file for writing: " + path);
  write_bench(netlist, out);
}

}  // namespace deterrent::netlist
