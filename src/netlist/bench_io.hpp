#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace deterrent::netlist {

// Reader/writer for the ISCAS `.bench` netlist format, e.g.:
//
//   # c17
//   INPUT(G1)
//   OUTPUT(G22)
//   G10 = NAND(G1, G3)
//   G22 = DFF(G10)
//
// Definitions may appear in any order (uses before definitions are legal).
// Recognized cells: BUF/BUFF, NOT/INV, AND, NAND, OR, NOR, XOR, XNOR, DFF,
// CONST0/GND, CONST1/VDD.

/// Serializes to `.bench`. Unnamed nets get synthetic `n<ID>` names.
/// `read_bench_string_checked(write_bench_string(nl))` reproduces `nl` up to
/// net ordering (tested as a round-trip property).
void write_bench(const Netlist& netlist, std::ostream& out);
std::string write_bench_string(const Netlist& netlist);
void write_bench_file(const Netlist& netlist, const std::string& path);

/// One problem found while parsing or structurally validating an untrusted
/// `.bench` source. `code` is a machine-readable rule id shared with the
/// analysis::Linter catalog: parse.syntax, parse.cell, parse.limit,
/// drc.arity, drc.multi-driven, drc.undriven, drc.cycle.
struct ParseDiagnostic {
  std::size_t line = 0;  ///< 1-based source line; 0 = file-level finding
  std::string code;      ///< rule id (see above)
  std::string net;       ///< offending net name when known
  std::string message;   ///< human-readable explanation

  bool operator==(const ParseDiagnostic&) const = default;
};

/// Result of a diagnostic-collecting parse: the built netlist when the
/// source is structurally sound, plus every problem found (the parser keeps
/// going after recoverable errors, so one pass reports all of them).
struct BenchParseResult {
  std::optional<Netlist> netlist;  ///< engaged iff diagnostics holds no error
  std::vector<ParseDiagnostic> diagnostics;

  bool ok() const { return netlist.has_value(); }
};

/// Parses untrusted `.bench` input without throwing on malformed content:
/// syntax errors, unknown cells, arity violations, multiply-driven and
/// undriven nets, and combinational cycles are all collected as structured
/// diagnostics instead of first-error exceptions. This is the lint front
/// door for files a public scan service cannot assume well-formed; I/O
/// failures (unreadable file) still throw deterrent::Error.
BenchParseResult read_bench_string_checked(const std::string& text);
BenchParseResult read_bench_file_checked(const std::string& path);

/// Sanity cap on the number of nets a checked parse will build (a corrupt or
/// adversarial file must not OOM the service). Exceeding it yields a
/// parse.limit diagnostic.
inline constexpr std::size_t kMaxCheckedNets = 1u << 24;

}  // namespace deterrent::netlist
