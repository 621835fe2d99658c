#pragma once

#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace deterrent::netlist {
struct ParseDiagnostic;  // netlist/bench_io.hpp
}

namespace deterrent::analysis {

/// Severity of a lint finding, ordered so `severity >= config.fail_on`
/// decides rejection.
enum class LintSeverity : std::uint8_t { Info = 0, Warning = 1, Error = 2 };

const char* to_string(LintSeverity severity);

/// One finding of the static analyzer: which rule fired, how bad it is, and
/// the gate/net it anchors to (provenance for reports and triage).
struct LintDiagnostic {
  std::string rule;  ///< rule id, e.g. "drc.cycle" or "trojan.trigger-shape"
  LintSeverity severity = LintSeverity::Warning;
  /// Offending net in the analyzed netlist; kNoNet for design-level findings
  /// (and for parse-tier findings on sources that never built).
  netlist::NetId net = netlist::kNoNet;
  std::string net_name;   ///< resolved name ("" when the net is unnamed/absent)
  std::size_t line = 0;   ///< 1-based source line for parse-tier findings; 0 otherwise
  std::string message;    ///< human-readable explanation

  bool operator==(const LintDiagnostic&) const = default;
};

/// Structured result of a lint run. Diagnostics are ordered by rule-registry
/// order, then by net id, so reports are deterministic.
struct LintReport {
  std::vector<LintDiagnostic> diagnostics;
  /// Findings dropped because a rule exceeded LintConfig::max_per_rule (the
  /// per-rule counts still include them via the rule's summary diagnostic).
  std::size_t suppressed = 0;

  std::size_t count(LintSeverity severity) const;
  std::size_t errors() const { return count(LintSeverity::Error); }
  std::size_t warnings() const { return count(LintSeverity::Warning); }
  std::size_t infos() const { return count(LintSeverity::Info); }

  /// True when any finding is at or above `fail_on` — the design is rejected
  /// by the front door.
  bool rejects(LintSeverity fail_on) const;

  /// "2 errors, 1 warning, 3 infos" (omitting zero buckets; "clean" when empty).
  std::string summary() const;

  /// Machine-readable report (schema in docs/lint.md): a single JSON object
  /// with counts, a clean flag, and one entry per diagnostic.
  std::string to_json() const;
};

/// Rule enable/threshold knobs. Part of core::DeterrentConfig, so lint runs
/// are reproducible from a session's stored config.
struct LintConfig {
  /// Master switch for the pipeline's stage 0. The CLI `lint` subcommand
  /// ignores it (an explicit lint is always run).
  bool enabled = true;
  /// Findings at or above this severity reject the design: the pipeline
  /// stage returns StageStatus::Rejected, the CLI exits non-zero.
  LintSeverity fail_on = LintSeverity::Error;
  /// Rule ids disabled entirely (both tiers; unknown ids are ignored).
  std::vector<std::string> disabled;

  // ---- trojan-screen thresholds -------------------------------------------
  /// trojan.near-unexcitable: static probability of the net's less likely
  /// value at or below this fires. 2^-24 keeps ordinary decode logic (a
  /// 16-bit comparator sits at 2^-16) out while catching conjunctions over
  /// already-biased internal nets.
  double unexcitable_prob = 1.0 / 16777216.0;  // 2^-24
  /// trojan.shadow-cone: SCOAP combinational observability at or above this
  /// fires (ScoapValues::kInfinity means provably unobservable).
  std::uint32_t shadow_co = 5000;
  /// trojan.trigger-shape: collapsed AND-tree support width at or least this …
  unsigned trigger_width = 8;
  /// … with static output probability at or below this …
  double trigger_prob = 1.0 / 4096.0;
  /// … feeding at most this many consumers (triggers hide behind one payload).
  std::size_t trigger_max_fanout = 2;

  // ---- reporting ----------------------------------------------------------
  /// Diagnostics reported per rule before the tail is folded into one
  /// summary line (0 = unlimited). Keeps reports on pathological designs
  /// bounded.
  std::size_t max_per_rule = 16;

  bool rule_enabled(std::string_view id) const;
};

/// Catalog entry for one registered rule (docs/lint.md mirrors this table).
struct LintRule {
  const char* id;
  LintSeverity severity;
  const char* tier;  ///< "parse", "drc", or "trojan"
  const char* summary;
};

/// The full rule catalog, registry order (parse tier first). Parse-tier rules
/// fire from netlist::read_bench_*_checked diagnostics, not from Linter::lint.
std::span<const LintRule> lint_rules();

/// Looks a rule up by id; nullptr when unknown.
const LintRule* find_lint_rule(std::string_view id);

/// Static netlist analyzer: rule-registry DRC plus a structural trojan
/// screen, the pipeline's stage 0 ("front door") for untrusted designs.
///
/// All checks are static — topological constant/probability propagation,
/// reachability, SCOAP testability — so linting costs O(nets + edges) and
/// never burns simulation or SAT budget. Sequential netlists are analyzed
/// directly (DFF outputs are probability-0.5 sources); the SCOAP-based rules
/// run on the full-scan view, whose net ids are identical by construction.
class Linter {
 public:
  explicit Linter(LintConfig config = {});

  const LintConfig& config() const { return config_; }

  /// Runs every enabled netlist-tier rule. Deterministic: equal netlists and
  /// configs produce byte-equal reports.
  LintReport lint(const netlist::Netlist& netlist) const;

 private:
  LintConfig config_;
};

/// Merges parse-tier diagnostics (from netlist::read_bench_*_checked) into
/// `report`, mapping each netlist::ParseDiagnostic code onto the registered
/// parse/drc rule of the same id (unknown codes fall back to parse.syntax).
/// Respects config.disabled; parse-tier findings are never truncated.
void append_parse_diagnostics(LintReport& report,
                              std::span<const netlist::ParseDiagnostic> parse,
                              const LintConfig& config);

}  // namespace deterrent::analysis
