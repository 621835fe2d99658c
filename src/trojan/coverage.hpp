#pragma once

#include <limits>
#include <span>
#include <vector>

#include "sim/pattern.hpp"
#include "trojan/trojan.hpp"

namespace deterrent::trojan {

/// Outcome of applying a test set to a population of Trojans. "Covered" means
/// at least one pattern drives every select net of the trigger to its rare
/// value simultaneously — the paper's trigger coverage metric (§1.2, fn. 2).
/// Activation is checked by simulating the *golden* netlist: trigger firing
/// does not depend on the payload.
struct CoverageResult {
  static constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

  std::size_t covered = 0;
  std::size_t total = 0;
  std::vector<std::size_t> first_activation;  ///< per Trojan: first pattern index, or kNever

  double coverage_percent() const {
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(covered) / static_cast<double>(total);
  }

  /// Coverage (%) after applying only the first `n_patterns` patterns — the
  /// marginal-coverage curve of Figure 6, derived without re-simulation.
  double coverage_percent_at(std::size_t n_patterns) const;
};

/// Evaluates trigger coverage of `patterns` against `trojans` on the golden
/// netlist, bit-parallel (64 patterns per simulation pass, multi-word
/// batches, early exit once every trojan has fired).
///
/// Preconditions: `golden` is combinational (full-scan applied) and
/// `patterns` matches its input arity. Deterministic: depends only on the
/// arguments, never on thread count or batching.
CoverageResult evaluate_coverage(const netlist::Netlist& golden,
                                 std::span<const Trojan> trojans,
                                 const sim::PatternSet& patterns);

}  // namespace deterrent::trojan
