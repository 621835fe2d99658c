#include "trojan/coverage.hpp"

#include <algorithm>
#include <bit>

#include "sim/engine.hpp"

namespace deterrent::trojan {

double CoverageResult::coverage_percent_at(std::size_t n_patterns) const {
  if (total == 0) return 0.0;
  std::size_t hit = 0;
  for (const std::size_t first : first_activation)
    if (first != kNever && first < n_patterns) ++hit;
  return 100.0 * static_cast<double>(hit) / static_cast<double>(total);
}

CoverageResult evaluate_coverage(const netlist::Netlist& golden,
                                 std::span<const Trojan> trojans,
                                 const sim::PatternSet& patterns) {
  CoverageResult result;
  result.total = trojans.size();
  result.first_activation.assign(trojans.size(), CoverageResult::kNever);
  if (trojans.empty() || patterns.empty()) return result;

  // Multi-word batches with an early exit once every trojan has fired — the
  // sweep stops as soon as the last first_activation is known.
  const sim::Engine engine(golden);
  std::size_t remaining = trojans.size();
  engine.sweep_blocks(
      patterns, 0, patterns.block_count(),
      [&](std::size_t first, std::size_t n, const sim::EvalBuffer& buf) {
        for (std::size_t t = 0; t < trojans.size(); ++t) {
          if (result.first_activation[t] != CoverageResult::kNever) continue;
          for (std::size_t w = 0; w < n; ++w) {
            std::uint64_t fired = patterns.valid_mask(first + w);
            for (const auto& rn : trojans[t].trigger) {
              const std::uint64_t value = buf.word(rn.net, w);
              fired &= rn.rare_value ? value : ~value;
              if (fired == 0) break;
            }
            if (fired != 0) {
              const int lane = std::countr_zero(fired);
              result.first_activation[t] =
                  (first + w) * 64 + static_cast<std::size_t>(lane);
              --remaining;
              break;
            }
          }
        }
        return remaining != 0;
      });

  for (const std::size_t first : result.first_activation)
    if (first != CoverageResult::kNever) ++result.covered;
  return result;
}

}  // namespace deterrent::trojan
