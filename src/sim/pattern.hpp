#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace deterrent::sim {

/// One test pattern: a bit per primary input, ordered as Netlist::inputs().
/// Under the full-scan assumption the vector covers true PIs plus pseudo-PIs
/// (scanned flip-flops).
using Pattern = util::BitVec;

/// A set of test patterns stored bit-parallel: patterns are packed 64 per
/// block, and each block holds one 64-bit word per input. This is the layout
/// the simulator consumes directly, so applying a pattern set to a netlist
/// needs no transposition.
class PatternSet {
 public:
  PatternSet() = default;
  explicit PatternSet(std::size_t input_count) : input_count_(input_count) {}

  /// n_patterns of uniform random stimulus — the "random simulations" the
  /// paper uses for rare-net discovery and the Random baseline.
  static PatternSet random(std::size_t input_count, std::size_t pattern_count,
                           util::Rng& rng);

  std::size_t input_count() const { return input_count_; }
  std::size_t pattern_count() const { return pattern_count_; }
  std::size_t block_count() const { return blocks_.size(); }
  bool empty() const { return pattern_count_ == 0; }

  /// Appends a pattern (size must equal input_count()).
  void push(const Pattern& pattern);

  bool bit(std::size_t pattern, std::size_t input) const {
    return (blocks_[pattern >> 6][input] >> (pattern & 63)) & 1ULL;
  }

  Pattern pattern(std::size_t index) const;

  /// Words for one block: word(i) carries bit b = value of input i in pattern
  /// (64*block + b).
  std::span<const std::uint64_t> block(std::size_t index) const { return blocks_[index]; }

  /// Mask of valid pattern lanes in a block (all-ones except possibly the last).
  std::uint64_t valid_mask(std::size_t block_index) const;

 private:
  std::size_t input_count_ = 0;
  std::size_t pattern_count_ = 0;
  std::vector<std::vector<std::uint64_t>> blocks_;
};

}  // namespace deterrent::sim
