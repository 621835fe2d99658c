#include "sim/pattern.hpp"

#include "util/assert.hpp"

namespace deterrent::sim {

PatternSet PatternSet::random(std::size_t input_count, std::size_t pattern_count,
                              util::Rng& rng) {
  PatternSet set(input_count);
  set.pattern_count_ = pattern_count;
  const std::size_t n_blocks = (pattern_count + 63) / 64;
  set.blocks_.resize(n_blocks);
  for (auto& block : set.blocks_) {
    block.resize(input_count);
    for (auto& word : block) word = rng.next_word();
  }
  // Bits beyond pattern_count in the last block are don't-cares; leave them
  // random — consumers must respect valid_mask().
  return set;
}

void PatternSet::push(const Pattern& pattern) {
  DETERRENT_ASSERT(pattern.size() == input_count_, "PatternSet::push arity mismatch");
  const std::size_t p = pattern_count_++;
  if ((p >> 6) >= blocks_.size()) blocks_.emplace_back(input_count_, 0ULL);
  auto& block = blocks_[p >> 6];
  const std::uint64_t bit = 1ULL << (p & 63);
  for (std::size_t i = 0; i < input_count_; ++i) {
    if (pattern.test(i))
      block[i] |= bit;
    else
      block[i] &= ~bit;
  }
}

Pattern PatternSet::pattern(std::size_t index) const {
  DETERRENT_ASSERT(index < pattern_count_, "PatternSet::pattern out of range");
  Pattern p(input_count_);
  for (std::size_t i = 0; i < input_count_; ++i) p.set(i, bit(index, i));
  return p;
}

std::uint64_t PatternSet::valid_mask(std::size_t block_index) const {
  DETERRENT_ASSERT(block_index < blocks_.size(), "PatternSet::valid_mask out of range");
  if (block_index + 1 < blocks_.size() || pattern_count_ % 64 == 0) return ~0ULL;
  return ~0ULL >> (64 - (pattern_count_ % 64));
}

}  // namespace deterrent::sim
