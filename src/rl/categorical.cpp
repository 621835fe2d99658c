#include "rl/categorical.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace deterrent::rl {

namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// Index of the lowest set bit of `bits`, the mask's word `word`.
std::size_t bit_index(std::size_t word, std::uint64_t bits) {
  return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

/// Calls visit(i) for every valid action i, ascending, reading the mask a
/// word at a time.
template <typename Visit>
void for_each_valid(const util::BitVec& mask, Visit visit) {
  const auto words = mask.words();
  for (std::size_t w = 0; w < words.size(); ++w)
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1)
      visit(bit_index(w, bits));
}
}  // namespace

MaskedCategorical::MaskedCategorical(std::span<const float> logits,
                                     const util::BitVec& mask)
    : mask_(&mask) {
  DETERRENT_ASSERT(logits.size() == mask.size(), "logits/mask size mismatch");
  DETERRENT_ASSERT(mask.any(), "masked categorical requires a valid action");

  const std::size_t n = logits.size();
  probs_.assign(n, 0.0f);
  log_probs_.assign(n, kNegInf);

  // Numerically stable masked log-softmax.
  float max_logit = kNegInf;
  for_each_valid(mask,
                 [&](std::size_t i) { max_logit = std::max(max_logit, logits[i]); });

  double z = 0.0;
  for_each_valid(mask, [&](std::size_t i) {
    z += std::exp(static_cast<double>(logits[i] - max_logit));
  });
  const float log_z = static_cast<float>(std::log(z)) + max_logit;

  double h = 0.0;
  for_each_valid(mask, [&](std::size_t i) {
    const float lp = logits[i] - log_z;
    log_probs_[i] = lp;
    const float p = std::exp(lp);
    probs_[i] = p;
    if (p > 0.0f) h -= static_cast<double>(p) * lp;
  });
  entropy_ = static_cast<float>(h);
}

float MaskedCategorical::log_prob(std::uint32_t action) const {
  DETERRENT_ASSERT(action < log_probs_.size() && mask_->test(action),
                   "log_prob of masked action");
  return log_probs_[action];
}

float MaskedCategorical::entropy() const { return entropy_; }

std::uint32_t MaskedCategorical::sample(util::Rng& rng) const {
  const double u = rng.uniform();
  double cdf = 0.0;
  std::size_t last_valid = 0;
  const auto words = mask_->words();
  for (std::size_t w = 0; w < words.size(); ++w)
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      const std::size_t i = bit_index(w, bits);
      cdf += probs_[i];
      last_valid = i;
      if (u < cdf) return static_cast<std::uint32_t>(i);
    }
  return static_cast<std::uint32_t>(last_valid);  // guard against rounding
}

void MaskedCategorical::add_grad(std::uint32_t action, float g, float h,
                                 std::span<float> grad) const {
  DETERRENT_ASSERT(grad.size() == probs_.size(), "grad size mismatch");
  for_each_valid(*mask_, [&](std::size_t i) {
    const float p = probs_[i];
    float d = -g * p;
    if (static_cast<std::uint32_t>(i) == action) d += g;
    if (h != 0.0f && p > 0.0f) d -= h * p * (log_probs_[i] + entropy_);
    grad[i] += d;
  });
}

}  // namespace deterrent::rl
