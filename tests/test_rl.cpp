#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "rl/adam.hpp"
#include "rl/categorical.hpp"
#include "rl/gae.hpp"
#include "rl/mlp.hpp"
#include "rl/ppo.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "env_vector.hpp"
#include "helpers.hpp"

namespace deterrent::rl {
namespace {

// ----------------------------------------------------------------- Mlp -----

TEST(Mlp, ShapesAndDeterminism) {
  util::Rng rng1(1);
  util::Rng rng2(1);
  Mlp a({4, 8, 3}, rng1);
  Mlp b({4, 8, 3}, rng2);
  EXPECT_EQ(a.input_size(), 4u);
  EXPECT_EQ(a.output_size(), 3u);
  EXPECT_EQ(a.param_count(), 4u * 8 + 8 + 8u * 3 + 3);
  const std::vector<float> x{0.1f, -0.2f, 0.3f, 0.4f};
  Mlp::Workspace wa, wb;
  EXPECT_EQ(a.forward(x, wa), b.forward(x, wb));
}

TEST(Mlp, CopyParamsMakesNetworksEqual) {
  util::Rng rng1(1);
  util::Rng rng2(2);
  Mlp a({5, 6, 2}, rng1);
  Mlp b({5, 6, 2}, rng2);
  const std::vector<float> x{1, 2, 3, 4, 5};
  Mlp::Workspace wa, wb;
  EXPECT_NE(a.forward(x, wa), b.forward(x, wb));
  b.copy_params_from(a);
  EXPECT_EQ(a.forward(x, wa), b.forward(x, wb));
}

/// Gradient check: analytic backward vs central finite differences, over
/// several random shapes and inputs. Loss = Σ cᵢ·yᵢ with random c.
class MlpGradCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MlpGradCheck, BackwardMatchesFiniteDifferences) {
  util::Rng rng(GetParam());
  const std::size_t in = 2 + rng.below(4);
  const std::size_t hidden = 3 + rng.below(5);
  const std::size_t out = 1 + rng.below(3);
  Mlp net({in, hidden, hidden, out}, rng);

  std::vector<float> x(in);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> c(out);
  for (auto& v : c) v = static_cast<float>(rng.normal());

  Mlp::Workspace ws;
  net.zero_grad();
  net.forward(x, ws);
  net.backward(x, ws, c);

  auto params = net.params();
  // Probe a sample of parameters in every tensor.
  for (auto& p : params) {
    for (std::size_t probe = 0; probe < std::min<std::size_t>(p.size, 6); ++probe) {
      const std::size_t idx = probe * (p.size / std::min<std::size_t>(p.size, 6));
      const float orig = p.values[idx];
      const float eps = 1e-3f;
      Mlp::Workspace w2;

      p.values[idx] = orig + eps;
      const auto y_plus = net.forward(x, w2);
      p.values[idx] = orig - eps;
      const auto y_minus = net.forward(x, w2);
      p.values[idx] = orig;

      double numeric = 0.0;
      for (std::size_t o = 0; o < out; ++o)
        numeric += static_cast<double>(c[o]) * (y_plus[o] - y_minus[o]) / (2.0 * eps);
      EXPECT_NEAR(p.grads[idx], numeric, 2e-2 * std::max(1.0, std::abs(numeric)))
          << "param idx " << idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MlpGradCheck, ::testing::Range<std::uint64_t>(1, 9));

TEST(Mlp, BackwardAccumulates) {
  util::Rng rng(3);
  Mlp net({2, 3, 1}, rng);
  const std::vector<float> x{0.5f, -0.5f};
  const std::vector<float> g{1.0f};
  Mlp::Workspace ws;
  net.zero_grad();
  net.forward(x, ws);
  net.backward(x, ws, g);
  const float after_one = net.params()[0].grads[0];
  net.forward(x, ws);
  net.backward(x, ws, g);
  EXPECT_NEAR(net.params()[0].grads[0], 2 * after_one, 1e-5);
  net.zero_grad();
  EXPECT_EQ(net.params()[0].grads[0], 0.0f);
}

// ---------------------------------------------------------------- Adam -----

TEST(Adam, DescendsQuadratic) {
  // Minimize f(w) = Σ (w_i - t_i)² with gradients fed manually.
  std::vector<float> w(4, 0.0f);
  std::vector<float> g(4, 0.0f);
  const std::vector<float> target{1.0f, -2.0f, 0.5f, 3.0f};
  Adam opt({{w.data(), g.data(), w.size()}}, {.lr = 0.05f});
  for (int step = 0; step < 500; ++step) {
    for (std::size_t i = 0; i < w.size(); ++i) g[i] = 2.0f * (w[i] - target[i]);
    opt.step();
  }
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_NEAR(w[i], target[i], 0.05);
  EXPECT_EQ(opt.step_count(), 500u);
}

TEST(Adam, GradClippingScalesLargeGradients) {
  std::vector<float> w{0.0f};
  std::vector<float> g{1e6f};
  Adam opt({{w.data(), g.data(), 1}}, {.lr = 0.1f});
  opt.step(1.0f);  // clipped to unit norm: behaves like g = 1
  // Adam normalizes by sqrt(v̂), so the step magnitude ≈ lr either way; the
  // point is it must be finite and small.
  EXPECT_TRUE(std::isfinite(w[0]));
  EXPECT_LT(std::abs(w[0]), 0.2f);
}

TEST(Adam, GradNormComputed) {
  std::vector<float> w{0, 0};
  std::vector<float> g{3.0f, 4.0f};
  Adam opt({{w.data(), g.data(), 2}});
  EXPECT_NEAR(opt.grad_norm(), 5.0, 1e-6);
}

// ---------------------------------------------------- MaskedCategorical ----

TEST(Categorical, UniformWhenLogitsEqual) {
  util::BitVec mask(4);
  mask.set_all();
  const std::vector<float> logits{1.0f, 1.0f, 1.0f, 1.0f};
  const MaskedCategorical dist(logits, mask);
  for (const float p : dist.probs()) EXPECT_NEAR(p, 0.25f, 1e-6);
  EXPECT_NEAR(dist.entropy(), std::log(4.0f), 1e-5);
}

TEST(Categorical, MaskedActionsGetZeroProbability) {
  util::BitVec mask(4);
  mask.set(1);
  mask.set(3);
  const std::vector<float> logits{100.0f, 0.0f, 100.0f, 0.0f};
  const MaskedCategorical dist(logits, mask);
  EXPECT_EQ(dist.probs()[0], 0.0f);
  EXPECT_EQ(dist.probs()[2], 0.0f);
  EXPECT_NEAR(dist.probs()[1] + dist.probs()[3], 1.0f, 1e-6);
}

TEST(Categorical, SampleNeverPicksMasked) {
  util::Rng rng(5);
  util::BitVec mask(8);
  mask.set(2);
  mask.set(5);
  std::vector<float> logits(8, 0.0f);
  const MaskedCategorical dist(logits, mask);
  for (int i = 0; i < 2000; ++i) {
    const auto a = dist.sample(rng);
    ASSERT_TRUE(a == 2 || a == 5);
  }
}

TEST(Categorical, SampleFrequenciesMatchProbs) {
  util::Rng rng(7);
  util::BitVec mask(3);
  mask.set_all();
  const std::vector<float> logits{std::log(0.2f), std::log(0.3f), std::log(0.5f)};
  const MaskedCategorical dist(logits, mask);
  std::array<int, 3> counts{};
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[dist.sample(rng)]++;
  EXPECT_NEAR(counts[0] / double(n), 0.2, 0.02);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / double(n), 0.5, 0.02);
}

TEST(Categorical, LogProbConsistent) {
  util::BitVec mask(3);
  mask.set_all();
  const std::vector<float> logits{0.1f, 0.7f, -0.3f};
  const MaskedCategorical dist(logits, mask);
  for (std::uint32_t a = 0; a < 3; ++a)
    EXPECT_NEAR(std::exp(dist.log_prob(a)), dist.probs()[a], 1e-6);
}

TEST(Categorical, EntropyZeroForSingleAction) {
  util::BitVec mask(5);
  mask.set(3);
  std::vector<float> logits(5, 0.0f);
  const MaskedCategorical dist(logits, mask);
  EXPECT_NEAR(dist.entropy(), 0.0f, 1e-6);
  util::Rng rng(1);
  EXPECT_EQ(dist.sample(rng), 3u);
}

TEST(Categorical, GradMatchesFiniteDifference) {
  // d/d logits of [g·logP(a) + h·H] via add_grad vs numeric.
  util::Rng rng(11);
  util::BitVec mask(5);
  mask.set_all();
  mask.set(1, false);
  std::vector<float> logits{0.3f, -0.8f, 0.5f, 0.0f, -0.2f};
  const float g = 0.7f;
  const float h = -0.4f;
  const std::uint32_t action = 2;

  const MaskedCategorical dist(logits, mask);
  std::vector<float> grad(5, 0.0f);
  dist.add_grad(action, g, h, grad);

  for (std::size_t j = 0; j < 5; ++j) {
    const float eps = 1e-4f;
    auto value_at = [&](float delta) {
      auto l2 = logits;
      l2[j] += delta;
      const MaskedCategorical d2(l2, mask);
      return g * d2.log_prob(action) + h * d2.entropy();
    };
    const double numeric = (value_at(eps) - value_at(-eps)) / (2.0 * eps);
    EXPECT_NEAR(grad[j], numeric, 1e-3) << "logit " << j;
  }
  EXPECT_EQ(grad[1], 0.0f);  // masked entry untouched
}

// ----------------------------------------------------------------- GAE -----

TEST(Gae, SingleStepEqualsDelta) {
  const std::vector<float> rewards{2.0f};
  const std::vector<float> values{0.5f};
  const auto result = compute_gae(rewards, values, 0.9f, 0.95f);
  EXPECT_NEAR(result.advantages[0], 2.0f - 0.5f, 1e-6);
  EXPECT_NEAR(result.returns[0], 2.0f, 1e-6);
}

TEST(Gae, LambdaZeroIsOneStepTD) {
  const std::vector<float> rewards{1.0f, 1.0f, 1.0f};
  const std::vector<float> values{0.2f, 0.4f, 0.6f};
  const float gamma = 0.9f;
  const auto result = compute_gae(rewards, values, gamma, 0.0f);
  EXPECT_NEAR(result.advantages[0], 1.0f + gamma * 0.4f - 0.2f, 1e-6);
  EXPECT_NEAR(result.advantages[1], 1.0f + gamma * 0.6f - 0.4f, 1e-6);
  EXPECT_NEAR(result.advantages[2], 1.0f - 0.6f, 1e-6);
}

TEST(Gae, LambdaOneIsMonteCarlo) {
  const std::vector<float> rewards{1.0f, 2.0f, 3.0f};
  const std::vector<float> values{0.0f, 0.0f, 0.0f};
  const float gamma = 0.5f;
  const auto result = compute_gae(rewards, values, gamma, 1.0f);
  // Discounted returns: 1 + .5·2 + .25·3 = 2.75; 2 + .5·3 = 3.5; 3.
  EXPECT_NEAR(result.advantages[0], 2.75f, 1e-5);
  EXPECT_NEAR(result.advantages[1], 3.5f, 1e-5);
  EXPECT_NEAR(result.advantages[2], 3.0f, 1e-5);
}

TEST(Gae, ReturnsAreAdvantagePlusValue) {
  util::Rng rng(13);
  std::vector<float> rewards(10);
  std::vector<float> values(10);
  for (auto& r : rewards) r = static_cast<float>(rng.normal());
  for (auto& v : values) v = static_cast<float>(rng.normal());
  const auto result = compute_gae(rewards, values, 0.99f, 0.95f);
  for (std::size_t t = 0; t < 10; ++t)
    EXPECT_NEAR(result.returns[t], result.advantages[t] + values[t], 1e-5);
}

TEST(Gae, NormalizeAdvantages) {
  std::vector<float> adv{1.0f, 2.0f, 3.0f, 4.0f};
  normalize_advantages(adv);
  float mean = 0;
  for (const float a : adv) mean += a;
  EXPECT_NEAR(mean, 0.0f, 1e-5);
  float var = 0;
  for (const float a : adv) var += a * a;
  EXPECT_NEAR(var / 4.0f, 1.0f, 1e-4);
}

TEST(Gae, NormalizeSingletonIsNoop) {
  std::vector<float> adv{5.0f};
  normalize_advantages(adv);
  EXPECT_EQ(adv[0], 5.0f);
}

TEST(Gae, EmptyEpisodeYieldsEmptyResult) {
  // Regression: an env can reset straight into an exhausted action mask,
  // producing a zero-length episode. compute_gae must return empty vectors
  // instead of touching rewards[n - 1] with n == 0.
  const GaeResult gae = compute_gae({}, {}, 0.99f, 0.95f);
  EXPECT_TRUE(gae.advantages.empty());
  EXPECT_TRUE(gae.returns.empty());
}

// ------------------------------------------------------------ PPO toys -----

/// One-step bandit: 4 arms, arm 2 pays 1. The policy must concentrate there.
class BanditEnv final : public Env {
 public:
  std::size_t observation_size() const override { return 1; }
  std::size_t action_count() const override { return 4; }
  std::vector<float> reset(util::Rng&) override { return {1.0f}; }
  StepResult step(std::uint32_t action) override {
    return {{1.0f}, action == 2 ? 1.0f : 0.0f, true};
  }
  const util::BitVec& action_mask() const override { return mask_; }

 private:
  util::BitVec mask_ = [] {
    util::BitVec m(4);
    m.set_all();
    return m;
  }();
};

TEST(Ppo, ZeroMinibatchSizeThrows) {
  PpoConfig cfg;
  cfg.minibatch_size = 0;  // e.g. from a library caller or a session config
  EXPECT_THROW(scalar_trainer([](std::size_t) { return std::make_unique<BanditEnv>(); },
                              cfg, 1),
               Error);
}

TEST(Ppo, ZeroLaneCountThrows) {
  PpoConfig cfg;
  cfg.rollout_lanes = 0;
  cfg.n_workers = 0;
  EXPECT_THROW(scalar_trainer([](std::size_t) { return std::make_unique<BanditEnv>(); },
                              cfg, 1),
               Error);
  cfg.n_workers = 1;  // the legacy spelling alone is enough
  EXPECT_NO_THROW(scalar_trainer([](std::size_t) { return std::make_unique<BanditEnv>(); },
                                 cfg, 1));
}

TEST(Ppo, LearnsBandit) {
  PpoConfig cfg;
  cfg.episodes_per_update = 32;
  cfg.hidden_size = 16;
  cfg.entropy_coef = 0.01f;
  cfg.learning_rate = 1e-2f;
  auto trainer = scalar_trainer([](std::size_t) { return std::make_unique<BanditEnv>(); }, cfg, 3);
  double reward = 0.0;
  for (int u = 0; u < 40; ++u) reward = trainer.update().mean_episode_reward;
  EXPECT_GT(reward, 0.85) << "policy failed to find the paying arm";
}

/// Corridor of length N: action 1 moves right (+reward at goal), action 0
/// moves left. Tests multi-step credit assignment.
class CorridorEnv final : public Env {
 public:
  explicit CorridorEnv(int length) : length_(length) {
    mask_ = util::BitVec(2);
    mask_.set_all();
  }
  std::size_t observation_size() const override {
    return static_cast<std::size_t>(length_) + 1;
  }
  std::size_t action_count() const override { return 2; }
  std::vector<float> reset(util::Rng&) override {
    pos_ = 0;
    steps_ = 0;
    return obs();
  }
  StepResult step(std::uint32_t action) override {
    pos_ += action == 1 ? 1 : -1;
    if (pos_ < 0) pos_ = 0;
    ++steps_;
    const bool win = pos_ == length_;
    const bool done = win || steps_ >= 4 * length_;
    return {obs(), win ? 1.0f : 0.0f, done};
  }
  const util::BitVec& action_mask() const override { return mask_; }

 private:
  std::vector<float> obs() const {
    std::vector<float> o(observation_size(), 0.0f);
    o[static_cast<std::size_t>(pos_)] = 1.0f;
    return o;
  }
  int length_;
  int pos_ = 0;
  int steps_ = 0;
  util::BitVec mask_;
};

TEST(Ppo, LearnsCorridor) {
  PpoConfig cfg;
  cfg.episodes_per_update = 24;
  cfg.hidden_size = 24;
  cfg.entropy_coef = 0.01f;
  cfg.learning_rate = 5e-3f;
  cfg.gamma = 0.95f;
  auto trainer =
      scalar_trainer([](std::size_t) { return std::make_unique<CorridorEnv>(5); }, cfg, 11);
  double reward = 0.0;
  for (int u = 0; u < 60; ++u) reward = trainer.update().mean_episode_reward;
  EXPECT_GT(reward, 0.9) << "policy failed to walk the corridor";
}

/// Masked bandit: the paying arm is masked; the policy must settle on the
/// best *allowed* arm — the masking mechanism end to end.
class MaskedBanditEnv final : public Env {
 public:
  MaskedBanditEnv() {
    mask_ = util::BitVec(4);
    mask_.set_all();
    mask_.set(2, false);  // best arm forbidden
  }
  std::size_t observation_size() const override { return 1; }
  std::size_t action_count() const override { return 4; }
  std::vector<float> reset(util::Rng&) override { return {1.0f}; }
  StepResult step(std::uint32_t action) override {
    EXPECT_NE(action, 2u) << "masked action selected";
    const float reward = action == 2 ? 1.0f : (action == 3 ? 0.6f : 0.1f);
    return {{1.0f}, reward, true};
  }
  const util::BitVec& action_mask() const override { return mask_; }

 private:
  util::BitVec mask_;
};

TEST(Ppo, MaskedActionsNeverTakenAndBestAllowedFound) {
  PpoConfig cfg;
  cfg.episodes_per_update = 32;
  cfg.hidden_size = 16;
  cfg.entropy_coef = 0.01f;
  cfg.learning_rate = 1e-2f;
  auto trainer =
      scalar_trainer([](std::size_t) { return std::make_unique<MaskedBanditEnv>(); }, cfg, 5);
  double reward = 0.0;
  for (int u = 0; u < 40; ++u) reward = trainer.update().mean_episode_reward;
  EXPECT_GT(reward, 0.5) << "policy failed to find best allowed arm";
}

TEST(Ppo, VectorizedWorkersMatchProgress) {
  // 4 rollout lanes must also learn the bandit.
  PpoConfig cfg;
  cfg.episodes_per_update = 32;
  cfg.hidden_size = 16;
  cfg.entropy_coef = 0.01f;
  cfg.learning_rate = 1e-2f;
  cfg.rollout_lanes = 4;
  auto trainer = scalar_trainer([](std::size_t) { return std::make_unique<BanditEnv>(); }, cfg, 7);
  double reward = 0.0;
  for (int u = 0; u < 40; ++u) reward = trainer.update().mean_episode_reward;
  EXPECT_GT(reward, 0.85);
  EXPECT_EQ(trainer.total_episodes(), 40u * 32u);
}

TEST(Ppo, EntropyBonusSlowsCollapse) {
  // With a huge entropy coefficient the bandit policy must stay spread out —
  // the §3.4 exploration-boost mechanism.
  PpoConfig low;
  low.episodes_per_update = 32;
  low.hidden_size = 16;
  low.entropy_coef = 0.0f;
  low.learning_rate = 1e-2f;
  PpoConfig high = low;
  high.entropy_coef = 1.0f;

  auto t_low = scalar_trainer([](std::size_t) { return std::make_unique<BanditEnv>(); }, low, 9);
  auto t_high = scalar_trainer([](std::size_t) { return std::make_unique<BanditEnv>(); }, high, 9);
  double ent_low = 0;
  double ent_high = 0;
  for (int u = 0; u < 30; ++u) {
    ent_low = t_low.update().mean_entropy;
    ent_high = t_high.update().mean_entropy;
  }
  EXPECT_GT(ent_high, ent_low + 0.2)
      << "entropy bonus failed to keep the policy exploratory";
}

TEST(Ppo, UpdateStatsConsistent) {
  PpoConfig cfg;
  cfg.episodes_per_update = 8;
  cfg.hidden_size = 8;
  auto trainer = scalar_trainer([](std::size_t) { return std::make_unique<BanditEnv>(); }, cfg, 1);
  const auto stats = trainer.update();
  EXPECT_EQ(stats.episodes, 8u);
  EXPECT_EQ(stats.steps, 8u);  // bandit episodes are single-step
  EXPECT_EQ(stats.mean_episode_length, 1.0);
  EXPECT_NEAR(stats.total_loss,
              stats.policy_loss + cfg.entropy_coef * stats.entropy_loss +
                  cfg.value_coef * stats.value_loss,
              1e-9);
}

// ------------------------------------------------------ pooled training ---
// A pool splits the batched passes and the loss loop along axes no sum runs
// over, so every result must match the serial one bit for bit.

std::vector<std::uint32_t> bits_of(std::span<const float> v) {
  std::vector<std::uint32_t> out;
  out.reserve(v.size());
  for (const float x : v) out.push_back(std::bit_cast<std::uint32_t>(x));
  return out;
}

std::vector<std::uint32_t> grad_bits(Mlp& net) {
  std::vector<std::uint32_t> out;
  for (const ParamRef& p : net.params()) {
    const auto b = bits_of({p.grads, p.size});
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

TEST(PooledTraining, MlpBatchPassesMatchSerialBitwise) {
  // Wider than one 64-output block and with a sparse, signed first layer, so
  // every split axis (rows, outputs, layer-0 inputs) cuts inside a block.
  const std::vector<std::size_t> shape{83, 70, 64, 130};
  util::ThreadPool two(2);
  util::ThreadPool three(3);
  for (const std::size_t rows : {1u, 3u, 64u, 257u}) {
    SCOPED_TRACE(testing::Message() << "rows=" << rows);
    util::Rng data_rng(rows);
    std::vector<float> input(rows * shape.front());
    for (auto& x : input)
      x = data_rng.below(3) == 0 ? static_cast<float>(data_rng.normal()) : 0.0f;
    std::vector<float> out_grads(rows * shape.back());
    for (auto& g : out_grads) g = static_cast<float>(data_rng.normal());

    std::vector<std::vector<std::uint32_t>> outputs;
    std::vector<std::vector<std::uint32_t>> grads;
    for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr), &two, &three}) {
      util::Rng init(5);
      Mlp net(shape, init);
      Mlp::BatchWorkspace ws;
      const auto input_rows = row_pointers(input, shape.front());
      outputs.push_back(bits_of(net.forward_batch(input_rows.data(), rows, ws, pool)));
      // Twice without zero_grad: the second pass accumulates onto nonzero
      // gradients.
      net.backward_batch(input_rows.data(), ws, out_grads, pool);
      net.backward_batch(input_rows.data(), ws, out_grads, pool);
      grads.push_back(grad_bits(net));
    }
    for (std::size_t k = 1; k < outputs.size(); ++k) {
      EXPECT_EQ(outputs[k], outputs[0]) << "pool leg " << k;
      EXPECT_EQ(grads[k], grads[0]) << "pool leg " << k;
    }
  }
}

TEST(PooledTraining, MaskedPolicyHeadMatchesPerSampleBitwise) {
  // A masked logit's output gradient is exactly +0 (about two thirds of the
  // policy head's on the training designs), and the batched backward sums
  // only each row's nonzero ones into its input gradient. Policy-shaped nets
  // at the widths of c5315_like (354 rare nets) and s15850_like (714), with
  // and without a pool, against per-sample forward() and backward().
  util::ThreadPool two(2);
  util::ThreadPool three(3);
  for (const std::size_t width : {354u, 714u}) {
    const std::vector<std::size_t> shape{width, 64, 64, width};
    for (const std::size_t rows : {67u, 256u}) {
      SCOPED_TRACE(testing::Message() << "width=" << width << " rows=" << rows);
      util::Rng data(width + rows);
      std::vector<float> input(rows * width, 0.0f);
      for (auto& x : input)
        if (data.below(8) == 0) x = 1.0f;
      std::vector<float> out_grads(rows * width, 0.0f);
      std::size_t valid = 0;
      for (auto& g : out_grads)
        if (data.below(3) == 0) {
          g = static_cast<float>(data.normal());
          ++valid;
        }
      ASSERT_LT(valid * 2, out_grads.size()) << "most output gradients must be +0";

      util::Rng init(3);
      Mlp reference(shape, init);
      std::vector<std::uint32_t> want_out;
      Mlp::Workspace ws;
      for (std::size_t r = 0; r < rows; ++r) {
        const auto in = std::span<const float>(input).subspan(r * width, width);
        const auto out = bits_of(reference.forward(in, ws));
        want_out.insert(want_out.end(), out.begin(), out.end());
        reference.backward(in, ws,
                           std::span<const float>(out_grads).subspan(r * width, width));
      }
      const auto want_grads = grad_bits(reference);

      for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr), &two, &three}) {
        SCOPED_TRACE(testing::Message() << "threads=" << (pool ? pool->thread_count() : 1));
        util::Rng same_init(3);
        Mlp net(shape, same_init);
        Mlp::BatchWorkspace bws;
        const auto input_rows = row_pointers(input, width);
        EXPECT_EQ(bits_of(net.forward_batch(input_rows.data(), rows, bws, pool)),
                  want_out);
        net.backward_batch(input_rows.data(), bws, out_grads, pool);
        EXPECT_EQ(grad_bits(net), want_grads);
      }
    }
  }
}

/// Multi-step episodes over a signed, mostly-zero observation with masked
/// actions: a jump is legal only from even cells, a wait only past the start.
class MaskedChainEnv final : public Env {
 public:
  static constexpr int kLength = 9;
  std::size_t observation_size() const override { return kLength + 3; }
  std::size_t action_count() const override { return 4; }
  std::vector<float> reset(util::Rng& rng) override {
    pos_ = static_cast<int>(rng.below(3));
    steps_ = 0;
    return observe();
  }
  StepResult step(std::uint32_t action) override {
    pos_ = action == 0 ? std::max(0, pos_ - 1) : pos_ + static_cast<int>(action % 3);
    ++steps_;
    const bool win = pos_ >= kLength;
    const bool done = win || steps_ >= 3 * kLength;
    const float reward = (win ? 1.0f : 0.0f) - 0.01f * static_cast<float>(action);
    return {observe(), reward, done};
  }
  const util::BitVec& action_mask() const override { return mask_; }

 private:
  std::vector<float> observe() {
    mask_.clear_all();
    mask_.set(0);
    mask_.set(1);
    if (pos_ % 2 == 0) mask_.set(2);
    if (pos_ > 0) mask_.set(3);
    std::vector<float> o(observation_size(), 0.0f);
    o[static_cast<std::size_t>(std::min(pos_, kLength))] = 1.0f;
    o[kLength + 1] = pos_ % 2 == 0 ? -0.5f : 0.0f;
    o[kLength + 2] = static_cast<float>(steps_) / 10.0f;
    return o;
  }
  int pos_ = 0;
  int steps_ = 0;
  util::BitVec mask_{4};
};

std::vector<std::uint64_t> stats_bits(const PpoUpdateStats& s) {
  std::vector<std::uint64_t> out{s.steps, s.episodes};
  for (const double d : {s.mean_episode_reward, s.mean_episode_length, s.mean_entropy,
                         s.policy_loss, s.value_loss, s.entropy_loss, s.total_loss})
    out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

TEST(PooledTraining, TrainerMatchesSerialBitwise) {
  util::ThreadPool two(2);
  util::ThreadPool three(3);
  // 37 divides by neither thread count and leaves a short last minibatch;
  // 1000 puts the whole rollout in one short minibatch.
  for (const std::size_t minibatch : {37u, 1000u}) {
    SCOPED_TRACE(testing::Message() << "minibatch=" << minibatch);
    PpoConfig cfg;
    cfg.episodes_per_update = 12;
    cfg.hidden_size = 24;
    cfg.minibatch_size = minibatch;
    cfg.epochs = 2;
    cfg.entropy_coef = 1.0f;
    cfg.learning_rate = 3e-3f;
    cfg.rollout_lanes = 4;

    std::vector<std::vector<std::uint64_t>> stats;
    std::vector<TrainerState> states;
    for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr), &two, &three}) {
      auto trainer = scalar_trainer(
          [](std::size_t) { return std::make_unique<MaskedChainEnv>(); }, cfg, 21, pool);
      std::vector<std::uint64_t> leg;
      for (int u = 0; u < 4; ++u) {
        const auto b = stats_bits(trainer.update());
        leg.insert(leg.end(), b.begin(), b.end());
      }
      stats.push_back(leg);
      states.push_back(trainer.state());
    }
    const std::uint64_t steps = stats[0][0];  // first update's rollout
    if (minibatch == 37) {
      ASSERT_GT(steps, 2 * minibatch);
      ASSERT_NE(steps % minibatch, 0u) << "no short last minibatch";
    } else {
      ASSERT_LT(steps, minibatch);
    }
    for (std::size_t k = 1; k < states.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "pool leg " << k);
      EXPECT_EQ(stats[k], stats[0]);
      EXPECT_EQ(bits_of(states[k].policy_params), bits_of(states[0].policy_params));
      EXPECT_EQ(bits_of(states[k].value_params), bits_of(states[0].value_params));
      for (const auto& [a, b] : {std::pair{&states[k].policy_opt, &states[0].policy_opt},
                                 std::pair{&states[k].value_opt, &states[0].value_opt}}) {
        EXPECT_EQ(bits_of(a->m), bits_of(b->m));
        EXPECT_EQ(bits_of(a->v), bits_of(b->v));
        EXPECT_EQ(a->t, b->t);
      }
    }
  }
}

}  // namespace
}  // namespace deterrent::rl
