#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>

#include "rl/categorical.hpp"
#include "rl/gae.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace deterrent::rl {

namespace {

std::vector<std::size_t> mlp_shape(std::size_t in, std::size_t hidden,
                                   std::size_t hidden_layers, std::size_t out) {
  std::vector<std::size_t> shape{in};
  for (std::size_t i = 0; i < hidden_layers; ++i) shape.push_back(hidden);
  shape.push_back(out);
  return shape;
}

util::Rng seeded_rng(std::uint64_t seed, std::uint64_t stream) {
  return util::Rng(seed * 0x9e3779b97f4a7c15ULL + stream + 1);
}

/// Episode streams live far above the fixed streams (0 = policy init,
/// 1 = value init, 2 = shuffle), so no training run can collide them.
constexpr std::uint64_t kEpisodeStreamBase = std::uint64_t{1} << 32;

/// `config`, unless it holds a zero the trainer cannot run with. A library
/// caller or a deserialized session config can pass one, so it throws
/// deterrent::Error rather than asserting.
const PpoConfig& checked(const PpoConfig& config) {
  if (config.minibatch_size == 0) throw Error("PpoConfig: minibatch_size is 0");
  if (std::max(config.rollout_lanes, config.n_workers) == 0)
    throw Error("PpoConfig: rollout_lanes and n_workers are both 0 (no lane)");
  return config;
}

std::unique_ptr<VectorEnv> make_rollout_env(
    const PpoConfig& config, const PpoTrainer::VectorEnvFactory& vector_factory) {
  if (!vector_factory) throw Error("PpoTrainer: no vector env factory");
  // n_workers is the legacy spelling of the lane count (see PpoConfig).
  const std::size_t lanes = std::max(config.rollout_lanes, config.n_workers);
  auto env = vector_factory(lanes);
  DETERRENT_ASSERT(env->lanes() == lanes, "PpoTrainer: vector env lane mismatch");
  return env;
}

}  // namespace

PpoTrainer::PpoTrainer(const EnvFactory& /*factory*/, const PpoConfig& config,
                       std::uint64_t seed, const VectorEnvFactory& vector_factory,
                       util::ThreadPool* pool)
    : config_(checked(config)),
      seed_(seed),
      pool_(pool),
      vector_env_(make_rollout_env(config, vector_factory)),
      policy_([&] {
        auto rng = seeded_rng(seed, 0);
        return Mlp(mlp_shape(vector_env_->observation_size(), config.hidden_size,
                             config.hidden_layers, vector_env_->action_count()),
                   rng);
      }()),
      value_([&] {
        auto rng = seeded_rng(seed, 1);
        return Mlp(mlp_shape(vector_env_->observation_size(), config.hidden_size,
                             config.hidden_layers, 1),
                   rng);
      }()),
      policy_opt_(policy_.params(), {config.learning_rate}),
      value_opt_(value_.params(), {config.learning_rate}),
      // Stream 2 is the minibatch-shuffle rng — the only persistent stream.
      // Episodes draw from streams keyed by their global episode index
      // (episode_rng), which makes every lane count interchangeable
      // bit-for-bit.
      shuffle_rng_(seeded_rng(seed, 2)) {}

PpoTrainer::~PpoTrainer() = default;

TrainerState PpoTrainer::state() const {
  TrainerState s;
  s.policy_params = policy_.flat_params();
  s.value_params = value_.flat_params();
  s.policy_opt = policy_opt_.state();
  s.value_opt = value_opt_.state();
  s.rng_states.push_back(shuffle_rng_.state());
  s.seed = seed_;
  s.total_steps = total_steps_;
  s.total_episodes = total_episodes_;
  return s;
}

void PpoTrainer::restore(const TrainerState& state) {
  if (state.rng_states.size() != 1)
    throw Error("PpoTrainer::restore: snapshot has " +
                std::to_string(state.rng_states.size()) +
                " RNG streams, trainer has 1"
                " (was it saved by an older trainer with per-worker streams?)");
  policy_.set_flat_params(state.policy_params);
  value_.set_flat_params(state.value_params);
  policy_opt_.restore(state.policy_opt);
  value_opt_.restore(state.value_opt);
  shuffle_rng_.set_state(state.rng_states[0]);
  seed_ = state.seed;
  total_steps_ = state.total_steps;
  total_episodes_ = state.total_episodes;
}

util::Rng PpoTrainer::episode_rng(std::uint64_t index) const {
  return seeded_rng(seed_, kEpisodeStreamBase + index);
}

void PpoTrainer::collect(std::vector<EpisodeBuffer>& episodes) {
  VectorEnv& venv = *vector_env_;
  const std::size_t n_lanes = venv.lanes();
  const std::size_t n_episodes = episodes.size();
  const std::size_t act_dim = policy_.output_size();

  constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  std::vector<std::size_t> current(n_lanes, kIdle);  // episode under collection
  std::vector<std::size_t> next(n_lanes);            // next episode index
  std::vector<util::Rng> lane_rng(n_lanes, util::Rng(0));

  // Lane l owns episode slots l, l+N, l+2N, …, but each episode's RNG comes
  // from episode_rng(global index) — the lane schedule only decides wall-clock
  // interleaving, never the episode contents, so any lane count fills
  // episodes[] with bit-identical rollouts.
  auto begin_episode = [&](std::size_t l) {
    current[l] = kIdle;
    while (next[l] < n_episodes) {
      const std::size_t e = next[l];
      next[l] += n_lanes;
      lane_rng[l] = episode_rng(total_episodes_ + e);
      venv.reset_lane(l, lane_rng[l]);
      // Resetting into an exhausted mask yields an empty episode and moves
      // straight on to the lane's next one.
      if (venv.action_mask(l).none()) continue;
      current[l] = e;
      return;
    }
  };
  for (std::size_t l = 0; l < n_lanes; ++l) {
    next[l] = l;
    begin_episode(l);
  }

  util::BitVec active(n_lanes);
  std::vector<std::uint32_t> actions(n_lanes, 0);
  std::vector<const float*> row_ptrs;  // active lanes' observations, in order
  Mlp::BatchWorkspace policy_ws;
  Mlp::BatchWorkspace value_ws;

  for (;;) {
    active.clear_all();
    std::size_t rows = 0;
    for (std::size_t l = 0; l < n_lanes; ++l)
      if (current[l] != kIdle) {
        active.set(l);
        ++rows;
      }
    if (rows == 0) break;

    // Feed the lanes' observation storage to the batched passes directly —
    // the row-pointer overload reads it in place, no gather copy.
    row_ptrs.resize(rows);
    std::size_t r = 0;
    for (std::size_t l = 0; l < n_lanes; ++l) {
      if (current[l] == kIdle) continue;
      row_ptrs[r] = venv.observation(l).data();
      ++r;
    }
    const auto logits = policy_.forward_batch(row_ptrs.data(), rows, policy_ws);
    const auto values = value_.forward_batch(row_ptrs.data(), rows, value_ws);

    r = 0;
    for (std::size_t l = 0; l < n_lanes; ++l) {
      if (current[l] == kIdle) continue;
      EpisodeBuffer& buf = episodes[current[l]];
      util::BitVec mask = venv.action_mask(l);  // copy: env mutates it on step
      const MaskedCategorical dist(logits.subspan(r * act_dim, act_dim), mask);
      const std::uint32_t action = dist.sample(lane_rng[l]);
      buf.log_probs.push_back(dist.log_prob(action));
      buf.values.push_back(values[r]);
      const auto obs = venv.observation(l);
      buf.observations.emplace_back(obs.begin(), obs.end());
      buf.masks.push_back(std::move(mask));
      buf.actions.push_back(action);
      actions[l] = action;
      ++r;
    }

    venv.step(actions, active);

    for (std::size_t l = 0; l < n_lanes; ++l) {
      if (current[l] == kIdle) continue;
      episodes[current[l]].rewards.push_back(venv.reward(l));
      // Early exit per lane: a finished (or mask-exhausted) episode frees the
      // lane for its next episode immediately; out of episodes, the lane
      // stays frozen while the stragglers run out.
      if (venv.done(l) || venv.action_mask(l).none()) begin_episode(l);
    }
  }
}

PpoUpdateStats PpoTrainer::update() {
  // ---- rollout collection ---------------------------------------------------
  std::vector<EpisodeBuffer> episodes(config_.episodes_per_update);
  collect(episodes);

  // ---- advantage estimation ------------------------------------------------
  PpoUpdateStats stats;
  std::vector<const std::vector<float>*> all_obs;
  std::vector<const util::BitVec*> all_masks;
  std::vector<std::uint32_t> all_actions;
  std::vector<float> all_old_logp;
  std::vector<float> all_adv;
  std::vector<float> all_ret;

  for (const auto& ep : episodes) {
    const std::size_t len = ep.rewards.size();
    if (len == 0) continue;
    stats.episodes++;
    stats.mean_episode_length += static_cast<double>(len);
    for (const float r : ep.rewards) stats.mean_episode_reward += r;

    const GaeResult gae =
        compute_gae(ep.rewards, ep.values, config_.gamma, config_.gae_lambda);
    for (std::size_t t = 0; t < len; ++t) {
      all_obs.push_back(&ep.observations[t]);
      all_masks.push_back(&ep.masks[t]);
      all_actions.push_back(ep.actions[t]);
      all_old_logp.push_back(ep.log_probs[t]);
      all_adv.push_back(gae.advantages[t]);
      all_ret.push_back(gae.returns[t]);
    }
  }
  const std::size_t n = all_actions.size();
  stats.steps = n;
  total_steps_ += n;
  total_episodes_ += stats.episodes;
  if (stats.episodes > 0) {
    stats.mean_episode_reward /= static_cast<double>(stats.episodes);
    stats.mean_episode_length /= static_cast<double>(stats.episodes);
  }
  if (n == 0) return stats;

  if (config_.normalize_advantages) normalize_advantages(all_adv);

  // ---- optimization ---------------------------------------------------------
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);

  // One matrix–matrix forward/backward per minibatch. The batched passes
  // preserve every per-element accumulation order of per-sample passes, so
  // the parameters match a per-sample loop bit for bit (MlpBatch tests), with
  // or without the pool.
  Mlp::BatchWorkspace policy_ws;
  Mlp::BatchWorkspace value_ws;
  std::vector<const float*> row_ptrs;  // minibatch rows, shuffled order
  std::vector<float> policy_grad;
  std::vector<float> value_grad;
  struct LossTerms { float policy, entropy; double value; };
  std::vector<LossTerms> terms;  // per row, summed serially in row order
  const std::size_t act_dim = policy_.output_size();
  double sum_policy_loss = 0.0;
  double sum_value_loss = 0.0;
  double sum_entropy = 0.0;
  std::size_t loss_samples = 0;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    shuffle_rng_.shuffle(order);
    for (std::size_t start = 0; start < n; start += config_.minibatch_size) {
      const std::size_t end = std::min(n, start + config_.minibatch_size);
      const std::size_t rows = end - start;
      const float inv_batch = 1.0f / static_cast<float>(rows);
      policy_.zero_grad();
      value_.zero_grad();

      // The shuffled minibatch rows stay in their episode buffers; the
      // row-pointer overloads read them in place (no gather copy).
      row_ptrs.resize(rows);
      for (std::size_t k = start; k < end; ++k)
        row_ptrs[k - start] = all_obs[order[k]]->data();
      const auto logits_all =
          policy_.forward_batch(row_ptrs.data(), rows, policy_ws, pool_);
      const auto values_all = value_.forward_batch(row_ptrs.data(), rows, value_ws, pool_);
      policy_grad.assign(rows * act_dim, 0.0f);
      value_grad.assign(rows, 0.0f);
      terms.resize(rows);

      // Rows are independent here: each writes only its own gradient rows and
      // loss terms.
      util::parallel_chunks(pool_, rows, [&](std::size_t, std::size_t begin,
                                             std::size_t stop) {
        for (std::size_t row = begin; row < stop; ++row) {
          const std::uint32_t i = order[start + row];
          const MaskedCategorical dist(logits_all.subspan(row * act_dim, act_dim),
                                       *all_masks[i]);
          const float new_logp = dist.log_prob(all_actions[i]);
          const float ratio = std::exp(new_logp - all_old_logp[i]);
          const float adv = all_adv[i];

          const float unclipped = ratio * adv;
          const float clipped =
              std::clamp(ratio, 1.0f - config_.clip_ratio, 1.0f + config_.clip_ratio) *
              adv;
          terms[row].policy = -std::min(unclipped, clipped);
          terms[row].entropy = dist.entropy();

          // Gradient of the clipped surrogate w.r.t. new_logp: zero when the
          // clipped branch is active (it is constant in θ), −A·ratio otherwise.
          const bool clip_active = clipped < unclipped;
          const float g = clip_active ? 0.0f : -adv * ratio * inv_batch;
          // Entropy bonus: loss term −c_eps·H ⇒ h = −c_eps (see add_grad docs).
          const float h = -config_.entropy_coef * inv_batch;
          dist.add_grad(all_actions[i], g, h,
                        std::span<float>(policy_grad).subspan(row * act_dim, act_dim));

          const float v_err = values_all[row] - all_ret[i];
          terms[row].value = 0.5 * static_cast<double>(v_err) * v_err;
          value_grad[row] = config_.value_coef * v_err * inv_batch;
        }
      });
      for (const LossTerms& t : terms) {
        sum_policy_loss += t.policy;
        sum_entropy += t.entropy;
        sum_value_loss += t.value;
      }
      loss_samples += rows;

      policy_.backward_batch(row_ptrs.data(), policy_ws, policy_grad, pool_);
      value_.backward_batch(row_ptrs.data(), value_ws, value_grad, pool_);
      policy_opt_.step(config_.max_grad_norm);
      value_opt_.step(config_.max_grad_norm);
      // Adam wrote the weights through params(); the batched forward reads
      // transposed copies that must follow.
      policy_.refresh_transpose();
      value_.refresh_transpose();
    }
  }

  if (loss_samples > 0) {
    stats.policy_loss = sum_policy_loss / static_cast<double>(loss_samples);
    stats.value_loss = sum_value_loss / static_cast<double>(loss_samples);
    stats.mean_entropy = sum_entropy / static_cast<double>(loss_samples);
    stats.entropy_loss = -stats.mean_entropy;
    stats.total_loss = stats.policy_loss + config_.entropy_coef * stats.entropy_loss +
                       config_.value_coef * stats.value_loss;
  }
  return stats;
}

}  // namespace deterrent::rl
