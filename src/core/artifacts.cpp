#include "core/artifacts.hpp"

#include <type_traits>

namespace deterrent::core {

namespace {

// Each payload layout is stated once, as a field list over `io`: a
// util::BinaryWriter with a const value saves it, a util::BinaryReader with a
// fresh value loads it (the two share their method names). The reader bounds
// every sequence count; checks only a load needs sit behind kLoads<IO>. The
// second argument of `seq` is the fewest bytes one element can take.

template <class IO>
constexpr bool kLoads = std::is_same_v<IO, util::BinaryReader>;

/// `T` as a field list sees it: const when saving, writable when loading.
template <class IO, class T>
using Fields = std::conditional_t<kLoads<IO>, T, const T>;

template <class IO>
void fields(IO& io, Fields<IO, std::array<std::uint64_t, 4>>& rng_state) {
  for (auto& word : rng_state) io.u64(word);
}

template <class IO>
void fields(IO& io, Fields<IO, rl::PpoUpdateStats>& s) {
  io.f64(s.mean_episode_reward);
  io.f64(s.mean_episode_length);
  io.f64(s.mean_entropy);
  io.f64(s.policy_loss);
  io.f64(s.value_loss);
  io.f64(s.entropy_loss);
  io.f64(s.total_loss);
  io.u64(s.steps);
  io.u64(s.episodes);
}

template <class IO>
void fields(IO& io, Fields<IO, TrainingSnapshot>& s) {
  fields(io, s.ppo);
  io.u64(s.pool_size);
  io.u64(s.max_set_size);
  io.u64(s.cumulative_steps);
  io.u64(s.cumulative_episodes);
  io.u64(s.sat_queries);
  io.f64(s.elapsed_seconds);
}

template <class IO>
void fields(IO& io, Fields<IO, LintArtifact>& a) {
  io.enum8(a.fail_on, analysis::LintSeverity::Error);
  io.boolean(a.rejected);
  io.u64(a.report.suppressed);
  io.seq(a.report.diagnostics, 37, [&](auto& d) {
    io.str(d.rule);
    io.enum8(d.severity, analysis::LintSeverity::Error);
    io.u32(d.net);
    io.str(d.net_name);
    io.u64(d.line);
    io.str(d.message);
  });
}

template <class IO>
void fields(IO& io, Fields<IO, RareNetArtifact>& a) {
  io.f64(a.threshold);
  io.u64(a.seed);
  fields(io, a.rng_state_after);
  io.seq(a.rare_nets, 13, [&](auto& rn) {
    io.u32(rn.net);
    io.boolean(rn.rare_value);
    io.f64(rn.probability);
  });
}

template <class IO>
void fields(IO& io, Fields<IO, CompatibilityArtifact>& a) {
  io.u64(a.rare_hash);
  if constexpr (kLoads<IO>) {
    std::vector<util::BitVec> rows;
    io.bitvec_vec(rows);
    a.matrix = analysis::CompatibilityMatrix::from_rows(std::move(rows));
  } else {
    io.bitvec_vec(a.matrix.rows());
  }
  io.bitvec_vec(a.witness_signatures);
  if (kLoads<IO> && !a.witness_signatures.empty() &&
      a.witness_signatures.size() != a.matrix.size())
    throw CorruptArtifactError("witness signature count " +
                               std::to_string(a.witness_signatures.size()) +
                               " does not match matrix size " +
                               std::to_string(a.matrix.size()));
  io.u64(a.stats.pair_count);
  io.u64(a.stats.sim_resolved);
  io.u64(a.stats.sat_sat);
  io.u64(a.stats.sat_unsat);
  io.u64(a.stats.timeout_pairs);
  io.u64(a.stats.unsat_singletons);
  io.f64(a.stats.build_seconds);
}

template <class IO>
void fields(IO& io, Fields<IO, PolicyArtifact>& a) {
  auto& t = a.trainer;
  io.u64(a.rare_hash);
  io.f32_vec(t.policy_params);
  io.f32_vec(t.value_params);
  io.f32_vec(t.policy_opt.m);
  io.f32_vec(t.policy_opt.v);
  io.u64(t.policy_opt.t);
  io.f32_vec(t.value_opt.m);
  io.f32_vec(t.value_opt.v);
  io.u64(t.value_opt.t);
  io.seq(t.rng_states, 32, [&](auto& state) { fields(io, state); });
  io.u64(t.seed);
  io.u64(t.total_steps);
  io.u64(t.total_episodes);
  io.bitvec_vec(a.pool_sets);
  io.seq(a.history, 120, [&](auto& snapshot) { fields(io, snapshot); });
  io.f64(a.train_seconds);
}

template <class IO>
void fields(IO& io, Fields<IO, PatternArtifact>& a) {
  io.u64(a.rare_hash);
  // The set is stored input-major; on disk it is its input count and one
  // bitvec per pattern.
  std::uint64_t input_count = a.patterns.input_count();
  std::vector<util::BitVec> rows;
  if constexpr (!kLoads<IO>)
    for (std::size_t p = 0; p < a.patterns.pattern_count(); ++p)
      rows.push_back(a.patterns.pattern(p));
  io.u64(input_count);
  io.bitvec_vec(rows);
  if constexpr (kLoads<IO>) {
    a.patterns = sim::PatternSet(input_count);
    for (const auto& row : rows) {
      if (row.size() != input_count)
        throw CorruptArtifactError("pattern width " + std::to_string(row.size()) +
                                   " does not match input count " +
                                   std::to_string(input_count));
      a.patterns.push(row);
    }
  }
  io.bitvec_vec(a.extracted_sets);
}

template <class IO>
void fields(IO& io, Fields<IO, DeterrentConfig>& c) {
  io.boolean(c.lint.enabled);
  io.enum8(c.lint.fail_on, analysis::LintSeverity::Error);
  io.seq(c.lint.disabled, 8, [&](auto& rule) { io.str(rule); });
  io.f64(c.lint.unexcitable_prob);
  io.u32(c.lint.shadow_co);
  io.u32(c.lint.trigger_width);
  io.f64(c.lint.trigger_prob);
  io.u64(c.lint.trigger_max_fanout);
  io.u64(c.lint.max_per_rule);
  io.f64(c.rare.threshold);
  io.u64(c.rare.sim_patterns);
  io.boolean(c.rare.exclude_untoggled);
  io.boolean(c.rare.exclude_inputs);
  io.u64(c.compat.sim_patterns);
  io.i64(c.compat.sat_conflict_budget);
  // Legacy slots of the removed SAT inprocessing and portfolio knobs
  // (inprocess, portfolio_threads, share_lbd_cap): saved at their old
  // defaults so the v5 layout, config_hash and cached artifacts stay
  // unchanged, and ignored on load so sessions saved with other values load.
  bool inprocess = true;
  std::uint64_t portfolio_threads = 0;
  std::uint32_t share_lbd_cap = 6;
  io.boolean(inprocess);
  io.u64(portfolio_threads);
  io.u32(share_lbd_cap);
  io.u64(c.compat.shard_count);
  io.enum8(c.env.reward_mode, RewardMode::EndOfEpisode);
  io.enum8(c.env.mask_mode, MaskMode::None);
  io.u64(c.env.max_steps);
  io.i64(c.env.sat_conflict_budget);
  io.f64(c.env.reward_exponent);
  io.u64(c.env.eoe_repair_budget);
  io.u64(c.env.sat_dispatch_threads);
  io.f32(c.ppo.gamma);
  io.f32(c.ppo.gae_lambda);
  io.f32(c.ppo.clip_ratio);
  io.f32(c.ppo.learning_rate);
  io.f32(c.ppo.entropy_coef);
  io.f32(c.ppo.value_coef);
  io.f32(c.ppo.max_grad_norm);
  io.i32(c.ppo.epochs);
  io.u64(c.ppo.minibatch_size);
  io.u64(c.ppo.episodes_per_update);
  io.u64(c.ppo.hidden_size);
  io.u64(c.ppo.hidden_layers);
  io.u64(c.ppo.n_workers);
  io.u64(c.ppo.rollout_lanes);
  io.boolean(c.ppo.normalize_advantages);
  io.u64(c.updates);
  io.u64(c.k_patterns);
  io.u64(c.seed);
  io.u64(c.offline_threads);
}

template <class T>
void save_payload(const std::string& path, ArtifactKind kind, std::uint64_t fingerprint,
                  const T& value) {
  util::BinaryWriter w;
  fields(w, value);
  util::write_artifact_file(
      path, {static_cast<std::uint32_t>(kind), kArtifactFormatVersion, fingerprint},
      w.bytes());
}

template <class T>
void load_payload(const std::string& path, ArtifactKind kind,
                  std::uint64_t expected_fingerprint, T& value,
                  std::uint64_t* fingerprint_out = nullptr) {
  const auto payload = util::read_artifact_file(
      path, {static_cast<std::uint32_t>(kind), kArtifactFormatVersion, expected_fingerprint},
      fingerprint_out);
  util::BinaryReader r(payload);
  try {
    fields(r, value);
    r.expect_end();
  } catch (const Error& e) {
    throw CorruptArtifactError("artifact " + path + ": " + e.what());
  }
}

}  // namespace

void LintArtifact::save(const std::string& path) const {
  save_payload(path, ArtifactKind::Lint, netlist_fingerprint, *this);
}

LintArtifact LintArtifact::load(const std::string& path,
                                std::uint64_t expected_fingerprint) {
  LintArtifact a;
  load_payload(path, ArtifactKind::Lint, expected_fingerprint, a, &a.netlist_fingerprint);
  return a;
}

std::uint64_t rare_content_hash(std::uint64_t netlist_fingerprint,
                                std::span<const analysis::RareNet> rare_nets) {
  util::Fnv1a hash;
  hash.mix(netlist_fingerprint);
  hash.mix(rare_nets.size());
  for (const auto& rn : rare_nets) {
    hash.mix(rn.net);
    hash.mix(rn.rare_value ? 1 : 0);
  }
  return hash.value_nonzero();
}

std::uint64_t RareNetArtifact::rare_hash() const {
  return rare_content_hash(netlist_fingerprint, rare_nets);
}

void RareNetArtifact::save(const std::string& path) const {
  save_payload(path, ArtifactKind::RareNets, netlist_fingerprint, *this);
}

RareNetArtifact RareNetArtifact::load(const std::string& path,
                                      std::uint64_t expected_fingerprint) {
  RareNetArtifact a;
  load_payload(path, ArtifactKind::RareNets, expected_fingerprint, a, &a.netlist_fingerprint);
  return a;
}

void CompatibilityArtifact::save(const std::string& path) const {
  save_payload(path, ArtifactKind::Compatibility, netlist_fingerprint, *this);
}

CompatibilityArtifact CompatibilityArtifact::load(const std::string& path,
                                                  std::uint64_t expected_fingerprint) {
  CompatibilityArtifact a;
  load_payload(path, ArtifactKind::Compatibility, expected_fingerprint, a,
               &a.netlist_fingerprint);
  return a;
}

void PolicyArtifact::save(const std::string& path) const {
  save_payload(path, ArtifactKind::Policy, netlist_fingerprint, *this);
}

PolicyArtifact PolicyArtifact::load(const std::string& path,
                                    std::uint64_t expected_fingerprint) {
  PolicyArtifact a;
  load_payload(path, ArtifactKind::Policy, expected_fingerprint, a, &a.netlist_fingerprint);
  return a;
}

void PatternArtifact::save(const std::string& path) const {
  save_payload(path, ArtifactKind::Patterns, netlist_fingerprint, *this);
}

PatternArtifact PatternArtifact::load(const std::string& path,
                                      std::uint64_t expected_fingerprint) {
  PatternArtifact a;
  load_payload(path, ArtifactKind::Patterns, expected_fingerprint, a, &a.netlist_fingerprint);
  return a;
}

void write_config(util::BinaryWriter& w, const DeterrentConfig& config) { fields(w, config); }

DeterrentConfig read_config(util::BinaryReader& r) {
  DeterrentConfig config;
  fields(r, config);
  return config;
}

void save_session_meta(const std::string& path, std::uint64_t fingerprint,
                       const DeterrentConfig& config) {
  save_payload(path, ArtifactKind::SessionMeta, fingerprint, config);
}

DeterrentConfig load_session_meta(const std::string& path, std::uint64_t expected_fingerprint) {
  DeterrentConfig config;
  load_payload(path, ArtifactKind::SessionMeta, expected_fingerprint, config);
  return config;
}

}  // namespace deterrent::core
