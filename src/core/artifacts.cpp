#include "core/artifacts.hpp"

namespace deterrent::core {

namespace {

util::ArtifactHeader header_for(ArtifactKind kind, std::uint64_t fingerprint) {
  return {static_cast<std::uint32_t>(kind), kArtifactFormatVersion, fingerprint};
}

void write_rng_state(util::BinaryWriter& w, const std::array<std::uint64_t, 4>& state) {
  for (const auto word : state) w.u64(word);
}

std::array<std::uint64_t, 4> read_rng_state(util::BinaryReader& r) {
  std::array<std::uint64_t, 4> state;
  for (auto& word : state) word = r.u64();
  return state;
}

void write_ppo_stats(util::BinaryWriter& w, const rl::PpoUpdateStats& s) {
  w.f64(s.mean_episode_reward);
  w.f64(s.mean_episode_length);
  w.f64(s.mean_entropy);
  w.f64(s.policy_loss);
  w.f64(s.value_loss);
  w.f64(s.entropy_loss);
  w.f64(s.total_loss);
  w.u64(s.steps);
  w.u64(s.episodes);
}

rl::PpoUpdateStats read_ppo_stats(util::BinaryReader& r) {
  rl::PpoUpdateStats s;
  s.mean_episode_reward = r.f64();
  s.mean_episode_length = r.f64();
  s.mean_entropy = r.f64();
  s.policy_loss = r.f64();
  s.value_loss = r.f64();
  s.entropy_loss = r.f64();
  s.total_loss = r.f64();
  s.steps = r.u64();
  s.episodes = r.u64();
  return s;
}

void write_snapshot(util::BinaryWriter& w, const TrainingSnapshot& s) {
  write_ppo_stats(w, s.ppo);
  w.u64(s.pool_size);
  w.u64(s.max_set_size);
  w.u64(s.cumulative_steps);
  w.u64(s.cumulative_episodes);
  w.u64(s.sat_queries);
  w.f64(s.elapsed_seconds);
}

TrainingSnapshot read_snapshot(util::BinaryReader& r) {
  TrainingSnapshot s;
  s.ppo = read_ppo_stats(r);
  s.pool_size = r.u64();
  s.max_set_size = r.u64();
  s.cumulative_steps = r.u64();
  s.cumulative_episodes = r.u64();
  s.sat_queries = r.u64();
  s.elapsed_seconds = r.f64();
  return s;
}

}  // namespace

// ------------------------------------------------------------- lint --------

void LintArtifact::save(const std::string& path) const {
  util::BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(fail_on));
  w.boolean(rejected);
  w.u64(report.suppressed);
  w.u64(report.diagnostics.size());
  for (const auto& d : report.diagnostics) {
    w.str(d.rule);
    w.u8(static_cast<std::uint8_t>(d.severity));
    w.u32(d.net);
    w.str(d.net_name);
    w.u64(d.line);
    w.str(d.message);
  }
  util::write_artifact_file(path, header_for(ArtifactKind::Lint, netlist_fingerprint),
                            w.bytes());
}

LintArtifact LintArtifact::load(const std::string& path,
                                std::uint64_t expected_fingerprint) {
  LintArtifact a;
  const auto payload = util::read_artifact_file(
      path, header_for(ArtifactKind::Lint, expected_fingerprint),
      &a.netlist_fingerprint);
  util::BinaryReader r(payload);
  a.fail_on = static_cast<analysis::LintSeverity>(r.u8());
  a.rejected = r.boolean();
  a.report.suppressed = r.u64();
  const std::uint64_t n = r.u64();
  a.report.diagnostics.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    analysis::LintDiagnostic d;
    d.rule = r.str();
    d.severity = static_cast<analysis::LintSeverity>(r.u8());
    d.net = r.u32();
    d.net_name = r.str();
    d.line = r.u64();
    d.message = r.str();
    a.report.diagnostics.push_back(std::move(d));
  }
  r.expect_end();
  return a;
}

// ------------------------------------------------------- rare nets ---------

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
  util::BinaryWriter w;
  w.f64(threshold);
  w.u64(seed);
  write_rng_state(w, rng_state_after);
  w.u64(rare_nets.size());
  for (const auto& rn : rare_nets) {
    w.u32(rn.net);
    w.boolean(rn.rare_value);
    w.f64(rn.probability);
  }
  util::write_artifact_file(path, header_for(ArtifactKind::RareNets, netlist_fingerprint),
                            w.bytes());
}

RareNetArtifact RareNetArtifact::load(const std::string& path,
                                      std::uint64_t expected_fingerprint) {
  RareNetArtifact a;
  const auto payload = util::read_artifact_file(
      path, header_for(ArtifactKind::RareNets, expected_fingerprint),
      &a.netlist_fingerprint);
  util::BinaryReader r(payload);
  a.threshold = r.f64();
  a.seed = r.u64();
  a.rng_state_after = read_rng_state(r);
  const std::uint64_t n = r.u64();
  a.rare_nets.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    analysis::RareNet rn;
    rn.net = r.u32();
    rn.rare_value = r.boolean();
    rn.probability = r.f64();
    a.rare_nets.push_back(rn);
  }
  r.expect_end();
  return a;
}

// --------------------------------------------------- compatibility ---------

void CompatibilityArtifact::save(const std::string& path) const {
  util::BinaryWriter w;
  w.u64(rare_hash);
  w.u64(matrix.size());
  for (std::uint32_t i = 0; i < matrix.size(); ++i) w.bitvec(matrix.row(i));
  w.bitvec_vec(witness_signatures);
  w.u64(stats.pair_count);
  w.u64(stats.sim_resolved);
  w.u64(stats.sat_sat);
  w.u64(stats.sat_unsat);
  w.u64(stats.timeout_pairs);
  w.u64(stats.unsat_singletons);
  w.f64(stats.build_seconds);
  util::write_artifact_file(
      path, header_for(ArtifactKind::Compatibility, netlist_fingerprint), w.bytes());
}

CompatibilityArtifact CompatibilityArtifact::load(const std::string& path,
                                                  std::uint64_t expected_fingerprint) {
  CompatibilityArtifact a;
  const auto payload = util::read_artifact_file(
      path, header_for(ArtifactKind::Compatibility, expected_fingerprint),
      &a.netlist_fingerprint);
  util::BinaryReader r(payload);
  a.rare_hash = r.u64();
  const std::uint64_t n = r.u64();
  std::vector<util::BitVec> rows;
  rows.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) rows.push_back(r.bitvec());
  a.matrix = analysis::CompatibilityMatrix::from_rows(std::move(rows));
  a.witness_signatures = r.bitvec_vec();
  if (!a.witness_signatures.empty() && a.witness_signatures.size() != n)
    throw Error("artifact " + path + ": witness signature count " +
                std::to_string(a.witness_signatures.size()) +
                " does not match matrix size " + std::to_string(n));
  a.stats.pair_count = r.u64();
  a.stats.sim_resolved = r.u64();
  a.stats.sat_sat = r.u64();
  a.stats.sat_unsat = r.u64();
  a.stats.timeout_pairs = r.u64();
  a.stats.unsat_singletons = r.u64();
  a.stats.build_seconds = r.f64();
  r.expect_end();
  return a;
}

// ----------------------------------------------------------- policy --------

void PolicyArtifact::save(const std::string& path) const {
  util::BinaryWriter w;
  w.u64(rare_hash);
  w.f32_vec(trainer.policy_params);
  w.f32_vec(trainer.value_params);
  w.f32_vec(trainer.policy_opt.m);
  w.f32_vec(trainer.policy_opt.v);
  w.u64(trainer.policy_opt.t);
  w.f32_vec(trainer.value_opt.m);
  w.f32_vec(trainer.value_opt.v);
  w.u64(trainer.value_opt.t);
  w.u64(trainer.rng_states.size());
  for (const auto& state : trainer.rng_states) write_rng_state(w, state);
  w.u64(trainer.seed);
  w.u64(trainer.total_steps);
  w.u64(trainer.total_episodes);
  w.bitvec_vec(pool_sets);
  w.u64(history.size());
  for (const auto& snap : history) write_snapshot(w, snap);
  w.f64(train_seconds);
  util::write_artifact_file(path, header_for(ArtifactKind::Policy, netlist_fingerprint),
                            w.bytes());
}

PolicyArtifact PolicyArtifact::load(const std::string& path,
                                    std::uint64_t expected_fingerprint) {
  PolicyArtifact a;
  const auto payload = util::read_artifact_file(
      path, header_for(ArtifactKind::Policy, expected_fingerprint),
      &a.netlist_fingerprint);
  util::BinaryReader r(payload);
  a.rare_hash = r.u64();
  a.trainer.policy_params = r.f32_vec();
  a.trainer.value_params = r.f32_vec();
  a.trainer.policy_opt.m = r.f32_vec();
  a.trainer.policy_opt.v = r.f32_vec();
  a.trainer.policy_opt.t = r.u64();
  a.trainer.value_opt.m = r.f32_vec();
  a.trainer.value_opt.v = r.f32_vec();
  a.trainer.value_opt.t = r.u64();
  const std::uint64_t n_rngs = r.u64();
  a.trainer.rng_states.reserve(n_rngs);
  for (std::uint64_t i = 0; i < n_rngs; ++i)
    a.trainer.rng_states.push_back(read_rng_state(r));
  a.trainer.seed = r.u64();
  a.trainer.total_steps = r.u64();
  a.trainer.total_episodes = r.u64();
  a.pool_sets = r.bitvec_vec();
  const std::uint64_t n_snaps = r.u64();
  a.history.reserve(n_snaps);
  for (std::uint64_t i = 0; i < n_snaps; ++i) a.history.push_back(read_snapshot(r));
  a.train_seconds = r.f64();
  r.expect_end();
  return a;
}

// ---------------------------------------------------------- patterns -------

void PatternArtifact::save(const std::string& path) const {
  util::BinaryWriter w;
  w.u64(rare_hash);
  w.u64(patterns.input_count());
  w.u64(patterns.pattern_count());
  for (std::size_t p = 0; p < patterns.pattern_count(); ++p) w.bitvec(patterns.pattern(p));
  w.bitvec_vec(extracted_sets);
  util::write_artifact_file(path, header_for(ArtifactKind::Patterns, netlist_fingerprint),
                            w.bytes());
}

PatternArtifact PatternArtifact::load(const std::string& path,
                                      std::uint64_t expected_fingerprint) {
  PatternArtifact a;
  const auto payload = util::read_artifact_file(
      path, header_for(ArtifactKind::Patterns, expected_fingerprint),
      &a.netlist_fingerprint);
  util::BinaryReader r(payload);
  a.rare_hash = r.u64();
  const std::uint64_t input_count = r.u64();
  const std::uint64_t n_patterns = r.u64();
  a.patterns = sim::PatternSet(input_count);
  for (std::uint64_t p = 0; p < n_patterns; ++p) {
    const util::BitVec pattern = r.bitvec();
    if (pattern.size() != input_count)
      throw Error("artifact " + path + ": pattern width " +
                  std::to_string(pattern.size()) + " does not match input count " +
                  std::to_string(input_count));
    a.patterns.push(pattern);
  }
  a.extracted_sets = r.bitvec_vec();
  r.expect_end();
  return a;
}

// ------------------------------------------------------------ config -------

void write_config(util::BinaryWriter& w, const DeterrentConfig& config) {
  w.boolean(config.lint.enabled);
  w.u8(static_cast<std::uint8_t>(config.lint.fail_on));
  w.u64(config.lint.disabled.size());
  for (const auto& rule : config.lint.disabled) w.str(rule);
  w.f64(config.lint.unexcitable_prob);
  w.u32(config.lint.shadow_co);
  w.u32(config.lint.trigger_width);
  w.f64(config.lint.trigger_prob);
  w.u64(config.lint.trigger_max_fanout);
  w.u64(config.lint.max_per_rule);
  w.f64(config.rare.threshold);
  w.u64(config.rare.sim_patterns);
  w.boolean(config.rare.exclude_untoggled);
  w.boolean(config.rare.exclude_inputs);
  w.u64(config.compat.sim_patterns);
  w.i64(config.compat.sat_conflict_budget);
  // Legacy slots of the removed SAT inprocessing and portfolio knobs, kept
  // at their old defaults (inprocess, portfolio_threads, share_lbd_cap) so
  // the v5 layout, config_hash and cached artifacts stay unchanged.
  w.boolean(true);
  w.u64(0);
  w.u32(6);
  w.u64(config.compat.shard_count);
  w.u8(static_cast<std::uint8_t>(config.env.reward_mode));
  w.u8(static_cast<std::uint8_t>(config.env.mask_mode));
  w.u64(config.env.max_steps);
  w.i64(config.env.sat_conflict_budget);
  w.f64(config.env.reward_exponent);
  w.u64(config.env.eoe_repair_budget);
  w.u64(config.env.sat_dispatch_threads);
  w.f32(config.ppo.gamma);
  w.f32(config.ppo.gae_lambda);
  w.f32(config.ppo.clip_ratio);
  w.f32(config.ppo.learning_rate);
  w.f32(config.ppo.entropy_coef);
  w.f32(config.ppo.value_coef);
  w.f32(config.ppo.max_grad_norm);
  w.u32(static_cast<std::uint32_t>(config.ppo.epochs));
  w.u64(config.ppo.minibatch_size);
  w.u64(config.ppo.episodes_per_update);
  w.u64(config.ppo.hidden_size);
  w.u64(config.ppo.hidden_layers);
  w.u64(config.ppo.n_workers);
  w.u64(config.ppo.rollout_lanes);
  w.boolean(config.ppo.normalize_advantages);
  w.u64(config.updates);
  w.u64(config.k_patterns);
  w.u64(config.seed);
  w.u64(config.offline_threads);
}

DeterrentConfig read_config(util::BinaryReader& r) {
  DeterrentConfig config;
  config.lint.enabled = r.boolean();
  config.lint.fail_on = static_cast<analysis::LintSeverity>(r.u8());
  const std::uint64_t n_disabled = r.u64();
  config.lint.disabled.clear();
  config.lint.disabled.reserve(n_disabled);
  for (std::uint64_t i = 0; i < n_disabled; ++i) config.lint.disabled.push_back(r.str());
  config.lint.unexcitable_prob = r.f64();
  config.lint.shadow_co = r.u32();
  config.lint.trigger_width = r.u32();
  config.lint.trigger_prob = r.f64();
  config.lint.trigger_max_fanout = r.u64();
  config.lint.max_per_rule = r.u64();
  config.rare.threshold = r.f64();
  config.rare.sim_patterns = r.u64();
  config.rare.exclude_untoggled = r.boolean();
  config.rare.exclude_inputs = r.boolean();
  config.compat.sim_patterns = r.u64();
  config.compat.sat_conflict_budget = r.i64();
  // The three legacy SAT-knob slots (see write_config) are read and ignored,
  // so sessions written with non-default values still load.
  (void)r.boolean();
  (void)r.u64();
  (void)r.u32();
  config.compat.shard_count = r.u64();
  config.env.reward_mode = static_cast<RewardMode>(r.u8());
  config.env.mask_mode = static_cast<MaskMode>(r.u8());
  config.env.max_steps = r.u64();
  config.env.sat_conflict_budget = r.i64();
  config.env.reward_exponent = r.f64();
  config.env.eoe_repair_budget = r.u64();
  config.env.sat_dispatch_threads = r.u64();
  config.ppo.gamma = r.f32();
  config.ppo.gae_lambda = r.f32();
  config.ppo.clip_ratio = r.f32();
  config.ppo.learning_rate = r.f32();
  config.ppo.entropy_coef = r.f32();
  config.ppo.value_coef = r.f32();
  config.ppo.max_grad_norm = r.f32();
  config.ppo.epochs = static_cast<int>(r.u32());
  config.ppo.minibatch_size = r.u64();
  config.ppo.episodes_per_update = r.u64();
  config.ppo.hidden_size = r.u64();
  config.ppo.hidden_layers = r.u64();
  config.ppo.n_workers = r.u64();
  config.ppo.rollout_lanes = r.u64();
  config.ppo.normalize_advantages = r.boolean();
  config.updates = r.u64();
  config.k_patterns = r.u64();
  config.seed = r.u64();
  config.offline_threads = r.u64();
  return config;
}

}  // namespace deterrent::core
