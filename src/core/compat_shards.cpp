#include "core/compat_shards.hpp"

#include <filesystem>
#include <memory>

#include "util/logging.hpp"
#include "util/timer.hpp"

namespace deterrent::core {

namespace fs = std::filesystem;

namespace {

util::ArtifactHeader header_for(ArtifactKind kind, std::uint64_t fingerprint) {
  return {static_cast<std::uint32_t>(kind), kArtifactFormatVersion, fingerprint};
}

std::string shard_file(const std::string& dir, std::size_t index) {
  return (fs::path(dir) / ("shard_" + std::to_string(index) + ".art")).string();
}

std::string manifest_file(const std::string& dir) {
  return (fs::path(dir) / "manifest.art").string();
}

}  // namespace

// ------------------------------------------------------------ partial ------

void CompatShardPartial::save(const std::string& path) const {
  util::BinaryWriter w;
  w.u64(rare_hash);
  w.u32(shard_index);
  w.u32(row_begin);
  w.u32(row_end);
  w.u64(matrix.size());
  for (std::uint32_t i = 0; i < matrix.size(); ++i) w.bitvec(matrix.row(i));
  w.u64(stats.pair_count);
  w.u64(stats.sim_resolved);
  w.u64(stats.sat_sat);
  w.u64(stats.sat_unsat);
  w.u64(stats.timeout_pairs);
  util::write_artifact_file(
      path, header_for(ArtifactKind::CompatShardPartial, netlist_fingerprint),
      w.bytes());
}

CompatShardPartial CompatShardPartial::load(const std::string& path,
                                            std::uint64_t expected_fingerprint) {
  CompatShardPartial a;
  const auto payload = util::read_artifact_file(
      path, header_for(ArtifactKind::CompatShardPartial, expected_fingerprint),
      &a.netlist_fingerprint);
  util::BinaryReader r(payload);
  a.rare_hash = r.u64();
  a.shard_index = r.u32();
  a.row_begin = r.u32();
  a.row_end = r.u32();
  const std::uint64_t n = r.u64();
  std::vector<util::BitVec> rows;
  rows.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) rows.push_back(r.bitvec());
  a.matrix = analysis::CompatibilityMatrix::from_rows(std::move(rows));
  a.stats.pair_count = r.u64();
  a.stats.sim_resolved = r.u64();
  a.stats.sat_sat = r.u64();
  a.stats.sat_unsat = r.u64();
  a.stats.timeout_pairs = r.u64();
  r.expect_end();
  return a;
}

// ----------------------------------------------------------- manifest ------

void CompatShardManifest::save(const std::string& path) const {
  util::BinaryWriter w;
  w.u64(rare_hash);
  w.u64(build_hash);
  w.u64(shard_count);
  w.u64(ranges.size());
  for (const auto& [begin, end] : ranges) {
    w.u32(begin);
    w.u32(end);
  }
  util::write_artifact_file(
      path, header_for(ArtifactKind::CompatShardManifest, netlist_fingerprint),
      w.bytes());
}

CompatShardManifest CompatShardManifest::load(const std::string& path,
                                              std::uint64_t expected_fingerprint) {
  CompatShardManifest a;
  const auto payload = util::read_artifact_file(
      path, header_for(ArtifactKind::CompatShardManifest, expected_fingerprint),
      &a.netlist_fingerprint);
  util::BinaryReader r(payload);
  a.rare_hash = r.u64();
  a.build_hash = r.u64();
  a.shard_count = r.u64();
  const std::uint64_t n = r.u64();
  a.ranges.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t begin = r.u32();
    const std::uint32_t end = r.u32();
    a.ranges.emplace_back(begin, end);
  }
  r.expect_end();
  return a;
}

std::uint64_t compat_build_hash(const analysis::CompatibilityBuildConfig& config,
                                std::span<const util::BitVec> signatures) {
  util::Fnv1a hash;
  hash.mix(config.sim_patterns);
  hash.mix(static_cast<std::uint64_t>(config.sat_conflict_budget));
  hash.mix(config.shard_count);
  hash.mix(signatures.size());
  for (const auto& sig : signatures) {
    hash.mix(sig.size());
    for (std::size_t w = 0; w < sig.word_count(); ++w) hash.mix(sig.word(w));
  }
  return hash.value_nonzero();
}

// -------------------------------------------------------- orchestrator -----

analysis::CompatibilityMatrix build_sharded_compatibility(
    const netlist::Netlist& netlist, std::span<const analysis::RareNet> rare_nets,
    const analysis::CompatibilityBuildConfig& config, util::Rng& rng,
    util::ThreadPool* pool, analysis::CompatibilityBuildStats* stats,
    std::vector<util::BitVec>* signatures_out, const std::string& scratch_dir,
    std::uint64_t netlist_fingerprint, std::uint64_t rare_hash) {
  if (config.shard_count < 2 || scratch_dir.empty())
    return analysis::build_compatibility(netlist, rare_nets, config, rng, pool, stats,
                                         signatures_out);

  util::Stopwatch watch;
  const std::size_t n = rare_nets.size();
  analysis::CompatibilityBuildStats local_stats;
  local_stats.pair_count = n * (n + 1) / 2;

  // Phase 1 runs once, continuing the caller's RNG stream exactly as the
  // monolithic build would — signatures (and therefore every downstream bit)
  // cannot depend on how the SAT phase is chunked.
  auto signatures = analysis::rare_activation_signatures(
      netlist, rare_nets, config.sim_patterns, rng, pool);
  const std::uint64_t build_hash = compat_build_hash(config, signatures);
  const auto ranges = analysis::compatibility_shard_ranges(n, config.shard_count);

  std::error_code ec;
  fs::create_directories(scratch_dir, ec);
  if (ec)
    throw Error("compat shards: cannot create scratch directory " + scratch_dir + ": " +
                ec.message());

  // Adopt the scratch directory only when its manifest matches this exact
  // build; anything else — corrupt, version-skewed, or produced by different
  // inputs — is stale and the directory restarts empty.
  const std::string manifest_path = manifest_file(scratch_dir);
  bool manifest_ok = false;
  if (fs::exists(manifest_path, ec)) {
    try {
      const auto manifest = CompatShardManifest::load(manifest_path, netlist_fingerprint);
      manifest_ok = manifest.rare_hash == rare_hash &&
                    manifest.build_hash == build_hash &&
                    manifest.shard_count == ranges.size() && manifest.ranges == ranges;
    } catch (const TransientError&) {
      throw;
    } catch (const Error& e) {
      util::Log::warn("compat shards: discarding corrupt manifest ", manifest_path, " (",
                      e.what(), ")");
    }
  }
  if (!manifest_ok) {
    fs::remove_all(scratch_dir, ec);
    fs::create_directories(scratch_dir, ec);
    CompatShardManifest manifest;
    manifest.netlist_fingerprint = netlist_fingerprint;
    manifest.rare_hash = rare_hash;
    manifest.build_hash = build_hash;
    manifest.shard_count = ranges.size();
    manifest.ranges = ranges;
    manifest.save(manifest_path);
  }

  // Load the partials that survived a previous attempt; corrupt ones are
  // removed and rebuilt (the quarantine-and-regenerate contract).
  std::vector<std::unique_ptr<CompatShardPartial>> partials(ranges.size());
  std::vector<std::size_t> missing;
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    const std::string path = shard_file(scratch_dir, s);
    if (manifest_ok && fs::exists(path, ec)) {
      try {
        auto partial = std::make_unique<CompatShardPartial>(
            CompatShardPartial::load(path, netlist_fingerprint));
        if (partial->rare_hash == rare_hash && partial->shard_index == s &&
            partial->row_begin == ranges[s].first &&
            partial->row_end == ranges[s].second && partial->matrix.size() == n) {
          partials[s] = std::move(partial);
          continue;
        }
        util::Log::warn("compat shards: shard ", s, " does not match the manifest; rebuilding");
      } catch (const TransientError&) {
        throw;
      } catch (const Error& e) {
        util::Log::warn("compat shards: removing corrupt ", path, " (", e.what(), ")");
      }
      fs::remove(path, ec);
    }
    missing.push_back(s);
  }

  // Build (and persist) the missing shards across the pool, one private SAT
  // oracle per shard, each shard single-threaded.
  auto build_one = [&](std::size_t s) {
    auto partial = std::make_unique<CompatShardPartial>();
    partial->netlist_fingerprint = netlist_fingerprint;
    partial->rare_hash = rare_hash;
    partial->shard_index = static_cast<std::uint32_t>(s);
    partial->row_begin = ranges[s].first;
    partial->row_end = ranges[s].second;
    partial->matrix = analysis::build_compatibility_shard(
        netlist, rare_nets, config, signatures, ranges[s].first, ranges[s].second,
        &partial->stats);
    partial->save(shard_file(scratch_dir, s));
    partials[s] = std::move(partial);
  };
  if (pool != nullptr && pool->thread_count() > 1 && missing.size() > 1) {
    pool->parallel_for(missing.size(), [&](std::size_t k) { build_one(missing[k]); });
  } else {
    for (const std::size_t s : missing) build_one(s);
  }

  // Merge in shard order (deterministic), then the shared finalize pass.
  analysis::CompatibilityMatrix matrix(n);
  for (const auto& partial : partials) {
    matrix.merge_or(partial->matrix);
    local_stats.add_pair_counts(partial->stats);
  }
  if (signatures_out != nullptr) *signatures_out = std::move(signatures);
  local_stats.unsat_singletons = analysis::finalize_compatibility(matrix);
  local_stats.build_seconds = watch.elapsed_seconds();
  if (stats != nullptr) *stats = local_stats;
  return matrix;
}

}  // namespace deterrent::core
