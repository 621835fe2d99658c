#include "core/artifact_cache.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <vector>

#include "util/faults.hpp"
#include "util/logging.hpp"

namespace deterrent::core {

namespace fs = std::filesystem;

std::uint64_t config_hash(const DeterrentConfig& config) {
  util::BinaryWriter w;
  write_config(w, config);
  util::Fnv1a hash;
  hash.mix(kArtifactFormatVersion);
  hash.mix(w.bytes().size());
  for (const std::uint8_t b : w.bytes()) hash.mix(b);
  return hash.value_nonzero();
}

namespace {

const char* kind_dir(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::SessionMeta: return "meta";
    case ArtifactKind::RareNets: return "rare_nets";
    case ArtifactKind::Compatibility: return "compatibility";
    case ArtifactKind::Policy: return "policy";
    case ArtifactKind::Patterns: return "patterns";
    case ArtifactKind::Lint: return "lint";
  }
  return "unknown";
}

std::string entry_name(std::uint64_t fingerprint, std::uint64_t cfg_hash) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 "-%016" PRIx64 "-v%u.art", fingerprint,
                cfg_hash, kArtifactFormatVersion);
  return buf;
}

bool is_entry_file(const fs::directory_entry& entry) {
  return entry.is_regular_file() && entry.path().extension() == ".art";
}

}  // namespace

ArtifactCache::ArtifactCache(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec)
    throw Error("ArtifactCache: cannot create directory " + root_ + ": " + ec.message());
}

std::string ArtifactCache::entry_path(std::uint64_t netlist_fingerprint,
                                      std::uint64_t cfg_hash, ArtifactKind kind) const {
  return (fs::path(root_) / kind_dir(kind) / entry_name(netlist_fingerprint, cfg_hash))
      .string();
}

bool ArtifactCache::fetch(std::uint64_t netlist_fingerprint, std::uint64_t cfg_hash,
                          ArtifactKind kind, const std::string& dest_path) {
  DETERRENT_FAULT_POINT("cache.fetch");
  const std::string entry = entry_path(netlist_fingerprint, cfg_hash, kind);
  std::error_code ec;
  if (!fs::exists(entry, ec)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Validate the whole envelope before handing anything out: a cache entry is
  // never trusted, exactly like a session artifact on resume. Corruption of
  // any flavor — torn file, bit flip, wrong kind, foreign fingerprint —
  // evicts the entry; the caller regenerates and re-publishes.
  try {
    (void)util::read_artifact_file(
        entry,
        {static_cast<std::uint32_t>(kind), kArtifactFormatVersion, netlist_fingerprint});
  } catch (const TransientError&) {
    // Says nothing about the bytes (momentary I/O failure); miss without
    // destroying a possibly-good entry.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  } catch (const Error& e) {
    fs::remove(entry, ec);
    evicted_corrupt_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    util::Log::warn("cache: evicted corrupt entry ", entry, " (", e.what(), ")");
    return false;
  }
  util::write_file_atomic(dest_path, util::read_file_bytes(entry));
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ArtifactCache::store(std::uint64_t netlist_fingerprint, std::uint64_t cfg_hash,
                          ArtifactKind kind, const std::string& src_path) {
  // Validate the source before publishing: the cache must never serve bytes
  // its own fetch-time check would evict.
  (void)util::read_artifact_file(
      src_path,
      {static_cast<std::uint32_t>(kind), kArtifactFormatVersion, netlist_fingerprint});
  const std::string entry = entry_path(netlist_fingerprint, cfg_hash, kind);
  std::error_code ec;
  fs::create_directories(fs::path(entry).parent_path(), ec);
  try {
    util::write_file_atomic(entry, util::read_file_bytes(src_path), "cache.store");
    stores_.fetch_add(1, std::memory_order_relaxed);
  } catch (const TransientError& e) {
    // A failed publish only costs a future cache miss; the session copy is
    // the authoritative one, so don't fail the run over it.
    util::Log::warn("cache: could not publish ", entry, " (", e.what(), ")");
  }
}

ArtifactCacheStats ArtifactCache::stats() const {
  ArtifactCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.evicted_corrupt = evicted_corrupt_.load(std::memory_order_relaxed);
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!is_entry_file(*it)) continue;
    ++s.entries;
    s.bytes += it->file_size(ec);
  }
  return s;
}

namespace {

// Collect-then-remove: deleting entries out from under a live directory
// iterator is implementation-defined.
std::size_t remove_matching(const std::string& root,
                            const std::function<bool(const fs::path&)>& match) {
  std::vector<fs::path> victims;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (is_entry_file(*it) && match(it->path())) victims.push_back(it->path());
  }
  std::size_t removed = 0;
  for (const auto& path : victims) {
    std::error_code rm;
    if (fs::remove(path, rm) && !rm) ++removed;
  }
  return removed;
}

}  // namespace

std::size_t ArtifactCache::evict_all() {
  return remove_matching(root_, [](const fs::path&) { return true; });
}

std::size_t ArtifactCache::evict_fingerprint(std::uint64_t netlist_fingerprint) {
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "%016" PRIx64 "-", netlist_fingerprint);
  return remove_matching(root_, [&](const fs::path& path) {
    return path.filename().string().rfind(prefix, 0) == 0;
  });
}

}  // namespace deterrent::core
