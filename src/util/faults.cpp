#include "util/faults.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/rng.hpp"
#include "util/watchdog.hpp"

namespace deterrent::util::faults {

namespace {

struct Site {
  FaultSpec spec;
  std::uint64_t seed = 0;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fired{0};
};

/// Armed specs plus counters. The mutex guards the map structure only; hit
/// counting is atomic so concurrent sites never serialize on each other
/// beyond the lookup.
struct Registry {
  std::mutex mutex;
  std::unordered_map<std::string, std::unique_ptr<Site>> sites;
};

Registry& registry() {
  static Registry r;
  return r;
}

Site* find_site(const char* name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  const auto it = r.sites.find(name);
  return it == r.sites.end() ? nullptr : it->second.get();
}

std::uint64_t site_hash(const std::string& site) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : site) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Deterministic per-hit firing decision: hashes (seed, site, hit index), so
/// a fixed seed fires on the same hit numbers regardless of which threads
/// reach the site in which order.
bool fires(const Site& site, const std::string& name, std::uint64_t hit) {
  if (site.spec.nth != 0) return hit == site.spec.nth;
  if (site.spec.probability <= 0.0) return false;
  const std::uint64_t u = Rng::mix64(site.seed ^ site_hash(name) ^ hit);
  return static_cast<double>(u >> 11) * 0x1.0p-53 < site.spec.probability;
}

/// Simulated stall: sliced sleeps polling the cooperative watchdog, so a
/// WatchdogScope deadline converts the hang into a TimeoutError while an
/// unwatched hang resolves after hang_ms.
void hang(const char* name, std::uint32_t hang_ms) {
  const auto end = std::chrono::steady_clock::now() + std::chrono::milliseconds(hang_ms);
  while (std::chrono::steady_clock::now() < end) {
    WatchdogScope::poll(name);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Parses and arms one `site=spec` clause of the DETERRENT_FAULTS grammar.
void arm_clause(const std::string& clause, std::uint64_t seed) {
  const auto eq = clause.find('=');
  if (eq == std::string::npos || eq == 0)
    throw PermanentError("DETERRENT_FAULTS: clause '" + clause + "' is not site=spec");
  const std::string site = clause.substr(0, eq);
  std::string spec_text = clause.substr(eq + 1);

  FaultSpec spec;
  std::string action = spec_text;
  std::string param;
  char sep = 0;
  for (const char c : {'@', '%'}) {
    const auto pos = spec_text.find(c);
    if (pos != std::string::npos) {
      action = spec_text.substr(0, pos);
      param = spec_text.substr(pos + 1);
      sep = c;
      break;
    }
  }

  if (action == "throw") spec.action = Action::Throw;
  else if (action == "torn-truncate") spec.action = Action::TornTruncate;
  else if (action == "torn-flip") spec.action = Action::TornBitFlip;
  else if (action == "hang") spec.action = Action::Hang;
  else
    throw PermanentError("DETERRENT_FAULTS: unknown action '" + action + "' in '" +
                         clause + "'");

  try {
    if (sep == '%') {
      if (spec.action != Action::Throw)
        throw PermanentError("DETERRENT_FAULTS: only throw supports %probability ('" +
                             clause + "')");
      spec.probability = std::stod(param);
      if (spec.probability < 0.0 || spec.probability > 1.0)
        throw PermanentError("DETERRENT_FAULTS: probability out of [0,1] in '" + clause +
                             "'");
    } else if (sep == '@') {
      std::string nth_text = param;
      if (spec.action == Action::Hang) {
        const auto colon = param.find(':');
        if (colon != std::string::npos) {
          nth_text = param.substr(0, colon);
          spec.hang_ms = static_cast<std::uint32_t>(std::stoul(param.substr(colon + 1)));
        }
      }
      spec.nth = std::stoull(nth_text);
      if (spec.nth == 0)
        throw PermanentError("DETERRENT_FAULTS: hit index is 1-based in '" + clause + "'");
    } else {
      throw PermanentError("DETERRENT_FAULTS: spec '" + spec_text +
                           "' needs @<n> or %<p> ('" + clause + "')");
    }
  } catch (const PermanentError&) {
    throw;
  } catch (const std::exception&) {  // stod/stoull on malformed numbers
    throw PermanentError("DETERRENT_FAULTS: malformed number in '" + clause + "'");
  }

  arm(site, spec, seed);
}

/// DETERRENT_FAULTS is parsed once, before main() — a one-time static
/// initializer keeps armed() a single relaxed load with no init check.
const bool g_env_parsed = [] {
  const char* env = std::getenv("DETERRENT_FAULTS");
  if (env == nullptr || *env == '\0') return false;
  try {
    arm_from_string(env);
  } catch (const std::exception& e) {
    // A typo must not silently run the campaign without its fault plan.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    std::exit(2);
  }
  return true;
}();

}  // namespace

namespace detail {

std::atomic<bool> g_armed{false};

void on_hit(const char* name) {
  Site* site = find_site(name);
  if (site == nullptr) return;
  const std::uint64_t hit = site->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!fires(*site, name, hit)) return;
  switch (site->spec.action) {
    case Action::Throw:
      site->fired.fetch_add(1, std::memory_order_relaxed);
      throw FaultInjectedError(std::string("injected fault at ") + name + " (hit " +
                               std::to_string(hit) + ")");
    case Action::Hang:
      site->fired.fetch_add(1, std::memory_order_relaxed);
      hang(name, site->spec.hang_ms);
      return;
    case Action::TornTruncate:
    case Action::TornBitFlip:
      // Tearing needs the writer's cooperation (on_write); at a plain site
      // the spec is inert rather than guessing a different failure.
      return;
    case Action::None: return;
  }
}

WriteFault on_write(const char* name) {
  Site* site = find_site(name);
  if (site == nullptr) return {};
  const std::uint64_t hit = site->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!fires(*site, name, hit)) return {};
  switch (site->spec.action) {
    case Action::Throw:
      site->fired.fetch_add(1, std::memory_order_relaxed);
      throw FaultInjectedError(std::string("injected fault at ") + name + " (hit " +
                               std::to_string(hit) + ")");
    case Action::Hang:
      site->fired.fetch_add(1, std::memory_order_relaxed);
      hang(name, site->spec.hang_ms);
      return {};
    case Action::TornTruncate:
    case Action::TornBitFlip:
      site->fired.fetch_add(1, std::memory_order_relaxed);
      return {site->spec.action, Rng::mix64(site->seed ^ site_hash(name) ^ hit)};
    case Action::None: return {};
  }
  return {};
}

}  // namespace detail

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> sites = {
      "cache.fetch",
      "cache.store",
      "pipeline.stage_boundary",
      "sat.query",
      "serialize.write_artifact",
      "session.load_artifact",
      "threadpool.task",
  };
  return sites;
}

void arm(const std::string& site, const FaultSpec& spec, std::uint64_t seed) {
  Registry& r = registry();
  {
    std::lock_guard lock(r.mutex);
    auto& slot = r.sites[site];
    if (!slot) slot = std::make_unique<Site>();
    slot->spec = spec;
    slot->seed = seed;
    slot->hits.store(0, std::memory_order_relaxed);
    slot->fired.store(0, std::memory_order_relaxed);
  }
  detail::g_armed.store(true, std::memory_order_relaxed);
}

void arm_from_string(const std::string& grammar) {
  std::uint64_t seed = 0;
  std::size_t begin = 0;
  // Two passes so `seed=` applies to every clause regardless of position.
  std::vector<std::string> clauses;
  while (begin <= grammar.size()) {
    const auto end = grammar.find(';', begin);
    const std::string clause =
        grammar.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
    begin = end == std::string::npos ? grammar.size() + 1 : end + 1;
    if (clause.empty()) continue;
    if (clause.rfind("seed=", 0) == 0) {
      try {
        seed = std::stoull(clause.substr(5));
      } catch (const std::exception&) {
        throw PermanentError("DETERRENT_FAULTS: malformed seed clause '" + clause + "'");
      }
    } else {
      clauses.push_back(clause);
    }
  }
  for (const auto& clause : clauses) arm_clause(clause, seed);
}

void disarm_all() {
  Registry& r = registry();
  detail::g_armed.store(false, std::memory_order_relaxed);
  std::lock_guard lock(r.mutex);
  r.sites.clear();
}

std::uint64_t hit_count(const std::string& site) {
  Site* s = find_site(site.c_str());
  return s == nullptr ? 0 : s->hits.load(std::memory_order_relaxed);
}

std::uint64_t fired_count(const std::string& site) {
  Site* s = find_site(site.c_str());
  return s == nullptr ? 0 : s->fired.load(std::memory_order_relaxed);
}

}  // namespace deterrent::util::faults
