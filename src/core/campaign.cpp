#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <thread>

#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace deterrent::core {

namespace {

/// Decorrelated per-circuit seed: SplitMix64 over campaign seed + stream
/// offset, so circuit i's draws are independent of circuit j's for any base.
std::uint64_t derive_seed(std::uint64_t base, std::size_t index) {
  return util::Rng::mix64(base + index * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

double retry_backoff_delay_ms(double base_ms, std::size_t attempt, double cap_ms) {
  if (base_ms <= 0.0) return 0.0;
  // 1ULL << attempt is undefined from attempt 64 on, and the old unclamped
  // shift produced garbage sleeps long before the cap could help. By 2^62 any
  // positive cap has won, so saturating the exponent is lossless.
  const std::size_t exponent = std::min<std::size_t>(attempt, 62);
  const double ms = base_ms * static_cast<double>(1ULL << exponent);
  return (cap_ms > 0.0 && ms > cap_ms) ? cap_ms : ms;
}

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {}

void Campaign::add(std::string name, const netlist::Netlist& netlist) {
  // Names key the per-circuit session directories; two workers sharing one
  // directory would race on the same artifact files.
  for (const auto& circuit : circuits_)
    if (circuit.name == name)
      throw Error("Campaign: duplicate circuit name '" + name + "'");
  circuits_.push_back({std::move(name), &netlist});
}

void Campaign::run_circuit_attempt(std::size_t index, const StageControl& control,
                                   CampaignCircuitReport& row) {
  const CampaignCircuit& circuit = circuits_[index];
  DeterrentConfig config = config_.base;
  config.seed = derive_seed(config_.base.seed, index);
  row.seed = config.seed;

  std::unique_ptr<Session> session;
  std::unique_ptr<Pipeline> pipeline;
  if (!config_.session_root.empty()) {
    session = std::make_unique<Session>(
        (std::filesystem::path(config_.session_root) / circuit.name).string(),
        *circuit.netlist);
    session->attach_cache(cache_.get());
    // An existing session's stored config wins over the index-derived one:
    // re-running the campaign with a reordered circuit list (or changed
    // flags) must resume each circuit under the config its artifacts were
    // actually built with. A missing or corrupt meta falls back to `config`,
    // and any corrupt stage artifact is quarantined so the stage reruns.
    pipeline = session->resume_or_init(config);
    row.seed = pipeline->config().seed;
    for (const auto& file : session->quarantined()) row.recovered.push_back(file);
  } else {
    pipeline = std::make_unique<Pipeline>(*circuit.netlist, config);
  }

  // A session already complete on disk adopted everything and ran nothing,
  // so skip re-serializing its (byte-identical) policy/pattern artifacts.
  const bool already_done = session && session->next_stage() == Stage::Done;
  row.status = pipeline->run_remaining(control);
  if (session && !already_done) session->save(*pipeline);

  if (pipeline->lint_done()) {
    row.lint_ran = true;
    row.lint_errors = pipeline->lint_report().errors();
    row.lint_warnings = pipeline->lint_report().warnings();
    if (row.status == StageStatus::Rejected)
      row.error = "rejected by lint: " + pipeline->lint_report().summary();
  }
  if (pipeline->rare_nets_done()) row.rare_nets = pipeline->rare_nets().size();
  if (pipeline->compatibility_done())
    row.compatible_pairs = pipeline->matrix().edge_count();
  row.pool_size = pipeline->pool().size();
  row.max_set_size = pipeline->pool().max_set_size();
  row.sat_queries = pipeline->train_sat_queries();
  if (pipeline->extract_done()) {
    row.patterns = pipeline->patterns().pattern_count();
    if (evaluator_ && row.status == StageStatus::Complete)
      row.coverage_percent = evaluator_(circuit, *pipeline, pipeline->patterns());
  }
}

CampaignCircuitReport Campaign::run_circuit(std::size_t index,
                                            const StageControl& control) {
  CampaignCircuitReport row;
  row.name = circuits_[index].name;
  util::Stopwatch watch;

  const std::size_t max_attempts = config_.max_retries + 1;
  const auto backoff = [this](std::size_t attempt) {
    const double ms = retry_backoff_delay_ms(config_.retry_backoff_ms, attempt,
                                             config_.retry_backoff_cap_ms);
    if (ms > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  };
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    row.attempts = attempt + 1;
    row.error.clear();
    try {
      run_circuit_attempt(index, control, row);
      if (row.status == StageStatus::Rejected) {
        // The lint verdict is deterministic — retrying cannot change it, so
        // quarantine immediately without burning the retry budget.
        row.ok = false;
        row.quarantined = true;
        if (row.error.empty()) row.error = "rejected by lint";
        break;
      }
      if (row.status == StageStatus::TimedOut) {
        // The watchdog abandoned a hung stage. Worth retrying: a
        // session-backed circuit resumes from its last good artifact, so the
        // retry only repeats the stage that hung.
        row.ok = false;
        row.error = "stage watchdog timeout";
        if (attempt + 1 < max_attempts) {
          backoff(attempt);
          continue;
        }
        row.quarantined = true;
      } else {
        row.ok = true;
      }
      break;
    } catch (const PermanentError& e) {
      // Retrying the identical call cannot succeed (bad config, broken
      // artifact chain the session could not heal); fail fast.
      row.error = e.what();
      row.quarantined = true;
      break;
    } catch (const TransientError& e) {
      row.error = e.what();
      if (attempt + 1 >= max_attempts) {
        row.quarantined = true;  // repeat offender
        break;
      }
      backoff(attempt);
    } catch (const CorruptArtifactError& e) {
      // The session quarantined the file (or will on the next resume);
      // retrying regenerates the stage from the last good artifact.
      row.error = e.what();
      if (attempt + 1 >= max_attempts) {
        row.quarantined = true;
        break;
      }
      backoff(attempt);
    } catch (const std::exception& e) {
      // Outside the deterrent taxonomy — no evidence a retry would differ.
      row.error = e.what();
      row.quarantined = true;
      break;
    } catch (...) {
      // Satellite fix: a non-std exception used to escape run_circuit and
      // take down the whole campaign worker.
      row.error = "non-std exception escaped circuit run";
      row.quarantined = true;
      break;
    }
  }
  row.seconds = watch.elapsed_seconds();
  return row;
}

CampaignReport Campaign::run(const StageControl& control) {
  util::Stopwatch watch;
  CampaignReport report;
  report.circuits.resize(circuits_.size());
  if (circuits_.empty()) return report;

  if (!config_.cache_dir.empty() && cache_ == nullptr)
    cache_ = std::make_unique<ArtifactCache>(config_.cache_dir);

  // One shared cancellation latch: a false return from the user's callback
  // (for any circuit) stops every circuit at its next checkpoint. The user
  // callback itself runs under a lock, so it needs no synchronization.
  std::mutex progress_mutex;
  std::atomic<bool> cancelled{false};
  const auto control_for = [&](std::size_t index) {
    StageControl c;
    c.wall_budget_seconds = control.wall_budget_seconds;
    c.sat_query_budget = control.sat_query_budget;
    c.stage_timeout_seconds = control.stage_timeout_seconds > 0.0
                                  ? control.stage_timeout_seconds
                                  : config_.stage_timeout_seconds;
    c.on_progress = [this, &control, &progress_mutex, &cancelled,
                     index](const StageProgress& p) -> bool {
      if (cancelled.load(std::memory_order_relaxed)) return false;
      if (!control.on_progress) return true;
      StageProgress tagged = p;
      tagged.detail = circuits_[index].name +
                      (p.detail.empty() ? std::string() : ": " + p.detail);
      std::lock_guard lock(progress_mutex);
      if (!control.on_progress(tagged)) {
        cancelled.store(true, std::memory_order_relaxed);
        return false;
      }
      return true;
    };
    return c;
  };

  std::size_t threads = config_.threads == 0
                            ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                            : config_.threads;
  threads = std::min(threads, circuits_.size());
  if (threads <= 1) {
    for (std::size_t i = 0; i < circuits_.size(); ++i)
      report.circuits[i] = run_circuit(i, control_for(i));
  } else {
    util::ThreadPool pool(threads);
    pool.parallel_for(circuits_.size(), [&](std::size_t i) {
      report.circuits[i] = run_circuit(i, control_for(i));
    });
  }

  std::size_t evaluated = 0;
  double coverage_sum = 0.0;
  for (const auto& row : report.circuits) {
    if (row.ok && row.status == StageStatus::Complete) ++report.completed;
    if (row.quarantined) ++report.quarantined;
    report.total_patterns += row.patterns;
    report.total_sat_queries += row.sat_queries;
    if (row.coverage_percent >= 0.0) {
      coverage_sum += row.coverage_percent;
      ++evaluated;
    }
  }
  if (evaluated > 0) report.mean_coverage = coverage_sum / static_cast<double>(evaluated);
  report.total_seconds = watch.elapsed_seconds();
  return report;
}

std::string CampaignReport::to_table() const {
  util::Table table({"Circuit", "Status", "Lint", "Rare", "Pairs", "Pool", "Max set",
                     "Patterns", "SAT", "Cov. (%)", "Seconds"});
  for (const auto& row : circuits) {
    std::string status = row.quarantined                       ? "quarantined"
                         : !row.ok                             ? "error"
                         : row.status == StageStatus::Complete ? "ok"
                                                               : to_string(row.status);
    if (row.attempts > 1) status += " (x" + std::to_string(row.attempts) + ")";
    const std::string lint = !row.lint_ran ? "-"
                             : row.lint_errors + row.lint_warnings == 0
                                 ? "clean"
                                 : std::to_string(row.lint_errors) + "E/" +
                                       std::to_string(row.lint_warnings) + "W";
    table.add_row({row.name, status, lint, std::to_string(row.rare_nets),
                   std::to_string(row.compatible_pairs), std::to_string(row.pool_size),
                   std::to_string(row.max_set_size), std::to_string(row.patterns),
                   std::to_string(row.sat_queries),
                   row.coverage_percent >= 0.0 ? util::Table::num(row.coverage_percent, 1)
                                               : "-",
                   util::Table::num(row.seconds, 2)});
  }
  table.add_row({"total", std::to_string(completed) + "/" + std::to_string(circuits.size()),
                 "", "", "", "", "", std::to_string(total_patterns),
                 std::to_string(total_sat_queries),
                 mean_coverage >= 0.0 ? util::Table::num(mean_coverage, 1) : "-",
                 util::Table::num(total_seconds, 2)});
  std::string out = table.to_string();
  for (const auto& row : circuits) {
    if (!row.ok) out += row.name + ": " + row.error + "\n";
    for (const auto& file : row.recovered)
      out += row.name + ": quarantined corrupt " + file + " and regenerated\n";
  }
  return out;
}

}  // namespace deterrent::core
