// deterrent_cli — command-line front-end to the staged pipeline.
//
// One-shot commands:
//   deterrent_cli lint     <bench|name>                      static DRC + trojan screen
//   deterrent_cli analyze  <bench|name>                      rare-net census
//   deterrent_cli generate <bench|name> -o patterns.txt      DETERRENT patterns
//   deterrent_cli evaluate <bench|name> -p patterns.txt      coverage vs random HTs
//   deterrent_cli export   <name> -o design.bench            write a built-in profile
//
// Staged commands (checkpointed in a --session directory; any stage can be
// interrupted and later resumed bit-identically):
//   deterrent_cli prepare  <bench|name> --session DIR        rare nets + matrix
//   deterrent_cli train    <bench|name> --session DIR        PPO updates (resumable)
//   deterrent_cli extract  <bench|name> --session DIR        SAT pattern extraction
//   deterrent_cli resume   <bench|name> --session DIR        run remaining stages
//   deterrent_cli campaign <name,name,...|all>               multi-circuit driver
//
// Artifact cache maintenance (see docs/service.md):
//   deterrent_cli cache stats --cache-dir DIR                entry/byte counts
//   deterrent_cli cache evict --cache-dir DIR [--fingerprint HEX]
//
// <bench|name> is either a built-in profile (c2670_like, …, mips16_like) or a
// path to an ISCAS `.bench` file. A flag not listed in this comment is a usage
// error (exit 2). Common flags:
//   --threshold <θ>        rareness threshold           (default 0.1)
//   --updates <n>          PPO updates                  (default 30)
//   --k <n>                patterns to extract          (default 64)
//   --width <w>            trigger width for evaluate   (default 4)
//   --trojans <n>          HT population                (default 100; campaign 0 = skip)
//   --seed <s>             master seed                  (default 1)
//   --session <dir>        artifact directory (staged commands; campaign root)
//   --budget-seconds <s>   per-stage wall-clock budget  (default unlimited)
//   --sat-budget <n>       training SAT-query budget    (default unlimited)
//   --threads <n>          campaign circuit workers     (default hardware)
//   --cache-dir <dir>      shared content-addressed artifact cache: staged
//                          commands hydrate from and publish to it
//   --no-cache             ignore --cache-dir for this invocation
//   --rollout-lanes <n>    lock-step PPO rollout lanes on one batched env
//                          (default 8; results identical at any count)
//   --retries <n>          campaign per-circuit retries (default 2)
//   --retry-backoff-ms <m> first retry backoff, doubles (default 50)
//   --retry-backoff-cap-ms <m>  backoff ceiling per sleep (default 10000)
//   --stage-timeout <s>    per-stage watchdog seconds   (default none)
//   --quiet                suppress stage progress on stderr
//
// Lint flags (the `lint` subcommand and the staged pipeline's front door):
//   --lint-json <file|->   write the JSON report to a file (or stdout with -)
//   --lint-fatal <sev>     reject at info|warning|error   (default error)
//   --no-lint              disable the pipeline's lint stage entirely
//
// Campaign exit codes: 0 all circuits clean, 4 degraded (some circuits
// recovered/retried or quarantined but at least one completed), 5 every
// circuit permanently failed, 3 interrupted-but-resumable (cancel/budget),
// 2 usage error, 1 unexpected exception. See docs/robustness.md.
// `lint` (and any staged command whose front door rejects) exits 6 with the
// offending diagnostics on stdout. See docs/lint.md.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lint.hpp"
#include "bench_gen/library.hpp"
#include "core/artifact_cache.hpp"
#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "sim/pattern_io.hpp"
#include "trojan/coverage.hpp"
#include "trojan/trojan.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace deterrent;

namespace {

/// A malformed command line: main() reports it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses all of `text` as an unsigned integer in `base`. A sign, trailing
/// characters or a value past 2^64 - 1 is a UsageError naming `flag`.
std::uint64_t parse_unsigned(const char* flag, const std::string& text, int base = 10) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (ec != std::errc{} || ptr != end)
    throw UsageError(std::string(flag) + ": expected a non-negative integer, got '" +
                     text + "'");
  return value;
}

/// Parses all of `text` as a finite, non-negative decimal number.
double parse_non_negative(const char* flag, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) || std::signbit(value))
    throw UsageError(std::string(flag) + ": expected a non-negative number, got '" +
                     text + "'");
  return value;
}

struct Args {
  std::string command;
  std::string target;
  std::map<std::string, std::string> flags;

  double threshold() const { return flag_double("--threshold", 0.1); }
  std::size_t updates() const { return flag_size("--updates", 30); }
  std::size_t k() const { return flag_size("--k", 64); }
  unsigned width() const { return static_cast<unsigned>(flag_size("--width", 4)); }
  std::size_t trojans() const { return flag_size("--trojans", 100); }
  std::uint64_t seed() const { return flag_size("--seed", 1); }
  std::string out() const { return flag_string("-o", ""); }
  std::string patterns() const { return flag_string("-p", ""); }
  std::string session() const { return flag_string("--session", ""); }
  double budget_seconds() const { return flag_double("--budget-seconds", 0.0); }
  std::uint64_t sat_budget() const { return flag_size("--sat-budget", 0); }
  std::size_t threads() const { return flag_size("--threads", 0); }
  std::string cache_dir() const { return flag_string("--cache-dir", ""); }
  bool no_cache() const { return flags.count("--no-cache") != 0; }
  std::size_t rollout_lanes() const { return flag_size("--rollout-lanes", 8); }
  std::size_t retries() const { return flag_size("--retries", 2); }
  double retry_backoff_ms() const { return flag_double("--retry-backoff-ms", 50.0); }
  double retry_backoff_cap_ms() const {
    return flag_double("--retry-backoff-cap-ms", 10000.0);
  }
  double stage_timeout() const { return flag_double("--stage-timeout", 0.0); }
  std::string lint_json() const { return flag_string("--lint-json", ""); }
  std::string lint_fatal() const { return flag_string("--lint-fatal", "error"); }
  bool no_lint() const { return flags.count("--no-lint") != 0; }
  bool quiet() const { return flags.count("--quiet") != 0; }
  bool has(const char* name) const { return flags.count(name) != 0; }

  double flag_double(const char* name, double fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : parse_non_negative(name, it->second);
  }
  std::size_t flag_size(const char* name, std::size_t fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : parse_unsigned(name, it->second);
  }
  std::string flag_string(const char* name, std::string fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

// The flags the header comment documents: value flags take the next
// argument, bare flags none.
constexpr std::string_view kValueFlags[] = {
    "-o", "-p", "--threshold", "--updates", "--k", "--width", "--trojans", "--seed",
    "--session", "--budget-seconds", "--sat-budget", "--threads", "--cache-dir",
    "--fingerprint", "--rollout-lanes", "--retries", "--retry-backoff-ms",
    "--retry-backoff-cap-ms", "--stage-timeout", "--lint-json", "--lint-fatal"};
constexpr std::string_view kBareFlags[] = {"--quiet", "--no-lint", "--no-cache"};

/// Throws UsageError on a flag the header comment does not list, or on a
/// bare word after the target, so a typo fails the run instead of being
/// ignored.
Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  if (argc >= 3 && argv[2][0] != '-') args.target = argv[2];
  for (int i = args.target.empty() ? 2 : 3; i < argc; ++i) {
    const std::string_view name = argv[i];
    if (name.empty() || name[0] != '-')
      throw UsageError("unexpected argument '" + std::string(name) + "'");
    if (std::ranges::find(kBareFlags, name) != std::end(kBareFlags)) {
      args.flags[argv[i]] = "1";
    } else if (std::ranges::find(kValueFlags, name) == std::end(kValueFlags)) {
      throw UsageError("unknown flag '" + std::string(name) + "'");
    } else if (i + 1 < argc) {
      args.flags[argv[i]] = argv[i + 1];
      ++i;
    } else {
      throw UsageError(std::string(name) + ": missing value");
    }
  }
  return args;
}

bench_gen::Benchmark load_target(const std::string& target) {
  if (target.find(".bench") != std::string::npos)
    return bench_gen::load_benchmark_file(target);
  return bench_gen::load_benchmark(target);
}

/// The pipeline configuration every staged command (and `generate`) shares —
/// keeping them identical is what makes `prepare`+`resume` reproduce a
/// straight `generate` bit for bit.
analysis::LintSeverity parse_severity(const std::string& name) {
  if (name == "info") return analysis::LintSeverity::Info;
  if (name == "warning" || name == "warn") return analysis::LintSeverity::Warning;
  if (name == "error") return analysis::LintSeverity::Error;
  throw Error("unknown lint severity '" + name + "' (use info, warning, or error)");
}

analysis::LintConfig lint_config(const Args& args) {
  analysis::LintConfig cfg;
  cfg.enabled = !args.no_lint();
  cfg.fail_on = parse_severity(args.lint_fatal());
  return cfg;
}

core::DeterrentConfig pipeline_config(const Args& args) {
  core::DeterrentConfig cfg;
  cfg.lint = lint_config(args);
  cfg.rare.threshold = args.threshold();
  cfg.updates = args.updates();
  cfg.k_patterns = args.k();
  cfg.seed = args.seed();
  cfg.env.reward_mode = core::RewardMode::EndOfEpisode;
  cfg.ppo.rollout_lanes = std::max<std::size_t>(1, args.rollout_lanes());
  return cfg;
}

core::StageControl stage_control(const Args& args) {
  core::StageControl control;
  control.wall_budget_seconds = args.budget_seconds();
  control.sat_query_budget = args.sat_budget();
  control.stage_timeout_seconds = args.stage_timeout();
  if (!args.quiet()) {
    control.on_progress = [](const core::StageProgress& p) {
      std::fprintf(stderr, "[%s] %zu/%zu %s (%.1fs)\n", core::to_string(p.stage),
                   p.current, p.total, p.detail.c_str(), p.stage_seconds);
      return true;
    };
  }
  return control;
}

int report_status(core::StageStatus status, const core::Session& session) {
  switch (status) {
    case core::StageStatus::Complete:
      return 0;
    case core::StageStatus::Cancelled:
      std::printf("cancelled; progress saved in %s\n", session.dir().c_str());
      return 3;
    case core::StageStatus::BudgetExhausted:
      std::printf("budget exhausted; progress saved in %s — rerun `resume` to continue\n",
                  session.dir().c_str());
      return 3;
    case core::StageStatus::TimedOut:
      std::printf("stage watchdog timed out; last checkpoint kept in %s — rerun `resume`\n",
                  session.dir().c_str());
      return 3;
    case core::StageStatus::Rejected:
      std::printf("design rejected by lint; verdict saved in %s — "
                  "run `deterrent_cli lint` for the diagnostics\n",
                  session.dir().c_str());
      return 6;
  }
  return 3;
}

void write_pattern_text(const core::Pipeline& pipeline, const Args& args,
                        const std::string& fallback_name) {
  if (!pipeline.extract_done()) return;
  const std::string out =
      args.out().empty() ? fallback_name + ".patterns" : args.out();
  sim::write_patterns_file(pipeline.patterns(), out);
  std::printf("wrote %zu patterns to %s\n", pipeline.patterns().pattern_count(),
              out.c_str());
}

int cmd_lint(const Args& args) {
  analysis::LintConfig cfg = lint_config(args);
  cfg.enabled = true;  // an explicit `lint` always runs, even with --no-lint

  // Untrusted .bench files go through the checked parser: malformed or
  // structurally broken sources become parse-tier diagnostics instead of
  // exceptions, and the netlist-tier rules run only when a netlist built.
  analysis::LintReport report;
  std::string name = args.target;
  if (args.target.find(".bench") != std::string::npos) {
    const auto parsed = netlist::read_bench_file_checked(args.target);
    analysis::append_parse_diagnostics(report, parsed.diagnostics, cfg);
    if (parsed.netlist.has_value()) {
      const auto netlist_report = analysis::Linter(cfg).lint(*parsed.netlist);
      report.diagnostics.insert(report.diagnostics.end(),
                                netlist_report.diagnostics.begin(),
                                netlist_report.diagnostics.end());
      report.suppressed += netlist_report.suppressed;
    }
  } else {
    const auto bench = bench_gen::load_benchmark(args.target);
    name = bench.name;
    report = analysis::Linter(cfg).lint(bench.original);
  }

  for (const auto& d : report.diagnostics) {
    std::string where = d.net_name.empty() ? std::string() : " [" + d.net_name + "]";
    if (d.line > 0) where += " (line " + std::to_string(d.line) + ")";
    std::printf("%s: %s%s: %s\n", analysis::to_string(d.severity), d.rule.c_str(),
                where.c_str(), d.message.c_str());
  }
  if (report.suppressed > 0)
    std::printf("(%zu further findings suppressed; see --lint-json for counts)\n",
                report.suppressed);
  std::printf("%s: %s\n", name.c_str(), report.summary().c_str());

  if (!args.lint_json().empty()) {
    const std::string json = report.to_json();
    if (args.lint_json() == "-") {
      std::printf("%s\n", json.c_str());
    } else {
      std::ofstream out(args.lint_json());
      if (!out) throw Error("cannot open " + args.lint_json() + " for writing");
      out << json << "\n";
    }
  }
  return report.rejects(cfg.fail_on) ? 6 : 0;
}

int cmd_analyze(const Args& args) {
  auto bench = load_target(args.target);
  const auto stats = netlist::compute_stats(bench.scan.comb);
  std::printf("%s: %s\n", bench.name.c_str(), stats.to_string().c_str());

  util::Rng rng(args.seed());
  util::ThreadPool pool;
  analysis::RareNetConfig cfg;
  cfg.threshold = args.threshold();
  const auto rare = analysis::find_rare_nets(bench.scan.comb, cfg, rng, &pool);
  std::printf("rare nets at threshold %.3f: %zu\n\n", cfg.threshold, rare.size());

  util::Table table({"Net", "Rare value", "P(rare value)"});
  std::size_t shown = 0;
  for (const auto& rn : rare) {
    if (shown++ >= 20) break;
    const std::string& name = bench.scan.comb.name(rn.net);
    table.add_row({name.empty() ? "n" + std::to_string(rn.net) : name,
                   rn.rare_value ? "1" : "0", util::Table::num(rn.probability, 5)});
  }
  table.print();
  if (rare.size() > 20) std::printf("... and %zu more\n", rare.size() - 20);
  return 0;
}

int cmd_generate(const Args& args) {
  auto bench = load_target(args.target);
  core::Pipeline det(bench.scan.comb, pipeline_config(args));
  det.run_rare_nets();
  det.run_compatibility();
  std::printf("offline: %zu rare nets, %zu compatible pairs\n",
              det.rare_nets().size(), det.matrix().edge_count());
  det.run_train();
  std::printf("training: %zu distinct sets, largest %zu\n", det.pool().size(),
              det.pool().max_set_size());
  det.run_extract();
  const sim::PatternSet& patterns = det.patterns();
  std::printf("extracted %zu patterns\n", patterns.pattern_count());

  const std::string out = args.out().empty() ? bench.name + ".patterns" : args.out();
  sim::write_patterns_file(patterns, out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_evaluate(const Args& args) {
  auto bench = load_target(args.target);
  if (args.patterns().empty()) {
    std::fprintf(stderr, "evaluate requires -p <patterns.txt>\n");
    return 2;
  }
  const auto patterns = sim::read_patterns_file(args.patterns());
  if (patterns.input_count() != bench.scan.comb.inputs().size()) {
    std::fprintf(stderr, "pattern width %zu does not match design inputs %zu\n",
                 patterns.input_count(), bench.scan.comb.inputs().size());
    return 2;
  }

  util::Rng rng(args.seed());
  util::ThreadPool pool;
  analysis::RareNetConfig rcfg;
  rcfg.threshold = args.threshold();
  const auto rare = analysis::find_rare_nets(bench.scan.comb, rcfg, rng, &pool);
  sat::NetlistOracle oracle(bench.scan.comb);
  trojan::TrojanSampleConfig tcfg;
  tcfg.width = args.width();
  tcfg.count = args.trojans();
  const auto trojans = trojan::sample_trojans(bench.scan.comb, rare, tcfg, oracle, rng);

  const auto result = trojan::evaluate_coverage(bench.scan.comb, trojans, patterns);
  std::printf("%zu patterns vs %zu width-%u Trojans: %.1f%% trigger coverage\n",
              patterns.pattern_count(), trojans.size(), args.width(),
              result.coverage_percent());
  return 0;
}

int cmd_export(const Args& args) {
  auto bench = load_target(args.target);
  const std::string out = args.out().empty() ? bench.name + ".bench" : args.out();
  netlist::write_bench_file(bench.original, out);
  std::printf("wrote %s (%zu gates, %zu FFs)\n", out.c_str(),
              bench.original.gate_count(), bench.original.dffs().size());
  return 0;
}

// ------------------------------------------------------ staged commands ----

int require_session(const Args& args) {
  if (args.session().empty()) {
    std::fprintf(stderr, "%s requires --session <dir>\n", args.command.c_str());
    return 2;
  }
  return 0;
}

/// With --cache-dir (and without --no-cache), opens the shared artifact cache
/// and attaches it to the session so resume hydrates from it and save
/// publishes back. Returns the owning handle — keep it alive past save().
std::unique_ptr<core::ArtifactCache> open_cache(const Args& args,
                                                core::Session& session) {
  if (args.cache_dir().empty() || args.no_cache()) return nullptr;
  auto cache = std::make_unique<core::ArtifactCache>(args.cache_dir());
  session.attach_cache(cache.get());
  return cache;
}

int cmd_prepare(const Args& args) {
  if (const int rc = require_session(args)) return rc;
  auto bench = load_target(args.target);
  core::Session session(args.session(), bench.scan.comb);
  const auto cache = open_cache(args, session);
  const core::DeterrentConfig cfg =
      session.has_meta() ? session.load_config() : pipeline_config(args);
  auto pipeline = session.resume_with(cfg);

  auto status = pipeline->run_rare_nets(stage_control(args));
  if (status == core::StageStatus::Complete)
    status = pipeline->run_compatibility(stage_control(args));
  session.save(*pipeline);
  if (const int rc = report_status(status, session)) return rc;
  std::printf("prepared: %zu rare nets, %zu compatible pairs; artifacts in %s\n",
              pipeline->rare_nets().size(), pipeline->matrix().edge_count(),
              session.dir().c_str());
  return 0;
}

int cmd_train(const Args& args) {
  if (const int rc = require_session(args)) return rc;
  auto bench = load_target(args.target);
  core::Session session(args.session(), bench.scan.comb);
  const auto cache = open_cache(args, session);
  if (!session.has_meta()) {
    std::fprintf(stderr, "session %s has no meta artifact — run prepare first\n",
                 session.dir().c_str());
    return 2;
  }
  auto pipeline = session.resume();
  if (!pipeline->compatibility_done()) {
    std::fprintf(stderr, "session %s has no compatibility artifact — run prepare first\n",
                 session.dir().c_str());
    return 2;
  }

  // Without --updates, complete the configured training budget (resuming an
  // interrupted run); with --updates N, train exactly N more iterations.
  std::size_t updates;
  if (args.has("--updates")) {
    updates = args.updates();
  } else {
    const std::size_t target = pipeline->effective_updates();
    const std::size_t done = pipeline->history().size();
    if (done >= target) {
      std::printf("training already at %zu/%zu updates; pass --updates to continue\n",
                  done, target);
      return 0;
    }
    updates = target - done;
  }
  const auto status = pipeline->run_train(updates, stage_control(args));
  session.save(*pipeline);
  if (const int rc = report_status(status, session)) return rc;
  std::printf(
      "trained to %zu updates: %zu distinct sets, largest %zu, %llu env SAT queries, "
      "%llu witness hits, %llu model hits\n",
      pipeline->history().size(), pipeline->pool().size(), pipeline->pool().max_set_size(),
      static_cast<unsigned long long>(pipeline->train_sat_queries()),
      static_cast<unsigned long long>(pipeline->train_witness_hits()),
      static_cast<unsigned long long>(pipeline->train_model_hits()));
  return 0;
}

int cmd_extract(const Args& args) {
  if (const int rc = require_session(args)) return rc;
  auto bench = load_target(args.target);
  core::Session session(args.session(), bench.scan.comb);
  const auto cache = open_cache(args, session);
  if (!session.has_meta()) {
    std::fprintf(stderr, "session %s has no meta artifact — run prepare first\n",
                 session.dir().c_str());
    return 2;
  }
  auto pipeline = session.resume();
  if (!pipeline->compatibility_done()) {
    std::fprintf(stderr, "session %s has no compatibility artifact — run prepare first\n",
                 session.dir().c_str());
    return 2;
  }
  const auto status =
      pipeline->run_extract(args.has("--k") ? args.k() : 0, stage_control(args));
  session.save(*pipeline);
  if (const int rc = report_status(status, session)) return rc;
  write_pattern_text(*pipeline, args, bench.name);
  return 0;
}

int cmd_resume(const Args& args) {
  if (const int rc = require_session(args)) return rc;
  auto bench = load_target(args.target);
  core::Session session(args.session(), bench.scan.comb);
  const auto cache = open_cache(args, session);
  if (!session.has_meta()) {
    std::fprintf(stderr, "session %s has no meta artifact — run prepare first\n",
                 session.dir().c_str());
    return 2;
  }
  auto pipeline = session.resume();
  std::printf("resuming from stage %s\n", core::to_string(pipeline->next_stage()));
  const auto status = pipeline->run_remaining(stage_control(args));
  session.save(*pipeline);
  if (const int rc = report_status(status, session)) return rc;
  write_pattern_text(*pipeline, args, bench.name);
  return 0;
}

int cmd_campaign(const Args& args) {
  // Comma-separated profile/.bench list, or "all" for the built-in suite.
  std::vector<std::string> names;
  if (args.target == "all") {
    names = bench_gen::benchmark_names();
  } else {
    std::string rest = args.target;
    while (!rest.empty()) {
      const auto comma = rest.find(',');
      names.push_back(rest.substr(0, comma));
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "campaign requires a circuit list or 'all'\n");
    return 2;
  }

  std::vector<bench_gen::Benchmark> benches;
  benches.reserve(names.size());
  for (const auto& name : names) benches.push_back(load_target(name));

  core::CampaignConfig cfg;
  cfg.base = pipeline_config(args);
  // Campaigns parallelize across circuits; keep the per-circuit phases
  // single-threaded so the box is not oversubscribed.
  cfg.base.offline_threads = 1;
  cfg.threads = args.threads();
  cfg.session_root = args.session();
  cfg.cache_dir = args.no_cache() ? "" : args.cache_dir();
  cfg.max_retries = args.retries();
  cfg.retry_backoff_ms = args.retry_backoff_ms();
  cfg.retry_backoff_cap_ms = args.retry_backoff_cap_ms();
  cfg.stage_timeout_seconds = args.stage_timeout();

  core::Campaign campaign(cfg);
  for (std::size_t i = 0; i < benches.size(); ++i)
    campaign.add(benches[i].name, benches[i].scan.comb);

  const std::size_t n_trojans = args.trojans();
  const unsigned width = args.width();
  if (n_trojans > 0) {
    campaign.set_evaluator([n_trojans, width](const core::CampaignCircuit& circuit,
                                              const core::Pipeline& pipeline,
                                              const sim::PatternSet& patterns) {
      sat::NetlistOracle oracle(*circuit.netlist);
      util::Rng rng(pipeline.config().seed ^ 0x7207a255u);
      trojan::TrojanSampleConfig tcfg;
      tcfg.width = width;
      tcfg.count = n_trojans;
      const auto trojans = trojan::sample_trojans(*circuit.netlist,
                                                  pipeline.rare_nets(), tcfg, oracle, rng);
      if (trojans.empty()) return -1.0;
      return trojan::evaluate_coverage(*circuit.netlist, trojans, patterns)
          .coverage_percent();
    });
  }

  const auto report = campaign.run(stage_control(args));
  std::printf("%s", report.to_table().c_str());

  // Distinct exit codes so wrappers can tell outcomes apart: 5 = nothing
  // succeeded and no retry will help; 4 = degraded success (quarantined
  // circuits, or survivors that needed retries/artifact recovery); 3 =
  // interrupted (cancel/budget) but resumable via the session root.
  if (report.quarantined == report.circuits.size()) return 5;
  bool resumable_stop = false;
  bool degraded = report.quarantined > 0;
  for (const auto& row : report.circuits) {
    if (row.ok && (row.attempts > 1 || !row.recovered.empty())) degraded = true;
    if (row.ok && row.status != core::StageStatus::Complete) resumable_stop = true;
  }
  if (report.completed == report.circuits.size()) return degraded ? 4 : 0;
  return resumable_stop && !degraded ? 3 : 4;
}

int cmd_cache(const Args& args) {
  if (args.cache_dir().empty()) {
    std::fprintf(stderr, "cache %s requires --cache-dir <dir>\n", args.target.c_str());
    return 2;
  }
  core::ArtifactCache cache(args.cache_dir());
  if (args.target == "stats") {
    const auto s = cache.stats();
    std::printf("cache %s: %llu entries, %llu bytes\n", cache.root().c_str(),
                static_cast<unsigned long long>(s.entries),
                static_cast<unsigned long long>(s.bytes));
    return 0;
  }
  if (args.target == "evict") {
    std::size_t removed;
    const std::string fp = args.flag_string("--fingerprint", "");
    if (fp.empty()) {
      removed = cache.evict_all();
    } else {
      removed = cache.evict_fingerprint(parse_unsigned("--fingerprint", fp, 16));
    }
    std::printf("evicted %zu entries from %s\n", removed, cache.root().c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown cache action '%s' (use stats or evict)\n",
               args.target.c_str());
  return 2;
}

void usage() {
  std::fprintf(stderr,
               "usage: deterrent_cli <lint|analyze|generate|evaluate|export|prepare|train|"
               "extract|resume|campaign|cache> <bench|name> [flags]\n"
               "  (see header comment for flags)\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "lint" && !args.target.empty()) return cmd_lint(args);
    if (args.command == "analyze" && !args.target.empty()) return cmd_analyze(args);
    if (args.command == "generate" && !args.target.empty()) return cmd_generate(args);
    if (args.command == "evaluate" && !args.target.empty()) return cmd_evaluate(args);
    if (args.command == "export" && !args.target.empty()) return cmd_export(args);
    if (args.command == "prepare" && !args.target.empty()) return cmd_prepare(args);
    if (args.command == "train" && !args.target.empty()) return cmd_train(args);
    if (args.command == "extract" && !args.target.empty()) return cmd_extract(args);
    if (args.command == "resume" && !args.target.empty()) return cmd_resume(args);
    if (args.command == "campaign" && !args.target.empty()) return cmd_campaign(args);
    if (args.command == "cache" && !args.target.empty()) return cmd_cache(args);
  } catch (const UsageError& e) {
    // An unknown flag, a flag without its value, or a value that is not a
    // number of the right kind.
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  } catch (const std::exception& e) {
    // Covers deterrent::Error plus std:: failures (filesystem errors and
    // the like) — a run-time failure must not SIGABRT.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
