#include "sat/oracle.hpp"

#include "sat/encoder.hpp"
#include "util/assert.hpp"
#include "util/faults.hpp"
#include "util/watchdog.hpp"

namespace deterrent::sat {

NetlistOracle::NetlistOracle(const netlist::Netlist& netlist) : netlist_(&netlist) {
  encode_netlist(netlist, solver_);
}

void NetlistOracle::branch_on_inputs() {
  std::vector<bool> mask(solver_.var_count(), false);
  for (const netlist::NetId in : netlist_->inputs()) mask[in] = true;
  solver_.set_decision_vars(mask);
}

std::vector<Lit> NetlistOracle::to_assumptions(
    std::span<const Constraint> constraints) const {
  std::vector<Lit> assumptions;
  assumptions.reserve(constraints.size());
  for (const auto& c : constraints) {
    DETERRENT_ASSERT(c.net < netlist_->net_count(), "constraint on unknown net");
    assumptions.push_back(mk_lit(c.net, /*negated=*/!c.value));
  }
  return assumptions;
}

bool NetlistOracle::satisfiable(std::span<const Constraint> constraints,
                                std::int64_t conflict_budget) {
  return try_satisfiable(constraints, conflict_budget).value_or(false);
}

std::optional<bool> NetlistOracle::try_satisfiable(
    std::span<const Constraint> constraints, std::int64_t conflict_budget) {
  return query(constraints, conflict_budget, /*retain=*/false);
}

std::optional<bool> NetlistOracle::try_extend(std::span<const Constraint> constraints,
                                              std::int64_t conflict_budget) {
  return query(constraints, conflict_budget, /*retain=*/true);
}

std::optional<bool> NetlistOracle::query(std::span<const Constraint> constraints,
                                         std::int64_t conflict_budget, bool retain) {
  // Every solver entry is a query boundary: a natural cancellation point for
  // the stage watchdog and the injection site for simulated solver failures
  // and hangs.
  DETERRENT_FAULT_POINT("sat.query");
  util::WatchdogScope::poll("sat.query");
  const auto assumptions = to_assumptions(constraints);
  const auto result = retain ? solver_.solve_retaining(assumptions, conflict_budget)
                             : solver_.solve(assumptions, conflict_budget);
  switch (result) {
    case Solver::Result::Sat: return true;
    case Solver::Result::Unsat: return false;
    case Solver::Result::Unknown: return std::nullopt;
  }
  return std::nullopt;
}

Justification NetlistOracle::justify(std::span<const Constraint> constraints,
                                     std::int64_t conflict_budget) {
  DETERRENT_FAULT_POINT("sat.query");
  util::WatchdogScope::poll("sat.query");
  if (!gates_defined_) {
    define_gates(*netlist_, solver_);
    gates_defined_ = true;
  }
  const auto assumptions = to_assumptions(constraints);
  Justification answer;
  switch (solver_.solve_justified(assumptions, conflict_budget)) {
    case Solver::Result::Unsat: answer.verdict = Justification::Verdict::Unsat; break;
    case Solver::Result::Unknown: answer.verdict = Justification::Verdict::Unknown; break;
    case Solver::Result::Sat: {
      answer.verdict = Justification::Verdict::Candidate;
      const auto inputs = netlist_->inputs();
      answer.candidate = sim::Pattern(inputs.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const LBool v = solver_.model_lbool(inputs[i]);
        answer.candidate.set(i, v == LBool::Undef ? solver_.phase_value(inputs[i])
                                                  : v == LBool::True);
      }
      break;
    }
  }
  return answer;
}

std::optional<sim::Pattern> NetlistOracle::find_pattern(
    std::span<const Constraint> constraints) {
  DETERRENT_FAULT_POINT("sat.query");
  util::WatchdogScope::poll("sat.query");
  const auto assumptions = to_assumptions(constraints);
  if (solver_.solve(assumptions) != Solver::Result::Sat) return std::nullopt;
  return input_model();
}

sim::Pattern NetlistOracle::input_model() const {
  DETERRENT_ASSERT(solver_.model_total(), "input_model reads a partial model of justify()");
  const auto inputs = netlist_->inputs();
  sim::Pattern pattern(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    pattern.set(i, solver_.model_value(inputs[i]));
  return pattern;
}

}  // namespace deterrent::sat
