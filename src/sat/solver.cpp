#include "sat/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/assert.hpp"

namespace deterrent::sat {

Solver::Solver() = default;

float Solver::clause_activity(CRef c) const {
  float a;
  std::memcpy(&a, &arena_[c + 1], sizeof(float));
  return a;
}

void Solver::set_clause_activity(CRef c, float a) {
  std::memcpy(&arena_[c + 1], &a, sizeof(float));
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::Undef);
  polarity_.push_back(1);  // branch negative first, MiniSat default
  activity_.push_back(0.0);
  reason_.push_back(kCRefUndef);
  level_.push_back(0);
  seen_.push_back(0);
  lbd_seen_.push_back(0);
  heap_pos_.push_back(kNotInHeap);
  decision_.push_back(1);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

void Solver::ensure_vars(std::size_t n) {
  while (assigns_.size() < n) new_var();
}

void Solver::set_decision_vars(const std::vector<bool>& mask) {
  if (mask.size() != var_count())
    throw Error("Solver::set_decision_vars: mask has " + std::to_string(mask.size()) +
                " bits for " + std::to_string(var_count()) + " variables");
  drop_retained();
  heap_.clear();
  std::fill(heap_pos_.begin(), heap_pos_.end(), kNotInHeap);
  for (Var v = 0; v < var_count(); ++v) {
    decision_[v] = mask[v] ? 1 : 0;
    if (mask[v]) heap_insert(v);
  }
}

void Solver::define_gate(Var y, GateKind kind, bool inverted,
                         std::span<const Var> fanins) {
  if (y >= var_count())
    throw Error("Solver::define_gate: unknown variable " + std::to_string(y));
  for (const Var a : fanins)
    if (a >= var_count())
      throw Error("Solver::define_gate: unknown fanin variable " + std::to_string(a));
  controllability_.clear();
  if (gates_.size() < var_count()) gates_.resize(var_count());
  gates_[y] = {kind, inverted, static_cast<std::uint32_t>(gate_fanins_.size()),
               static_cast<std::uint32_t>(fanins.size())};
  gate_fanins_.insert(gate_fanins_.end(), fanins.begin(), fanins.end());
}

Solver::CRef Solver::alloc_clause(std::span<const Lit> lits, bool learnt) {
  const CRef c = static_cast<CRef>(arena_.size());
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << 2) |
                   (learnt ? 1u : 0u));
  arena_.push_back(0);  // activity
  arena_.push_back(0);  // lbd
  for (Lit l : lits) arena_.push_back(l.x);
  if (learnt) stats_.learnt_clauses++;
  return c;
}

void Solver::mark_dead(CRef c) {
  DETERRENT_ASSERT(!clause_dead(c), "clause already dead");
  dead_words_ += kHeaderWords + clause_size(c);
  arena_[c] |= 2u;
}

void Solver::attach_clause(CRef c) {
  const Lit* lits = clause_lits(c);
  DETERRENT_ASSERT(clause_size(c) >= 2, "attaching a short clause");
  watches_[(~lits[0]).x].push_back({c, lits[1]});
  watches_[(~lits[1]).x].push_back({c, lits[0]});
}

bool Solver::root_simplify(std::vector<Lit>& lits) {
  std::sort(lits.begin(), lits.end(), [](Lit a, Lit b) { return a.x < b.x; });

  // Dedup, drop root-false literals, detect tautologies and root-true lits.
  std::size_t j = 0;
  Lit prev = kUndefLit;
  for (Lit l : lits) {
    DETERRENT_ASSERT(var_of(l) < var_count(), "literal references unknown variable");
    if (l == prev) continue;
    if (prev != kUndefLit && l == ~prev) return false;  // tautology: p ∨ ¬p
    const LBool v = value(l);
    if (v == LBool::True) return false;  // satisfied at root
    if (v == LBool::False) {
      prev = l;
      continue;  // drop root-false literal
    }
    lits[j++] = l;
    prev = l;
  }
  lits.resize(j);
  return true;
}

bool Solver::add_clause(std::span<const Lit> lits_in) {
  drop_retained();
  if (!ok_) return false;

  std::vector<Lit> lits(lits_in.begin(), lits_in.end());
  if (!root_simplify(lits)) return true;

  if (lits.empty()) {
    ok_ = false;
    return false;
  }
  if (lits.size() == 1) {
    unchecked_enqueue(lits[0], kCRefUndef);
    if (propagate() != kCRefUndef) ok_ = false;
    return ok_;
  }
  const CRef c = alloc_clause(lits, false);
  clauses_.push_back(c);
  attach_clause(c);
  return true;
}

void Solver::unchecked_enqueue(Lit p, CRef from) {
  const Var v = var_of(p);
  DETERRENT_ASSERT(value(v) == LBool::Undef, "enqueue on assigned var");
  assigns_[v] = lbool_from(!sign_of(p));
  level_[v] = decision_level();
  reason_[v] = from;
  trail_.push_back(p);
}

void Solver::cancel_until(std::uint32_t level) {
  if (decision_level() <= level) return;
  closure_valid_ = false;
  for (std::size_t c = trail_.size(); c-- > trail_lim_[level];) {
    const Var x = var_of(trail_[c]);
    assigns_[x] = LBool::Undef;
    polarity_[x] = sign_of(trail_[c]);  // phase saving
    if (decision_[x]) heap_insert(x);
  }
  qhead_ = trail_lim_[level];
  trail_.resize(trail_lim_[level]);
  trail_lim_.resize(level);
}

void Solver::drop_retained() {
  cancel_until(0);
  retained_.clear();
}

Solver::CRef Solver::propagate() {
  CRef confl = kCRefUndef;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p became true; check clauses watching ~p
    stats_.propagations++;
    auto& ws = watches_[p.x];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (clause_dead(w.cref)) {
        ++i;  // lazily drop watchers of reduced clauses
        continue;
      }
      if (value(w.blocker) == LBool::True) {
        ws[j++] = ws[i++];
        continue;
      }
      const CRef c = w.cref;
      Lit* lits = clause_lits(c);
      const std::uint32_t size = clause_size(c);
      const Lit false_lit = ~p;
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      DETERRENT_ASSERT(lits[1] == false_lit, "watch invariant violated");
      ++i;

      const Lit first = lits[0];
      if (first != w.blocker && value(first) == LBool::True) {
        ws[j++] = {c, first};
        continue;
      }
      bool found_watch = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(lits[k]) != LBool::False) {
          std::swap(lits[1], lits[k]);
          watches_[(~lits[1]).x].push_back({c, first});
          found_watch = true;
          break;
        }
      }
      if (found_watch) continue;

      // Clause is unit under the current assignment, or conflicting.
      ws[j++] = {c, first};
      if (value(first) == LBool::False) {
        confl = c;
        qhead_ = trail_.size();
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        unchecked_enqueue(first, c);
      }
    }
    ws.resize(j);
  }
  return confl;
}

void Solver::analyze(CRef confl, std::vector<Lit>& out_learnt,
                     std::uint32_t& out_btlevel, std::uint32_t& out_lbd) {
  int path_count = 0;
  Lit p = kUndefLit;
  out_learnt.clear();
  out_learnt.push_back(kUndefLit);  // slot for the asserting literal
  std::size_t index = trail_.size() - 1;

  do {
    DETERRENT_ASSERT(confl != kCRefUndef, "analyze without reason");
    clause_bump(confl);
    const Lit* lits = clause_lits(confl);
    const std::uint32_t size = clause_size(confl);
    for (std::uint32_t k = (p == kUndefLit ? 0 : 1); k < size; ++k) {
      const Lit q = lits[k];
      const Var v = var_of(q);
      if (!seen_[v] && level_[v] > 0) {
        var_bump(v);
        seen_[v] = 1;
        if (level_[v] >= decision_level())
          ++path_count;
        else
          out_learnt.push_back(q);
      }
    }
    while (!seen_[var_of(trail_[index--])]) {
    }
    p = trail_[index + 1];
    confl = reason_[var_of(p)];
    seen_[var_of(p)] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Local minimization: a literal is redundant when its entire reason clause
  // is already implied by the rest of the learnt clause (all antecedents seen
  // or fixed at root level).
  std::vector<Lit> to_clear(out_learnt.begin(), out_learnt.end());
  std::size_t j = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    const Var v = var_of(out_learnt[i]);
    const CRef r = reason_[v];
    bool redundant = false;
    if (r != kCRefUndef) {
      redundant = true;
      const Lit* rl = clause_lits(r);
      const std::uint32_t rs = clause_size(r);
      for (std::uint32_t k = 1; k < rs; ++k) {
        const Var rv = var_of(rl[k]);
        if (!seen_[rv] && level_[rv] > 0) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) out_learnt[j++] = out_learnt[i];
  }
  out_learnt.resize(j);

  // Backtrack level: second-highest decision level in the clause.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i)
      if (level_[var_of(out_learnt[i])] > level_[var_of(out_learnt[max_i])]) max_i = i;
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level_[var_of(out_learnt[1])];
  }

  // LBD = number of distinct decision levels among the learnt literals.
  ++lbd_stamp_;
  out_lbd = 0;
  for (Lit l : out_learnt) {
    const std::uint32_t lvl = level_[var_of(l)];
    if (lvl > 0 && lbd_seen_[lvl % lbd_seen_.size()] != lbd_stamp_) {
      lbd_seen_[lvl % lbd_seen_.size()] = lbd_stamp_;
      ++out_lbd;
    }
  }

  for (Lit l : to_clear) seen_[var_of(l)] = 0;
}

void Solver::analyze_final(Lit p) {
  conflict_core_.clear();
  conflict_core_.push_back(p);
  if (decision_level() == 0) return;

  seen_[var_of(p)] = 1;
  for (std::size_t i = trail_.size(); i-- > trail_lim_[0];) {
    const Var x = var_of(trail_[i]);
    if (!seen_[x]) continue;
    if (reason_[x] == kCRefUndef) {
      // A decision below an assumption level is always an assumption literal.
      conflict_core_.push_back(trail_[i]);
    } else {
      const Lit* lits = clause_lits(reason_[x]);
      const std::uint32_t size = clause_size(reason_[x]);
      for (std::uint32_t k = 1; k < size; ++k)
        if (level_[var_of(lits[k])] > 0) seen_[var_of(lits[k])] = 1;
    }
    seen_[x] = 0;
  }
  seen_[var_of(p)] = 0;
}

Lit Solver::pick_branch_lit() {
  while (!heap_empty()) {
    const Var v = heap_pop();
    if (value(v) == LBool::Undef) return mk_lit(v, polarity_[v] != 0);
  }
  return kUndefLit;
}

void Solver::add_to_closure(Var v) {
  if (closure_mark_[v] == closure_stamp_) return;
  closure_mark_[v] = closure_stamp_;
  justify_stack_.push_back(v);
}

Lit Solver::pick_justified_lit(std::span<const Lit> assumptions) {
  if (!closure_valid_) {
    if (++closure_stamp_ == 0) {
      std::fill(closure_mark_.begin(), closure_mark_.end(), 0);
      closure_stamp_ = 1;
    }
    justify_stack_.clear();
    for (const Lit a : assumptions) add_to_closure(var_of(a));
    closure_valid_ = true;
  }
  while (!justify_stack_.empty()) {
    const Var v = justify_stack_.back();
    DETERRENT_ASSERT(value(v) != LBool::Undef, "unassigned net in the justification closure");
    const GateDef g = gates_[v];
    if (g.kind == GateKind::Free || level_[v] == 0) {
      justify_stack_.pop_back();
      continue;
    }
    const std::span<const Var> in(gate_fanins_.data() + g.first, g.count);
    // The value of the gate before its output inversion.
    const bool out = (value(v) == LBool::True) != g.inverted;
    const bool controlling = g.kind == GateKind::Or;  // the fanin value that fixes And/Or
    if (g.kind != GateKind::Xor && out == controlling) {
      // One fanin at the controlling value fixes the gate; prefer one that
      // is already in the closure or needs no justification.
      Var pick = kNoVar;
      for (const Var a : in) {
        if (value(a) != lbool_from(controlling)) continue;
        if (pick == kNoVar) pick = a;
        if (closure_mark_[a] == closure_stamp_ || gates_[a].kind == GateKind::Free ||
            level_[a] == 0) {
          pick = a;
          break;
        }
      }
      if (pick == kNoVar) {
        Var easiest = kNoVar;
        for (const Var a : in)
          if (value(a) == LBool::Undef && (easiest == kNoVar || easier(a, easiest, controlling)))
            easiest = a;
        return backtrace(easiest, controlling);
      }
      justify_stack_.pop_back();
      add_to_closure(pick);
      continue;
    }
    // And/Or at the non-controlling value, or Xor: every fanin fixes it.
    // Propagation has already assigned the And/Or fanins; an Xor may wait
    // for one.
    for (const Var a : in)
      if (value(a) == LBool::Undef)
        return backtrace(a, g.kind == GateKind::Xor ? parity_objective(in, a, out) : !controlling);
    justify_stack_.pop_back();
    for (const Var a : in) add_to_closure(a);
  }
  return kUndefLit;
}

bool Solver::parity_objective(std::span<const Var> in, Var a, bool parity) const {
  for (const Var b : in)
    if (b != a) parity ^= value(b) == LBool::Undef ? phase_value(b) : value(b) == LBool::True;
  return parity;
}

bool Solver::easier(Var a, Var b, bool want) const {
  const bool a_at_phase = phase_value(a) == want;
  if (a_at_phase != (phase_value(b) == want)) return a_at_phase;
  return controllability_[a][want] < controllability_[b][want];
}

void Solver::compute_controllability() {
  // SCOAP-style: a Free variable costs 1 either way; a gate costs one more
  // than its cheapest fanin at the controlling value, or than all of its
  // fanins at the other one; a parity, the cheapest fanin values that give
  // it. Sums saturate. Post-order over the gate DAG with an explicit stack.
  static constexpr std::uint32_t kMax = 0x3fffffffu;
  const auto add = [](std::uint32_t x, std::uint32_t y) { return std::min(kMax, x + y); };
  controllability_.assign(var_count(), {1, 1});
  std::vector<std::uint8_t> state(var_count(), 0);  // 1: fanins pushed, 2: done
  std::vector<Var> stack;
  for (Var root = 0; root < var_count(); ++root) {
    stack.push_back(root);
    while (!stack.empty()) {
      const Var v = stack.back();
      const GateDef g = gates_[v];
      const std::span<const Var> in(gate_fanins_.data() + g.first, g.count);
      if (state[v] == 0) {
        state[v] = 1;
        for (const Var a : in)
          if (state[a] == 0) stack.push_back(a);
        continue;
      }
      stack.pop_back();
      if (state[v] == 2 || g.kind == GateKind::Free) {
        state[v] = 2;
        continue;
      }
      state[v] = 2;
      std::array<std::uint32_t, 2> cost{};
      if (g.kind == GateKind::Xor) {
        std::array<std::uint32_t, 2> parity{0, kMax};  // cheapest even / odd
        for (const Var a : in) {
          const auto& c = controllability_[a];
          parity = {std::min(add(parity[0], c[0]), add(parity[1], c[1])),
                    std::min(add(parity[0], c[1]), add(parity[1], c[0]))};
        }
        cost = parity;
      } else {
        const bool controlling = g.kind == GateKind::Or;
        std::uint32_t cheapest = kMax;
        std::uint32_t all = 0;
        for (const Var a : in) {
          cheapest = std::min(cheapest, controllability_[a][controlling]);
          all = add(all, controllability_[a][!controlling]);
        }
        cost[controlling] = cheapest;
        cost[!controlling] = all;
      }
      if (g.inverted) std::swap(cost[0], cost[1]);
      controllability_[v] = {add(cost[0], 1), add(cost[1], 1)};
    }
  }
}

Lit Solver::backtrace(Var v, bool want) const {
  while (gates_[v].kind != GateKind::Free) {
    DETERRENT_ASSERT(value(v) == LBool::Undef, "backtrace through an assigned net");
    const GateDef g = gates_[v];
    const std::span<const Var> in(gate_fanins_.data() + g.first, g.count);
    want ^= g.inverted;
    // And/Or: the objective at a fanin is the un-inverted output value; AND
    // = 0 needs one fanin at 0, the easiest, AND = 1 needs every fanin at 1.
    // Xor: the parity the other fanins leave.
    const bool one_suffices = g.kind != GateKind::Xor && want == (g.kind == GateKind::Or);
    Var next = kNoVar;
    for (const Var a : in)
      if (value(a) == LBool::Undef &&
          (next == kNoVar || (one_suffices && easier(a, next, want))))
        next = a;
    // Propagation fixes a gate whose fanins are all assigned.
    DETERRENT_ASSERT(next != kNoVar, "unassigned gate with every fanin assigned");
    if (g.kind == GateKind::Xor) want = parity_objective(in, next, want);
    v = next;
  }
  return mk_lit(v, !want);
}

Solver::Result Solver::search(std::int64_t max_conflicts,
                              std::span<const Lit> assumptions) {
  std::int64_t conflict_count = 0;
  std::vector<Lit> learnt;

  for (;;) {
    const CRef confl = propagate();
    if (confl != kCRefUndef) {
      stats_.conflicts++;
      ++conflict_count;
      if (decision_level() == 0) {
        ok_ = false;
        return Result::Unsat;
      }
      std::uint32_t btlevel = 0;
      std::uint32_t lbd = 0;
      analyze(confl, learnt, btlevel, lbd);
      cancel_until(btlevel);
      if (learnt.size() == 1) {
        unchecked_enqueue(learnt[0], kCRefUndef);
      } else {
        const CRef cr = alloc_clause(learnt, true);
        learnts_.push_back(cr);
        set_clause_lbd(cr, lbd);
        attach_clause(cr);
        clause_bump(cr);
        unchecked_enqueue(learnt[0], cr);
      }
      var_decay();
      clause_decay();
    } else {
      if (max_conflicts >= 0 && conflict_count >= max_conflicts) {
        cancel_until(0);
        return Result::Unknown;
      }
      if (static_cast<double>(learnts_.size()) >= max_learnts_) {
        reduce_learnts();
        max_learnts_ *= 1.3;
      }

      Lit next = kUndefLit;
      while (decision_level() < assumptions.size()) {
        const Lit a = assumptions[decision_level()];
        if (value(a) == LBool::True) {
          new_decision_level();  // already implied; dedicate an empty level
        } else if (value(a) == LBool::False) {
          analyze_final(a);
          return Result::Unsat;
        } else {
          next = a;
          break;
        }
      }
      if (next == kUndefLit) {
        next = justify_ ? pick_justified_lit(assumptions) : pick_branch_lit();
        if (next == kUndefLit) {
          DETERRENT_ASSERT(justify_ || trail_.size() == var_count(),
                           "Sat with an unassigned variable outside the decision set");
          return Result::Sat;
        }
        stats_.decisions++;
      }
      new_decision_level();
      unchecked_enqueue(next, kCRefUndef);
    }
  }
}

Solver::Result Solver::solve(std::span<const Lit> assumptions,
                             std::int64_t conflict_budget) {
  drop_retained();
  return run(assumptions, conflict_budget, /*retain=*/false);
}

Solver::Result Solver::solve_justified(std::span<const Lit> assumptions,
                                       std::int64_t conflict_budget) {
  drop_retained();
  if (gates_.size() < var_count()) gates_.resize(var_count());  // the rest are Free
  if (closure_mark_.size() < var_count()) closure_mark_.resize(var_count(), 0);
  if (controllability_.size() != var_count()) compute_controllability();
  justify_ = true;
  closure_valid_ = false;
  try {
    const Result result = run(assumptions, conflict_budget, /*retain=*/false);
    justify_ = false;
    return result;
  } catch (...) {
    justify_ = false;
    throw;
  }
}

Solver::Result Solver::solve_retaining(std::span<const Lit> assumptions,
                                       std::int64_t conflict_budget) {
  // Level i + 1 holds assumption i and everything it implied under the
  // levels below, a propagation fixpoint, so the shared levels are exactly
  // what search() would rebuild for this query.
  std::size_t shared = 0;
  const std::size_t n = std::min(retained_.size(), assumptions.size());
  while (shared < n && retained_[shared] == assumptions[shared]) ++shared;
  cancel_until(static_cast<std::uint32_t>(shared));
  retained_.resize(shared);
  try {
    return run(assumptions, conflict_budget, /*retain=*/true);
  } catch (...) {
    drop_retained();
    throw;
  }
}

Solver::Result Solver::run(std::span<const Lit> assumptions,
                           std::int64_t conflict_budget, bool retain) {
  const Stats before = stats_;
  stats_.solves++;
  conflict_core_.clear();
  for (const Lit a : assumptions)
    DETERRENT_ASSERT(var_of(a) < var_count(), "assumption references unknown variable");
  if (!ok_) {
    last_ = Stats{};
    last_.solves = 1;
    return Result::Unsat;
  }

  if (max_learnts_ == 0.0)
    max_learnts_ = std::max(4000.0, static_cast<double>(clauses_.size()) * 0.4);

  const std::uint64_t conflicts_start = stats_.conflicts;
  Result status = Result::Unknown;
  for (std::uint64_t restart = 0; status == Result::Unknown; ++restart) {
    std::int64_t limit =
        static_cast<std::int64_t>(luby(2.0, restart) * kRestartFirst);
    if (conflict_budget >= 0) {
      const auto spent =
          static_cast<std::int64_t>(stats_.conflicts - conflicts_start);
      if (spent >= conflict_budget) break;  // give up: Unknown
      limit = std::min(limit, conflict_budget - spent);
    }
    // Every re-entry that actually searches again is a restart (budget
    // give-ups exit above and are not counted).
    if (restart > 0) stats_.restarts++;
    status = search(limit, assumptions);
  }

  if (status == Result::Sat) {
    model_.assign(assigns_.begin(), assigns_.end());
    model_total_ = trail_.size() == var_count();
  }
  if (retain && status != Result::Unknown) {
    // Levels up to the assumption count are assumption levels (search()
    // decides every assumption before it branches); Unsat stops at the
    // failed one.
    cancel_until(std::min(decision_level(),
                          static_cast<std::uint32_t>(assumptions.size())));
    retained_.assign(assumptions.begin(), assumptions.begin() + decision_level());
  } else {
    drop_retained();
  }

  // Per-solve deltas of the cumulative counters.
  last_.conflicts = stats_.conflicts - before.conflicts;
  last_.decisions = stats_.decisions - before.decisions;
  last_.propagations = stats_.propagations - before.propagations;
  last_.restarts = stats_.restarts - before.restarts;
  last_.learnt_clauses = stats_.learnt_clauses - before.learnt_clauses;
  last_.solves = 1;
  return status;
}

void Solver::reduce_learnts() {
  std::vector<CRef> candidates;
  candidates.reserve(learnts_.size());
  for (const CRef c : learnts_) {
    if (clause_dead(c)) continue;
    const Lit first = clause_lits(c)[0];
    const bool locked =
        reason_[var_of(first)] == c && value(first) == LBool::True;
    if (!locked && clause_lbd(c) > 2 && clause_size(c) > 2) candidates.push_back(c);
  }
  std::sort(candidates.begin(), candidates.end(), [this](CRef a, CRef b) {
    return clause_activity(a) < clause_activity(b);
  });
  for (std::size_t i = 0; i < candidates.size() / 2; ++i) mark_dead(candidates[i]);

  learnts_.erase(std::remove_if(learnts_.begin(), learnts_.end(),
                                [this](CRef c) { return clause_dead(c); }),
                 learnts_.end());

  if (dead_words_ * 3 > arena_.size()) compact_arena();
}

void Solver::compact_arena() {
  std::vector<std::uint32_t> new_arena;
  new_arena.reserve(arena_.size() - dead_words_);
  std::unordered_map<CRef, CRef> reloc;
  reloc.reserve(clauses_.size() + learnts_.size());

  auto move_list = [&](std::vector<CRef>& list) {
    std::size_t j = 0;
    for (const CRef c : list) {
      if (clause_dead(c)) continue;
      const CRef nc = static_cast<CRef>(new_arena.size());
      const std::uint32_t words = kHeaderWords + clause_size(c);
      for (std::uint32_t k = 0; k < words; ++k) new_arena.push_back(arena_[c + k]);
      reloc.emplace(c, nc);
      list[j++] = nc;
    }
    list.resize(j);
  };
  move_list(clauses_);
  move_list(learnts_);
  arena_ = std::move(new_arena);
  dead_words_ = 0;

  // Reasons are meaningful only for assigned variables; stale entries may
  // reference reduced clauses, so rebuild from the trail.
  std::vector<CRef> new_reason(reason_.size(), kCRefUndef);
  for (const Lit p : trail_) {
    const Var v = var_of(p);
    if (reason_[v] != kCRefUndef) new_reason[v] = reloc.at(reason_[v]);
  }
  reason_ = std::move(new_reason);

  for (auto& ws : watches_) ws.clear();
  for (const CRef c : clauses_) attach_clause(c);
  for (const CRef c : learnts_) attach_clause(c);
}

void Solver::var_bump(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  heap_update(v);
}

void Solver::clause_bump(CRef c) {
  if (!clause_learnt(c)) return;
  float act = clause_activity(c) + static_cast<float>(cla_inc_);
  if (act > 1e20f) {
    for (const CRef lc : learnts_)
      set_clause_activity(lc, clause_activity(lc) * 1e-20f);
    cla_inc_ *= 1e-20;
    act = clause_activity(c) + static_cast<float>(cla_inc_);
  }
  set_clause_activity(c, act);
}

void Solver::heap_insert(Var v) {
  if (heap_pos_[v] != kNotInHeap) return;
  heap_pos_[v] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_update(Var v) {
  if (heap_pos_[v] != kNotInHeap) heap_sift_up(heap_pos_[v]);
}

Var Solver::heap_pop() {
  DETERRENT_ASSERT(!heap_.empty(), "heap_pop on empty heap");
  const Var top = heap_[0];
  heap_pos_[top] = kNotInHeap;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(std::size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_lt(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const Var v = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_lt(heap_[child + 1], heap_[child])) ++child;
    if (!heap_lt(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

void Solver::randomize_phases(util::Rng& rng) {
  drop_retained();  // cancelling later would overwrite the fresh phases
  for (auto& p : polarity_) p = rng.bernoulli(0.5) ? 1 : 0;
}

double Solver::luby(double y, std::uint64_t x) {
  // Find the finite subsequence containing index x and its position within.
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return std::pow(y, static_cast<double>(seq));
}

}  // namespace deterrent::sat
