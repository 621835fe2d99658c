#include "netlist/netlist.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace deterrent::netlist {

std::optional<NetId> Netlist::find(const std::string& net_name) const {
  auto it = name_index_.find(net_name);
  if (it == name_index_.end()) return std::nullopt;
  return it->second;
}

NetId NetlistBuilder::declare(std::string name) {
  NetId id = static_cast<NetId>(types_.size());
  types_.push_back(kUndefined);
  fanins_.emplace_back();
  names_.push_back(std::move(name));
  return id;
}

NetId NetlistBuilder::add_defined(GateType type, std::vector<NetId> fanins,
                                  std::string name) {
  NetId id = declare(std::move(name));
  types_[id] = type;
  fanins_[id] = std::move(fanins);
  return id;
}

NetId NetlistBuilder::add_input(std::string name) {
  return add_defined(GateType::Input, {}, std::move(name));
}

NetId NetlistBuilder::add_const(bool value, std::string name) {
  return add_defined(value ? GateType::Const1 : GateType::Const0, {}, std::move(name));
}

NetId NetlistBuilder::add_gate(GateType type, std::vector<NetId> fanins,
                               std::string name) {
  if (!is_combinational_cell(type))
    throw Error("add_gate: " + std::string(to_string(type)) + " is not a combinational cell");
  return add_defined(type, std::move(fanins), std::move(name));
}

NetId NetlistBuilder::add_dff(NetId d, std::string name) {
  std::vector<NetId> fanins;
  if (d != kNoNet) fanins.push_back(d);
  return add_defined(GateType::Dff, std::move(fanins), std::move(name));
}

void NetlistBuilder::check_new_definition(NetId net) const {
  if (net >= types_.size()) throw Error("define: unknown net id");
  if (types_[net] != kUndefined)
    throw Error("define: net '" + names_[net] + "' already defined");
}

void NetlistBuilder::define_input(NetId net) {
  check_new_definition(net);
  types_[net] = GateType::Input;
}

void NetlistBuilder::define_gate(NetId net, GateType type, std::vector<NetId> fanins) {
  check_new_definition(net);
  if (!is_combinational_cell(type))
    throw Error("define_gate: " + std::string(to_string(type)) +
                " is not a combinational cell");
  types_[net] = type;
  fanins_[net] = std::move(fanins);
}

void NetlistBuilder::define_dff(NetId net, NetId d) {
  check_new_definition(net);
  types_[net] = GateType::Dff;
  if (d != kNoNet) fanins_[net] = {d};
}

void NetlistBuilder::set_dff_input(NetId q, NetId d) {
  if (q >= types_.size() || types_[q] != GateType::Dff)
    throw Error("set_dff_input: net is not a DFF");
  fanins_[q] = {d};
}

void NetlistBuilder::mark_output(NetId net) {
  if (net >= types_.size()) throw Error("mark_output: unknown net id");
  outputs_.push_back(net);
}

const std::string& NetlistBuilder::name(NetId net) const {
  static const std::string empty;
  return net < names_.size() ? names_[net] : empty;
}

namespace {

std::string issue_name(const std::vector<std::string>& names, NetId id) {
  if (!names[id].empty()) return "'" + names[id] + "'";
  std::string name = "#";
  name += std::to_string(id);
  return name;
}

}  // namespace

std::vector<BuildIssue> NetlistBuilder::validate() const {
  std::vector<BuildIssue> issues;
  const std::size_t n = types_.size();

  bool shape_ok = true;
  for (NetId id = 0; id < n; ++id) {
    if (types_[id] == kUndefined) {
      issues.push_back({BuildIssue::Kind::Undefined, id,
                        "net " + issue_name(names_, id) +
                            " is used but never driven"});
      shape_ok = false;
      continue;
    }
    const FaninBounds bounds = fanin_bounds(types_[id]);
    const std::size_t arity = fanins_[id].size();
    if (arity < bounds.min || (bounds.max != 0 && arity > bounds.max)) {
      issues.push_back({BuildIssue::Kind::Arity, id,
                        "net " + issue_name(names_, id) + " has invalid fanin count " +
                            std::to_string(arity) + " for " +
                            std::string(to_string(types_[id]))});
      shape_ok = false;
    }
    for (NetId f : fanins_[id]) {
      if (f >= n) {
        issues.push_back({BuildIssue::Kind::OutOfRangeFanin, id,
                          "net " + issue_name(names_, id) +
                              " has out-of-range fanin #" + std::to_string(f)});
        shape_ok = false;
      }
    }
  }
  // Cycle membership is only meaningful on a fully-driven graph.
  if (!shape_ok) return issues;

  // Iterative Tarjan SCC over the combinational dependency graph (edges
  // gate -> fanin; DFF data inputs cross a clock edge and are excluded).
  // Every SCC with more than one net — or a gate feeding itself — is a
  // combinational cycle; report one issue per SCC, anchored at its first net.
  constexpr std::uint32_t kUnvisited = 0xffffffffu;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NetId> scc_stack;
  std::uint32_t next_index = 0;

  struct Frame {
    NetId v;
    std::size_t child;
  };
  std::vector<Frame> dfs;

  for (NetId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    dfs.push_back({root, 0});
    while (!dfs.empty()) {
      Frame& fr = dfs.back();
      const NetId v = fr.v;
      if (fr.child == 0) {
        index[v] = lowlink[v] = next_index++;
        scc_stack.push_back(v);
        on_stack[v] = true;
      }
      const bool comb = is_combinational_cell(types_[v]);
      const std::size_t degree = comb ? fanins_[v].size() : 0;
      if (fr.child < degree) {
        const NetId w = fanins_[v][fr.child++];
        if (index[w] == kUnvisited) {
          dfs.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        std::vector<NetId> scc;
        NetId w;
        do {
          w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[w] = false;
          scc.push_back(w);
        } while (w != v);
        const bool self_loop =
            scc.size() == 1 && comb &&
            std::find(fanins_[v].begin(), fanins_[v].end(), v) != fanins_[v].end();
        if (scc.size() > 1 || self_loop) {
          std::sort(scc.begin(), scc.end());
          std::string path;
          constexpr std::size_t kMaxListed = 8;
          for (std::size_t i = 0; i < scc.size() && i < kMaxListed; ++i) {
            if (i) path += " -> ";
            path += issue_name(names_, scc[i]);
          }
          if (scc.size() > kMaxListed)
            path += " -> ... (" + std::to_string(scc.size() - kMaxListed) + " more)";
          issues.push_back({BuildIssue::Kind::Cycle, scc.front(),
                            "combinational cycle through " +
                                std::to_string(scc.size()) + " net" +
                                (scc.size() == 1 ? "" : "s") + ": " + path});
        }
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        Frame& parent = dfs.back();
        lowlink[parent.v] = std::min(lowlink[parent.v], lowlink[v]);
      }
    }
  }

  std::sort(issues.begin(), issues.end(),
            [](const BuildIssue& a, const BuildIssue& b) { return a.net < b.net; });
  return issues;
}

Netlist NetlistBuilder::build() {
  const std::size_t n = types_.size();

  // Full-definition and arity validation (structured, so callers that went
  // through validate() first never pay twice for a malformed design: a clean
  // validate() guarantees this throws nothing).
  if (auto issues = validate(); !issues.empty())
    throw Error("build: " + issues.front().message +
                (issues.size() > 1
                     ? " (+" + std::to_string(issues.size() - 1) + " more issues)"
                     : ""));

  Netlist out;
  out.types_ = std::move(types_);
  out.names_ = std::move(names_);
  out.outputs_ = std::move(outputs_);

  // Fanin CSR.
  out.fanin_offset_.assign(n + 1, 0);
  for (NetId id = 0; id < n; ++id)
    out.fanin_offset_[id + 1] =
        out.fanin_offset_[id] + static_cast<std::uint32_t>(fanins_[id].size());
  out.fanins_.reserve(out.fanin_offset_[n]);
  for (NetId id = 0; id < n; ++id)
    out.fanins_.insert(out.fanins_.end(), fanins_[id].begin(), fanins_[id].end());

  // Kahn topological sort over combinational dependencies. DFF outputs are
  // sources (their D-input dependency crosses a clock edge, not this cycle).
  std::vector<std::uint32_t> pending(n, 0);
  for (NetId id = 0; id < n; ++id)
    if (is_combinational_cell(out.types_[id]))
      pending[id] = static_cast<std::uint32_t>(out.fanins(id).size());

  out.topo_order_.reserve(n);
  out.levels_.assign(n, 0);

  // Fanout counting restricted to combinational consumers for the sort; the
  // stored fanout CSR below includes DFF consumers as well.
  std::vector<NetId> ready;
  for (NetId id = 0; id < n; ++id)
    if (!is_combinational_cell(out.types_[id]) || pending[id] == 0) {
      ready.push_back(id);
      if (out.types_[id] == GateType::Input) out.inputs_.push_back(id);
      if (out.types_[id] == GateType::Dff) out.dffs_.push_back(id);
    }

  // Temporary combinational fanout adjacency for Kahn's algorithm.
  std::vector<std::uint32_t> comb_fanout_offset(n + 1, 0);
  for (NetId id = 0; id < n; ++id) {
    if (!is_combinational_cell(out.types_[id])) continue;
    for (NetId f : out.fanins(id)) comb_fanout_offset[f + 1]++;
  }
  for (std::size_t i = 0; i < n; ++i) comb_fanout_offset[i + 1] += comb_fanout_offset[i];
  std::vector<NetId> comb_fanout(comb_fanout_offset[n]);
  {
    std::vector<std::uint32_t> cursor(comb_fanout_offset.begin(),
                                      comb_fanout_offset.end() - 1);
    for (NetId id = 0; id < n; ++id) {
      if (!is_combinational_cell(out.types_[id])) continue;
      for (NetId f : out.fanins(id)) comb_fanout[cursor[f]++] = id;
    }
  }

  std::size_t head = 0;
  std::vector<NetId> order = std::move(ready);
  while (head < order.size()) {
    NetId id = order[head++];
    unsigned lvl = 0;
    if (is_combinational_cell(out.types_[id]) && !out.fanins(id).empty()) {
      for (NetId f : out.fanins(id)) lvl = std::max(lvl, out.levels_[f] + 1);
    }
    out.levels_[id] = lvl;
    out.max_level_ = std::max(out.max_level_, lvl);
    for (std::uint32_t k = comb_fanout_offset[id]; k < comb_fanout_offset[id + 1]; ++k) {
      NetId consumer = comb_fanout[k];
      if (--pending[consumer] == 0) order.push_back(consumer);
    }
  }
  if (order.size() != n)
    throw Error("build: combinational cycle detected (" +
                std::to_string(n - order.size()) + " nets unreachable)");
  out.topo_order_ = std::move(order);

  // Full fanout CSR (includes DFF data-input consumers).
  out.fanout_offset_.assign(n + 1, 0);
  for (NetId id = 0; id < n; ++id)
    for (NetId f : out.fanins(id)) out.fanout_offset_[f + 1]++;
  for (std::size_t i = 0; i < n; ++i) out.fanout_offset_[i + 1] += out.fanout_offset_[i];
  out.fanouts_.resize(out.fanout_offset_[n]);
  {
    std::vector<std::uint32_t> cursor(out.fanout_offset_.begin(),
                                      out.fanout_offset_.end() - 1);
    for (NetId id = 0; id < n; ++id)
      for (NetId f : out.fanins(id)) out.fanouts_[cursor[f]++] = id;
  }

  out.gate_count_ = 0;
  for (NetId id = 0; id < n; ++id)
    if (is_combinational_cell(out.types_[id])) out.gate_count_++;

  for (NetId id = 0; id < n; ++id)
    if (!out.names_[id].empty()) out.name_index_.emplace(out.names_[id], id);

  fanins_.clear();
  return out;
}

}  // namespace deterrent::netlist
