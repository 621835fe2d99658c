#include "bench_gen/random_circuit.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace deterrent::bench_gen {

using netlist::GateType;
using netlist::NetId;

netlist::Netlist generate_random_circuit(const RandomCircuitProfile& profile) {
  DETERRENT_ASSERT(profile.n_inputs >= 2, "profile needs at least two inputs");
  DETERRENT_ASSERT(profile.n_gates >= 1, "profile needs at least one gate");

  util::Rng rng(profile.seed ^ 0xbe9c4f00dULL);
  netlist::NetlistBuilder builder;

  std::vector<NetId> sources;  // everything usable as a fanin so far
  sources.reserve(profile.n_inputs + profile.n_dffs + profile.n_gates);

  for (std::size_t i = 0; i < profile.n_inputs; ++i)
    sources.push_back(builder.add_input("pi" + std::to_string(i)));

  // DFF outputs participate as fanin sources from the start; their data
  // inputs are bound to late nets below, forming sequential feedback.
  std::vector<NetId> dff_q;
  for (std::size_t i = 0; i < profile.n_dffs; ++i) {
    const NetId q = builder.add_dff(netlist::kNoNet, "ff" + std::to_string(i));
    dff_q.push_back(q);
    sources.push_back(q);
  }

  const double weights[8] = {profile.w_and, profile.w_nand, profile.w_or,
                             profile.w_nor, profile.w_xor, profile.w_xnor,
                             profile.w_not, profile.w_buf};
  const GateType types[8] = {GateType::And, GateType::Nand, GateType::Or,
                             GateType::Nor, GateType::Xor, GateType::Xnor,
                             GateType::Not, GateType::Buf};
  double total_weight = 0.0;
  for (const double w : weights) total_weight += w;

  auto sample_type = [&]() {
    double u = rng.uniform() * total_weight;
    for (int k = 0; k < 8; ++k) {
      u -= weights[k];
      if (u <= 0.0) return types[k];
    }
    return GateType::And;
  };

  auto pick_fanin = [&]() -> NetId {
    if (sources.size() > profile.locality_window &&
        rng.bernoulli(profile.locality_bias)) {
      const std::size_t lo = sources.size() - profile.locality_window;
      return sources[lo + rng.below(profile.locality_window)];
    }
    return sources[rng.below(sources.size())];
  };

  std::vector<NetId> gate_nets;
  gate_nets.reserve(profile.n_gates);
  for (std::size_t g = 0; g < profile.n_gates; ++g) {
    const GateType type = sample_type();
    std::size_t arity;
    if (type == GateType::Not || type == GateType::Buf) {
      arity = 1;
    } else {
      arity = 2;
      if (rng.bernoulli(profile.wide_gate_fraction))
        arity = 3 + rng.below(2);  // 3 or 4
    }
    std::vector<NetId> fanins;
    fanins.reserve(arity);
    while (fanins.size() < arity) {
      const NetId f = pick_fanin();
      if (std::find(fanins.begin(), fanins.end(), f) == fanins.end())
        fanins.push_back(f);
    }
    const NetId net =
        builder.add_gate(type, std::move(fanins), std::string("g").append(std::to_string(g)));
    gate_nets.push_back(net);
    sources.push_back(net);
  }

  // Bind DFF data inputs to late gate nets (deep feedback, like the s-series).
  for (const NetId q : dff_q) {
    const std::size_t tail = std::max<std::size_t>(1, gate_nets.size() / 2);
    const NetId d = gate_nets[gate_nets.size() - tail + rng.below(tail)];
    builder.set_dff_input(q, d);
  }

  // Primary outputs: prefer late nets; dedup; pad from anywhere if needed.
  std::vector<NetId> outputs;
  {
    std::vector<bool> chosen(sources.size() + 1, false);
    const std::size_t want = std::min(profile.n_outputs, gate_nets.size());
    std::size_t guard = 0;
    while (outputs.size() < want && guard++ < want * 50) {
      const std::size_t tail = std::max<std::size_t>(1, gate_nets.size() / 3);
      const NetId cand = gate_nets[gate_nets.size() - tail + rng.below(tail)];
      if (!chosen[cand]) {
        chosen[cand] = true;
        outputs.push_back(cand);
      }
    }
  }
  for (const NetId out : outputs) builder.mark_output(out);

  return builder.build();
}

}  // namespace deterrent::bench_gen
