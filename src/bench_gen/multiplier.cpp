#include "bench_gen/multiplier.hpp"

#include <string>
#include <vector>

#include "util/assert.hpp"

namespace deterrent::bench_gen {

using netlist::GateType;
using netlist::NetId;

namespace {

struct Adder {
  NetId sum;
  NetId carry;
};

Adder half_adder(netlist::NetlistBuilder& b, NetId p, NetId q) {
  return {b.add_gate(GateType::Xor, {p, q}), b.add_gate(GateType::And, {p, q})};
}

Adder full_adder(netlist::NetlistBuilder& b, NetId p, NetId q, NetId cin) {
  const NetId pq = b.add_gate(GateType::Xor, {p, q});
  const NetId sum = b.add_gate(GateType::Xor, {pq, cin});
  const NetId c1 = b.add_gate(GateType::And, {p, q});
  const NetId c2 = b.add_gate(GateType::And, {pq, cin});
  const NetId carry = b.add_gate(GateType::Or, {c1, c2});
  return {sum, carry};
}

}  // namespace

netlist::Netlist generate_array_multiplier(unsigned width) {
  DETERRENT_ASSERT(width >= 2, "multiplier width must be at least 2");
  netlist::NetlistBuilder b;

  std::vector<NetId> a(width);
  std::vector<NetId> x(width);
  for (unsigned i = 0; i < width; ++i) a[i] = b.add_input(std::string("a").append(std::to_string(i)));
  for (unsigned i = 0; i < width; ++i) x[i] = b.add_input(std::string("b").append(std::to_string(i)));

  // Accumulator over product bit positions; kNoNet represents a constant 0
  // that has not materialized as a gate yet.
  std::vector<NetId> acc(2 * width, netlist::kNoNet);

  for (unsigned i = 0; i < width; ++i) {
    NetId carry = netlist::kNoNet;
    for (unsigned j = 0; j < width; ++j) {
      const unsigned pos = i + j;
      const NetId pp = b.add_gate(GateType::And, {a[j], x[i]});
      const NetId have = acc[pos];
      if (have == netlist::kNoNet && carry == netlist::kNoNet) {
        acc[pos] = pp;
      } else if (have != netlist::kNoNet && carry != netlist::kNoNet) {
        const Adder fa = full_adder(b, pp, have, carry);
        acc[pos] = fa.sum;
        carry = fa.carry;
      } else {
        const Adder ha = half_adder(b, pp, have != netlist::kNoNet ? have : carry);
        acc[pos] = ha.sum;
        carry = ha.carry;
      }
    }
    // Ripple the row's final carry up through the accumulator.
    for (unsigned pos = i + width; carry != netlist::kNoNet && pos < 2 * width; ++pos) {
      if (acc[pos] == netlist::kNoNet) {
        acc[pos] = carry;
        carry = netlist::kNoNet;
      } else {
        const Adder ha = half_adder(b, acc[pos], carry);
        acc[pos] = ha.sum;
        carry = ha.carry;
      }
    }
  }

  for (unsigned k = 0; k < 2 * width; ++k) {
    if (acc[k] == netlist::kNoNet) acc[k] = b.add_const(false);
    b.mark_output(acc[k]);
  }
  return b.build();
}

}  // namespace deterrent::bench_gen
