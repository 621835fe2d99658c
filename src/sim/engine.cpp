#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "sim/kernels/dispatch.hpp"
#include "util/assert.hpp"

namespace deterrent::sim {

using netlist::GateType;
using netlist::NetId;

static_assert(std::is_same_v<netlist::NetId, std::uint32_t>,
              "kernels::ProgramView borrows the NetId arrays as raw uint32");

Engine::Engine(const netlist::Netlist& netlist, std::optional<util::Isa> forced_isa)
    : netlist_(&netlist), kernels_(&kernels::select_kernel_table(forced_isa)) {
  if (netlist.is_sequential())
    throw Error(
        "Engine requires a combinational netlist; apply make_full_scan to "
        "sequential designs first");

  op_.reserve(netlist.gate_count());
  out_.reserve(netlist.gate_count());
  a_.reserve(netlist.gate_count());
  b_.reserve(netlist.gate_count());

  for (const NetId id : netlist.topo_order()) {
    const GateType type = netlist.type(id);
    if (type == GateType::Input) continue;
    const auto fanins = netlist.fanins(id);

    Op op;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    switch (type) {
      case GateType::Const0:
        op = Op::Const0;
        break;
      case GateType::Const1:
        op = Op::Const1;
        break;
      case GateType::Buf:
        op = Op::Buf;
        a = fanins[0];
        break;
      case GateType::Not:
        op = Op::Not;
        a = fanins[0];
        break;
      case GateType::And:
      case GateType::Nand:
      case GateType::Or:
      case GateType::Nor:
      case GateType::Xor:
      case GateType::Xnor: {
        const bool inverted = type == GateType::Nand || type == GateType::Nor ||
                              type == GateType::Xnor;
        if (fanins.size() == 1) {
          // Degenerate n-ary gate: AND(x) == x, NAND(x) == ~x, and likewise
          // for the other families.
          op = inverted ? Op::Not : Op::Buf;
          a = fanins[0];
        } else if (fanins.size() == 2) {
          switch (type) {
            case GateType::And: op = Op::And2; break;
            case GateType::Nand: op = Op::Nand2; break;
            case GateType::Or: op = Op::Or2; break;
            case GateType::Nor: op = Op::Nor2; break;
            case GateType::Xor: op = Op::Xor2; break;
            default: op = Op::Xnor2; break;
          }
          a = fanins[0];
          b = fanins[1];
        } else {
          switch (type) {
            case GateType::And: op = Op::AndN; break;
            case GateType::Nand: op = Op::NandN; break;
            case GateType::Or: op = Op::OrN; break;
            case GateType::Nor: op = Op::NorN; break;
            case GateType::Xor: op = Op::XorN; break;
            default: op = Op::XnorN; break;
          }
          a = static_cast<std::uint32_t>(nary_fanins_.size());
          b = static_cast<std::uint32_t>(fanins.size());
          nary_fanins_.insert(nary_fanins_.end(), fanins.begin(), fanins.end());
        }
        break;
      }
      case GateType::Input:
      case GateType::Dff:
      default:
        DETERRENT_ASSERT(false, "unreachable: sources are skipped above");
        return;
    }
    op_.push_back(op);
    out_.push_back(id);
    a_.push_back(a);
    b_.push_back(b);
  }

  // Incremental-mode side table: for each net, the program entries it feeds
  // (CSR). In a combinational netlist every fanout of a net is a gate, so
  // this is the netlist's fanout list translated to op indices once, sparing
  // resimulate a per-event netlist indirection.
  std::vector<std::uint32_t> net_to_op(netlist.net_count(), kNoOp);
  for (std::size_t k = 0; k < op_.size(); ++k)
    net_to_op[out_[k]] = static_cast<std::uint32_t>(k);
  fanout_op_offset_.assign(netlist.net_count() + 1, 0);
  for (NetId n = 0; n < netlist.net_count(); ++n) {
    std::uint32_t count = 0;
    for (const NetId fo : netlist.fanouts(n))
      if (net_to_op[fo] != kNoOp) ++count;
    fanout_op_offset_[n + 1] = fanout_op_offset_[n] + count;
  }
  fanout_ops_.resize(fanout_op_offset_.back());
  for (NetId n = 0; n < netlist.net_count(); ++n) {
    std::uint32_t at = fanout_op_offset_[n];
    for (const NetId fo : netlist.fanouts(n))
      if (net_to_op[fo] != kNoOp) fanout_ops_[at++] = net_to_op[fo];
  }
}

kernels::ProgramView Engine::program_view() const {
  kernels::ProgramView view;
  view.op = op_.data();
  view.out = out_.data();
  view.a = a_.data();
  view.b = b_.data();
  view.nary_fanins = nary_fanins_.data();
  view.n_ops = op_.size();
  return view;
}

// The per-op W-word loops live in sim/kernels/ (one table per ISA, selected
// at construction); run() and resimulate() both call through kernels_, so
// full and incremental evaluation are bit-identical per backend by
// construction. Evaluating in place is safe: a combinational gate never
// reads its own output.
void Engine::run(std::uint64_t* values, std::size_t n_words) const {
  kernels_->run_program(program_view(), values, n_words);
}

void Engine::evaluate(EvalBuffer& buf, std::span<const std::uint64_t> input_words,
                      std::size_t n_words) const {
  const auto inputs = netlist_->inputs();
  DETERRENT_ASSERT(n_words >= 1, "evaluate: n_words must be positive");
  DETERRENT_ASSERT(input_words.size() == inputs.size() * n_words,
                   "evaluate: input word count mismatch");
  buf.resize(netlist_->net_count(), n_words);
  std::uint64_t* v = buf.values_.data();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    std::copy_n(input_words.data() + i * n_words, n_words,
                v + std::size_t{inputs[i]} * n_words);
  run(v, n_words);
  buf.owner_ = this;
}

std::size_t Engine::resimulate(EvalBuffer& buf,
                               std::span<const std::uint32_t> dirty_inputs,
                               std::span<const std::uint64_t> dirty_words) const {
  const auto inputs = netlist_->inputs();
  DETERRENT_ASSERT(buf.primed_for(*this),
                   "resimulate: buffer was not primed by this engine");
  DETERRENT_ASSERT(buf.words_ == 1 && buf.nets_ == netlist_->net_count(),
                   "resimulate: buffer was not primed at one word per net");
  DETERRENT_ASSERT(dirty_words.size() == dirty_inputs.size(),
                   "resimulate: dirty word count mismatch");
  std::uint64_t* v = buf.values_.data();

  // Dense fallback: with this many dirty inputs the union cone is almost
  // certainly the whole program, and the per-op scheduling overhead would
  // make the "incremental" path slower than a straight sweep.
  if (dirty_inputs.size() * kDenseFallbackDivisor >= inputs.size()) {
    for (std::size_t j = 0; j < dirty_inputs.size(); ++j) {
      DETERRENT_ASSERT(dirty_inputs[j] < inputs.size(),
                       "resimulate: dirty input ordinal out of range");
      v[inputs[dirty_inputs[j]]] = dirty_words[j];
    }
    run(v, 1);
    return op_.size();
  }

  // One bit per program entry; ~n_ops/8 bytes, L1-resident for typical
  // circuits. Bits are cleared as they are drained, so between calls the
  // mask is guaranteed all-zero and never needs a reset.
  const std::size_t mask_words = (op_.size() + 63) / 64;
  if (buf.dirty_ops_.size() < mask_words) buf.dirty_ops_.resize(mask_words, 0);
  std::uint64_t* mask = buf.dirty_ops_.data();

  std::size_t min_word = mask_words, max_word = 0;
  const auto schedule_fanouts = [&](NetId net) {
    const std::uint32_t* fo = fanout_ops_.data() + fanout_op_offset_[net];
    const std::uint32_t* end = fanout_ops_.data() + fanout_op_offset_[net + 1];
    for (; fo != end; ++fo) {
      const std::size_t word = *fo >> 6;
      mask[word] |= 1ULL << (*fo & 63);
      min_word = std::min(min_word, word);
      max_word = std::max(max_word, word);
    }
  };

  for (std::size_t j = 0; j < dirty_inputs.size(); ++j) {
    DETERRENT_ASSERT(dirty_inputs[j] < inputs.size(),
                     "resimulate: dirty input ordinal out of range");
    const NetId net = inputs[dirty_inputs[j]];
    if (v[net] == dirty_words[j]) continue;  // no actual change
    v[net] = dirty_words[j];
    schedule_fanouts(net);
  }

  buf.op_scratch_.resize(1);
  std::uint64_t* tmp = buf.op_scratch_.data();
  const kernels::ProgramView program = program_view();
  const kernels::EvalOpFn eval_op = kernels_->eval_op;
  std::size_t evaluated = 0;
  // Program order is topological, so every op scheduled by a change sits at
  // a strictly larger index: one ascending scan of the mask drains the whole
  // worklist. Re-reading mask[word] after each pop picks up same-word
  // schedules at higher bit positions.
  for (std::size_t word = min_word; word <= max_word && word < mask_words; ++word) {
    while (mask[word] != 0) {
      const int bit = std::countr_zero(mask[word]);
      mask[word] &= mask[word] - 1;
      const std::size_t k = word * 64 + static_cast<std::size_t>(bit);
      eval_op(program, k, v, tmp);
      ++evaluated;
      if (*tmp == v[out_[k]]) continue;  // change cut-off
      v[out_[k]] = *tmp;
      schedule_fanouts(out_[k]);
    }
  }
  return evaluated;
}

void Engine::evaluate_blocks(EvalBuffer& buf, const PatternSet& patterns,
                             std::size_t first_block, std::size_t n_words) const {
  const auto inputs = netlist_->inputs();
  DETERRENT_ASSERT(patterns.input_count() == inputs.size(),
                   "evaluate_blocks: pattern arity mismatch");
  DETERRENT_ASSERT(n_words >= 1 && first_block + n_words <= patterns.block_count(),
                   "evaluate_blocks: block range out of bounds");
  buf.resize(netlist_->net_count(), n_words);
  std::uint64_t* v = buf.values_.data();
  for (std::size_t w = 0; w < n_words; ++w) {
    const auto block = patterns.block(first_block + w);
    for (std::size_t i = 0; i < inputs.size(); ++i)
      v[std::size_t{inputs[i]} * n_words + w] = block[i];
  }
  run(v, n_words);
  buf.owner_ = this;
}

void Engine::sweep(const PatternSet& patterns,
                   const std::function<void(std::size_t, std::size_t,
                                            const EvalBuffer&)>& sink,
                   std::size_t words_per_sweep) const {
  sweep_blocks(
      patterns, 0, patterns.block_count(),
      [&](std::size_t first, std::size_t n, const EvalBuffer& buf) {
        sink(first, n, buf);
        return true;
      },
      words_per_sweep);
}

void Engine::sweep_blocks(
    const PatternSet& patterns, std::size_t first_block, std::size_t end_block,
    const std::function<bool(std::size_t, std::size_t, const EvalBuffer&)>& sink,
    std::size_t words_per_sweep) const {
  DETERRENT_ASSERT(words_per_sweep >= 1, "sweep_blocks: words_per_sweep must be positive");
  DETERRENT_ASSERT(end_block <= patterns.block_count(),
                   "sweep_blocks: block range out of bounds");
  EvalBuffer buf;
  for (std::size_t first = first_block; first < end_block; first += words_per_sweep) {
    const std::size_t n = std::min(words_per_sweep, end_block - first);
    evaluate_blocks(buf, patterns, first, n);
    if (!sink(first, n, buf)) return;
  }
}

std::vector<bool> Engine::evaluate_pattern(EvalBuffer& buf,
                                           const Pattern& pattern) const {
  const auto& nl = *netlist_;
  DETERRENT_ASSERT(pattern.size() == nl.inputs().size(),
                   "evaluate_pattern: arity mismatch");
  buf.inputs_scratch_.resize(nl.inputs().size());
  for (std::size_t i = 0; i < buf.inputs_scratch_.size(); ++i)
    buf.inputs_scratch_[i] = pattern.test(i) ? ~0ULL : 0ULL;
  evaluate(buf, buf.inputs_scratch_, 1);
  std::vector<bool> out(nl.net_count());
  for (NetId id = 0; id < nl.net_count(); ++id) out[id] = buf.word(id, 0) & 1ULL;
  return out;
}

}  // namespace deterrent::sim
