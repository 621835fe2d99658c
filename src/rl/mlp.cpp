#include "rl/mlp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "rl/mlp_kernels.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace deterrent::rl {

namespace {

/// Block width of the dense batched loops: an axpy_rows call sums at most
/// this many terms of this many floats, so the block it streams (16 KB at the
/// hidden width) stays L1-resident across the loop. Blocks ascend, so every
/// element keeps its one ascending chain.
constexpr std::size_t kBlock = 64;

/// Tile edge of the blocked transposes: a 16 × 16 tile reads 16 source and
/// writes 16 destination cache lines, all L1-resident while it is copied.
constexpr std::size_t kTile = 16;

/// dst[c·dst_ld + r] = src[r·src_ld + c] for r < rows, c < cols, tile by
/// tile; exact copies.
void transpose(const float* src, std::size_t src_ld, float* dst, std::size_t dst_ld,
               std::size_t rows, std::size_t cols) {
  for (std::size_t r0 = 0; r0 < rows; r0 += kTile)
    for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::size_t r1 = std::min(rows, r0 + kTile);
      const std::size_t c1 = std::min(cols, c0 + kTile);
      for (std::size_t r = r0; r < r1; ++r)
        for (std::size_t c = c0; c < c1; ++c) dst[c * dst_ld + r] = src[r * src_ld + c];
    }
}

/// [begin, end) of part `part` of `parts` near-equal slices of [0, n).
struct Slice { std::size_t begin, end; };
Slice slice(std::size_t n, std::size_t part, std::size_t parts) {
  return {n * part / parts, n * (part + 1) / parts};
}

std::size_t part_count(const util::ThreadPool* pool) {
  return pool != nullptr ? pool->thread_count() : 1;
}

/// Runs body(part, parts) once per pool thread (inline without a pool);
/// each pass slices its own axes by part.
template <typename Body>
void for_parts(util::ThreadPool* pool, Body&& body) {
  const std::size_t parts = part_count(pool);
  util::parallel_chunks(pool, parts,
                        [&](std::size_t part, std::size_t, std::size_t) { body(part, parts); });
}

}  // namespace

Mlp::Mlp(std::vector<std::size_t> layer_sizes, util::Rng& rng)
    : layer_sizes_(std::move(layer_sizes)),
      kernels_(&kernels::select_mlp_kernels()) {
  DETERRENT_ASSERT(layer_sizes_.size() >= 2, "Mlp needs at least input and output");
  layers_.resize(layer_sizes_.size() - 1);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    auto& layer = layers_[l];
    layer.in = layer_sizes_[l];
    layer.out = layer_sizes_[l + 1];
    layer.w.resize(layer.in * layer.out);
    layer.b.assign(layer.out, 0.0f);
    layer.gw.assign(layer.w.size(), 0.0f);
    layer.gb.assign(layer.out, 0.0f);
    // Scaled normal init (Xavier-style); the output layer gets a smaller
    // scale so initial policies are near-uniform and values near zero.
    const bool is_output = l + 1 == layers_.size();
    const double scale =
        (is_output ? 0.01 : 1.0) * std::sqrt(2.0 / static_cast<double>(layer.in));
    for (auto& w : layer.w) w = static_cast<float>(rng.normal() * scale);
  }
  refresh_transpose();
}

void Mlp::refresh_transpose() {
  for (auto& layer : layers_) {
    layer.wt.resize(layer.w.size());
    transpose(layer.w.data(), layer.in, layer.wt.data(), layer.out, layer.out, layer.in);
  }
}

std::vector<float> Mlp::forward(std::span<const float> input, Workspace& ws) const {
  DETERRENT_ASSERT(input.size() == input_size(), "Mlp::forward input size mismatch");
  ws.post.resize(layers_.size());

  std::span<const float> x = input;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const auto& layer = layers_[l];
    auto& out = ws.post[l];
    out.assign(layer.out, 0.0f);
    for (std::size_t o = 0; o < layer.out; ++o) {
      const float* wrow = layer.w.data() + o * layer.in;
      float acc = layer.b[o];
      for (std::size_t i = 0; i < layer.in; ++i) acc += wrow[i] * x[i];
      out[o] = acc;
    }
    if (l + 1 < layers_.size())
      for (auto& v : out) v = kernels::tanhf_fdlibm(v);
    x = out;
  }
  return ws.post.back();
}

void Mlp::backward(std::span<const float> input, const Workspace& ws,
                   std::span<const float> output_grad) {
  DETERRENT_ASSERT(ws.post.size() == layers_.size(), "workspace/layer mismatch");
  DETERRENT_ASSERT(output_grad.size() == output_size(), "output grad size mismatch");

  std::vector<float> grad(output_grad.begin(), output_grad.end());
  for (std::size_t l = layers_.size(); l-- > 0;) {
    auto& layer = layers_[l];
    const std::span<const float> x =
        l == 0 ? input : std::span<const float>(ws.post[l - 1]);

    // grad currently holds dL/d(pre-activation) of layer l: for hidden layers
    // the tanh derivative was applied by the previous iteration; the output
    // layer is linear.
    std::vector<float> prev_grad(layer.in, 0.0f);
    for (std::size_t o = 0; o < layer.out; ++o) {
      const float g = grad[o];
      if (g == 0.0f) continue;
      float* gw_row = layer.gw.data() + o * layer.in;
      const float* w_row = layer.w.data() + o * layer.in;
      for (std::size_t i = 0; i < layer.in; ++i) {
        gw_row[i] += g * x[i];
        prev_grad[i] += g * w_row[i];
      }
      layer.gb[o] += g;
    }
    if (l > 0) {
      // Chain through the tanh of layer l-1: post = tanh(pre) ⇒ d pre = (1-post²) d post.
      const auto& post = ws.post[l - 1];
      for (std::size_t i = 0; i < post.size(); ++i)
        prev_grad[i] *= 1.0f - post[i] * post[i];
      grad = std::move(prev_grad);
    }
  }
}

template <typename RowPtrFn>
std::span<const float> Mlp::forward_batch_impl(RowPtrFn row_ptr, std::size_t rows,
                                               BatchWorkspace& ws,
                                               util::ThreadPool* pool) const {
  DETERRENT_ASSERT(rows > 0, "Mlp::forward_batch needs at least one row");
  ws.rows = rows;
  ws.post.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l)
    ws.post[l].resize(rows * layers_[l].out);
  ws.parts.resize(part_count(pool));

  // Per output element: acc = bias, then acc += x[i]·w[o][i] for i ascending
  // — forward()'s chain, with the first layer's exact-zero terms skipped.
  // Rows are independent through every layer, so each part runs its rows
  // through the whole network.
  for_parts(pool, [&](std::size_t part, std::size_t parts) {
    const auto [n0, n1] = slice(rows, part, parts);
    BatchWorkspace::Part& s = ws.parts[part];
    s.idx.resize(layers_.front().in);
    s.coef.resize(layers_.front().in);
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const auto& layer = layers_[l];
      float* out = ws.post[l].data();
      for (std::size_t n = n0; n < n1; ++n)
        std::copy(layer.b.begin(), layer.b.end(), out + n * layer.out);
      if (l == 0) {
        for (std::size_t n = n0; n < n1; ++n) {
          const float* x = row_ptr(n);
          const std::size_t count = kernels_->nonzero_indices(x, layer.in, s.idx.data());
          for (std::size_t j = 0; j < count; ++j) s.coef[j] = x[s.idx[j]];
          kernels_->axpy_indexed(s.coef.data(), s.idx.data(), count, layer.wt.data(),
                                 layer.out, out + n * layer.out, layer.out);
        }
      } else {
        const float* x = ws.post[l - 1].data();
        for (std::size_t o0 = 0; o0 < layer.out; o0 += kBlock)
          for (std::size_t n = n0; n < n1; ++n)
            kernels_->axpy_rows(x + n * layer.in, 1, layer.wt.data() + o0, layer.out,
                                layer.in, out + n * layer.out + o0,
                                std::min(kBlock, layer.out - o0));
      }
      if (l + 1 < layers_.size())
        kernels_->tanh(out + n0 * layer.out, (n1 - n0) * layer.out);
    }
  });
  return ws.post.back();
}

std::span<const float> Mlp::forward_batch(std::span<const float> input,
                                          std::size_t rows, BatchWorkspace& ws,
                                          util::ThreadPool* pool) const {
  DETERRENT_ASSERT(input.size() == rows * input_size(),
                   "Mlp::forward_batch input size mismatch");
  const std::size_t in = input_size();
  const float* base = input.data();
  return forward_batch_impl([base, in](std::size_t n) { return base + n * in; },
                            rows, ws, pool);
}

std::span<const float> Mlp::forward_batch(const float* const* row_ptrs,
                                          std::size_t rows, BatchWorkspace& ws,
                                          util::ThreadPool* pool) const {
  return forward_batch_impl([row_ptrs](std::size_t n) { return row_ptrs[n]; },
                            rows, ws, pool);
}

template <typename RowPtrFn>
void Mlp::backward_batch_impl(RowPtrFn row_ptr, BatchWorkspace& ws,
                              std::span<const float> output_grads,
                              util::ThreadPool* pool) {
  const std::size_t rows = ws.rows;
  DETERRENT_ASSERT(rows > 0 && ws.post.size() == layers_.size(),
                   "Mlp::backward_batch workspace/layer mismatch");
  DETERRENT_ASSERT(output_grads.size() == rows * output_size(),
                   "Mlp::backward_batch output grad size mismatch");

  // Every sum below runs its terms in row-by-row backward()'s order, and
  // every term backward() skips (g == 0) or this pass skips (x == 0) is a
  // signed zero that cannot change a gradient accumulator (see mlp.hpp).
  // Parts split outputs (a bias or weight gradient sums over rows), inputs
  // (layer 0's weight gradient) or rows (an input gradient sums over
  // outputs), never the axis of a sum.
  ws.parts.resize(part_count(pool));
  const float* grad = output_grads.data();  // dL/d(pre-activation) of layer l
  for (std::size_t l = layers_.size(); l-- > 0;) {
    auto& layer = layers_[l];
    const auto bias_grads = [&](Slice o) {
      for (std::size_t n = 0; n < rows; ++n)
        for (std::size_t k = o.begin; k < o.end; ++k)
          layer.gb[k] += grad[n * layer.out + k];
    };

    if (l == 0) {
      for_parts(pool, [&](std::size_t part, std::size_t parts) {
        bias_grads(slice(layer.out, part, parts));
        const auto [i0, i1] = slice(layer.in, part, parts);
        layer0_weight_grads(row_ptr, rows, grad, i0, i1, ws.parts[part]);
      });
      break;  // no upstream layer to feed
    }

    const float* x = ws.post[l - 1].data();
    std::vector<float>& prev_grad = ws.grad[l % 2];  // grad is the other one
    prev_grad.resize(rows * layer.in);
    for_parts(pool, [&](std::size_t part, std::size_t parts) {
      // Weight gradients: per output, a register-blocked sum over the rows.
      const Slice o = slice(layer.out, part, parts);
      bias_grads(o);
      for (std::size_t n0 = 0; n0 < rows; n0 += kBlock)
        for (std::size_t k = o.begin; k < o.end; ++k)
          kernels_->axpy_rows(grad + n0 * layer.out + k, layer.out, x + n0 * layer.in,
                              layer.in, std::min(kBlock, rows - n0),
                              layer.gw.data() + k * layer.in, layer.in);

      // Input gradients: per row, a sum over the outputs, then chained
      // through the previous layer's tanh. The output layer's sum visits
      // only the row's nonzero gradients (a masked logit's is +0); a hidden
      // layer's are dense.
      BatchWorkspace::Part& s = ws.parts[part];
      s.idx.resize(layer.out);
      s.coef.resize(layer.out);
      const auto [r0, r1] = slice(rows, part, parts);
      for (std::size_t n = r0; n < r1; ++n) {
        const float* g = grad + n * layer.out;
        float* pg = prev_grad.data() + n * layer.in;
        std::fill(pg, pg + layer.in, 0.0f);
        if (l + 1 == layers_.size()) {
          const std::size_t count = kernels_->nonzero_indices(g, layer.out, s.idx.data());
          for (std::size_t j = 0; j < count; ++j) s.coef[j] = g[s.idx[j]];
          kernels_->axpy_indexed(s.coef.data(), s.idx.data(), count, layer.w.data(),
                                 layer.in, pg, layer.in);
        } else {
          for (std::size_t o0 = 0; o0 < layer.out; o0 += kBlock)
            kernels_->axpy_rows(g + o0, 1, layer.w.data() + o0 * layer.in, layer.in,
                                std::min(kBlock, layer.out - o0), pg, layer.in);
        }
        const float* pr = x + n * layer.in;
        for (std::size_t i = 0; i < layer.in; ++i) pg[i] *= 1.0f - pr[i] * pr[i];
      }
    });
    grad = prev_grad.data();
  }
}

template <typename RowPtrFn>
void Mlp::layer0_weight_grads(RowPtrFn row_ptr, std::size_t rows, const float* grad,
                              std::size_t i0, std::size_t i1,
                              BatchWorkspace::Part& s) {
  // gw[o][i] += g[n][o]·x[n][i] for the part's inputs i, rows ascending:
  // one register-held sum per weight-gradient column over the rows where
  // input i is nonzero. A bitmap per input (one bit per row, filled from
  // the rows' nonzero scans) yields those rows in ascending order, and the
  // columns move through a tile-sized transposed copy.
  Layer& layer = layers_.front();
  const std::size_t width = i1 - i0;
  const std::size_t words = (rows + 63) / 64;
  s.rows_of.assign(width * words, 0);
  s.idx.resize(std::max(width, rows));
  s.coef.resize(rows);
  for (std::size_t n = 0; n < rows; ++n) {
    const std::size_t count =
        kernels_->nonzero_indices(row_ptr(n) + i0, width, s.idx.data());
    for (std::size_t j = 0; j < count; ++j)
      s.rows_of[s.idx[j] * words + n / 64] |= std::uint64_t{1} << (n % 64);
  }
  s.tile.resize(kTile * layer.out);
  for (std::size_t t0 = 0; t0 < width; t0 += kTile) {
    const std::size_t t1 = std::min(width, t0 + kTile);
    const auto* bits = s.rows_of.data();
    if (std::all_of(bits + t0 * words, bits + t1 * words,
                    [](std::uint64_t w) { return w == 0; }))
      continue;
    float* gw = layer.gw.data() + i0 + t0;
    transpose(gw, layer.in, s.tile.data(), layer.out, layer.out, t1 - t0);
    for (std::size_t i = t0; i < t1; ++i) {
      std::size_t count = 0;
      for (std::size_t w = 0; w < words; ++w)
        for (std::uint64_t b = bits[i * words + w]; b != 0; b &= b - 1) {
          const std::size_t n = w * 64 + static_cast<std::size_t>(std::countr_zero(b));
          s.idx[count] = static_cast<std::uint32_t>(n);
          s.coef[count++] = row_ptr(n)[i0 + i];
        }
      kernels_->axpy_indexed(s.coef.data(), s.idx.data(), count, grad, layer.out,
                             s.tile.data() + (i - t0) * layer.out, layer.out);
    }
    transpose(s.tile.data(), layer.out, gw, layer.in, t1 - t0, layer.out);
  }
}

void Mlp::backward_batch(std::span<const float> input, BatchWorkspace& ws,
                         std::span<const float> output_grads,
                         util::ThreadPool* pool) {
  DETERRENT_ASSERT(input.size() == ws.rows * input_size(),
                   "Mlp::backward_batch input size mismatch");
  const std::size_t in = input_size();
  const float* base = input.data();
  backward_batch_impl([base, in](std::size_t n) { return base + n * in; }, ws,
                      output_grads, pool);
}

void Mlp::backward_batch(const float* const* row_ptrs, BatchWorkspace& ws,
                         std::span<const float> output_grads,
                         util::ThreadPool* pool) {
  backward_batch_impl([row_ptrs](std::size_t n) { return row_ptrs[n]; }, ws,
                      output_grads, pool);
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) {
    std::fill(layer.gw.begin(), layer.gw.end(), 0.0f);
    std::fill(layer.gb.begin(), layer.gb.end(), 0.0f);
  }
}

std::vector<ParamRef> Mlp::params() {
  std::vector<ParamRef> refs;
  refs.reserve(layers_.size() * 2);
  for (auto& layer : layers_) {
    refs.push_back({layer.w.data(), layer.gw.data(), layer.w.size()});
    refs.push_back({layer.b.data(), layer.gb.data(), layer.b.size()});
  }
  return refs;
}

void Mlp::copy_params_from(const Mlp& other) {
  DETERRENT_ASSERT(layer_sizes_ == other.layer_sizes_, "Mlp shape mismatch");
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].w = other.layers_[l].w;
    layers_[l].b = other.layers_[l].b;
  }
  refresh_transpose();
}

std::size_t Mlp::param_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer.w.size() + layer.b.size();
  return total;
}

std::vector<float> Mlp::flat_params() const {
  std::vector<float> flat;
  flat.reserve(param_count());
  for (const auto& layer : layers_) {
    flat.insert(flat.end(), layer.w.begin(), layer.w.end());
    flat.insert(flat.end(), layer.b.begin(), layer.b.end());
  }
  return flat;
}

void Mlp::set_flat_params(std::span<const float> flat) {
  if (flat.size() != param_count())
    throw Error("Mlp::set_flat_params: image has " + std::to_string(flat.size()) +
                " parameters, network needs " + std::to_string(param_count()));
  std::size_t pos = 0;
  for (auto& layer : layers_) {
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(pos), layer.w.size(),
                layer.w.begin());
    pos += layer.w.size();
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(pos), layer.b.size(),
                layer.b.begin());
    pos += layer.b.size();
  }
  refresh_transpose();
}

}  // namespace deterrent::rl
