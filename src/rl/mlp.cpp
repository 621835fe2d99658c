#include "rl/mlp.hpp"

#include <algorithm>
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

/// dst (cols × rows) = src (rows × cols) transposed over rows [r0, r1) and
/// columns [c0, c1) of src; exact copies.
void transpose(const float* src, std::size_t rows, std::size_t cols, float* dst,
               std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1) {
  for (std::size_t r = r0; r < r1; ++r)
    for (std::size_t c = c0; c < c1; ++c) dst[c * rows + r] = src[r * cols + c];
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
    transpose(layer.w.data(), layer.out, layer.in, layer.wt.data(), 0, layer.out, 0,
              layer.in);
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
  const std::size_t in0 = layers_.front().in;
  ws.nz.resize(part_count(pool) * in0);

  // Per output element: acc = bias, then acc += x[i]·w[o][i] for i ascending
  // — forward()'s chain, with the first layer's exact-zero terms skipped.
  // Rows are independent through every layer, so each part runs its rows
  // through the whole network.
  for_parts(pool, [&](std::size_t part, std::size_t parts) {
    const auto [n0, n1] = slice(rows, part, parts);
    std::uint32_t* nz = ws.nz.data() + part * in0;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const auto& layer = layers_[l];
      float* out = ws.post[l].data();
      for (std::size_t n = n0; n < n1; ++n)
        std::copy(layer.b.begin(), layer.b.end(), out + n * layer.out);
      if (l == 0) {
        for (std::size_t n = n0; n < n1; ++n) {
          const float* x = row_ptr(n);
          float* acc = out + n * layer.out;
          const std::size_t count = kernels_->nonzero_indices(x, layer.in, nz);
          for (std::size_t j = 0; j < count; ++j)
            kernels_->axpy(x[nz[j]], layer.wt.data() + nz[j] * layer.out, acc, layer.out);
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
void Mlp::backward_batch_impl(RowPtrFn row_ptr, const BatchWorkspace& ws,
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
  // (layer 0's transposed weight gradient) or rows (an input gradient sums
  // over outputs), never the axis of a sum.
  std::vector<float> grad(output_grads.begin(), output_grads.end());
  std::vector<float> prev_grad;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    auto& layer = layers_[l];
    const auto bias_grads = [&](Slice o) {
      for (std::size_t n = 0; n < rows; ++n)
        for (std::size_t k = o.begin; k < o.end; ++k)
          layer.gb[k] += grad[n * layer.out + k];
    };

    if (l == 0) {
      // gw[o][i] += g[n][o]·x[n][i], rows ascending, accumulated through a
      // transposed copy so each nonzero input adds one contiguous axpy.
      std::vector<float> gwt(layer.gw.size());
      std::vector<std::uint32_t> nz(part_count(pool) * layer.in);
      for_parts(pool, [&](std::size_t part, std::size_t parts) {
        bias_grads(slice(layer.out, part, parts));
        const auto [i0, i1] = slice(layer.in, part, parts);
        std::uint32_t* idx = nz.data() + part * layer.in;
        transpose(layer.gw.data(), layer.out, layer.in, gwt.data(), 0, layer.out, i0, i1);
        for (std::size_t n = 0; n < rows; ++n) {
          const float* xr = row_ptr(n) + i0;
          const float* g = grad.data() + n * layer.out;
          const std::size_t count = kernels_->nonzero_indices(xr, i1 - i0, idx);
          for (std::size_t j = 0; j < count; ++j)
            kernels_->axpy(xr[idx[j]], g, gwt.data() + (i0 + idx[j]) * layer.out,
                           layer.out);
        }
        transpose(gwt.data(), layer.in, layer.out, layer.gw.data(), i0, i1, 0, layer.out);
      });
      break;  // no upstream layer to feed
    }

    const float* x = ws.post[l - 1].data();
    prev_grad.assign(rows * layer.in, 0.0f);
    for_parts(pool, [&](std::size_t part, std::size_t parts) {
      // Weight gradients: per output, a register-blocked sum over the rows.
      const Slice o = slice(layer.out, part, parts);
      bias_grads(o);
      for (std::size_t n0 = 0; n0 < rows; n0 += kBlock)
        for (std::size_t k = o.begin; k < o.end; ++k)
          kernels_->axpy_rows(grad.data() + n0 * layer.out + k, layer.out,
                              x + n0 * layer.in, layer.in, std::min(kBlock, rows - n0),
                              layer.gw.data() + k * layer.in, layer.in);

      // Input gradients: per row, a sum over the outputs, then chained
      // through the previous layer's tanh.
      const auto [r0, r1] = slice(rows, part, parts);
      for (std::size_t o0 = 0; o0 < layer.out; o0 += kBlock)
        for (std::size_t n = r0; n < r1; ++n)
          kernels_->axpy_rows(grad.data() + n * layer.out + o0, 1,
                              layer.w.data() + o0 * layer.in, layer.in,
                              std::min(kBlock, layer.out - o0),
                              prev_grad.data() + n * layer.in, layer.in);
      for (std::size_t n = r0; n < r1; ++n) {
        float* pg = prev_grad.data() + n * layer.in;
        const float* pr = x + n * layer.in;
        for (std::size_t i = 0; i < layer.in; ++i) pg[i] *= 1.0f - pr[i] * pr[i];
      }
    });
    grad.swap(prev_grad);
  }
}

void Mlp::backward_batch(std::span<const float> input, const BatchWorkspace& ws,
                         std::span<const float> output_grads,
                         util::ThreadPool* pool) {
  DETERRENT_ASSERT(input.size() == ws.rows * input_size(),
                   "Mlp::backward_batch input size mismatch");
  const std::size_t in = input_size();
  const float* base = input.data();
  backward_batch_impl([base, in](std::size_t n) { return base + n * in; }, ws,
                      output_grads, pool);
}

void Mlp::backward_batch(const float* const* row_ptrs, const BatchWorkspace& ws,
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
