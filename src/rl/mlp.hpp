#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/isa.hpp"
#include "util/rng.hpp"

namespace deterrent::util {
class ThreadPool;
}  // namespace deterrent::util

namespace deterrent::rl {

namespace kernels {
struct MlpKernelTable;
}  // namespace kernels

/// View over one parameter tensor and its gradient accumulator. The Adam
/// optimizer consumes a flat list of these.
struct ParamRef {
  float* values = nullptr;
  float* grads = nullptr;
  std::size_t size = 0;
};

/// Fully connected multi-layer perceptron with tanh hidden activations and a
/// linear output layer — the policy/value network architecture of the paper's
/// PPO agent (§2.2). Forward and backward passes are hand-written; gradients
/// are validated against finite differences in the test suite.
///
/// forward() is const and thread-safe, enabling lock-free vectorized rollouts
/// (multiple workers run inference on a shared network snapshot, §4.1).
class Mlp {
 public:
  /// layer_sizes = {input, hidden..., output}; weights get orthogonal-ish
  /// scaled-normal init, biases start at zero.
  Mlp(std::vector<std::size_t> layer_sizes, util::Rng& rng);

  std::size_t input_size() const { return layer_sizes_.front(); }
  std::size_t output_size() const { return layer_sizes_.back(); }

  /// Per-sample activation cache for backward().
  struct Workspace {
    std::vector<std::vector<float>> post;  ///< post-activation per layer (incl. output)
  };

  /// Computes the output for one observation. Thread-safe.
  std::vector<float> forward(std::span<const float> input, Workspace& ws) const;

  /// Accumulates parameter gradients for dL/d-output `output_grad`, given the
  /// workspace and input from the matching forward() call.
  void backward(std::span<const float> input, const Workspace& ws,
                std::span<const float> output_grad);

  /// Activation cache for a whole row batch (forward_batch / backward_batch)
  /// and the passes' reusable scratch.
  struct BatchWorkspace {
    std::size_t rows = 0;
    std::vector<std::vector<float>> post;  ///< per layer: rows × out, row-major
    std::vector<float> grad[2];  ///< backward: hidden dL/d(pre-activation), rows × width
    struct Part {                ///< one slot per pool part, written by that part only
      std::vector<std::uint32_t> idx;      ///< nonzero positions (of a row or column)
      std::vector<float> coef;             ///< their values
      std::vector<std::uint64_t> rows_of;  ///< layer 0 backward: per input, a row bitmap
      std::vector<float> tile;             ///< transposed weight-gradient columns
    };
    std::vector<Part> parts;
  };

  /// Computes outputs (row-major, rows × output_size()) for `rows`
  /// observations, row r's at row_ptrs[r]: the trainer passes shuffled
  /// minibatch rows and per-lane observations in place. Row r of the result
  /// is bit-identical to forward() on that row: each output is the same
  /// ascending-index chain, accumulated per row from a transposed weight copy
  /// on the host's widest kernel backend (all bit-identical). The first layer
  /// adds only each row's nonzero inputs; a skipped term is a signed zero,
  /// which cannot change an accumulator that never holds −0 (docs/training.md).
  /// Thread-safe.
  /// With a pool the rows are split across its threads; every batched pass
  /// splits only along axes no sum runs over, so it is bit-identical.
  std::span<const float> forward_batch(const float* const* row_ptrs,
                                       std::size_t rows, BatchWorkspace& ws,
                                       util::ThreadPool* pool = nullptr) const;

  /// Batch counterpart of backward(): accumulates parameter gradients for the
  /// row-major rows × output_grads given the workspace and row pointers of
  /// the matching forward_batch(). Each gradient element gets backward()'s
  /// terms in backward()'s order (weights and biases: rows ascending; inputs:
  /// outputs ascending), with the zero terms either side skips being signed
  /// zeros that cannot change an accumulator (docs/training.md). The output
  /// layer's input gradient sums only each row's nonzero output gradients
  /// (a masked logit's is +0). The first layer sums each input's
  /// weight-gradient column over the rows where that input is nonzero and
  /// computes no input gradient. With a pool, weight and bias gradients are
  /// split by output (layer 0's weight gradient by input) and input
  /// gradients by row.
  void backward_batch(const float* const* row_ptrs, BatchWorkspace& ws,
                      std::span<const float> output_grads,
                      util::ThreadPool* pool = nullptr);

  /// Rebuilds the transposed weight copies forward_batch() reads. Call it
  /// after writing weights through params() (e.g. Adam::step); the
  /// constructor, set_flat_params() and copy_params_from() call it.
  void refresh_transpose();

  void zero_grad();

  /// Flat parameter/gradient views for the optimizer.
  std::vector<ParamRef> params();

  /// Copies parameter values from another identically shaped network.
  void copy_params_from(const Mlp& other);

  std::size_t param_count() const;

  const std::vector<std::size_t>& layer_sizes() const { return layer_sizes_; }

  /// The kernel backend of the batched passes (fixed at construction).
  util::Isa isa() const;

  /// All parameters as one flat vector, in params() order (per layer:
  /// weights then biases) — the serialization image of the network.
  std::vector<float> flat_params() const;

  /// Restores parameters from a flat_params() image. Throws deterrent::Error
  /// when the size does not match this network's shape.
  void set_flat_params(std::span<const float> flat);

 private:
  /// Layer 0's weight gradient for inputs [i0, i1), on one part's scratch.
  void layer0_weight_grads(const float* const* row_ptrs, std::size_t rows,
                           const float* grad, std::size_t i0, std::size_t i1,
                           BatchWorkspace::Part& s);

  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<float> w;   // row-major out×in
    std::vector<float> wt;  // w transposed (in×out), for forward_batch
    std::vector<float> b;   // out
    std::vector<float> gw;  // gradient accumulators
    std::vector<float> gb;
  };

  std::vector<std::size_t> layer_sizes_;
  std::vector<Layer> layers_;
  /// SIMD backend for the batched passes, selected at construction
  /// (DETERRENT_FORCE_ISA honored). Never serialized; every backend is
  /// bit-identical, so a checkpoint moves freely between hosts.
  const kernels::MlpKernelTable* kernels_;
};

}  // namespace deterrent::rl
