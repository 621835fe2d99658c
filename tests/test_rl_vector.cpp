// Differential training-determinism suite for the PPO rollout path: batched
// Mlp passes must match per-row passes, training must be invariant to the
// lane count, and the batched CompatibleSetVectorEnv must be bit-identical to
// the independent ReferenceEnv (reference_env.hpp) lane by lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/compatibility.hpp"
#include "analysis/rare_nets.hpp"
#include "bench_gen/random_circuit.hpp"
#include "core/compatible_set_env.hpp"
#include "core/set_pool.hpp"
#include "rl/adam.hpp"
#include "rl/gae.hpp"
#include "rl/mlp.hpp"
#include "rl/mlp_kernels.hpp"
#include "rl/ppo.hpp"
#include "util/thread_pool.hpp"

#include "env_vector.hpp"
#include "helpers.hpp"
#include "reference_env.hpp"

namespace deterrent {
namespace {

using analysis::CompatibilityMatrix;
using analysis::RareNet;
using core::CompatibleSetVectorEnv;
using core::DistinctSetPool;
using core::EnvConfig;
using core::MaskMode;
using core::ReferenceEnv;
using core::RewardMode;
using rl::Env;
using rl::EnvVector;
using rl::Mlp;
using rl::PpoConfig;
using rl::PpoTrainer;
using rl::StepResult;
using rl::scalar_trainer;

// ------------------------------------------------------ Mlp batch passes ---

std::vector<float> random_input(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.below(2000)) / 500.0f - 2.0f;
  return v;
}

TEST(MlpBatch, ForwardBatchMatchesPerRowBitIdentically) {
  const std::vector<std::vector<std::size_t>> shapes = {
      {3, 8, 2}, {5, 16, 16, 4}, {17, 32, 9}, {1, 4, 1}};
  for (const auto& shape : shapes) {
    util::Rng init(shape[0] * 131 + shape.back());
    Mlp net(shape, init);
    // Row counts below, at and across the 16-float register width.
    for (const std::size_t rows : {1u, 5u, 16u, 17u, 33u, 64u}) {
      util::Rng data(rows * 977 + 5);
      const std::vector<float> input = random_input(rows * shape.front(), data);
      Mlp::BatchWorkspace bws;
      const auto input_rows = row_pointers(input, shape.front());
      const auto batch_out = net.forward_batch(input_rows.data(), rows, bws);
      ASSERT_EQ(batch_out.size(), rows * shape.back());

      Mlp::Workspace ws;
      for (std::size_t r = 0; r < rows; ++r) {
        const auto row_out = net.forward(
            std::span<const float>(input).subspan(r * shape.front(), shape.front()),
            ws);
        for (std::size_t o = 0; o < shape.back(); ++o)
          ASSERT_EQ(batch_out[r * shape.back() + o], row_out[o])
              << "rows=" << rows << " r=" << r << " o=" << o;
      }
    }
  }
}

TEST(MlpBatch, BackwardBatchMatchesPerRowAccumulationBitIdentically) {
  const std::vector<std::size_t> shape{7, 24, 24, 5};
  util::Rng init(42);
  Mlp batch_net(shape, init);
  Mlp row_net(shape, init);
  row_net.copy_params_from(batch_net);

  for (const std::size_t rows : {1u, 16u, 33u}) {
    util::Rng data(rows * 31 + 7);
    const std::vector<float> input = random_input(rows * shape.front(), data);
    std::vector<float> grads = random_input(rows * shape.back(), data);
    // Exercise the exact-zero skip (backward treats g == 0 as "no update").
    for (std::size_t i = 0; i < grads.size(); i += 3) grads[i] = 0.0f;

    batch_net.zero_grad();
    Mlp::BatchWorkspace bws;
    const auto input_rows = row_pointers(input, shape.front());
    batch_net.forward_batch(input_rows.data(), rows, bws);
    batch_net.backward_batch(input_rows.data(), bws, grads);

    row_net.zero_grad();
    Mlp::Workspace ws;
    for (std::size_t r = 0; r < rows; ++r) {
      const auto in =
          std::span<const float>(input).subspan(r * shape.front(), shape.front());
      row_net.forward(in, ws);
      row_net.backward(
          in, ws, std::span<const float>(grads).subspan(r * shape.back(), shape.back()));
    }

    auto batch_params = batch_net.params();
    auto row_params = row_net.params();
    ASSERT_EQ(batch_params.size(), row_params.size());
    for (std::size_t p = 0; p < batch_params.size(); ++p)
      for (std::size_t i = 0; i < batch_params[p].size; ++i)
        ASSERT_EQ(batch_params[p].grads[i], row_params[p].grads[i])
            << "rows=" << rows << " tensor=" << p << " elem=" << i;
  }
}

// The trainer passes shuffled minibatch rows and per-lane observations in
// place: the row pointers, not the storage layout, define the rows. Scattered
// rows in reversed storage order must match the same rows stored
// contiguously, bit for bit.
TEST(MlpBatch, RowPointerOverloadsMatchContiguousBitIdentically) {
  const std::vector<std::size_t> shape{11, 16, 4};
  util::Rng init(9);
  Mlp contiguous_net(shape, init);
  Mlp scattered_net(shape, init);
  scattered_net.copy_params_from(contiguous_net);

  for (const std::size_t rows : {1u, 16u, 21u}) {
    util::Rng data(rows * 53 + 1);
    std::vector<float> input = random_input(rows * shape.front(), data);
    for (std::size_t i = 0; i < input.size(); ++i)
      if (data.below(10) < 6) input[i] = 0.0f;  // sparse layer-0 path
    const std::vector<float> grads = random_input(rows * shape.back(), data);
    const std::vector<const float*> contiguous = row_pointers(input, shape.front());
    std::vector<std::vector<float>> storage(rows);
    std::vector<const float*> scattered(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      storage[rows - 1 - r].assign(contiguous[r], contiguous[r] + shape.front());
      scattered[r] = storage[rows - 1 - r].data();
    }

    Mlp::BatchWorkspace contiguous_ws, scattered_ws;
    const auto contiguous_out =
        contiguous_net.forward_batch(contiguous.data(), rows, contiguous_ws);
    const auto scattered_out =
        scattered_net.forward_batch(scattered.data(), rows, scattered_ws);
    ASSERT_EQ(contiguous_out.size(), scattered_out.size());
    for (std::size_t i = 0; i < contiguous_out.size(); ++i)
      ASSERT_EQ(contiguous_out[i], scattered_out[i]) << "rows=" << rows << " elem=" << i;

    contiguous_net.zero_grad();
    scattered_net.zero_grad();
    contiguous_net.backward_batch(contiguous.data(), contiguous_ws, grads);
    scattered_net.backward_batch(scattered.data(), scattered_ws, grads);
    auto contiguous_params = contiguous_net.params();
    auto scattered_params = scattered_net.params();
    for (std::size_t p = 0; p < contiguous_params.size(); ++p)
      for (std::size_t i = 0; i < contiguous_params[p].size; ++i)
        ASSERT_EQ(contiguous_params[p].grads[i], scattered_params[p].grads[i])
            << "rows=" << rows << " tensor=" << p << " elem=" << i;
  }
}

std::uint32_t float_bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Compares bit patterns, so a +0/−0 mismatch fails like any other.
::testing::AssertionResult bitwise_equal(std::span<const float> a,
                                         std::span<const float> b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (float_bits(a[i]) != float_bits(b[i]))
      return ::testing::AssertionFailure()
             << "elem " << i << ": " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

/// Observation rows shaped like the trainer's: 0/1 member indicators at
/// 5–40% density, an all-zero row every seventh row, and on every third row
/// a −0.0f entry and non-unit values — every case the layer-0 nonzero scan
/// must classify.
std::vector<float> ppo_rows(std::size_t rows, std::size_t in, util::Rng& rng) {
  std::vector<float> v(rows * in, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    if (r % 7 == 3) continue;
    float* row = v.data() + r * in;
    const std::uint64_t density_pct = 5 + rng.below(36);
    for (std::size_t i = 0; i < in; ++i)
      if (rng.below(100) < density_pct) row[i] = 1.0f;
    if (r % 3 == 0) {
      row[rng.below(in)] = -0.0f;
      row[rng.below(in)] = 0.37f;
      row[rng.below(in)] = -2.5f;
    }
  }
  return v;
}

/// Output gradients with exact +0 and −0 entries among nonzero values: the
/// terms backward() skips and the batched backward adds.
std::vector<float> grads_with_signed_zeros(std::size_t n, util::Rng& rng) {
  std::vector<float> g = random_input(n, rng);
  for (std::size_t i = 1; i < n; i += 5) g[i] = 0.0f;
  for (std::size_t i = 3; i < n; i += 5) g[i] = -0.0f;
  return g;
}

/// forward_batch on `rows` rows against forward() row by row, bitwise.
::testing::AssertionResult batch_matches_per_sample(const Mlp& net,
                                                    std::span<const float> input,
                                                    std::size_t rows) {
  const std::size_t in = net.input_size();
  const std::size_t out = net.output_size();
  Mlp::BatchWorkspace bws;
  const auto input_rows = row_pointers(input, in);
  const auto batch_out = net.forward_batch(input_rows.data(), rows, bws);
  Mlp::Workspace ws;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row_out = net.forward(input.subspan(r * in, in), ws);
    auto result = bitwise_equal(batch_out.subspan(r * out, out), row_out);
    if (!result) return result << " (row " << r << ")";
  }
  return ::testing::AssertionSuccess();
}

/// The MLP family's runnable backends, narrowest first.
std::vector<util::Isa> mlp_isas() {
  return util::supported_isas(rl::kernels::table_or_null);
}

// Every compiled-in SIMD backend the host can run must produce bitwise the
// same batch results as the Scalar table — the contract that lets a
// checkpoint (and the bench checksums) move freely between hosts. The
// backend is chosen at Mlp construction from DETERRENT_FORCE_ISA, so the
// sweep builds one network per backend from the same init stream. Inputs are
// ~70% exact zeros to exercise the sparse layer-0 path.
TEST(MlpBatch, AllKernelBackendsAreBitIdenticalToScalar) {
  const auto isas = mlp_isas();
  ASSERT_FALSE(isas.empty());
  ASSERT_EQ(isas.front(), util::Isa::Scalar);

  const std::vector<std::size_t> shape{19, 32, 32, 6};
  const std::size_t rows = 33;
  util::Rng data(2026);
  std::vector<float> input = random_input(rows * shape.front(), data);
  for (std::size_t i = 0; i < input.size(); ++i)
    if (data.below(10) < 7) input[i] = 0.0f;
  std::vector<float> grads = random_input(rows * shape.back(), data);
  for (std::size_t i = 0; i < grads.size(); i += 3) grads[i] = 0.0f;

  std::vector<float> ref_out, ref_grads, ref_params;
  for (const auto isa : isas) {
    const ScopedEnv force(util::kForceIsaEnv, util::to_string(isa));
    util::Rng init(7);
    Mlp net(shape, init);

    Mlp::BatchWorkspace bws;
    const auto input_rows = row_pointers(input, shape.front());
    const auto out = net.forward_batch(input_rows.data(), rows, bws);
    net.zero_grad();
    net.backward_batch(input_rows.data(), bws, grads);
    std::vector<float> flat_grads;
    for (const auto& p : net.params())
      flat_grads.insert(flat_grads.end(), p.grads, p.grads + p.size);

    // The Adam elementwise update dispatches to the same backend table; two
    // clipped steps cover the scale path and a bias-correction change.
    rl::Adam opt(net.params());
    opt.step(0.5f);
    opt.step(0.5f);
    const std::vector<float> stepped = net.flat_params();

    if (isa == util::Isa::Scalar) {
      ref_out.assign(out.begin(), out.end());
      ref_grads = std::move(flat_grads);
      ref_params = stepped;
      continue;
    }
    ASSERT_EQ(out.size(), ref_out.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], ref_out[i])
          << util::to_string(isa) << " forward elem " << i;
    ASSERT_EQ(flat_grads.size(), ref_grads.size());
    for (std::size_t i = 0; i < flat_grads.size(); ++i)
      ASSERT_EQ(flat_grads[i], ref_grads[i])
          << util::to_string(isa) << " grad elem " << i;
    ASSERT_EQ(stepped.size(), ref_params.size());
    for (std::size_t i = 0; i < stepped.size(); ++i)
      ASSERT_EQ(stepped[i], ref_params[i])
          << util::to_string(isa) << " adam-stepped param " << i;
  }
}

// The index-list entry behind every sparse batched sum, on every backend,
// bitwise against the scalar table and against a plain sequential loop of
// separately rounded products and sums: every masked tail length, ±0
// coefficients (added, never skipped: the kernel sums what it is given), a
// repeated index and the empty list. Lanes past `len` must stay untouched.
TEST(MlpKernels, AxpyIndexedMatchesSequentialSumsOnEveryBackend) {
  constexpr std::size_t kLd = 73;
  constexpr std::size_t kRows = 12;
  util::Rng rng(404);
  const std::vector<float> m = random_input(kRows * kLd, rng);
  std::vector<float> coef = random_input(40, rng);
  coef[1] = 0.0f;
  coef[6] = -0.0f;
  std::vector<std::uint32_t> long_list(coef.size());
  for (auto& i : long_list) i = static_cast<std::uint32_t>(rng.below(kRows));
  const std::vector<std::vector<std::uint32_t>> lists = {
      {}, {4}, {0, 5, 5, 11, 2, 0, 7}, long_list};
  std::vector<std::size_t> lens;
  for (std::size_t len = 1; len <= 17; ++len) lens.push_back(len);
  lens.push_back(64);
  lens.push_back(70);

  const auto& scalar = rl::kernels::select_mlp_kernels(util::Isa::Scalar);
  for (const auto isa : mlp_isas()) {
    const auto& table = rl::kernels::select_mlp_kernels(isa);
    for (const auto& idx : lists) {
      for (const std::size_t len : lens) {
        SCOPED_TRACE(testing::Message() << util::to_string(isa)
                                        << " terms=" << idx.size() << " len=" << len);
        const std::vector<float> start = random_input(len + 8, rng);
        std::vector<float> sequential = start;
        for (std::size_t k = 0; k < idx.size(); ++k)
          for (std::size_t j = 0; j < len; ++j) {
            volatile float product = coef[k] * m[idx[k] * kLd + j];  // no FMA
            sequential[j] = sequential[j] + product;
          }
        std::vector<float> want = start;
        scalar.axpy_indexed(coef.data(), idx.data(), idx.size(), m.data(), kLd,
                            want.data(), len);
        std::vector<float> got = start;
        table.axpy_indexed(coef.data(), idx.data(), idx.size(), m.data(), kLd,
                           got.data(), len);
        ASSERT_TRUE(bitwise_equal(want, sequential)) << "scalar table";
        ASSERT_TRUE(bitwise_equal(got, want));
      }
    }
  }
}

// The batched passes on trainer-shaped data, on every backend: sparse
// indicator rows, the real policy shape and widths that are not a multiple
// of any register width, row counts around the 256-row minibatch, and
// gradients with signed zeros — bitwise against per-sample forward() and
// backward().
TEST(MlpBatch, PpoShapedBatchesMatchPerSampleBitwiseOnEveryBackend) {
  const std::vector<std::vector<std::size_t>> shapes = {{355, 64, 64, 355},
                                                        {37, 24, 24, 19}};
  for (const auto isa : mlp_isas()) {
    const ScopedEnv force(util::kForceIsaEnv, util::to_string(isa));
    for (const auto& shape : shapes) {
      util::Rng init(shape.front());
      Mlp batch_net(shape, init);
      Mlp row_net(shape, init);
      row_net.copy_params_from(batch_net);
      for (const std::size_t rows : {1u, 8u, 255u, 256u, 257u}) {
        const std::string label = std::string(util::to_string(isa)) +
                                  " in=" + std::to_string(shape.front()) +
                                  " rows=" + std::to_string(rows);
        util::Rng data(rows * 7919 + shape.back());
        const std::vector<float> input = ppo_rows(rows, shape.front(), data);
        const std::vector<float> grads =
            grads_with_signed_zeros(rows * shape.back(), data);
        ASSERT_TRUE(batch_matches_per_sample(batch_net, input, rows)) << label;

        batch_net.zero_grad();
        Mlp::BatchWorkspace bws;
        const auto input_rows = row_pointers(input, shape.front());
        batch_net.forward_batch(input_rows.data(), rows, bws);
        batch_net.backward_batch(input_rows.data(), bws, grads);
        row_net.zero_grad();
        Mlp::Workspace ws;
        for (std::size_t r = 0; r < rows; ++r) {
          const auto in = std::span<const float>(input).subspan(
              r * shape.front(), shape.front());
          row_net.forward(in, ws);
          row_net.backward(in, ws,
                           std::span<const float>(grads).subspan(
                               r * shape.back(), shape.back()));
        }
        const auto batch_params = batch_net.params();
        const auto row_params = row_net.params();
        for (std::size_t p = 0; p < batch_params.size(); ++p)
          ASSERT_TRUE(bitwise_equal({batch_params[p].grads, batch_params[p].size},
                                    {row_params[p].grads, row_params[p].size}))
              << label << " tensor " << p;
      }
    }
  }
}

// forward_batch reads transposed weight copies, so every way the weights
// change must refresh them: Adam::step (followed by refresh_transpose(), as
// the trainer does), set_flat_params() and copy_params_from().
TEST(MlpBatch, BatchForwardFollowsEveryWeightUpdate) {
  const std::vector<std::size_t> shape{37, 24, 24, 19};
  const std::size_t rows = 9;
  util::Rng init(5);
  util::Rng data(6);
  Mlp net(shape, init);
  const std::vector<float> input = ppo_rows(rows, shape.front(), data);
  const std::vector<float> grads = grads_with_signed_zeros(rows * shape.back(), data);
  ASSERT_TRUE(batch_matches_per_sample(net, input, rows)) << "fresh";

  Mlp::BatchWorkspace bws;
  const auto input_rows = row_pointers(input, shape.front());
  net.forward_batch(input_rows.data(), rows, bws);
  net.zero_grad();
  net.backward_batch(input_rows.data(), bws, grads);
  rl::Adam opt(net.params(), {1e-2f});
  opt.step();
  net.refresh_transpose();
  ASSERT_TRUE(batch_matches_per_sample(net, input, rows)) << "after Adam::step";

  const Mlp other(shape, init);
  net.set_flat_params(other.flat_params());
  ASSERT_TRUE(batch_matches_per_sample(net, input, rows)) << "after set_flat_params";

  const Mlp third(shape, init);
  net.copy_params_from(third);
  ASSERT_TRUE(batch_matches_per_sample(net, input, rows)) << "after copy_params_from";
}

// ------------------------------------------------------------ tanh kernel ---

using rl::kernels::tanhf_fdlibm;

std::string describe_tanh(const char* who, float x, float got, float want) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s: x=0x%08x gave 0x%08x, want 0x%08x", who,
                std::bit_cast<std::uint32_t>(x), std::bit_cast<std::uint32_t>(got),
                std::bit_cast<std::uint32_t>(want));
  return buf;
}

/// Mismatches of a comparison over a set of inputs, with the first described.
struct TanhMismatches {
  std::uint64_t count = 0;
  std::string first;
  /// Counts one mismatch; describes it when it is the first.
  void add(const char* who, float x, float got, float want) {
    if (count++ == 0) first = describe_tanh(who, x, got, want);
  }
  void merge(TanhMismatches other) {
    if (count == 0) first = std::move(other.first);
    count += other.count;
  }
};

/// Every wide backend's tanh entry against tanhf_fdlibm, bit for bit.
TanhMismatches backends_vs_port(const std::vector<float>& xs) {
  TanhMismatches bad;
  std::vector<float> want(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) want[i] = tanhf_fdlibm(xs[i]);
  std::vector<float> got;
  for (const auto isa : mlp_isas()) {
    if (isa == util::Isa::Scalar) continue;  // its entry is the port
    got = xs;
    rl::kernels::select_mlp_kernels(isa).tanh(got.data(), got.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
      if (std::bit_cast<std::uint32_t>(got[i]) != std::bit_cast<std::uint32_t>(want[i]))
        bad.add(util::to_string(isa), xs[i], got[i], want[i]);
  }
  return bad;
}

/// Runs compare over the float bit patterns first, first + stride, ... below
/// last, in 8192-input buffers split across `threads` threads.
template <typename Compare>
TanhMismatches sweep_bit_patterns(std::uint64_t first, std::uint64_t last,
                                  std::uint64_t stride, unsigned threads,
                                  Compare compare) {
  const std::uint64_t count = (last - first + stride - 1) / stride;
  const std::uint64_t per_thread = (count + threads - 1) / threads;
  std::vector<TanhMismatches> found(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      const std::uint64_t end = std::min(count, (t + 1) * per_thread);
      std::vector<float> xs;
      for (std::uint64_t i = t * per_thread; i < end;) {
        xs.clear();
        for (; i < end && xs.size() < 8192; ++i)
          xs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(first + i * stride)));
        found[t].merge(compare(xs));
      }
    });
  for (auto& th : pool) th.join();
  TanhMismatches all;
  for (auto& f : found) all.merge(std::move(f));
  return all;
}

unsigned sweep_threads(unsigned cap) {
  return std::clamp(std::thread::hardware_concurrency(), 1u, cap);
}

// The wide tanh kernels compute every branch of tanhf_fdlibm per lane and
// blend, so each lane must match the scalar port exactly. Every float with
// |x| in [2^-27, 32) — all of expm1f's reduction branches and their
// boundaries, and every pre-activation the networks produce in practice —
// plus a strided sweep of all other bit patterns.
TEST(MlpTanh, EveryBackendMatchesPortBitwise) {
  const unsigned threads = sweep_threads(4);
  for (const std::uint64_t sign : {0x00000000ull, 0x80000000ull}) {
    const auto bad = sweep_bit_patterns(sign | 0x32000000u, sign | 0x42000000u, 1,
                                        threads, backends_vs_port);
    EXPECT_EQ(bad.count, 0u) << bad.first;
  }
  const auto bad = sweep_bit_patterns(0, 1ull << 32, 4093, threads, backends_vs_port);
  EXPECT_EQ(bad.count, 0u) << bad.first;
}

TEST(MlpTanh, EdgeInputsAndEveryTailLength) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> edges = {0.0f, -0.0f, inf, -inf, nan, -nan};
  // Denormals, and both sides of the 2^-55, |x| = 1 and |x| = 22 cut-offs.
  for (const std::uint32_t b : {0x00000001u, 0x00400000u, 0x007fffffu, 0x00800000u,
                                0x23ffffffu, 0x24000000u, 0x3f7fffffu, 0x3f800000u,
                                0x3f800001u, 0x41afffffu, 0x41b00000u, 0x41b00001u,
                                0x7f7fffffu, 0x7f800001u, 0x7fc00001u})
    for (const std::uint32_t sign : {0u, 0x80000000u})
      edges.push_back(std::bit_cast<float>(b | sign));
  const auto bad = backends_vs_port(edges);
  EXPECT_EQ(bad.count, 0u) << bad.first;
  EXPECT_EQ(std::bit_cast<std::uint32_t>(tanhf_fdlibm(-0.0f)), 0x80000000u);
  EXPECT_TRUE(std::isnan(tanhf_fdlibm(nan)));

  // Lengths 1–17 reach every masked or scalar tail of the 8- and 16-lane
  // kernels; no element past n may be written.
  util::Rng data(17);
  for (std::size_t n = 1; n <= 17; ++n) {
    std::vector<float> xs(n);
    for (auto& x : xs) x = static_cast<float>(data.normal() * 3.0);
    for (const auto isa : mlp_isas()) {
      std::vector<float> buf = xs;
      buf.push_back(12345.0f);
      rl::kernels::select_mlp_kernels(isa).tanh(buf.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(buf[i]),
                  std::bit_cast<std::uint32_t>(tanhf_fdlibm(xs[i])))
            << util::to_string(isa) << " n=" << n << " i=" << i;
      ASSERT_EQ(buf[n], 12345.0f) << util::to_string(isa) << " n=" << n;
    }
  }
}

// Pinned output bits of the port (equal to glibc 2.36's tanhf) at inputs
// that take each path through expm1f, so the reference cannot drift with
// the host or compiler. The argument is u = -2|x| below |x| = 1 and 2|x|
// from there, which makes the reduction's k = +1 unreachable. Past
// |x| ≈ 9 every path rounds to ±1, so those rows pin only that it does.
TEST(MlpTanh, PortOutputsArePinnedOnEveryExpm1Branch) {
  struct Pin {
    std::uint32_t x, tanh;
  };
  const Pin pins[] = {
      {0x1e3ce508u, 0x1e3ce508u},  //   1e-20: |x| < 2^-55, x·(1 + x)
      {0x3089705fu, 0x3089705fu},  //    1e-9: |u| < 2^-25, expm1f(u) = u
      {0xb089705fu, 0xb089705fu},  //   -1e-9
      {0x3dcccccdu, 0x3dcc1ebcu},  //     0.1: k = 0
      {0xbe19999au, 0xbe187552u},  //   -0.15: k = 0
      {0x3e99999au, 0x3e9526edu},  //     0.3: k = -1
      {0xbf000000u, 0xbeec9a9fu},  //    -0.5: k = -1
      {0x3f400000u, 0x3f22991fu},  //    0.75: k = -2
      {0xbf7d70a4u, 0xbf41e27eu},  //   -0.99: k = -3
      {0x3f800000u, 0x3f42f7d6u},  //       1: k = 3, 2 <= k < 23
      {0x3fc00000u, 0x3f67b7ccu},  //     1.5: k = 4
      {0xc0a00000u, 0xbf7ffa0du},  //      -5: k = 14
      {0x41000000u, 0x3f7ffffcu},  //       8: k = 23, 23 <= k <= 56
      {0xc1080000u, 0xbf7fffffu},  //    -8.5: k = 25
      {0x41a40000u, 0x3f800000u},  //    20.5: k = 59, k > 56
      {0xc1af3333u, 0xbf800000u},  //   -21.9: k = 63
      {0x41b00000u, 0x3f800000u},  //      22: |x| >= 22
      {0xff800000u, 0xbf800000u},  //    -inf
      {0x7fc00000u, 0x7fc00000u},  //     NaN
  };
  for (const Pin& pin : pins) {
    const float x = std::bit_cast<float>(pin.x);
    const float want = std::bit_cast<float>(pin.tanh);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(tanhf_fdlibm(x)), pin.tanh)
        << describe_tanh("port", x, tanhf_fdlibm(x), want);
    for (const auto isa : mlp_isas()) {
      float v = x;
      rl::kernels::select_mlp_kernels(isa).tanh(&v, 1);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(v), pin.tanh)
          << describe_tanh(util::to_string(isa), x, v, want);
    }
  }
}

// The port against the host's libm tanhf on all 2^32 inputs. glibc's tanhf
// is the same fdlibm code, so on glibc hosts this finds nothing; it is what
// keeps "switching to the port left every checksum unchanged" checked. Too
// slow for tier-1 (about a minute of CPU); CI runs it with
// --gtest_also_run_disabled_tests.
TEST(MlpTanh, DISABLED_PortMatchesHostLibmOnEveryFloat) {
  const auto bad = sweep_bit_patterns(
      0, 1ull << 32, 1, sweep_threads(64), [](const std::vector<float>& xs) {
        TanhMismatches found;
        for (const float x : xs) {
          const float port = tanhf_fdlibm(x);
          const float libm = std::tanh(x);
          if (std::bit_cast<std::uint32_t>(port) != std::bit_cast<std::uint32_t>(libm))
            found.add("libm", x, libm, port);
        }
        return found;
      });
  EXPECT_EQ(bad.count, 0u) << bad.first;
}

// ----------------------------------------------------------- toy WalkEnv ---

/// Deterministic multi-step toy with rng-dependent resets, a mask that
/// changes with the state, and action-dependent episode lengths — enough
/// structure that any collector divergence shows up in episodes and params.
class WalkEnv final : public Env {
 public:
  explicit WalkEnv(int length = 6) : length_(length), mask_(3) {}
  std::size_t observation_size() const override {
    return static_cast<std::size_t>(length_) + 3;
  }
  std::size_t action_count() const override { return 3; }
  std::vector<float> reset(util::Rng& rng) override {
    pos_ = static_cast<int>(rng.below(3));
    steps_ = 0;
    refresh_mask();
    return obs();
  }
  StepResult step(std::uint32_t action) override {
    if (action == 0) pos_ = std::max(0, pos_ - 1);
    if (action == 1) pos_ += 1;
    if (action == 2) pos_ += 2;  // jump: only legal from even positions
    ++steps_;
    const bool done = pos_ >= length_ || steps_ >= 3 * length_;
    const float reward =
        (pos_ >= length_ ? 1.0f : 0.0f) + 0.01f * static_cast<float>(action);
    refresh_mask();
    return {obs(), reward, done};
  }
  const util::BitVec& action_mask() const override { return mask_; }

 private:
  void refresh_mask() {
    mask_.clear_all();
    mask_.set(0);
    mask_.set(1);
    if (pos_ % 2 == 0) mask_.set(2);
  }
  std::vector<float> obs() const {
    std::vector<float> o(observation_size(), 0.0f);
    o[static_cast<std::size_t>(std::min(pos_, length_ + 2))] = 1.0f;
    return o;
  }
  int length_;
  int pos_ = 0;
  int steps_ = 0;
  util::BitVec mask_;
};

PpoConfig toy_config() {
  PpoConfig cfg;
  cfg.episodes_per_update = 16;
  cfg.hidden_size = 16;
  cfg.minibatch_size = 32;
  cfg.entropy_coef = 0.02f;
  cfg.learning_rate = 3e-3f;
  return cfg;
}

void expect_stats_equal(const rl::PpoUpdateStats& a, const rl::PpoUpdateStats& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.mean_episode_reward, b.mean_episode_reward);
  EXPECT_EQ(a.mean_episode_length, b.mean_episode_length);
  EXPECT_EQ(a.policy_loss, b.policy_loss);
  EXPECT_EQ(a.value_loss, b.value_loss);
  EXPECT_EQ(a.mean_entropy, b.mean_entropy);
  EXPECT_EQ(a.total_loss, b.total_loss);
}

// -------------------------------------------- trainer-level differential ---

/// The determinism contract: episodes are keyed by global episode index, so
/// every lane count trains to bit-identical parameters. Lane counts cover the
/// degenerate single lane, uneven episode splits (7), and more lanes than
/// episodes (64); the legacy n_workers alias must widen the env the same way.
TEST(PpoVector, TrainingIsInvariantAcrossLaneAndWorkerCounts) {
  const auto factory = [](std::size_t) { return std::make_unique<WalkEnv>(); };

  auto baseline = scalar_trainer(factory, toy_config(), 17);  // default: one lane
  std::vector<rl::PpoUpdateStats> baseline_stats;
  for (int u = 0; u < 3; ++u) baseline_stats.push_back(baseline.update());

  auto check = [&](const PpoConfig& cfg, std::size_t lanes, const std::string& label) {
    auto trainer = scalar_trainer(factory, cfg, 17);
    EXPECT_EQ(trainer.vector_env().lanes(), lanes) << label;
    for (int u = 0; u < 3; ++u)
      expect_stats_equal(baseline_stats[static_cast<std::size_t>(u)],
                         trainer.update());
    EXPECT_EQ(baseline.total_steps(), trainer.total_steps()) << label;
    EXPECT_EQ(baseline.policy().flat_params(), trainer.policy().flat_params())
        << "policy params diverged: " << label;
    EXPECT_EQ(baseline.value().flat_params(), trainer.value().flat_params())
        << "value params diverged: " << label;
  };

  for (const std::size_t n : {1u, 2u, 7u, 64u}) {
    PpoConfig lanes_cfg = toy_config();
    lanes_cfg.rollout_lanes = n;
    check(lanes_cfg, n, "rollout_lanes=" + std::to_string(n));
  }
  PpoConfig legacy_cfg = toy_config();
  legacy_cfg.n_workers = 4;
  check(legacy_cfg, 4, "n_workers=4");
}

std::uint64_t param_digest(const std::vector<float>& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the float bit patterns
  for (const float p : params) {
    std::uint32_t u = 0;
    std::memcpy(&u, &p, sizeof(u));
    h ^= u;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Golden digests recorded from a scalar reference trainer — one Env, one
/// episode at a time, one forward/backward per sample — on this toy: seed 17,
/// three updates of toy_config(). The batched trainer must reproduce them bit
/// for bit; the MlpBatch tests above pin the same equivalence per layer.
TEST(PpoVector, MatchesPinnedScalarTrainerDigests) {
  auto trainer =
      scalar_trainer([](std::size_t) { return std::make_unique<WalkEnv>(); }, toy_config(), 17);
  for (int u = 0; u < 3; ++u) trainer.update();
  EXPECT_EQ(param_digest(trainer.policy().flat_params()), 0x04a8b2e8ef6e7855ULL);
  EXPECT_EQ(param_digest(trainer.value().flat_params()), 0x0f4e25eaf613d16dULL);
}

/// Records every reset / action / reward an env sees, so the suite can pin
/// "identical episodes" directly rather than inferring it from parameters.
class RecordingWalkEnv final : public Env {
 public:
  RecordingWalkEnv(std::vector<float>* log) : log_(log) {}
  std::size_t observation_size() const override { return inner_.observation_size(); }
  std::size_t action_count() const override { return inner_.action_count(); }
  std::vector<float> reset(util::Rng& rng) override {
    log_->push_back(-1.0f);  // episode boundary marker
    auto obs = inner_.reset(rng);
    for (float x : obs) log_->push_back(x);
    return obs;
  }
  StepResult step(std::uint32_t action) override {
    auto result = inner_.step(action);
    log_->push_back(static_cast<float>(action));
    log_->push_back(result.reward);
    return result;
  }
  const util::BitVec& action_mask() const override { return inner_.action_mask(); }

 private:
  WalkEnv inner_;
  std::vector<float>* log_;
};

/// Splits a RecordingWalkEnv log into its episodes (each opens with the -1
/// boundary marker; observations, actions and rewards are never negative).
std::vector<std::vector<float>> split_episodes(const std::vector<float>& log) {
  std::vector<std::vector<float>> episodes;
  for (const float x : log) {
    if (x == -1.0f) episodes.emplace_back();
    episodes.back().push_back(x);
  }
  return episodes;
}

/// Lane l runs the update's episodes l, l+N, l+2N, … in that order, so
/// re-interleaving the 3-lane logs must reproduce the 1-lane log episode by
/// episode: same reset, same actions, same rewards.
TEST(PpoVector, CollectedEpisodesAndRewardsIdenticalToScalarRollouts) {
  constexpr std::size_t kLanes = 3;
  constexpr int kUpdates = 2;
  std::vector<float> single_log;
  std::vector<std::vector<float>> lane_logs(kLanes);

  auto single = scalar_trainer(
      [&](std::size_t) { return std::make_unique<RecordingWalkEnv>(&single_log); },
      toy_config(), 23);
  PpoConfig lanes_cfg = toy_config();
  lanes_cfg.rollout_lanes = kLanes;
  auto vectorized = scalar_trainer(
      [&](std::size_t l) { return std::make_unique<RecordingWalkEnv>(&lane_logs[l]); },
      lanes_cfg, 23);

  for (int u = 0; u < kUpdates; ++u) {
    single.update();
    vectorized.update();
  }

  const auto reference = split_episodes(single_log);
  const std::size_t per_update = toy_config().episodes_per_update;
  ASSERT_EQ(reference.size(), kUpdates * per_update);
  std::vector<std::vector<std::vector<float>>> lane_episodes;
  for (const auto& log : lane_logs) lane_episodes.push_back(split_episodes(log));
  std::vector<std::size_t> next(kLanes, 0);
  for (std::size_t g = 0; g < reference.size(); ++g) {
    const std::size_t l = (g % per_update) % kLanes;
    ASSERT_LT(next[l], lane_episodes[l].size()) << "lane " << l << " ran short";
    EXPECT_EQ(lane_episodes[l][next[l]++], reference[g])
        << "episode " << g << " differs on lane " << l;
  }
  for (std::size_t l = 0; l < kLanes; ++l)
    EXPECT_EQ(next[l], lane_episodes[l].size()) << "lane " << l << " ran extra episodes";
}

// -------------------------------------------------- checkpoint / restore ---

TEST(PpoVector, StateRestoreResumesBatchedTrainingBitIdentically) {
  const auto factory = [](std::size_t) { return std::make_unique<WalkEnv>(); };
  PpoConfig cfg = toy_config();
  cfg.rollout_lanes = 4;

  auto reference = scalar_trainer(factory, cfg, 29);
  reference.update();
  const rl::TrainerState snapshot = reference.state();
  const auto r2 = reference.update();
  const auto r3 = reference.update();

  auto resumed = scalar_trainer(factory, cfg, 999);  // different seed: state must win
  resumed.restore(snapshot);
  const auto s2 = resumed.update();
  const auto s3 = resumed.update();

  expect_stats_equal(r2, s2);
  expect_stats_equal(r3, s3);
  EXPECT_EQ(reference.policy().flat_params(), resumed.policy().flat_params());
  EXPECT_EQ(reference.value().flat_params(), resumed.value().flat_params());
  EXPECT_EQ(reference.total_steps(), resumed.total_steps());
  EXPECT_EQ(reference.total_episodes(), resumed.total_episodes());
}

// The trainer writes its weights through Adam::step after every minibatch
// and through restore(); the batched forward of the networks it exposes must
// follow both, or rollouts and minibatches would run on stale weights.
TEST(PpoVector, BatchedForwardFollowsOptimizerStepsAndRestore) {
  auto trainer =
      scalar_trainer([](std::size_t) { return std::make_unique<WalkEnv>(); }, toy_config(), 37);
  const rl::TrainerState initial = trainer.state();
  util::Rng data(38);
  const std::size_t rows = 11;
  const std::vector<float> input =
      ppo_rows(rows, trainer.policy().input_size(), data);

  trainer.update();
  ASSERT_NE(trainer.policy().flat_params(), initial.policy_params);
  EXPECT_TRUE(batch_matches_per_sample(trainer.policy(), input, rows)) << "update";
  EXPECT_TRUE(batch_matches_per_sample(trainer.value(), input, rows)) << "update";

  trainer.restore(initial);
  ASSERT_EQ(trainer.policy().flat_params(), initial.policy_params);
  EXPECT_TRUE(batch_matches_per_sample(trainer.policy(), input, rows)) << "restore";
  EXPECT_TRUE(batch_matches_per_sample(trainer.value(), input, rows)) << "restore";
}

TEST(PpoVector, CheckpointsArePortableAcrossLaneCounts) {
  // Episode RNG streams are keyed by global episode index, so a snapshot
  // taken under one lane count must resume bit-identically under another —
  // parallelism is a throughput knob, not part of the training trajectory.
  const auto factory = [](std::size_t) { return std::make_unique<WalkEnv>(); };
  PpoConfig four = toy_config();
  four.rollout_lanes = 4;
  PpoConfig two = toy_config();
  two.rollout_lanes = 2;

  auto a = scalar_trainer(factory, four, 31);
  a.update();
  const rl::TrainerState snapshot = a.state();
  const auto a2 = a.update();

  auto b = scalar_trainer(factory, two, 555);
  b.restore(snapshot);
  const auto b2 = b.update();

  expect_stats_equal(a2, b2);
  EXPECT_EQ(a.policy().flat_params(), b.policy().flat_params());
  EXPECT_EQ(a.value().flat_params(), b.value().flat_params());
}

// ------------------------------------- CompatibleSetVectorEnv lock-step ----

struct Fixture {
  netlist::Netlist netlist;
  std::vector<RareNet> rare;
  CompatibilityMatrix matrix;
  std::vector<util::BitVec> signatures;
};

Fixture make_fixture(std::uint64_t seed, std::size_t gates = 220) {
  bench_gen::RandomCircuitProfile p;
  p.n_inputs = 16;
  p.n_outputs = 8;
  p.n_gates = gates;
  p.seed = seed;
  Fixture f{bench_gen::generate_random_circuit(p), {}, {}, {}};
  util::Rng rng(seed * 3 + 1);
  analysis::RareNetConfig rcfg;
  rcfg.threshold = 0.15;
  rcfg.sim_patterns = 1 << 13;
  f.rare = analysis::find_rare_nets(f.netlist, rcfg, rng);
  f.matrix = analysis::build_compatibility(f.netlist, f.rare, {}, rng);
  util::Rng sig_rng(seed * 7 + 5);
  f.signatures =
      analysis::rare_activation_signatures(f.netlist, f.rare, 1 << 13, sig_rng);
  return f;
}

std::uint32_t pick_masked_action(const util::BitVec& mask, util::Rng& rng) {
  const auto indices = mask.to_indices();
  return indices[rng.below(indices.size())];
}

/// Drives a CompatibleSetVectorEnv and N ReferenceEnv twins in lock-step
/// with shared per-lane RNG streams and identical actions, and asserts every
/// observable matches at every step: observations, masks, rewards, done
/// flags, members and the pooled sets. The counters compare as the reference
/// defines them: every lane model hit stands for one reference SAT query.
/// The env's own counters land in `counts` when given.
struct EnvCounts {
  std::uint64_t sat_queries = 0;
  std::uint64_t model_hits = 0;
};
void run_lockstep_differential(const Fixture& f, const EnvConfig& cfg,
                               std::size_t n_lanes, std::size_t episodes_per_lane,
                               util::ThreadPool* threads = nullptr,
                               EnvCounts* counts = nullptr) {
  DistinctSetPool vec_pool;
  DistinctSetPool ref_pool;
  CompatibleSetVectorEnv venv(f.netlist, f.rare, f.matrix, cfg, &vec_pool, n_lanes,
                              threads);
  std::vector<std::unique_ptr<ReferenceEnv>> twins;
  std::vector<util::Rng> reset_rng_v;
  std::vector<util::Rng> reset_rng_ref;
  std::vector<util::Rng> action_rng;
  std::vector<std::size_t> remaining(n_lanes, episodes_per_lane);
  std::vector<bool> lane_done(n_lanes, false);

  for (std::size_t l = 0; l < n_lanes; ++l) {
    twins.push_back(std::make_unique<ReferenceEnv>(f.netlist, f.rare, f.matrix, cfg,
                                                   &ref_pool));
    reset_rng_v.emplace_back(0xBEEF + 97 * l);
    reset_rng_ref.emplace_back(0xBEEF + 97 * l);
    action_rng.emplace_back(0xF00D + 31 * l);
  }

  auto reset_lane = [&](std::size_t l) {
    // Resetting into an exhausted mask ends the episode immediately; keep
    // drawing until a playable episode starts or the lane's budget runs out.
    while (remaining[l] > 0) {
      venv.reset_lane(l, reset_rng_v[l]);
      const std::vector<float> ref_obs = twins[l]->reset(reset_rng_ref[l]);
      const auto vec_obs = venv.observation(l);
      ASSERT_TRUE(std::equal(vec_obs.begin(), vec_obs.end(), ref_obs.begin(),
                             ref_obs.end()));
      ASSERT_EQ(venv.action_mask(l), twins[l]->action_mask());
      if (!venv.action_mask(l).none()) return;
      --remaining[l];
    }
    lane_done[l] = true;
  };
  for (std::size_t l = 0; l < n_lanes; ++l) reset_lane(l);

  util::BitVec active(n_lanes);
  std::vector<std::uint32_t> actions(n_lanes, 0);
  for (;;) {
    active.clear_all();
    for (std::size_t l = 0; l < n_lanes; ++l)
      if (!lane_done[l]) active.set(l);
    if (active.none()) break;

    for (std::size_t l = 0; l < n_lanes; ++l) {
      if (!active.test(l)) continue;
      ASSERT_EQ(venv.action_mask(l), twins[l]->action_mask()) << "lane " << l;
      actions[l] = pick_masked_action(venv.action_mask(l), action_rng[l]);
    }
    venv.step(actions, active);

    for (std::size_t l = 0; l < n_lanes; ++l) {
      if (!active.test(l)) continue;
      const StepResult ref = twins[l]->step(actions[l]);
      ASSERT_EQ(venv.reward(l), ref.reward) << "lane " << l;
      ASSERT_EQ(venv.done(l), ref.done) << "lane " << l;
      const auto vec_obs = venv.observation(l);
      ASSERT_TRUE(std::equal(vec_obs.begin(), vec_obs.end(),
                             ref.observation.begin(), ref.observation.end()))
          << "lane " << l;
      ASSERT_EQ(venv.action_mask(l), twins[l]->action_mask()) << "lane " << l;
      const bool over = venv.done(l) || venv.action_mask(l).none();
      if (over) {
        ASSERT_EQ(std::vector<std::uint32_t>(venv.members(l).begin(),
                                             venv.members(l).end()),
                  std::vector<std::uint32_t>(twins[l]->members().begin(),
                                             twins[l]->members().end()))
            << "lane " << l;
        --remaining[l];
        reset_lane(l);
      }
    }
  }

  std::uint64_t ref_queries = 0;
  std::uint64_t ref_witness_hits = 0;
  for (const auto& twin : twins) {
    ref_queries += twin->sat_queries();
    ref_witness_hits += twin->witness_hits();
  }
  EXPECT_EQ(venv.sat_queries() + venv.model_hits(), ref_queries);
  EXPECT_EQ(venv.witness_hits(), ref_witness_hits);
  if (counts != nullptr) *counts = {venv.sat_queries(), venv.model_hits()};
  EXPECT_EQ(vec_pool.size(), ref_pool.size());
  EXPECT_EQ(vec_pool.k_largest(vec_pool.size()),
            ref_pool.k_largest(ref_pool.size()));
}

TEST(VectorEnvDifferential, LanesMatchScalarEnvsAcrossAllModeCombos) {
  Fixture f = make_fixture(51);
  if (f.rare.size() < 6) GTEST_SKIP();
  // The second pass kills two rare nets the way build_compatibility records
  // a net no pattern can drive to its rare value (all-zero row and column,
  // diagonal included): they must never start an episode or enter a mask,
  // the unmasked mode's included.
  for (const bool dead_nets : {false, true}) {
    if (dead_nets)
      for (const std::uint32_t dead : {0u, 3u})
        for (std::uint32_t j = 0; j < f.rare.size(); ++j) f.matrix.set(dead, j, false);
    for (const RewardMode reward : {RewardMode::AllSteps, RewardMode::EndOfEpisode}) {
      for (const MaskMode mask : {MaskMode::Pairwise, MaskMode::None}) {
        EnvConfig cfg;
        cfg.reward_mode = reward;
        cfg.mask_mode = mask;
        // Witness signatures on one of the two mask modes per reward mode, so
        // both the witness sweep and the pure-SAT path get differential cover.
        if (mask == MaskMode::Pairwise) cfg.witness_signatures = &f.signatures;
        SCOPED_TRACE(testing::Message() << "reward=" << static_cast<int>(reward)
                                        << " mask=" << static_cast<int>(mask)
                                        << " dead_nets=" << dead_nets);
        run_lockstep_differential(f, cfg, /*n_lanes=*/5, /*episodes_per_lane=*/3);
      }
    }
  }
  // A bounded greedy repair: none (pure prefix truncation) and two retries.
  for (const std::size_t budget : {std::size_t{0}, std::size_t{2}}) {
    EnvConfig cfg;
    cfg.reward_mode = RewardMode::EndOfEpisode;
    cfg.eoe_repair_budget = budget;
    SCOPED_TRACE(testing::Message() << "eoe_repair_budget=" << budget);
    run_lockstep_differential(f, cfg, /*n_lanes=*/5, /*episodes_per_lane=*/3);
  }
}

TEST(VectorEnvDifferential, InputBranchingLanesMatchReferenceThroughRepair) {
  // The lane oracles branch on the primary inputs only, so their Sat models
  // differ from the reference's full-branching ones. Repair reads a model
  // only as a proof, so members, rewards and the pool must still match over
  // 120 end-of-episode episodes. Repair must really run: without it the
  // lanes ask fewer SAT queries (the prefix search is the same either way,
  // since trajectories do not depend on verification), and some repair
  // answers come from a model. The witness leg also accepts members the
  // model does not meet, so a model stops proving the kept set.
  const Fixture f = make_fixture(57, 300);
  if (f.rare.size() < 8) GTEST_SKIP();
  for (const auto* sigs : {static_cast<const std::vector<util::BitVec>*>(nullptr),
                           &f.signatures}) {
    SCOPED_TRACE(testing::Message() << "witness signatures: " << (sigs != nullptr));
    EnvConfig cfg;
    cfg.reward_mode = RewardMode::EndOfEpisode;
    cfg.witness_signatures = sigs;
    EnvCounts with_repair;
    run_lockstep_differential(f, cfg, /*n_lanes=*/4, /*episodes_per_lane=*/30, nullptr,
                              &with_repair);
    cfg.eoe_repair_budget = 0;
    EnvCounts prefix_only;
    run_lockstep_differential(f, cfg, /*n_lanes=*/4, /*episodes_per_lane=*/30, nullptr,
                              &prefix_only);
    EXPECT_GT(with_repair.sat_queries, prefix_only.sat_queries) << "no repair SAT call";
    EXPECT_GT(with_repair.model_hits, 0u) << "no repair answer from a Sat model";
  }
}

TEST(VectorEnvDifferential, WitnessSweepFiresAndPreservesTrajectories) {
  const Fixture f = make_fixture(52, 300);
  if (f.rare.size() < 8) GTEST_SKIP();
  EnvConfig cfg;
  cfg.witness_signatures = &f.signatures;
  DistinctSetPool pool;
  CompatibleSetVectorEnv venv(f.netlist, f.rare, f.matrix, cfg, &pool, 4);
  std::vector<util::Rng> rngs;
  for (std::size_t l = 0; l < 4; ++l) rngs.emplace_back(7 + l);
  for (std::size_t l = 0; l < 4; ++l) venv.reset_lane(l, rngs[l]);
  util::BitVec active(4);
  active.set_all();
  std::vector<std::uint32_t> actions(4, 0);
  util::Rng act_rng(99);
  for (int s = 0; s < 12 && !active.none(); ++s) {
    for (std::size_t l = 0; l < 4; ++l)
      if (active.test(l)) actions[l] = pick_masked_action(venv.action_mask(l), act_rng);
    venv.step(actions, active);
    for (std::size_t l = 0; l < 4; ++l)
      if (active.test(l) && (venv.done(l) || venv.action_mask(l).none()))
        active.set(l, false);
  }
  EXPECT_GT(venv.witness_hits(), 0u)
      << "whole-word witness sweep never answered a joint check";
}

TEST(VectorEnvDifferential, PooledSatDispatchIsBitIdenticalAtEveryLaneCount) {
  // With a thread pool the env solves an AllSteps step's pending lanes, and
  // verifies the EndOfEpisode lanes that finish together, concurrently on
  // their private oracles. This must be bit-identical to the reference at
  // every lane count (each lane's oracle sees only that lane's queries,
  // whatever thread executes them), so the full lock-step differential —
  // observations, masks, rewards, members, pool, SAT query counts — runs
  // with exact matching. A short step cap ends every lane's episode in the
  // same step, so the EndOfEpisode legs verify whole batches at once.
  const Fixture f = make_fixture(55);
  if (f.rare.size() < 6) GTEST_SKIP();
  util::ThreadPool two(2);
  util::ThreadPool three(3);
  for (const RewardMode mode : {RewardMode::AllSteps, RewardMode::EndOfEpisode}) {
    for (const std::size_t max_steps : {std::size_t{0}, std::size_t{4}}) {
      for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
        for (util::ThreadPool* threads : {&two, &three}) {
          EnvConfig cfg;
          cfg.reward_mode = mode;
          cfg.max_steps = max_steps;
          SCOPED_TRACE(testing::Message()
                       << "mode=" << static_cast<int>(mode) << " max_steps=" << max_steps
                       << " lanes=" << lanes << " threads=" << threads->thread_count());
          run_lockstep_differential(f, cfg, lanes, /*episodes_per_lane=*/2, threads);
        }
      }
    }
  }
}

// ------------------------------------------------- lane isolation (prop) ---

struct LaneTrace {
  std::vector<float> rewards;
  std::vector<std::vector<float>> observations;
  std::vector<util::BitVec> masks;
  std::vector<bool> dones;
};

/// Randomized property: killing lanes must not perturb survivors. A run where
/// a random subset of lanes goes dead after reset must leave the surviving
/// lanes bit-identical to a smaller batch containing only the survivors, and
/// the dead lanes themselves must stay frozen through every step().
TEST(VectorEnvProperty, DeadLanesStayFrozenAndSurvivorsAreUnaffected) {
  const Fixture f = make_fixture(54);
  if (f.rare.size() < 6) GTEST_SKIP();
  EnvConfig cfg;
  cfg.witness_signatures = &f.signatures;
  constexpr std::size_t kLanes = 6;

  for (const std::uint64_t trial : {1u, 2u, 3u}) {
    util::Rng trial_rng(trial * 7919);
    // Pick 3 random survivors; the rest go dead immediately after reset.
    std::vector<std::size_t> ids(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) ids[i] = i;
    trial_rng.shuffle(ids);
    const std::vector<std::size_t> survivors(ids.begin(), ids.begin() + 3);

    auto lane_rng = [&](std::size_t id) { return util::Rng(0xA5A5 + 131 * id); };
    auto act_rng = [&](std::size_t id) {
      return util::Rng(trial * 1000003 + 17 * id);
    };

    // --- full batch: all lanes reset, only survivors ever stepped ---------
    DistinctSetPool pool_a;
    CompatibleSetVectorEnv full(f.netlist, f.rare, f.matrix, cfg, &pool_a, kLanes);
    std::vector<util::Rng> reset_rngs;
    std::vector<util::Rng> action_rngs;
    for (std::size_t id = 0; id < kLanes; ++id) {
      reset_rngs.push_back(lane_rng(id));
      action_rngs.push_back(act_rng(id));
      full.reset_lane(id, reset_rngs[id]);
    }
    std::vector<LaneTrace> traces(kLanes);
    util::BitVec active(kLanes);
    std::vector<std::uint32_t> actions(kLanes, 0);
    for (int s = 0; s < 10; ++s) {
      active.clear_all();
      for (const std::size_t id : survivors)
        if (!full.done(id) && !full.action_mask(id).none()) active.set(id);
      if (active.none()) break;

      // Snapshot the dead lanes before stepping the survivors.
      std::vector<std::vector<float>> dead_obs(kLanes);
      std::vector<float> dead_reward(kLanes, 0.0f);
      for (std::size_t id = 0; id < kLanes; ++id) {
        if (active.test(id)) continue;
        const auto o = full.observation(id);
        dead_obs[id].assign(o.begin(), o.end());
        dead_reward[id] = full.reward(id);
      }

      for (std::size_t id = 0; id < kLanes; ++id)
        if (active.test(id))
          actions[id] = pick_masked_action(full.action_mask(id), action_rngs[id]);
      full.step(actions, active);

      for (std::size_t id = 0; id < kLanes; ++id) {
        if (active.test(id)) {
          const auto o = full.observation(id);
          traces[id].rewards.push_back(full.reward(id));
          traces[id].observations.emplace_back(o.begin(), o.end());
          traces[id].masks.push_back(full.action_mask(id));
          traces[id].dones.push_back(full.done(id));
        } else {
          const auto o = full.observation(id);
          EXPECT_TRUE(std::equal(o.begin(), o.end(), dead_obs[id].begin(),
                                 dead_obs[id].end()))
              << "inactive lane " << id << " observation drifted";
          EXPECT_EQ(full.reward(id), dead_reward[id])
              << "inactive lane " << id << " reward drifted";
        }
      }
    }

    // --- survivor-only batch: same identities, same streams, same actions -
    DistinctSetPool pool_b;
    CompatibleSetVectorEnv small(f.netlist, f.rare, f.matrix, cfg, &pool_b,
                                 survivors.size());
    std::vector<util::Rng> small_reset;
    std::vector<util::Rng> small_action;
    for (std::size_t k = 0; k < survivors.size(); ++k) {
      small_reset.push_back(lane_rng(survivors[k]));
      small_action.push_back(act_rng(survivors[k]));
      small.reset_lane(k, small_reset[k]);
    }
    std::vector<LaneTrace> small_traces(survivors.size());
    util::BitVec small_active(survivors.size());
    std::vector<std::uint32_t> small_actions(survivors.size(), 0);
    for (int s = 0; s < 10; ++s) {
      small_active.clear_all();
      for (std::size_t k = 0; k < survivors.size(); ++k)
        if (!small.done(k) && !small.action_mask(k).none()) small_active.set(k);
      if (small_active.none()) break;
      for (std::size_t k = 0; k < survivors.size(); ++k)
        if (small_active.test(k))
          small_actions[k] = pick_masked_action(small.action_mask(k), small_action[k]);
      small.step(small_actions, small_active);
      for (std::size_t k = 0; k < survivors.size(); ++k) {
        if (!small_active.test(k)) continue;
        const auto o = small.observation(k);
        small_traces[k].rewards.push_back(small.reward(k));
        small_traces[k].observations.emplace_back(o.begin(), o.end());
        small_traces[k].masks.push_back(small.action_mask(k));
        small_traces[k].dones.push_back(small.done(k));
      }
    }

    for (std::size_t k = 0; k < survivors.size(); ++k) {
      const LaneTrace& a = traces[survivors[k]];
      const LaneTrace& b = small_traces[k];
      EXPECT_EQ(a.rewards, b.rewards) << "trial " << trial << " survivor " << k;
      EXPECT_EQ(a.observations, b.observations)
          << "trial " << trial << " survivor " << k;
      EXPECT_EQ(a.masks, b.masks) << "trial " << trial << " survivor " << k;
      EXPECT_EQ(a.dones, b.dones) << "trial " << trial << " survivor " << k;
    }
  }
}

// --------------------------------------- trainer on the real environment ---

/// Trainer-level reference: the specialized CompatibleSetVectorEnv must
/// train exactly like the generic EnvVector over ReferenceEnv lanes, at one
/// lane and at three.
TEST(PpoVector, LanesMatchWorkersOnCompatibleSetEnv) {
  const Fixture f = make_fixture(55);
  if (f.rare.size() < 6) GTEST_SKIP();
  for (const RewardMode reward : {RewardMode::AllSteps, RewardMode::EndOfEpisode}) {
    for (const MaskMode mask : {MaskMode::Pairwise, MaskMode::None}) {
      for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
        EnvConfig env_cfg;
        env_cfg.reward_mode = reward;
        env_cfg.mask_mode = mask;
        env_cfg.witness_signatures = &f.signatures;
        SCOPED_TRACE(testing::Message() << "reward=" << static_cast<int>(reward)
                                        << " mask=" << static_cast<int>(mask)
                                        << " lanes=" << lanes);
        PpoConfig cfg = toy_config();
        cfg.episodes_per_update = 8;
        cfg.rollout_lanes = lanes;

        DistinctSetPool ref_pool;
        auto generic = scalar_trainer(
            [&](std::size_t) {
              return std::make_unique<ReferenceEnv>(f.netlist, f.rare, f.matrix, env_cfg,
                                                    &ref_pool);
            },
            cfg, 61);

        DistinctSetPool lane_pool;
        PpoTrainer specialized(
            nullptr, cfg, 61, [&](std::size_t n) {
              return std::make_unique<CompatibleSetVectorEnv>(f.netlist, f.rare, f.matrix,
                                                              env_cfg, &lane_pool, n);
            });

        for (int u = 0; u < 2; ++u)
          expect_stats_equal(generic.update(), specialized.update());
        EXPECT_EQ(generic.policy().flat_params(), specialized.policy().flat_params());
        EXPECT_EQ(generic.value().flat_params(), specialized.value().flat_params());
        EXPECT_EQ(ref_pool.size(), lane_pool.size());
        EXPECT_EQ(ref_pool.k_largest(ref_pool.size()),
                  lane_pool.k_largest(lane_pool.size()));
        const auto& generic_env = static_cast<const EnvVector&>(generic.vector_env());
        std::uint64_t ref_queries = 0;
        std::uint64_t ref_witness_hits = 0;
        for (std::size_t l = 0; l < lanes; ++l) {
          const auto& twin = static_cast<const ReferenceEnv&>(generic_env.lane_env(l));
          ref_queries += twin.sat_queries();
          ref_witness_hits += twin.witness_hits();
        }
        const auto& lane_env =
            static_cast<const CompatibleSetVectorEnv&>(specialized.vector_env());
        EXPECT_EQ(lane_env.sat_queries() + lane_env.model_hits(), ref_queries);
        EXPECT_EQ(lane_env.witness_hits(), ref_witness_hits);
      }
    }
  }
}

/// The frozen benchmark's call shape passes an EnvFactory next to the vector
/// factory. The trainer must never call it, and must train exactly as when
/// the EnvFactory is null.
TEST(PpoVector, EnvFactoryBesideVectorFactoryIsNeverCalled) {
  const Fixture f = make_fixture(55);
  if (f.rare.size() < 6) GTEST_SKIP();
  EnvConfig env_cfg;
  env_cfg.witness_signatures = &f.signatures;
  PpoConfig cfg = toy_config();
  cfg.episodes_per_update = 8;
  cfg.rollout_lanes = 3;
  auto train = [&](const PpoTrainer::EnvFactory& factory) {
    DistinctSetPool pool;
    PpoTrainer trainer(factory, cfg, 61, [&](std::size_t n) {
      return std::make_unique<CompatibleSetVectorEnv>(f.netlist, f.rare, f.matrix, env_cfg,
                                                      &pool, n);
    });
    for (int u = 0; u < 2; ++u) trainer.update();
    return std::pair{trainer.policy().flat_params(), trainer.value().flat_params()};
  };
  const auto with_factory = train([](std::size_t) -> std::unique_ptr<Env> {
    ADD_FAILURE() << "PpoTrainer called its EnvFactory";
    return nullptr;
  });
  const auto without_factory = train(nullptr);
  EXPECT_EQ(with_factory.first, without_factory.first);
  EXPECT_EQ(with_factory.second, without_factory.second);
}

TEST(PpoVector, NullVectorFactoryThrows) {
  EXPECT_THROW(PpoTrainer([](std::size_t) { return std::make_unique<WalkEnv>(); },
                          toy_config(), 1, nullptr),
               Error);
}

}  // namespace
}  // namespace deterrent
