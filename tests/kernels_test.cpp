// Tests for the parallel `_into` kernel layer (tensor/kernels.hpp): the
// bitwise-determinism contract of the tiled GEMM, NaN propagation, the
// canonical softmax/GELU against the scalar libm loops they replaced, the
// Workspace arena, structured ShapeErrors, and ThreadPool::parallel_for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/shape_check.hpp"
#include "tensor/tensor.hpp"

namespace ns {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

Tensor random_tensor(Shape shape, unsigned seed) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng);
}

// Reference i-k-j matmul, no tiling, no parallelism, no zero-skip.
Tensor reference_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor c(Shape{m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a.data()[i * k + kk];
      for (std::size_t j = 0; j < n; ++j)
        c.data()[i * n + j] += aik * b.data()[kk * n + j];
    }
  return c;
}

// Reference for the relaxed gemm: every element is one ascending-k chain of
// fused multiply-adds from 0, c = fmaf(a_ik, b_kj, c).
Tensor reference_fma_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor c(Shape{m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc = std::fmaf(a.data()[i * k + kk], b.data()[kk * n + j], acc);
      c.data()[i * n + j] = acc;
    }
  return c;
}

// Bit equality element by element, except that a NaN only has to be NaN in
// the same position: which NaN payload survives depends on operand order.
bool bitwise_equal_or_both_nan(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const float x = a.data()[i], y = b.data()[i];
    if (std::isnan(x) || std::isnan(y)) {
      if (std::isnan(x) != std::isnan(y)) return false;
    } else if (std::memcmp(&x, &y, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(MatmulInto, MatchesReferenceOnOddShapes) {
  // Covers every tile path of the canonical gemm: 16- and 8-column vector
  // panels, the 4-wide tail and the scalar tail below 4 columns, each with
  // 4-row tiles and remainder rows. This file is built without FMA, so the
  // reference rounds every product and every sum; a kernel whose
  // multiply-adds were contracted would differ in the last bits.
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes{
      {1, 1, 1}, {5, 7, 3}, {33, 65, 17}, {4, 8, 8}, {65, 3, 9}};
  for (std::size_t n :
       {1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 20, 24, 31, 32, 72, 96})
    for (std::size_t m : {1, 3, 4, 5, 65})
      for (std::size_t k : {1, 12, 24, 96}) shapes.emplace_back(m, k, n);

  // Special values through every panel: NaN, +-Inf, -0.0, and a denormal
  // that must survive (no flush-to-zero) into row 3 of C.
  const std::size_t m = 5, k = 24, n = 31;
  Tensor special_a = random_tensor(Shape{m, k}, 3);
  Tensor special_b = random_tensor(Shape{k, n}, 4);
  const float inf = std::numeric_limits<float>::infinity();
  special_a.at(0, 3) = std::numeric_limits<float>::quiet_NaN();
  special_a.at(1, 7) = -0.0f;
  for (std::size_t kk = 0; kk < k; ++kk) special_a.at(3, kk) = 0.0f;
  special_a.at(3, 0) = std::numeric_limits<float>::denorm_min() * 1000.0f;
  special_a.at(4, 9) = -inf;
  special_b.at(5, 2) = inf;
  special_b.at(7, 20) = -inf;
  special_b.at(1, 10) = -0.0f;
  special_b.at(11, 30) = std::numeric_limits<float>::quiet_NaN();
  special_b.at(0, 17) = std::numeric_limits<float>::denorm_min();

  const auto check = [&](Tensor (*reference)(const Tensor&, const Tensor&)) {
    for (const auto& [rows, depth, cols] : shapes) {
      const Tensor a = random_tensor(Shape{rows, depth}, 1);
      const Tensor b = random_tensor(Shape{depth, cols}, 2);
      Tensor c;
      matmul_into(c, a, b);
      EXPECT_TRUE(bitwise_equal(c, reference(a, b)))
          << rows << "x" << depth << "x" << cols;
    }
    Tensor c;
    matmul_into(c, special_a, special_b);
    EXPECT_TRUE(bitwise_equal_or_both_nan(c, reference(special_a, special_b)));
    EXPECT_TRUE(std::isnan(c.at(0, 0)));
    EXPECT_NE(c.at(3, 1), 0.0f);
    EXPECT_LT(std::fabs(c.at(3, 1)), std::numeric_limits<float>::min());
  };
  check(reference_matmul);

  // The relaxed gemm (FastKernelScope) pins its own bits: one fused
  // multiply-add per k, in ascending k, in every panel and tail. Where the
  // scope cannot enable the fast tier, matmul_into stays canonical and the
  // pass is skipped.
  const FastKernelScope fast;
  if (!fast_kernels_enabled()) return;
  check(reference_fma_matmul);
}

TEST(MatmulInto, BitwiseIdenticalAcrossThreadCounts) {
  // 192^3 exceeds kMatmulParallelFlops with m > one row block, so the pool
  // path is exercised; the contract is bitwise equality at any width.
  const std::size_t n = 192;
  ASSERT_GE(2 * n * n * n, kMatmulParallelFlops);
  const Tensor a = random_tensor(Shape{n, n}, 3);
  const Tensor b = random_tensor(Shape{n, n}, 4);
  ThreadPool pool1(1), pool2(2), pool5(5);
  Tensor c1, c2, c5;
  matmul_into(c1, a, b, &pool1);
  matmul_into(c2, a, b, &pool2);
  matmul_into(c5, a, b, &pool5);
  EXPECT_TRUE(bitwise_equal(c1, c2));
  EXPECT_TRUE(bitwise_equal(c1, c5));
  EXPECT_TRUE(bitwise_equal(c1, reference_matmul(a, b)));
}

TEST(MatmulInto, AllocatingWrapperBitwiseMatchesInto) {
  const Tensor a = random_tensor(Shape{30, 40}, 5);
  const Tensor b = random_tensor(Shape{40, 20}, 6);
  Tensor c;
  matmul_into(c, a, b);
  EXPECT_TRUE(bitwise_equal(c, matmul(a, b)));
}

TEST(MatmulInto, PropagatesNaNThroughZeroOperand) {
  // The historic kernel skipped aik == 0 terms, silently converting
  // 0 * NaN into 0. The kernel layer must propagate per IEEE semantics.
  Tensor a(Shape{2, 2});  // all zeros
  Tensor b(Shape{2, 2});
  b.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  b.at(1, 1) = std::numeric_limits<float>::infinity();
  Tensor c;
  matmul_into(c, a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
  EXPECT_TRUE(std::isnan(c.at(1, 1)));  // 0 * inf = NaN
}

TEST(MatmulInto, RejectsAliasedDestination) {
  Tensor a = random_tensor(Shape{4, 4}, 7);
  const Tensor b = random_tensor(Shape{4, 4}, 8);
  EXPECT_THROW(matmul_into(a, a, b), InvalidArgument);
}

TEST(ElementwiseInto, InPlaceAliasingAllowed) {
  Tensor a = random_tensor(Shape{3, 5}, 9);
  const Tensor orig = a.clone();
  const Tensor b = random_tensor(Shape{3, 5}, 10);
  add_into(a, a, b);
  EXPECT_TRUE(bitwise_equal(a, add(orig, b)));
}

TEST(ShapeCheck, ErrorCarriesExpectedAndActual) {
  const Tensor a = random_tensor(Shape{2, 3}, 11);
  const Tensor b = random_tensor(Shape{4, 5}, 12);
  try {
    check_matmul_shapes(a, b, "test_op");
    FAIL() << "expected ShapeError";
  } catch (const ShapeError& e) {
    EXPECT_EQ(e.op(), "test_op");
    EXPECT_EQ(e.expected(), (Shape{3, 0}));  // inner dim 3, any cols
    EXPECT_EQ(e.actual(), (Shape{4, 5}));
  }
}

TEST(ShapeCheck, ShapeErrorIsInvalidArgument) {
  const Tensor a = random_tensor(Shape{2, 3}, 13);
  const Tensor b = random_tensor(Shape{2, 4}, 14);
  EXPECT_THROW(check_same_shape(a, b, "op"), InvalidArgument);
  EXPECT_NO_THROW(check_same_shape(a, a, "op"));
  EXPECT_NO_THROW(check_cols(a, 3, "op"));
  EXPECT_THROW(check_cols(a, 4, "op"), ShapeError);
}

TEST(Workspace, RecyclesReleasedBuffer) {
  Workspace ws;
  Tensor t = ws.acquire(Shape{8, 8});
  const float* storage = t.data();
  ws.release(std::move(t));
  EXPECT_EQ(ws.pooled(), 1u);
  // Same element count, different shape: storage is reused, reshaped.
  Tensor u = ws.acquire(Shape{4, 16});
  EXPECT_EQ(u.data(), storage);
  EXPECT_EQ(ws.reuse_count(), 1u);
}

TEST(Workspace, SharedStorageIsNeverPooled) {
  Workspace ws;
  Tensor t = ws.acquire(Shape{4});
  Tensor alias = t;  // storage escapes
  ws.release(std::move(t));
  EXPECT_EQ(ws.pooled(), 0u);
  Tensor u = ws.acquire(Shape{4});
  EXPECT_NE(u.data(), alias.data());
}

TEST(Workspace, AcquireZeroClearsRecycledBuffer) {
  Workspace ws;
  Tensor t = ws.acquire(Shape{4});
  t.fill(7.0f);
  ws.release(std::move(t));
  Tensor z = ws.acquire_zero(Shape{4});
  for (float v : z.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Workspace, ServesTheSmallestPooledBufferThatFits) {
  Workspace ws;
  Tensor big = ws.acquire(Shape{10, 10});
  Tensor mid = ws.acquire(Shape{6, 10});
  Tensor small = ws.acquire(Shape{2, 3});
  const float* p_big = big.data();
  const float* p_mid = mid.data();
  const float* p_small = small.data();
  ws.release(std::move(big));
  ws.release(std::move(mid));
  ws.release(std::move(small));
  // 50 elements fit the 60 and the 100: the 60 wins, re-shaped in place.
  Tensor a = ws.acquire(Shape{5, 10});
  EXPECT_EQ(a.shape(), (Shape{5, 10}));
  EXPECT_EQ(a.numel(), 50u);
  EXPECT_EQ(a.capacity(), 60u);
  EXPECT_EQ(a.data(), p_mid);
  Tensor b = ws.acquire(Shape{7, 10});  // only the 100 fits
  EXPECT_EQ(b.data(), p_big);
  EXPECT_EQ(b.shape(), (Shape{7, 10}));
  Tensor c = ws.acquire(Shape{4});
  EXPECT_EQ(c.data(), p_small);
  EXPECT_EQ(ws.pooled(), 0u);
  EXPECT_EQ(ws.reuse_count(), 3u);
  Tensor d = ws.acquire(Shape{20, 10});  // nothing pooled: fresh storage
  EXPECT_NE(d.data(), p_big);
  EXPECT_NE(d.data(), p_mid);
  EXPECT_NE(d.data(), p_small);
  EXPECT_EQ(d.capacity(), d.numel());
  // A recycled buffer's spare capacity is invisible: fill, clone and
  // acquire_zero touch numel() elements, and a clone holds only those.
  const Tensor a_copy = a.clone();
  EXPECT_EQ(a_copy.capacity(), a_copy.numel());
  ws.release(std::move(a));
  Tensor z = ws.acquire_zero(Shape{3, 3});
  EXPECT_EQ(z.data(), p_mid);
  for (const float v : z.flat()) EXPECT_EQ(v, 0.0f);
}

// A random acquire/release walk: every acquired tensor has the requested
// shape, and no two live tensors' storages overlap.
TEST(Workspace, AcquiredBuffersNeverAliasALiveBuffer) {
  Workspace ws;
  Rng rng(5);
  std::vector<Tensor> live;
  for (int step = 0; step < 2000; ++step) {
    if (!live.empty() && rng.uniform() < 0.45) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      ws.release(std::move(live[i]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    const Shape shape{static_cast<std::size_t>(rng.uniform_int(1, 40)),
                      static_cast<std::size_t>(rng.uniform_int(1, 12))};
    Tensor t = ws.acquire(shape);
    ASSERT_EQ(t.shape(), shape);
    ASSERT_EQ(t.numel(), shape[0] * shape[1]);
    ASSERT_GE(t.capacity(), t.numel());
    ASSERT_TRUE(t.storage_unique());
    const float* begin = t.data();
    const float* end = begin + t.capacity();
    for (const Tensor& other : live) {
      const float* o_begin = other.data();
      const float* o_end = o_begin + other.capacity();
      ASSERT_TRUE(end <= o_begin || o_end <= begin) << "step " << step;
    }
    live.push_back(std::move(t));
  }
  EXPECT_GT(ws.reuse_count(), 0u);
}

TEST(ThreadPoolParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), 7,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolParallelFor, NestedCallsDegradeInsteadOfDeadlocking) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, 1, [&](std::size_t) {
    // Inner call lands on a worker thread and must run inline.
    pool.parallel_for(0, 8, 1, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolParallelFor, PropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100, 1,
                                 [&](std::size_t i) {
                                   if (i == 57) throw InvalidArgument("boom");
                                 }),
               InvalidArgument);
}

// Parks every worker of `pool` inside a task that waits for `gate`, and
// returns once all of them are parked.
void park_workers(ThreadPool& pool, const std::shared_future<void>& gate) {
  std::atomic<std::size_t> parked{0};
  for (std::size_t w = 0; w < pool.size(); ++w)
    pool.submit([&parked, gate] {
      parked.fetch_add(1);
      gate.wait();
    });
  while (parked.load() < pool.size()) std::this_thread::yield();
}

constexpr auto kStallDeadline = std::chrono::seconds(10);

TEST(ThreadPoolParallelFor, CallerFinishesWhileEveryWorkerIsParked) {
  // The helpers this call queues cannot start until the gate opens, so the
  // caller has to claim every chunk itself and return without them.
  ThreadPool pool(2);
  std::promise<void> gate;
  park_workers(pool, gate.get_future().share());
  std::vector<std::atomic<int>> hits(64);
  auto call = std::async(std::launch::async, [&] {
    pool.parallel_for(0, hits.size(), 1,
                      [&](std::size_t i) { hits[i].fetch_add(1); });
  });
  const bool returned =
      call.wait_for(kStallDeadline) == std::future_status::ready;
  gate.set_value();
  call.get();
  EXPECT_TRUE(returned) << "parallel_for waited for parked workers";
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolParallelFor, LateHelpersNeverCallAReturnedLoopsFn) {
  // Every call below returns with its helpers still queued behind the
  // parked workers, and its stack-local fn then dies. Opening the gate
  // lets those helpers run; under ASan or TSan a helper that called a dead
  // fn is reported, and here it would count an extra hit.
  ThreadPool pool(2);
  std::promise<void> gate;
  park_workers(pool, gate.get_future().share());
  constexpr std::size_t kCalls = 50, kRange = 16;
  std::vector<std::atomic<int>> hits(kCalls * kRange);
  auto calls = std::async(std::launch::async, [&] {
    for (std::size_t call = 0; call < kCalls; ++call) {
      const std::function<void(std::size_t)> fn = [&hits, call](std::size_t i) {
        hits[call * kRange + i].fetch_add(1);
      };
      pool.parallel_for(0, kRange, 1, fn);
    }
  });
  const bool returned =
      calls.wait_for(kStallDeadline) == std::future_status::ready;
  gate.set_value();
  calls.get();
  pool.shutdown();  // drains the queue: every late helper has run
  EXPECT_TRUE(returned) << "parallel_for waited for parked workers";
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---- Canonical exp and tanh against the scalar libm loops they replaced.
//
// The loops below are the canonical softmax and GELU kernels as they were
// before exp and tanh ran 8 lanes at a time, kept as the reference. This
// file is built without FMA, so every product and sum rounds on its own, as
// in those loops.

void libm_softmax_row(const float* in, float* out, std::size_t cols) {
  float mx = in[0];
  for (std::size_t j = 1; j < cols; ++j) mx = std::max(mx, in[j]);
  double denom = 0.0;
  for (std::size_t j = 0; j < cols; ++j) {
    out[j] = std::exp(in[j] - mx);
    denom += out[j];
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (std::size_t j = 0; j < cols; ++j) out[j] *= inv;
}

constexpr float kGeluC = 0.7978845608028654f;
constexpr float kGeluA = 0.044715f;

float libm_gelu(float v) {
  const float t = std::tanh(kGeluC * (v + kGeluA * v * v * v));
  return 0.5f * v * (1.0f + t);
}

float libm_gelu_backward(float v, float dy) {
  const float u = kGeluC * (v + kGeluA * v * v * v);
  const float t = std::tanh(u);
  const float du = kGeluC * (1.0f + 3.0f * kGeluA * v * v);
  const float dgelu = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
  return dy * dgelu;
}

float float_from_bits(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

std::uint32_t float_bits(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof bits);
  return bits;
}

// Every stride-th float bit pattern: all signs and exponents, NaNs, Infs
// and denormals.
std::vector<float> strided_float_sweep(std::uint32_t stride) {
  std::vector<float> out;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += stride)
    out.push_back(float_from_bits(static_cast<std::uint32_t>(u)));
  return out;
}

// The 2 * half consecutive floats centred on c (same sign as c).
void append_window(std::vector<float>& out, float c, int half = 2048) {
  const std::uint32_t mid = float_bits(c);
  for (int d = -half; d < half; ++d)
    out.push_back(float_from_bits(mid + static_cast<std::uint32_t>(d)));
}

// +-0, +-Inf, NaNs of both signs, denormals and the extremes of the range.
std::vector<float> special_floats() {
  using lim = std::numeric_limits<float>;
  std::vector<float> out;
  for (const float v : {0.0f, lim::infinity(), lim::quiet_NaN(),
                        lim::denorm_min(), lim::denorm_min() * 1000.0f,
                        lim::min() * 0.5f, lim::min(), lim::max(), 1.0f}) {
    out.push_back(v);
    out.push_back(-v);
  }
  return out;
}

// glibc expf's branch cuts: |x| = 88 leaves the main path, x > 88.72
// overflows, x < -103.28 may underflow, x < -103.97 underflows.
constexpr float kExpCuts[] = {88.0f, 0x1.62e42ep6f, 0x1.9d1d9ep6f,
                              0x1.9fe368p6f};
// The only two floats (of all 2^32) whose expf changes when its reduced
// argument r = x * 32/ln2 - k is rounded after the multiply instead of
// fused; the sweep and the cut windows miss both.
constexpr float kExpFmaSensitive[] = {0x1.04845ep+5f, -0x1.f8cbb2p+5f};

std::vector<float> exp_cut_windows() {
  std::vector<float> out;
  for (const float c : kExpCuts) {
    append_window(out, c);
    append_window(out, -c);
  }
  for (const float c : kExpFmaSensitive) append_window(out, c);
  return out;
}

// tanhf/expm1f's branch cuts on |x|: 2^-55 (tiny), 2^-26 (expm1f returns
// its argument), ln2/4 and 3ln2/4 (k = 0, -1, general), 1 (the two tanh
// forms), expm1f's k = 23 and k = 57 cuts, and 22 (saturation).
std::vector<float> tanh_cuts() {
  const double ln2 = std::log(2.0);
  return {0x1p-55f,
          0x1p-26f,
          static_cast<float>(ln2 / 4),
          static_cast<float>(3 * ln2 / 4),
          1.0f,
          static_cast<float>(22.5 * ln2 / 2),
          static_cast<float>(56.5 * ln2 / 2),
          22.0f};
}

TEST(CanonicalMath, ExpAndTanhMatchLibmBitwise) {
  std::vector<float> in = strided_float_sweep(4099);
  const std::vector<float> windows = exp_cut_windows();
  in.insert(in.end(), windows.begin(), windows.end());
  for (const float c : tanh_cuts()) {
    append_window(in, c);
    append_window(in, -c);
  }
  const std::vector<float> specials = special_floats();
  in.insert(in.end(), specials.begin(), specials.end());

  auto check = [](const std::vector<float>& values) {
    std::vector<float> e = values, t = values;
    canonical_exp(e);
    canonical_tanh(t);
    std::size_t exp_bad = 0, tanh_bad = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (float_bits(e[i]) != float_bits(std::exp(values[i]))) ++exp_bad;
      if (float_bits(t[i]) != float_bits(std::tanh(values[i]))) ++tanh_bad;
    }
    EXPECT_EQ(exp_bad, 0u) << "of " << values.size();
    EXPECT_EQ(tanh_bad, 0u) << "of " << values.size();
  };
  check(in);
  // Lengths 1-17 run the padded tail at every width.
  for (std::size_t n = 1; n <= 17; ++n)
    check(std::vector<float>(specials.begin(),
                             specials.begin() + static_cast<std::ptrdiff_t>(n)));
}

// Rows of `cols` floats drawn in turn from `values`; with lead_zero, each
// row starts with 0 and the rest are -|v|, so the row max is 0 and every
// exp argument is exactly one of the values.
Tensor softmax_rows_from(const std::vector<float>& values, std::size_t cols,
                         bool lead_zero) {
  const std::size_t per_row = lead_zero ? cols - 1 : cols;
  const std::size_t rows =
      per_row == 0 ? 1 : (values.size() + per_row - 1) / per_row;
  Tensor x(Shape{rows, cols});
  std::size_t next = 0;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      if (lead_zero && c == 0) continue;  // Tensor(shape) is zero-filled
      const float v = values[next++ % values.size()];
      x.at(r, c) = lead_zero ? -std::fabs(v) : v;
    }
  return x;
}

Tensor libm_softmax_rows(const Tensor& x) {
  Tensor out(x.shape());
  const std::size_t rows = x.size(0), cols = x.size(1);
  for (std::size_t r = 0; r < rows; ++r)
    libm_softmax_row(x.data() + r * cols, out.data() + r * cols, cols);
  return out;
}

TEST(SoftmaxRowsInto, MatchesLibmLoopBitwise) {
  // Softmax arguments are never positive: only the negative side applies.
  std::vector<float> cut_values;
  for (const float c : kExpCuts) append_window(cut_values, -c);
  append_window(cut_values, kExpFmaSensitive[1]);
  const std::vector<float> specials = special_floats();
  cut_values.insert(cut_values.end(), specials.begin(), specials.end());
  std::vector<float> coarse = strided_float_sweep(65537);
  coarse.insert(coarse.end(), cut_values.begin(), cut_values.end());
  const std::vector<float> sweep = strided_float_sweep(4099);

  auto check = [](const std::vector<float>& values, std::size_t cols,
                  bool lead_zero) {
    const Tensor x = softmax_rows_from(values, cols, lead_zero);
    Tensor y;
    softmax_rows_into(y, x);
    EXPECT_TRUE(bitwise_equal_or_both_nan(y, libm_softmax_rows(x)))
        << "cols " << cols << (lead_zero ? ", leading zero" : "");
    // In place, as the attention softmax runs.
    Tensor z = x.clone();
    softmax_rows_into(z, z);
    EXPECT_TRUE(bitwise_equal_or_both_nan(z, y)) << "in place, cols " << cols;
  };
  // Widths 1-17 run every tail: the 8-lane loops, the padded exp tail and
  // groups of fewer than 4 rows.
  for (std::size_t cols = 1; cols <= 17; ++cols) {
    check(coarse, cols, false);
    if (cols > 1) check(coarse, cols, true);
  }
  check(sweep, 13, true);
  check(sweep, 96, false);
}

// The attention chain the canonical block_attention_into must equal: q kᵀ
// as the i-k-j gemm, times scale, the libm softmax, then times v.
Tensor libm_block_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                            const std::vector<std::size_t>& lens,
                            float scale) {
  const std::size_t dh = q.size(1);
  Tensor out(q.shape());
  std::size_t base = 0;
  for (const std::size_t len : lens) {
    std::vector<float> row(len);
    for (std::size_t i = 0; i < len; ++i) {
      for (std::size_t j = 0; j < len; ++j) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < dh; ++c)
          acc += q.at(base + i, c) * k.at(base + j, c);
        row[j] = acc * scale;
      }
      libm_softmax_row(row.data(), row.data(), len);
      for (std::size_t c = 0; c < dh; ++c) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < len; ++j)
          acc += row[j] * v.at(base + j, c);
        out.at(base + i, c) = acc;
      }
    }
    base += len;
  }
  return out;
}

TEST(BlockAttentionInto, ScaledSoftmaxMatchesLibmLoopBitwise) {
  // Blocks of 1-17 rows with dh = 17. q rows are e0 and k rows carry one
  // value in column 0, so each score row is the block's values times
  // scale; v is the identity per block, so out holds the probabilities.
  std::vector<std::size_t> lens;
  for (std::size_t len = 1; len <= 17; ++len) lens.push_back(len);
  std::size_t tokens = 0;
  for (const std::size_t len : lens) tokens += len;
  constexpr std::size_t dh = 17;

  // scale 0.25 is exact, so k = 4 * v puts each exp argument exactly on v;
  // the coarse sweep runs at an inexact 1/sqrt(12).
  std::vector<float> cut_values;
  for (const float c : kExpCuts) append_window(cut_values, -4.0f * c, 512);
  append_window(cut_values, 4.0f * kExpFmaSensitive[1], 512);
  std::vector<float> coarse = strided_float_sweep(65537);
  const std::vector<float> specials = special_floats();
  coarse.insert(coarse.end(), specials.begin(), specials.end());

  Workspace ws;
  auto check = [&](const std::vector<float>& values, float scale,
                   bool lead_zero) {
    std::size_t next = 0;
    while (next < values.size()) {
      Tensor q(Shape{tokens, dh}), k(Shape{tokens, dh}), v(Shape{tokens, dh});
      std::size_t base = 0;
      for (const std::size_t len : lens) {
        for (std::size_t j = 0; j < len; ++j) {
          q.at(base + j, 0) = 1.0f;
          v.at(base + j, j) = 1.0f;
          k.at(base + j, 0) = lead_zero && j == 0
                                  ? 0.0f
                                  : values[next++ % values.size()];
        }
        base += len;
      }
      Tensor out;
      block_attention_into(out, q, k, v, lens, scale, ws);
      EXPECT_TRUE(bitwise_equal_or_both_nan(
          out, libm_block_attention(q, k, v, lens, scale)))
          << "values from " << next;
    }
  };
  check(cut_values, 0.25f, true);
  check(coarse, 1.0f / std::sqrt(12.0f), false);
}

// Inputs whose GELU tanh argument kGeluC * (x + kGeluA x^3) lands in dense
// windows around each tanhf/expm1f cut, found by bisection on x.
std::vector<float> gelu_cut_windows() {
  auto u_of = [](float x) { return kGeluC * (x + kGeluA * x * x * x); };
  std::vector<float> out;
  for (const float cut : tanh_cuts()) {
    float lo = 0.0f, hi = 32.0f;
    for (int it = 0; it < 200; ++it) {
      const float mid = 0.5f * (lo + hi);
      (u_of(mid) < cut ? lo : hi) = mid;
    }
    append_window(out, hi);
    append_window(out, -hi);
  }
  return out;
}

TEST(GeluInto, ForwardAndBackwardMatchLibmLoopsBitwise) {
  std::vector<float> values = strided_float_sweep(4099);
  const std::vector<float> windows = gelu_cut_windows();
  values.insert(values.end(), windows.begin(), windows.end());
  const std::vector<float> specials = special_floats();
  values.insert(values.end(), specials.begin(), specials.end());

  auto check = [](const std::vector<float>& in) {
    const std::size_t n = in.size();
    Tensor x(Shape{1, n}), dy(Shape{1, n});
    std::memcpy(x.data(), in.data(), n * sizeof(float));
    Rng rng(11);
    for (std::size_t i = 0; i < n; ++i)
      dy.data()[i] = static_cast<float>(rng.gaussian());
    Tensor y, dx;
    gelu_into(y, x);
    gelu_backward_into(dx, x, dy);
    Tensor y_ref(x.shape()), dx_ref(x.shape());
    for (std::size_t i = 0; i < n; ++i) {
      y_ref.data()[i] = libm_gelu(in[i]);
      dx_ref.data()[i] = libm_gelu_backward(in[i], dy.data()[i]);
    }
    EXPECT_TRUE(bitwise_equal_or_both_nan(y, y_ref)) << "n " << n;
    EXPECT_TRUE(bitwise_equal_or_both_nan(dx, dx_ref)) << "n " << n;
  };
  check(values);
  // Lengths 1-17 run the padded tail at every width.
  for (std::size_t n = 1; n <= 17; ++n)
    check(std::vector<float>(windows.end() - static_cast<std::ptrdiff_t>(n),
                             windows.end()));
  check(specials);
}

// The canonical layernorm's scalar row loop, verbatim: the reference for
// layernorm_rows_into's 4-rows-at-a-time path.
void reference_layernorm(Tensor& dst, const Tensor& x, const Tensor& gain,
                         const Tensor& bias, float eps, Tensor* xhat,
                         Tensor* inv_std) {
  const std::size_t rows = x.size(0), cols = x.size(1);
  dst = Tensor(x.shape());
  if (xhat != nullptr) *xhat = Tensor(x.shape());
  if (inv_std != nullptr) *inv_std = Tensor(Shape{rows});
  const float* pg = gain.data();
  const float* pb = bias.data();
  for (std::size_t i = 0; i < rows; ++i) {
    const float* in = x.data() + i * cols;
    float* out = dst.data() + i * cols;
    double mu = 0.0;
    for (std::size_t j = 0; j < cols; ++j) mu += in[j];
    mu /= static_cast<double>(cols);
    double var = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      const double d = in[j] - mu;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const double istd = 1.0 / std::sqrt(var + eps);
    if (inv_std != nullptr) inv_std->data()[i] = static_cast<float>(istd);
    for (std::size_t j = 0; j < cols; ++j) {
      const float xh = static_cast<float>((in[j] - mu) * istd);
      if (xhat != nullptr) xhat->data()[i * cols + j] = xh;
      out[j] = xh * pg[j] + pb[j];
    }
  }
}

TEST(LayernormRowsInto, MatchesScalarRowLoopBitwise) {
  // Widths 24 and 36 are the model's; 1, 5 and 7 run the column tails.
  // Row counts that are not a multiple of 4 run the scalar row tail.
  for (const std::size_t cols : {24, 36, 1, 5, 7}) {
    for (const std::size_t rows : {1, 2, 3, 4, 5, 7, 8, 13, 97}) {
      SCOPED_TRACE("rows " + std::to_string(rows) + ", cols " +
                   std::to_string(cols));
      Tensor x = random_tensor(Shape{rows, cols},
                               static_cast<unsigned>(31 * rows + cols));
      // Rows with their own offset and spread. Every third row sits on a
      // large offset with a spread of a few float ulps, so the output
      // bits depend on the last bits of the double mean and variance, not
      // only on their float roundings. The last row is constant: variance
      // 0, 1/std = 1/sqrt(eps).
      for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j) {
          float& v = x.data()[i * cols + j];
          if (i + 1 == rows && rows > 1)
            v = 2.5f;
          else if (i % 3 == 2)
            v = 1000.0f * static_cast<float>(1 + i % 4) + 1e-4f * v;
          else
            v = v * static_cast<float>(1 + i % 5) +
                0.37f * static_cast<float>(i);
        }
      const Tensor gain = random_tensor(Shape{cols}, 7);
      const Tensor bias = random_tensor(Shape{cols}, 8);
      Tensor y, xhat, inv_std;
      layernorm_rows_into(y, x, gain, bias, 1e-5f, &xhat, &inv_std);
      Tensor y_ref, xhat_ref, inv_std_ref;
      reference_layernorm(y_ref, x, gain, bias, 1e-5f, &xhat_ref,
                          &inv_std_ref);
      EXPECT_TRUE(bitwise_equal(y, y_ref));
      EXPECT_TRUE(bitwise_equal(xhat, xhat_ref));
      EXPECT_TRUE(bitwise_equal(inv_std, inv_std_ref));
      Tensor y_only;
      layernorm_rows_into(y_only, x, gain, bias);
      EXPECT_TRUE(bitwise_equal(y_only, y_ref));
    }
  }
}

TEST(SoftmaxRowsInto, ZeroWidthRowsAreANoOp) {
  // A [rows, 0] tensor has no storage to read; both tiers must return
  // without touching it.
  const Tensor x(Shape{3, 0});
  Tensor y;
  softmax_rows_into(y, x);
  EXPECT_EQ(y.shape(), (Shape{3, 0}));
  {
    FastKernelScope fast;
    Tensor z;
    softmax_rows_into(z, x);
    EXPECT_EQ(z.shape(), (Shape{3, 0}));
  }
}

TEST(ThreadPoolParallelFor, ParallelGemmFromWorkerThreadsStaysBitwise) {
  // Simulates serve/train fan-out: several tasks each running a GEMM big
  // enough to want the pool. Inner parallel_for degrades serially, and the
  // result must still match the single-thread kernel bit for bit.
  const std::size_t n = 160;
  const Tensor a = random_tensor(Shape{n, n}, 15);
  const Tensor b = random_tensor(Shape{n, n}, 16);
  Tensor expect;
  matmul_into(expect, a, b);
  ThreadPool pool(3);
  std::vector<Tensor> results(4);
  pool.parallel_for(0, results.size(), 1, [&](std::size_t i) {
    matmul_into(results[i], a, b, &pool);
  });
  for (const Tensor& r : results) EXPECT_TRUE(bitwise_equal(r, expect));
}

}  // namespace
}  // namespace ns
