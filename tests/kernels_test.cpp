// Tests for the parallel `_into` kernel layer (tensor/kernels.hpp): the
// bitwise-determinism contract of the tiled GEMM, NaN propagation, the
// Workspace arena, structured ShapeErrors, and ThreadPool::parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
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
  for (const auto& [m, k, n] : shapes) {
    const Tensor a = random_tensor(Shape{m, k}, 1);
    const Tensor b = random_tensor(Shape{k, n}, 2);
    Tensor c;
    matmul_into(c, a, b);
    EXPECT_TRUE(bitwise_equal(c, reference_matmul(a, b)))
        << m << "x" << k << "x" << n;
  }

  // Special values through every panel: NaN, +-Inf, -0.0, and a denormal
  // that must survive (no flush-to-zero) into row 3 of C.
  const std::size_t m = 5, k = 24, n = 31;
  Tensor a = random_tensor(Shape{m, k}, 3);
  Tensor b = random_tensor(Shape{k, n}, 4);
  const float inf = std::numeric_limits<float>::infinity();
  a.at(0, 3) = std::numeric_limits<float>::quiet_NaN();
  a.at(1, 7) = -0.0f;
  for (std::size_t kk = 0; kk < k; ++kk) a.at(3, kk) = 0.0f;
  a.at(3, 0) = std::numeric_limits<float>::denorm_min() * 1000.0f;
  a.at(4, 9) = -inf;
  b.at(5, 2) = inf;
  b.at(7, 20) = -inf;
  b.at(1, 10) = -0.0f;
  b.at(11, 30) = std::numeric_limits<float>::quiet_NaN();
  b.at(0, 17) = std::numeric_limits<float>::denorm_min();
  Tensor c;
  matmul_into(c, a, b);
  const Tensor ref = reference_matmul(a, b);
  EXPECT_TRUE(bitwise_equal_or_both_nan(c, ref));
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
  EXPECT_NE(c.at(3, 1), 0.0f);
  EXPECT_LT(std::fabs(c.at(3, 1)), std::numeric_limits<float>::min());
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
