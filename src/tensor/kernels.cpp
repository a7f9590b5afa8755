#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define NS_X86_64 1
#elif defined(__aarch64__) || defined(_M_ARM64)
#include <arm_neon.h>
#define NS_AARCH64 1
#endif

#include "common/thread_pool.hpp"
#include "tensor/shape_check.hpp"

namespace ns {
namespace {

// Canonical GEMM micro-kernel, written with GCC vector types so one source
// lowers to packed SSE2, AVX2 or NEON code. A lane computes exactly what
// the scalar i-k-j loop computes for its C element: multiply, round, add,
// round, in ascending k. Nothing here may be contracted into a fused
// multiply-add, which is why the x86-64 versions target "avx2" and the
// baseline but never "fma" (GCC contracts `acc += a * b` whenever FMA is
// enabled).
using f32x8 = float __attribute__((vector_size(32)));
using f32x4 = float __attribute__((vector_size(16)));

// Register-tile geometry: 4 rows by 2 vectors of columns. That is 8
// accumulators, 2 B vectors and 1 broadcast A scalar: 11 of the 16 xmm
// (SSE2, 4x8 tile) or ymm (AVX2, 4x16 tile) registers, so the k-loop
// neither spills nor touches C.
constexpr std::size_t kRowTile = 4;
// Rows of C per parallel task. A fixed block size keeps the partition a
// pure function of the shape (never of the worker count).
constexpr std::size_t kRowBlock = 64;

// Columns [j0, j0 + kVecs * lanes(V)) of rows [i0, i1) of C = A @ B, in
// tiles of kRows rows; rows left over recurse with kRows = 1. Inlined into
// each gemm_rows version, so it is compiled for that version's ISA. memcpy
// is the unaligned vector load/store; each one moves a single vector so
// the accumulators stay in registers.
template <class V, std::size_t kVecs, std::size_t kRows = kRowTile>
[[gnu::always_inline]] inline void gemm_panel(const float* a, const float* b,
                                              float* c, std::size_t i0,
                                              std::size_t i1, std::size_t k,
                                              std::size_t n, std::size_t j0) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  std::size_t i = i0;
  for (; i + kRows <= i1; i += kRows) {
    V acc[kRows][kVecs] = {};
    for (std::size_t kk = 0; kk < k; ++kk) {
      V bv[kVecs];
#pragma GCC unroll 2
      for (std::size_t v = 0; v < kVecs; ++v)
        std::memcpy(&bv[v], b + kk * n + j0 + v * kLanes, sizeof(V));
#pragma GCC unroll 4
      for (std::size_t r = 0; r < kRows; ++r) {
        const float aik = a[(i + r) * k + kk];
#pragma GCC unroll 2
        for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += aik * bv[v];
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kRows; ++r)
#pragma GCC unroll 2
      for (std::size_t v = 0; v < kVecs; ++v)
        std::memcpy(c + (i + r) * n + j0 + v * kLanes, &acc[r][v], sizeof(V));
  }
  if constexpr (kRows > 1) gemm_panel<V, kVecs, 1>(a, b, c, i, i1, k, n, j0);
}

// Computes rows [i0, i1) of C = A @ B with V-wide column panels, then a
// 4-wide panel and a scalar tail below 4 columns. Every C element is
// accumulated in ascending-k order in one lane (or scalar), which is the
// exact operation sequence of the canonical i-k-j scalar loop, so any row
// partition, vector width or ISA gives bitwise identical results.
template <class V>
[[gnu::always_inline]] inline void gemm_tiles(const float* a, const float* b,
                                              float* c, std::size_t i0,
                                              std::size_t i1, std::size_t k,
                                              std::size_t n) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  std::size_t j0 = 0;
  // Full 2-vector panels: the [k, 2 * kLanes] panel of B cycles through
  // cache while successive row tiles reuse it.
  for (; j0 + 2 * kLanes <= n; j0 += 2 * kLanes)
    gemm_panel<V, 2>(a, b, c, i0, i1, k, n, j0);
  if (j0 + kLanes <= n) {
    gemm_panel<V, 1>(a, b, c, i0, i1, k, n, j0);
    j0 += kLanes;
  }
  if (kLanes > 4 && j0 + 4 <= n) {
    gemm_panel<f32x4, 1>(a, b, c, i0, i1, k, n, j0);
    j0 += 4;
  }
  for (; j0 < n; ++j0) {  // remainder columns (< 4 of them)
    for (std::size_t i = i0; i < i1; ++i) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc += a[i * k + kk] * b[kk * n + j0];
      c[i * n + j0] = acc;
    }
  }
}

#ifdef NS_X86_64
bool cpu_has_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

__attribute__((target("avx2"))) void gemm_rows_avx2(
    const float* a, const float* b, float* c, std::size_t i0, std::size_t i1,
    std::size_t k, std::size_t n) {
  gemm_tiles<f32x8>(a, b, c, i0, i1, k, n);
}
#endif

// The canonical gemm: 8-lane panels on CPUs with AVX2, 4-lane SSE2 (or
// NEON) panels otherwise, the same bits either way. The SSE2 baseline gets
// 4-lane vectors because it would split 8-lane ones through the stack.
// The CPU check is a cached branch rather than an ifunc (target_clones or
// target overloads): with GCC 12, ifunc dispatch crashes ThreadSanitizer
// builds at startup.
void gemm_rows(const float* a, const float* b, float* c, std::size_t i0,
               std::size_t i1, std::size_t k, std::size_t n) {
#ifdef NS_X86_64
  if (cpu_has_avx2()) {
    gemm_rows_avx2(a, b, c, i0, i1, k, n);
    return;
  }
#endif
  gemm_tiles<f32x4>(a, b, c, i0, i1, k, n);
}

// ---- FastKernelScope: opt-in AVX2/FMA variants of the hot kernels.
//
// The fast gemm keeps the same row-range interface, tiles and
// ascending-k accumulation per output element as the canonical one, but
// each multiply-add is fused (one rounding instead of two); the fast
// softmax/gelu replace scalar libm calls with polynomial vector math.
// Results differ from the canonical kernels in the last ulps. Only opted
// into by paths without a bitwise-reproducibility contract (see
// kernels.hpp).
thread_local int fast_kernel_depth = 0;

// tanh-approximation GELU constants (shared by both kernel variants).
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

#ifdef NS_X86_64
bool cpu_has_avx2_fma() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}

__attribute__((target("avx2,fma"))) void gemm_rows_fma(
    const float* a, const float* b, float* c, std::size_t i0, std::size_t i1,
    std::size_t k, std::size_t n) {
  std::size_t j0 = 0;
  // 4 rows x 16 columns: 8 ymm accumulators + 2 B vectors + 1 broadcast.
  for (; j0 + 16 <= n; j0 += 16) {
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      __m256 acc0[4], acc1[4];
      for (std::size_t r = 0; r < 4; ++r) {
        acc0[r] = _mm256_setzero_ps();
        acc1[r] = _mm256_setzero_ps();
      }
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* brow = b + kk * n + j0;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        for (std::size_t r = 0; r < 4; ++r) {
          const __m256 av = _mm256_set1_ps(a[(i + r) * k + kk]);
          acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
          acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
        }
      }
      for (std::size_t r = 0; r < 4; ++r) {
        _mm256_storeu_ps(c + (i + r) * n + j0, acc0[r]);
        _mm256_storeu_ps(c + (i + r) * n + j0 + 8, acc1[r]);
      }
    }
    for (; i < i1; ++i) {
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* brow = b + kk * n + j0;
        const __m256 av = _mm256_set1_ps(a[i * k + kk]);
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), acc1);
      }
      _mm256_storeu_ps(c + i * n + j0, acc0);
      _mm256_storeu_ps(c + i * n + j0 + 8, acc1);
    }
  }
  // One 8-wide column panel.
  for (; j0 + 8 <= n; j0 += 8) {
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      __m256 acc[4];
      for (std::size_t r = 0; r < 4; ++r) acc[r] = _mm256_setzero_ps();
      for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256 bv = _mm256_loadu_ps(b + kk * n + j0);
        for (std::size_t r = 0; r < 4; ++r)
          acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a[(i + r) * k + kk]), bv,
                                   acc[r]);
      }
      for (std::size_t r = 0; r < 4; ++r)
        _mm256_storeu_ps(c + (i + r) * n + j0, acc[r]);
    }
    for (; i < i1; ++i) {
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t kk = 0; kk < k; ++kk)
        acc = _mm256_fmadd_ps(_mm256_set1_ps(a[i * k + kk]),
                              _mm256_loadu_ps(b + kk * n + j0), acc);
      _mm256_storeu_ps(c + i * n + j0, acc);
    }
  }
  // Tail columns (< 8): 4-wide FMA, then scalar fmaf.
  if (j0 < n) {
    std::size_t j4 = j0;
    for (; j4 + 4 <= n; j4 += 4) {
      for (std::size_t i = i0; i < i1; ++i) {
        __m128 acc = _mm_setzero_ps();
        for (std::size_t kk = 0; kk < k; ++kk)
          acc = _mm_fmadd_ps(_mm_set1_ps(a[i * k + kk]),
                             _mm_loadu_ps(b + kk * n + j4), acc);
        _mm_storeu_ps(c + i * n + j4, acc);
      }
    }
    for (std::size_t j = j4; j < n; ++j) {
      for (std::size_t i = i0; i < i1; ++i) {
        float acc = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk)
          acc = std::fmaf(a[i * k + kk], b[kk * n + j], acc);
        c[i * n + j] = acc;
      }
    }
  }
}

// 8-lane exp, Cephes-style range reduction + degree-5 polynomial (a few
// ulps of relative error; clamps instead of overflowing).
__attribute__((target("avx2,fma"))) __m256 exp256_ps(__m256 x) {
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-87.336548f)),
                    _mm256_set1_ps(88.376259f));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvtps_epi32(fx);
  const __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

// 8-lane tanh via exp: 1 - 2 / (exp(2u) + 1); saturates correctly because
// exp256_ps clamps its argument.
__attribute__((target("avx2,fma"))) __m256 tanh256_ps(__m256 u) {
  const __m256 e2 = exp256_ps(_mm256_add_ps(u, u));
  const __m256 two = _mm256_set1_ps(2.0f);
  return _mm256_sub_ps(
      _mm256_set1_ps(1.0f),
      _mm256_div_ps(two, _mm256_add_ps(e2, _mm256_set1_ps(1.0f))));
}

// Lane maximum; max is order-independent, so the value equals a scalar
// left-to-right scan of the same elements.
__attribute__((target("avx2,fma"))) float hmax256_ps(__m256 v) {
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(v),
                         _mm256_extractf128_ps(v, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  return _mm_cvtss_f32(m4);
}

__attribute__((target("avx2,fma"))) float row_max_avx2(const float* x,
                                                       std::size_t cols) {
  __m256 vm = _mm256_set1_ps(x[0]);
  std::size_t j = 0;
  for (; j + 8 <= cols; j += 8)
    vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + j));
  float mx = hmax256_ps(vm);
  for (; j < cols; ++j) mx = std::max(mx, x[j]);
  return mx;
}

// y *= inv. A lone multiply per element rounds like the scalar loop, so
// the canonical softmax shares this too.
__attribute__((target("avx2,fma"))) void scale_inplace_avx2(float* y,
                                                            std::size_t cols,
                                                            float inv) {
  const __m256 vinv = _mm256_set1_ps(inv);
  std::size_t j = 0;
  for (; j + 8 <= cols; j += 8)
    _mm256_storeu_ps(y + j, _mm256_mul_ps(_mm256_loadu_ps(y + j), vinv));
  for (; j < cols; ++j) y[j] *= inv;
}

__attribute__((target("avx2,fma"))) void softmax_rows_fast(float* o,
                                                           const float* in,
                                                           std::size_t rows,
                                                           std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    const float* x = in + i * cols;
    float* y = o + i * cols;
    const float mx = row_max_avx2(x, cols);
    const __m256 vmx = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    std::size_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_loadu_ps(x + j), vmx));
      _mm256_storeu_ps(y + j, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vsum);
    double denom = 0.0;
    for (float lane : lanes) denom += lane;
    for (; j < cols; ++j) {
      y[j] = std::exp(x[j] - mx);
      denom += y[j];
    }
    scale_inplace_avx2(y, cols, static_cast<float>(1.0 / denom));
  }
}

__attribute__((target("avx2,fma"))) void gelu_fast(float* o, const float* in,
                                                   std::size_t n) {
  const __m256 c = _mm256_set1_ps(kGeluC);
  const __m256 a3 = _mm256_set1_ps(kGeluA);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(in + i);
    const __m256 x2 = _mm256_mul_ps(x, x);
    const __m256 u =
        _mm256_mul_ps(c, _mm256_fmadd_ps(_mm256_mul_ps(a3, x2), x, x));
    const __m256 t = tanh256_ps(u);
    _mm256_storeu_ps(
        o + i, _mm256_mul_ps(_mm256_mul_ps(half, x), _mm256_add_ps(one, t)));
  }
  for (; i < n; ++i) {
    const float x = in[i];
    const float t = std::tanh(kGeluC * (x + kGeluA * x * x * x));
    o[i] = 0.5f * x * (1.0f + t);
  }
}

__attribute__((target("avx2,fma"))) float hsum256_ps(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// Single-precision layernorm (the canonical kernel accumulates mean and
// variance in double; under the fast scope float accumulation is fine).
__attribute__((target("avx2,fma"))) void layernorm_rows_fast(
    float* out, const float* xp, const float* pg, const float* pb,
    std::size_t rows, std::size_t cols, float eps, float* xhat,
    float* inv_std) {
  const float inv_cols = 1.0f / static_cast<float>(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* in = xp + i * cols;
    float* o = out + i * cols;
    __m256 vsum = _mm256_setzero_ps();
    std::size_t j = 0;
    for (; j + 8 <= cols; j += 8)
      vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(in + j));
    float mu = hsum256_ps(vsum);
    for (; j < cols; ++j) mu += in[j];
    mu *= inv_cols;
    const __m256 vmu = _mm256_set1_ps(mu);
    __m256 vvar = _mm256_setzero_ps();
    j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(in + j), vmu);
      vvar = _mm256_fmadd_ps(d, d, vvar);
    }
    float var = hsum256_ps(vvar);
    for (; j < cols; ++j) {
      const float d = in[j] - mu;
      var += d * d;
    }
    var *= inv_cols;
    const float istd = 1.0f / std::sqrt(var + eps);
    if (inv_std != nullptr) inv_std[i] = istd;
    const __m256 vistd = _mm256_set1_ps(istd);
    j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 xh =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(in + j), vmu), vistd);
      if (xhat != nullptr) _mm256_storeu_ps(xhat + i * cols + j, xh);
      _mm256_storeu_ps(
          o + j, _mm256_fmadd_ps(xh, _mm256_loadu_ps(pg + j),
                                 _mm256_loadu_ps(pb + j)));
    }
    for (; j < cols; ++j) {
      const float xh = (in[j] - mu) * istd;
      if (xhat != nullptr) xhat[i * cols + j] = xh;
      o[j] = xh * pg[j] + pb[j];
    }
  }
}

__attribute__((target("avx2,fma"))) void gelu_backward_fast(
    float* dx, const float* in, const float* dy, std::size_t n) {
  const __m256 c = _mm256_set1_ps(kGeluC);
  const __m256 a3 = _mm256_set1_ps(kGeluA);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 three_a = _mm256_set1_ps(3.0f * kGeluA);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(in + i);
    const __m256 x2 = _mm256_mul_ps(x, x);
    const __m256 u =
        _mm256_mul_ps(c, _mm256_fmadd_ps(_mm256_mul_ps(a3, x2), x, x));
    const __m256 t = tanh256_ps(u);
    const __m256 du = _mm256_mul_ps(c, _mm256_fmadd_ps(three_a, x2, one));
    const __m256 sech2 = _mm256_fnmadd_ps(t, t, one);  // 1 - t^2
    const __m256 dgelu = _mm256_fmadd_ps(
        _mm256_mul_ps(_mm256_mul_ps(half, x), sech2), du,
        _mm256_mul_ps(half, _mm256_add_ps(one, t)));
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(dy + i), dgelu));
  }
  for (; i < n; ++i) {
    const float x = in[i];
    const float u = kGeluC * (x + kGeluA * x * x * x);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
    const float dgelu = 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
    dx[i] = dy[i] * dgelu;
  }
}

// Fused scale+softmax for block_attention_into: exp(scale*(x - max)) in one
// vector pass, 8 lanes at a time.
__attribute__((target("avx2,fma"))) void softmax_scaled_rows_fast(
    float* x, std::size_t rows, std::size_t cols, float scale) {
  const __m256 vscale = _mm256_set1_ps(scale);
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = x + i * cols;
    const float mx = row_max_avx2(row, cols);
    const __m256 vmx = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    std::size_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 e = exp256_ps(_mm256_mul_ps(
          vscale, _mm256_sub_ps(_mm256_loadu_ps(row + j), vmx)));
      _mm256_storeu_ps(row + j, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    double denom = hsum256_ps(vsum);
    for (; j < cols; ++j) {
      row[j] = std::exp(scale * (row[j] - mx));
      denom += row[j];
    }
    scale_inplace_avx2(row, cols, static_cast<float>(1.0 / denom));
  }
}
#endif  // NS_X86_64

#ifdef NS_AARCH64
// ---- NEON ports of the fast kernels. Same interfaces, same per-element
// accumulation order, same polynomial constants as the AVX2 variants —
// only the vector width (4 lanes) and the ISA differ. aarch64 NEON is
// baseline, so there is no runtime capability probe: any FastKernelScope
// on aarch64 dispatches here instead of the canonical kernels.

void gemm_rows_neon(const float* a, const float* b, float* c, std::size_t i0,
                    std::size_t i1, std::size_t k, std::size_t n) {
  std::size_t j0 = 0;
  // 4 rows x 8 columns: 8 q-register accumulators + 2 B vectors + 1
  // broadcast stay well inside the 32 NEON registers.
  for (; j0 + 8 <= n; j0 += 8) {
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      float32x4_t acc0[4], acc1[4];
      for (std::size_t r = 0; r < 4; ++r) {
        acc0[r] = vdupq_n_f32(0.0f);
        acc1[r] = vdupq_n_f32(0.0f);
      }
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* brow = b + kk * n + j0;
        const float32x4_t b0 = vld1q_f32(brow);
        const float32x4_t b1 = vld1q_f32(brow + 4);
        for (std::size_t r = 0; r < 4; ++r) {
          const float32x4_t av = vdupq_n_f32(a[(i + r) * k + kk]);
          acc0[r] = vfmaq_f32(acc0[r], av, b0);
          acc1[r] = vfmaq_f32(acc1[r], av, b1);
        }
      }
      for (std::size_t r = 0; r < 4; ++r) {
        vst1q_f32(c + (i + r) * n + j0, acc0[r]);
        vst1q_f32(c + (i + r) * n + j0 + 4, acc1[r]);
      }
    }
    for (; i < i1; ++i) {
      float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* brow = b + kk * n + j0;
        const float32x4_t av = vdupq_n_f32(a[i * k + kk]);
        acc0 = vfmaq_f32(acc0, av, vld1q_f32(brow));
        acc1 = vfmaq_f32(acc1, av, vld1q_f32(brow + 4));
      }
      vst1q_f32(c + i * n + j0, acc0);
      vst1q_f32(c + i * n + j0 + 4, acc1);
    }
  }
  for (; j0 + 4 <= n; j0 += 4) {
    for (std::size_t i = i0; i < i1; ++i) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (std::size_t kk = 0; kk < k; ++kk)
        acc = vfmaq_f32(acc, vdupq_n_f32(a[i * k + kk]),
                        vld1q_f32(b + kk * n + j0));
      vst1q_f32(c + i * n + j0, acc);
    }
  }
  for (std::size_t j = j0; j < n; ++j) {
    for (std::size_t i = i0; i < i1; ++i) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc = std::fmaf(a[i * k + kk], b[kk * n + j], acc);
      c[i * n + j] = acc;
    }
  }
}

// 4-lane exp: the same Cephes-style reduction and degree-5 polynomial as
// exp256_ps. vfmaq_f32(a, b, c) computes a + b*c.
float32x4_t exp_f32x4(float32x4_t x) {
  x = vminq_f32(vmaxq_f32(x, vdupq_n_f32(-87.336548f)),
                vdupq_n_f32(88.376259f));
  float32x4_t fx =
      vfmaq_f32(vdupq_n_f32(0.5f), x, vdupq_n_f32(1.44269504088896341f));
  fx = vrndmq_f32(fx);  // floor
  x = vfmsq_f32(x, fx, vdupq_n_f32(0.693359375f));
  x = vfmsq_f32(x, fx, vdupq_n_f32(-2.12194440e-4f));
  const float32x4_t z = vmulq_f32(x, x);
  float32x4_t y = vdupq_n_f32(1.9875691500e-4f);
  y = vfmaq_f32(vdupq_n_f32(1.3981999507e-3f), y, x);
  y = vfmaq_f32(vdupq_n_f32(8.3334519073e-3f), y, x);
  y = vfmaq_f32(vdupq_n_f32(4.1665795894e-2f), y, x);
  y = vfmaq_f32(vdupq_n_f32(1.6666665459e-1f), y, x);
  y = vfmaq_f32(vdupq_n_f32(5.0000001201e-1f), y, x);
  y = vfmaq_f32(x, y, z);
  y = vaddq_f32(y, vdupq_n_f32(1.0f));
  const int32x4_t n = vcvtq_s32_f32(fx);
  const int32x4_t pow2n = vshlq_n_s32(vaddq_s32(n, vdupq_n_s32(127)), 23);
  return vmulq_f32(y, vreinterpretq_f32_s32(pow2n));
}

float32x4_t tanh_f32x4(float32x4_t u) {
  const float32x4_t e2 = exp_f32x4(vaddq_f32(u, u));
  return vsubq_f32(vdupq_n_f32(1.0f),
                   vdivq_f32(vdupq_n_f32(2.0f),
                             vaddq_f32(e2, vdupq_n_f32(1.0f))));
}

float row_max_neon(const float* x, std::size_t cols) {
  float32x4_t vm = vdupq_n_f32(x[0]);
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) vm = vmaxq_f32(vm, vld1q_f32(x + j));
  float mx = vmaxvq_f32(vm);
  for (; j < cols; ++j) mx = std::max(mx, x[j]);
  return mx;
}

void scale_inplace_neon(float* y, std::size_t cols, float inv) {
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4)
    vst1q_f32(y + j, vmulq_n_f32(vld1q_f32(y + j), inv));
  for (; j < cols; ++j) y[j] *= inv;
}

void softmax_rows_fast(float* o, const float* in, std::size_t rows,
                       std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    const float* x = in + i * cols;
    float* y = o + i * cols;
    const float mx = row_max_neon(x, cols);
    const float32x4_t vmx = vdupq_n_f32(mx);
    float32x4_t vsum = vdupq_n_f32(0.0f);
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      const float32x4_t e = exp_f32x4(vsubq_f32(vld1q_f32(x + j), vmx));
      vst1q_f32(y + j, e);
      vsum = vaddq_f32(vsum, e);
    }
    float lanes[4];
    vst1q_f32(lanes, vsum);
    double denom = 0.0;
    for (float lane : lanes) denom += lane;
    for (; j < cols; ++j) {
      y[j] = std::exp(x[j] - mx);
      denom += y[j];
    }
    scale_inplace_neon(y, cols, static_cast<float>(1.0 / denom));
  }
}

void gelu_fast(float* o, const float* in, std::size_t n) {
  const float32x4_t c = vdupq_n_f32(kGeluC);
  const float32x4_t a3 = vdupq_n_f32(kGeluA);
  const float32x4_t half = vdupq_n_f32(0.5f);
  const float32x4_t one = vdupq_n_f32(1.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t x = vld1q_f32(in + i);
    const float32x4_t x2 = vmulq_f32(x, x);
    const float32x4_t u = vmulq_f32(c, vfmaq_f32(x, vmulq_f32(a3, x2), x));
    const float32x4_t t = tanh_f32x4(u);
    vst1q_f32(o + i, vmulq_f32(vmulq_f32(half, x), vaddq_f32(one, t)));
  }
  for (; i < n; ++i) {
    const float x = in[i];
    const float t = std::tanh(kGeluC * (x + kGeluA * x * x * x));
    o[i] = 0.5f * x * (1.0f + t);
  }
}

void layernorm_rows_fast(float* out, const float* xp, const float* pg,
                         const float* pb, std::size_t rows, std::size_t cols,
                         float eps, float* xhat, float* inv_std) {
  const float inv_cols = 1.0f / static_cast<float>(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* in = xp + i * cols;
    float* o = out + i * cols;
    float32x4_t vsum = vdupq_n_f32(0.0f);
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) vsum = vaddq_f32(vsum, vld1q_f32(in + j));
    float mu = vaddvq_f32(vsum);
    for (; j < cols; ++j) mu += in[j];
    mu *= inv_cols;
    const float32x4_t vmu = vdupq_n_f32(mu);
    float32x4_t vvar = vdupq_n_f32(0.0f);
    j = 0;
    for (; j + 4 <= cols; j += 4) {
      const float32x4_t d = vsubq_f32(vld1q_f32(in + j), vmu);
      vvar = vfmaq_f32(vvar, d, d);
    }
    float var = vaddvq_f32(vvar);
    for (; j < cols; ++j) {
      const float d = in[j] - mu;
      var += d * d;
    }
    var *= inv_cols;
    const float istd = 1.0f / std::sqrt(var + eps);
    if (inv_std != nullptr) inv_std[i] = istd;
    const float32x4_t vistd = vdupq_n_f32(istd);
    j = 0;
    for (; j + 4 <= cols; j += 4) {
      const float32x4_t xh =
          vmulq_f32(vsubq_f32(vld1q_f32(in + j), vmu), vistd);
      if (xhat != nullptr) vst1q_f32(xhat + i * cols + j, xh);
      vst1q_f32(o + j, vfmaq_f32(vld1q_f32(pb + j), xh, vld1q_f32(pg + j)));
    }
    for (; j < cols; ++j) {
      const float xh = (in[j] - mu) * istd;
      if (xhat != nullptr) xhat[i * cols + j] = xh;
      o[j] = xh * pg[j] + pb[j];
    }
  }
}

void gelu_backward_fast(float* dx, const float* in, const float* dy,
                        std::size_t n) {
  const float32x4_t c = vdupq_n_f32(kGeluC);
  const float32x4_t a3 = vdupq_n_f32(kGeluA);
  const float32x4_t half = vdupq_n_f32(0.5f);
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t three_a = vdupq_n_f32(3.0f * kGeluA);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t x = vld1q_f32(in + i);
    const float32x4_t x2 = vmulq_f32(x, x);
    const float32x4_t u = vmulq_f32(c, vfmaq_f32(x, vmulq_f32(a3, x2), x));
    const float32x4_t t = tanh_f32x4(u);
    const float32x4_t du = vmulq_f32(c, vfmaq_f32(one, three_a, x2));
    const float32x4_t sech2 = vfmsq_f32(one, t, t);  // 1 - t^2
    const float32x4_t dgelu =
        vfmaq_f32(vmulq_f32(half, vaddq_f32(one, t)),
                  vmulq_f32(vmulq_f32(half, x), sech2), du);
    vst1q_f32(dx + i, vmulq_f32(vld1q_f32(dy + i), dgelu));
  }
  for (; i < n; ++i) {
    const float x = in[i];
    const float u = kGeluC * (x + kGeluA * x * x * x);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
    const float dgelu = 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
    dx[i] = dy[i] * dgelu;
  }
}

// Fused scale+softmax for block_attention_into (see the x86 variant).
void softmax_scaled_rows_fast(float* x, std::size_t rows, std::size_t cols,
                              float scale) {
  const float32x4_t vscale = vdupq_n_f32(scale);
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = x + i * cols;
    const float mx = row_max_neon(row, cols);
    const float32x4_t vmx = vdupq_n_f32(mx);
    float32x4_t vsum = vdupq_n_f32(0.0f);
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      const float32x4_t e = exp_f32x4(
          vmulq_f32(vscale, vsubq_f32(vld1q_f32(row + j), vmx)));
      vst1q_f32(row + j, e);
      vsum = vaddq_f32(vsum, e);
    }
    double denom = vaddvq_f32(vsum);
    for (; j < cols; ++j) {
      row[j] = std::exp(scale * (row[j] - mx));
      denom += row[j];
    }
    scale_inplace_neon(row, cols, static_cast<float>(1.0 / denom));
  }
}
#endif  // NS_AARCH64

#ifdef NS_X86_64
// ---- Canonical exp and tanh, 8 lanes at a time, bit for bit libm.
//
// The canonical softmax and GELU evaluate std::exp and std::tanh per
// element. On CPUs with AVX2 and FMA, glibc's ifunc resolves expf to the FMA
// build of its double-precision expf (sysdeps/ieee754/flt-32/e_expf.c), and
// tanhf is fdlibm's float tanhf over expm1f. The functions below transcribe
// those instruction sequences lane by lane (glibc 2.36; the constants and
// the table are read from its libm.so.6), so every lane returns libm's bits:
// `bench_micro_kernels --canonical-math-sweep` checks all 2^32 inputs. Lanes
// off glibc's main path call libm itself; that is exp at |x| >= 88 or NaN,
// tanh at |x| >= 22, |x| < 2^-55 or non-finite.
using i32x8 = std::int32_t __attribute__((vector_size(32)));
using u32x8 = std::uint32_t __attribute__((vector_size(32)));

// expf: 2^(k/32) from the table times a cubic in r, in double.
constexpr double kExpInvLn2N = 0x1.71547652b82fep+5;  // 32 / ln 2
constexpr double kExpShift = 0x1.8p+52;               // round-to-int shift
constexpr double kExpC0 = 0x1.c6af84b912394p-20;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;
alignas(32) constexpr std::uint64_t kExpTable[32] = {  // 2^(i/32), biased
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540};

// glibc's expf main path on 4 double lanes; every FMA here is one of its.
__attribute__((target("avx2,fma"))) __m256d expf_lanes(__m256d xd) {
  const __m256d inv_ln2n = _mm256_set1_pd(kExpInvLn2N);
  const __m256d shift = _mm256_set1_pd(kExpShift);
  __m256d kd = _mm256_fmadd_pd(inv_ln2n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, kd);
  __m256i s = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kExpTable),
      _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  s = _mm256_add_epi64(s, _mm256_slli_epi64(ki, 47));
  const __m256d z =
      _mm256_fmadd_pd(_mm256_set1_pd(kExpC0), r, _mm256_set1_pd(kExpC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kExpC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  return _mm256_mul_pd(y, _mm256_castsi256_pd(s));
}

__attribute__((target("avx2,fma"))) void exp8_inplace(float* p) {
  const __m256 x = _mm256_loadu_ps(p);
  const __m256d lo = expf_lanes(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
  const __m256d hi = expf_lanes(_mm256_cvtps_pd(_mm256_extractf128_ps(x, 1)));
  _mm256_storeu_ps(p,
                   _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo)));
  const __m256i ax = _mm256_and_si256(_mm256_castps_si256(x),
                                      _mm256_set1_epi32(0x7fffffff));
  unsigned slow = static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(
      _mm256_cmpgt_epi32(ax, _mm256_set1_epi32(0x42afffff)))));
  if (slow == 0) return;
  alignas(32) float xs[8];
  _mm256_store_ps(xs, x);
  for (; slow != 0; slow &= slow - 1) {
    const int lane = __builtin_ctz(slow);
    p[lane] = std::exp(xs[lane]);
  }
}

// y[i] = std::exp(y[i]) for i < n; the tail runs on a zero-padded copy.
__attribute__((target("avx2,fma"))) void exp_inplace_avx2(float* y,
                                                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) exp8_inplace(y + i);
  if (i == n) return;
  alignas(32) float pad[8] = {};
  std::memcpy(pad, y + i, (n - i) * sizeof(float));
  exp8_inplace(pad);
  std::memcpy(y + i, pad, (n - i) * sizeof(float));
}

__attribute__((target("avx2"), always_inline)) inline f32x8 load8(
    const float* p) {
  f32x8 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
__attribute__((target("avx2"), always_inline)) inline void store8(float* p,
                                                                  f32x8 v) {
  std::memcpy(p, &v, sizeof v);
}
// The w < 8 floats at p, padded with `pad`.
__attribute__((target("avx2"), always_inline)) inline f32x8 load_tail(
    const float* p, std::size_t w, float pad) {
  f32x8 v = {pad, pad, pad, pad, pad, pad, pad, pad};
  std::memcpy(&v, p, w * sizeof(float));
  return v;
}

// tanhf over expm1f, all in float. This and every caller below are built
// without FMA, so each product and sum rounds on its own as in fdlibm and in
// the scalar GELU loops. Bit fields are edited in unsigned lanes, which wrap
// like fdlibm's int arithmetic on the lanes that matter and harmlessly on
// the rest (those lanes are libm's).
__attribute__((target("avx2"), always_inline)) inline f32x8 tanh_lanes(
    f32x8 x) {
  const u32x8 ix = reinterpret_cast<u32x8>(x) & 0x7fffffffu;
  const f32x8 ax = reinterpret_cast<f32x8>(ix);
  const i32x8 big = ix >= 0x3f800000u;  // |x| >= 1
  // expm1f(y) for y = 2|x| in [2, 44) or y = -2|x| in (-2, -2^-54].
  const f32x8 y = big ? ax + ax : ax * -2.0f;
  const u32x8 hy = reinterpret_cast<u32x8>(y) & 0x7fffffffu;
  const f32x8 half = big ? f32x8{} + 0.5f : f32x8{} - 0.5f;
  // C's truncating conversion; defined here even for the libm lanes.
  i32x8 k = reinterpret_cast<i32x8>(_mm256_cvttps_epi32(
      reinterpret_cast<__m256>(1.4426950216e+00f * y + half)));
  k = hy < 0x3f851592u ? i32x8{} - 1 : k;  // |y| < 1.5 ln2: k = -1
  k = hy <= 0x3eb17218u ? i32x8{} : k;     // |y| <= 0.5 ln2: k = 0
  // k = -1 and k = 0 reduce exactly as fdlibm's special-cased forms do.
  const f32x8 t = __builtin_convertvector(k, f32x8);
  const f32x8 hi = y - t * 6.9313812256e-01f;  // ln2_hi
  const f32x8 lo = t * 9.0580006145e-06f;      // ln2_lo
  const f32x8 xr = hi - lo;
  const f32x8 c = (hi - xr) - lo;
  const f32x8 hfx = xr * 0.5f;
  const f32x8 hxs = xr * hfx;
  const f32x8 r1 =
      1.0f + hxs * (-3.3333335072e-02f +
                    hxs * (1.5873016091e-03f +
                           hxs * (-7.9365076090e-05f +
                                  hxs * (4.0082177293e-06f +
                                         hxs * -2.0109921195e-07f))));
  const f32x8 tt = 3.0f - r1 * hfx;
  f32x8 e = hxs * ((r1 - tt) / (6.0f - xr * tt));
  const f32x8 em_k0 = xr - (xr * e - hxs);
  e = (xr * (e - c) - c) - hxs;
  const f32x8 em_km1 = 0.5f * (xr - e) - 0.5f;
  const u32x8 ku = reinterpret_cast<u32x8>(k);
  const u32x8 kexp = ku << 23;  // 2^k, added to the exponent field
  const f32x8 em_far =
      reinterpret_cast<f32x8>(reinterpret_cast<u32x8>(1.0f - (e - xr)) +
                              kexp) -
      1.0f;
  const f32x8 one_m = reinterpret_cast<f32x8>(
      0x3f800000u - (0x1000000u >> (ku & 31u)));  // 1 - 2^-k
  const f32x8 em_mid = reinterpret_cast<f32x8>(
      reinterpret_cast<u32x8>(one_m - (e - xr)) + kexp);
  const f32x8 two_mk = reinterpret_cast<f32x8>((0x7fu - ku) << 23);  // 2^-k
  const f32x8 em_high = reinterpret_cast<f32x8>(
      reinterpret_cast<u32x8>((xr - (e + two_mk)) + 1.0f) + kexp);
  f32x8 em = k <= -2 || k > 56 ? em_far : k < 23 ? em_mid : em_high;
  em = k == -1 ? em_km1 : em;
  em = k == 0 ? em_k0 : em;
  em = hy < 0x33000000u ? y : em;  // |y| < 2^-25: expm1f(y) = y
  const f32x8 z = big ? 1.0f - 2.0f / (em + 2.0f) : -em / (em + 2.0f);
  f32x8 out = reinterpret_cast<f32x8>(
      reinterpret_cast<u32x8>(z) |
      (reinterpret_cast<u32x8>(x) & 0x80000000u));
  unsigned slow = static_cast<unsigned>(_mm256_movemask_ps(
      reinterpret_cast<__m256>(ix >= 0x41b00000u || ix < 0x24000000u)));
  for (; slow != 0; slow &= slow - 1) {
    const int lane = __builtin_ctz(slow);
    out[lane] = std::tanh(x[lane]);
  }
  return out;
}

__attribute__((target("avx2"))) void tanh_inplace_avx2(float* y,
                                                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) store8(y + i, tanh_lanes(load8(y + i)));
  if (i == n) return;
  const f32x8 t = tanh_lanes(load_tail(y + i, n - i, 1.0f));
  std::memcpy(y + i, &t, (n - i) * sizeof(float));
}

// The canonical GELU loops, expression for expression. Tails run padded
// with 1.0f, which stays on tanh's main path.
__attribute__((target("avx2"))) inline f32x8 gelu_lanes(f32x8 v) {
  const f32x8 t = tanh_lanes(kGeluC * (v + kGeluA * v * v * v));
  return 0.5f * v * (1.0f + t);
}

__attribute__((target("avx2"))) inline f32x8 gelu_backward_lanes(f32x8 v,
                                                                 f32x8 dy) {
  const f32x8 u = kGeluC * (v + kGeluA * v * v * v);
  const f32x8 t = tanh_lanes(u);
  const f32x8 du = kGeluC * (1.0f + 3.0f * kGeluA * v * v);
  const f32x8 dgelu = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
  return dy * dgelu;
}

__attribute__((target("avx2"))) void gelu_avx2(float* o, const float* in,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) store8(o + i, gelu_lanes(load8(in + i)));
  if (i == n) return;
  const f32x8 g = gelu_lanes(load_tail(in + i, n - i, 1.0f));
  std::memcpy(o + i, &g, (n - i) * sizeof(float));
}

__attribute__((target("avx2"))) void gelu_backward_avx2(float* dx,
                                                       const float* in,
                                                       const float* dy,
                                                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    store8(dx + i, gelu_backward_lanes(load8(in + i), load8(dy + i)));
  if (i == n) return;
  const f32x8 g = gelu_backward_lanes(load_tail(in + i, n - i, 1.0f),
                                      load_tail(dy + i, n - i, 0.0f));
  std::memcpy(dx + i, &g, (n - i) * sizeof(float));
}

// The canonical softmax of `rows` rows (out may alias in), bit for bit
// softmax_row. The max, subtract and scale loops are lane-wise, exp is
// exp_inplace_avx2 over 4 rows at a time, and each row's double denominator
// still adds in column order, the 4 rows side by side.
__attribute__((target("avx2"))) void softmax_rows_avx2(const float* in,
                                                      float* out,
                                                      std::size_t rows,
                                                      std::size_t cols) {
  constexpr std::size_t kRows = 4;
  for (std::size_t i0 = 0; i0 < rows; i0 += kRows) {
    const std::size_t nr = std::min(kRows, rows - i0);
    float* y0 = out + i0 * cols;
    for (std::size_t r = 0; r < nr; ++r) {
      const float* x = in + (i0 + r) * cols;
      float* y = y0 + r * cols;
      // Lane-wise std::max(mx, x[j]): a NaN in x[0] sticks, later NaNs are
      // skipped, and the order can only pick the sign of a zero maximum,
      // which exp(x - mx) cannot see.
      f32x8 vm = f32x8{} + x[0];
      std::size_t j = 0;
      for (; j + 8 <= cols; j += 8) {
        const f32x8 v = load8(x + j);
        vm = vm < v ? v : vm;
      }
      float mx = vm[0];
      for (int lane = 1; lane < 8; ++lane) mx = std::max(mx, vm[lane]);
      for (; j < cols; ++j) mx = std::max(mx, x[j]);
      for (j = 0; j + 8 <= cols; j += 8) store8(y + j, load8(x + j) - mx);
      for (; j < cols; ++j) y[j] = x[j] - mx;
    }
    exp_inplace_avx2(y0, nr * cols);
    double denom[kRows] = {};
    if (nr == kRows) {
      for (std::size_t j = 0; j < cols; ++j)
        for (std::size_t r = 0; r < kRows; ++r) denom[r] += y0[r * cols + j];
    } else {
      for (std::size_t r = 0; r < nr; ++r)
        for (std::size_t j = 0; j < cols; ++j) denom[r] += y0[r * cols + j];
    }
    for (std::size_t r = 0; r < nr; ++r)
      scale_inplace_avx2(y0 + r * cols, cols,
                         static_cast<float>(1.0 / denom[r]));
  }
}

// Columns j..j+3 of 4 rows (row stride `cols`), each widened to doubles:
// lane r of col[c] is row r's element j + c.
__attribute__((target("avx2"), always_inline)) inline void load_columns4(
    const float* in, std::size_t cols, std::size_t j, __m256d col[4]) {
  __m128 c0 = _mm_loadu_ps(in + j);
  __m128 c1 = _mm_loadu_ps(in + cols + j);
  __m128 c2 = _mm_loadu_ps(in + 2 * cols + j);
  __m128 c3 = _mm_loadu_ps(in + 3 * cols + j);
  _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
  col[0] = _mm256_cvtps_pd(c0);
  col[1] = _mm256_cvtps_pd(c1);
  col[2] = _mm256_cvtps_pd(c2);
  col[3] = _mm256_cvtps_pd(c3);
}

// Element j of 4 rows (row stride `cols`) as doubles, lane r = row r.
__attribute__((target("avx2"), always_inline)) inline __m256d load_column(
    const float* in, std::size_t cols, std::size_t j) {
  return _mm256_set_pd(in[3 * cols + j], in[2 * cols + j], in[cols + j],
                       in[j]);
}

// The canonical layernorm of rows [0, rows - rows % 4), bit for bit
// layernorm_row: 4 rows side by side in double lanes, each lane summing
// its row's mean, then its variance, in column order; then each row
// normalizes 4 columns at a time. Built without FMA, so every lane rounds
// the multiply, then the add, like the scalar loop. Returns the rows done.
__attribute__((target("avx2"))) std::size_t layernorm_rows_avx2(
    float* out, const float* x, const float* pg, const float* pb,
    std::size_t rows, std::size_t cols, float eps, float* xhat,
    float* inv_std) {
  constexpr std::size_t kRows = 4;
  const __m256d n = _mm256_set1_pd(static_cast<double>(cols));
  std::size_t i = 0;
  for (; i + kRows <= rows; i += kRows) {
    const float* in = x + i * cols;
    __m256d col[4];
    __m256d mu = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      load_columns4(in, cols, j, col);
      for (const __m256d& c : col) mu = _mm256_add_pd(mu, c);
    }
    for (; j < cols; ++j) mu = _mm256_add_pd(mu, load_column(in, cols, j));
    mu = _mm256_div_pd(mu, n);
    __m256d var = _mm256_setzero_pd();
    for (j = 0; j + 4 <= cols; j += 4) {
      load_columns4(in, cols, j, col);
      for (const __m256d& c : col) {
        const __m256d d = _mm256_sub_pd(c, mu);
        var = _mm256_add_pd(var, _mm256_mul_pd(d, d));
      }
    }
    for (; j < cols; ++j) {
      const __m256d d = _mm256_sub_pd(load_column(in, cols, j), mu);
      var = _mm256_add_pd(var, _mm256_mul_pd(d, d));
    }
    var = _mm256_div_pd(var, n);
    const __m256d istd = _mm256_div_pd(
        _mm256_set1_pd(1.0),
        _mm256_sqrt_pd(_mm256_add_pd(var, _mm256_set1_pd(eps))));
    alignas(32) double mus[kRows];
    alignas(32) double istds[kRows];
    _mm256_store_pd(mus, mu);
    _mm256_store_pd(istds, istd);
    for (std::size_t r = 0; r < kRows; ++r) {
      const float* row = in + r * cols;
      float* o = out + (i + r) * cols;
      float* xh = xhat != nullptr ? xhat + (i + r) * cols : nullptr;
      if (inv_std != nullptr) inv_std[i + r] = static_cast<float>(istds[r]);
      const __m256d m = _mm256_set1_pd(mus[r]);
      const __m256d s = _mm256_set1_pd(istds[r]);
      for (j = 0; j + 4 <= cols; j += 4) {
        const __m128 h = _mm256_cvtpd_ps(_mm256_mul_pd(
            _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(row + j)), m), s));
        if (xh != nullptr) _mm_storeu_ps(xh + j, h);
        _mm_storeu_ps(o + j, _mm_add_ps(_mm_mul_ps(h, _mm_loadu_ps(pg + j)),
                                        _mm_loadu_ps(pb + j)));
      }
      for (; j < cols; ++j) {
        const float h = static_cast<float>((row[j] - mus[r]) * istds[r]);
        if (xh != nullptr) xh[j] = h;
        o[j] = h * pg[j] + pb[j];
      }
    }
  }
  return i;
}
#endif  // NS_X86_64

// The canonical layernorm of one row: mean and variance summed in double,
// in column order. `xhat` (the row's normalized values) and `inv_std` (its
// 1/std slot) may be null.
void layernorm_row(float* out, const float* in, const float* pg,
                   const float* pb, std::size_t cols, float eps, float* xhat,
                   float* inv_std) {
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
  if (inv_std != nullptr) *inv_std = static_cast<float>(istd);
  for (std::size_t j = 0; j < cols; ++j) {
    const float xh = static_cast<float>((in[j] - mu) * istd);
    if (xhat != nullptr) xhat[j] = xh;
    out[j] = xh * pg[j] + pb[j];
  }
}

// The canonical softmax of one row on CPUs without AVX2 and FMA: max-shifted
// libm exp, denominator accumulated in double. `out` may alias `in`.
void softmax_row(const float* in, float* out, std::size_t cols) {
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

// In-place softmax(scale * x) over rows of a [rows, cols] matrix, for
// block_attention_into. The canonical branch scales first and then runs
// softmax_row, so it is bitwise equal to scale_into + softmax_rows_into —
// the autograd attention's chain. The fast branch folds the scale into the
// exponent instead (scale > 0, so max(scale*x) == scale*max(x)): one vector
// pass, a valid float softmax but not a bitwise one.
void softmax_scaled_rows_inplace(float* x, std::size_t rows, std::size_t cols,
                                 float scale) {
#if defined(NS_X86_64) || defined(NS_AARCH64)
  if (fast_kernels_enabled()) {
    softmax_scaled_rows_fast(x, rows, cols, scale);
    return;
  }
#endif
#ifdef NS_X86_64
  if (cpu_has_avx2_fma()) {
    scale_inplace_avx2(x, rows * cols, scale);
    softmax_rows_avx2(x, x, rows, cols);
    return;
  }
#endif
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = x + i * cols;
    for (std::size_t j = 0; j < cols; ++j) row[j] *= scale;
    softmax_row(row, row, cols);
  }
}

}  // namespace

FastKernelScope::FastKernelScope() { ++fast_kernel_depth; }
FastKernelScope::~FastKernelScope() {
  // Active even under NDEBUG: a negative depth means a scope outlived its
  // constructing thread (the only way paired scoping can underflow), which
  // would silently disable the opt-in for every later scope on this thread.
  if (--fast_kernel_depth < 0) {
    std::fprintf(stderr,
                 "FastKernelScope: fast_kernel_depth underflow — a scope was "
                 "destroyed on a thread that did not construct it\n");
    std::abort();
  }
}

bool fast_kernels_enabled() {
#if defined(NS_X86_64)
  return fast_kernel_depth > 0 && cpu_has_avx2_fma();
#elif defined(NS_AARCH64)
  return fast_kernel_depth > 0;  // NEON is aarch64 baseline
#else
  return false;
#endif
}

KernelTier kernel_dispatch_tier() {
#if defined(NS_X86_64)
  return cpu_has_avx2_fma() ? KernelTier::kAvx2Fma : KernelTier::kScalar;
#elif defined(NS_AARCH64)
  return KernelTier::kNeon;
#else
  return KernelTier::kScalar;
#endif
}

const char* kernel_tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::kNeon:
      return "neon";
    case KernelTier::kAvx2Fma:
      return "avx2_fma";
    case KernelTier::kScalar:
      break;
  }
  return "scalar";
}

void canonical_exp(std::span<float> y) {
#ifdef NS_X86_64
  if (cpu_has_avx2_fma()) {
    exp_inplace_avx2(y.data(), y.size());
    return;
  }
#endif
  for (float& v : y) v = std::exp(v);
}

void canonical_tanh(std::span<float> y) {
#ifdef NS_X86_64
  if (cpu_has_avx2_fma()) {
    tanh_inplace_avx2(y.data(), y.size());
    return;
  }
#endif
  for (float& v : y) v = std::tanh(v);
}

void ensure_shape(Tensor& dst, const Shape& shape) {
  if (dst.shape() == shape) return;
  std::size_t numel = shape.empty() ? 0 : 1;
  for (std::size_t d : shape) numel *= d;
  if (numel == dst.numel() && dst.storage_unique()) {
    dst = dst.reshape(shape);
    return;
  }
  dst = Tensor(shape);
}

void add_into(Tensor& dst, const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  ensure_shape(dst, a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = dst.data();
  for (std::size_t i = 0; i < a.numel(); ++i) po[i] = pa[i] + pb[i];
}

void sub_into(Tensor& dst, const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  ensure_shape(dst, a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = dst.data();
  for (std::size_t i = 0; i < a.numel(); ++i) po[i] = pa[i] - pb[i];
}

void mul_into(Tensor& dst, const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  ensure_shape(dst, a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = dst.data();
  for (std::size_t i = 0; i < a.numel(); ++i) po[i] = pa[i] * pb[i];
}

void scale_into(Tensor& dst, const Tensor& a, float s) {
  ensure_shape(dst, a.shape());
  const float* pa = a.data();
  float* po = dst.data();
  for (std::size_t i = 0; i < a.numel(); ++i) po[i] = pa[i] * s;
}

void add_scalar_into(Tensor& dst, const Tensor& a, float s) {
  ensure_shape(dst, a.shape());
  const float* pa = a.data();
  float* po = dst.data();
  for (std::size_t i = 0; i < a.numel(); ++i) po[i] = pa[i] + s;
}

void matmul_into(Tensor& dst, const Tensor& a, const Tensor& b,
                 ThreadPool* pool) {
  check_matmul_shapes(a, b, "matmul");
  const std::size_t m = a.size(0), k = a.size(1), n = b.size(1);
  NS_REQUIRE(dst.data() != a.data() && dst.data() != b.data(),
             "matmul_into: dst must not alias an operand");
  ensure_shape(dst, Shape{m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = dst.data();
  const std::size_t flops = 2 * m * n * k;
  if (pool == nullptr) pool = &ThreadPool::global();
  // Sample the fast-gemm flag on the calling thread so every row-block of
  // this call uses the same kernel regardless of which worker runs it.
  using GemmFn = void (*)(const float*, const float*, float*, std::size_t,
                          std::size_t, std::size_t, std::size_t);
  GemmFn kernel = &gemm_rows;
#if defined(NS_X86_64)
  if (fast_kernels_enabled()) kernel = &gemm_rows_fma;
#elif defined(NS_AARCH64)
  if (fast_kernels_enabled()) kernel = &gemm_rows_neon;
#endif
  if (flops < kMatmulParallelFlops || m <= kRowBlock) {
    kernel(pa, pb, po, 0, m, k, n);
    return;
  }
  const std::size_t blocks = (m + kRowBlock - 1) / kRowBlock;
  pool->parallel_for(0, blocks, 1, [&](std::size_t blk) {
    const std::size_t lo = blk * kRowBlock;
    kernel(pa, pb, po, lo, std::min(m, lo + kRowBlock), k, n);
  });
}

void transpose2d_into(Tensor& dst, const Tensor& a) {
  check_rank2(a, "transpose2d");
  NS_REQUIRE(dst.data() != a.data(),
             "transpose2d_into: dst must not alias the input");
  const std::size_t r = a.size(0), c = a.size(1);
  ensure_shape(dst, Shape{c, r});
  const float* pa = a.data();
  float* po = dst.data();
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) po[j * r + i] = pa[i * c + j];
}

void add_rowvec_into(Tensor& dst, const Tensor& x, const Tensor& b) {
  check_rowvec(x, b, "add_rowvec");
  ensure_shape(dst, x.shape());
  const std::size_t rows = x.size(0), cols = x.size(1);
  const float* px = x.data();
  const float* pb = b.data();
  float* po = dst.data();
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      po[i * cols + j] = px[i * cols + j] + pb[j];
}

void colwise_scale_into(Tensor& dst, const Tensor& x, const Tensor& s) {
  check_colvec(x, s, "colwise_scale");
  ensure_shape(dst, x.shape());
  const std::size_t rows = x.size(0), cols = x.size(1);
  const float* px = x.data();
  const float* ps = s.data();
  float* po = dst.data();
  for (std::size_t i = 0; i < rows; ++i) {
    const float si = ps[i];
    for (std::size_t j = 0; j < cols; ++j)
      po[i * cols + j] = px[i * cols + j] * si;
  }
}

void softmax_rows_into(Tensor& dst, const Tensor& x) {
  check_rank2(x, "softmax_rows");
  ensure_shape(dst, x.shape());
  const std::size_t rows = x.size(0), cols = x.size(1);
  if (cols == 0) return;  // no row has an element to read
#if defined(NS_X86_64) || defined(NS_AARCH64)
  if (fast_kernels_enabled()) {
    softmax_rows_fast(dst.data(), x.data(), rows, cols);
    return;
  }
#endif
#ifdef NS_X86_64
  if (cpu_has_avx2_fma()) {
    softmax_rows_avx2(x.data(), dst.data(), rows, cols);
    return;
  }
#endif
  for (std::size_t i = 0; i < rows; ++i)
    softmax_row(x.data() + i * cols, dst.data() + i * cols, cols);
}

void gelu_into(Tensor& dst, const Tensor& x) {
  ensure_shape(dst, x.shape());
  const std::size_t n = x.numel();
#if defined(NS_X86_64) || defined(NS_AARCH64)
  if (fast_kernels_enabled()) {
    gelu_fast(dst.data(), x.data(), n);
    return;
  }
#endif
#ifdef NS_X86_64
  if (cpu_has_avx2_fma()) {
    gelu_avx2(dst.data(), x.data(), n);
    return;
  }
#endif
  // Canonical scalar loop: bitwise identical to the historic vgelu op.
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x.data()[i];
    const float t = std::tanh(kGeluC * (v + kGeluA * v * v * v));
    dst.data()[i] = 0.5f * v * (1.0f + t);
  }
}

void gelu_backward_into(Tensor& dx, const Tensor& x, const Tensor& dy) {
  NS_REQUIRE(x.numel() == dy.numel(), "gelu_backward operand size mismatch");
  ensure_shape(dx, x.shape());
  const std::size_t n = x.numel();
#if defined(NS_X86_64) || defined(NS_AARCH64)
  if (fast_kernels_enabled()) {
    gelu_backward_fast(dx.data(), x.data(), dy.data(), n);
    return;
  }
#endif
#ifdef NS_X86_64
  if (cpu_has_avx2_fma()) {
    gelu_backward_avx2(dx.data(), x.data(), dy.data(), n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x.data()[i];
    const float u = kGeluC * (v + kGeluA * v * v * v);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * kGeluA * v * v);
    const float dgelu = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    dx.data()[i] = dy.data()[i] * dgelu;
  }
}

void layernorm_rows_into(Tensor& dst, const Tensor& x, const Tensor& gain,
                         const Tensor& bias, float eps, Tensor* xhat,
                         Tensor* inv_std) {
  check_rank2(x, "layernorm_rows");
  const std::size_t rows = x.size(0), cols = x.size(1);
  check_rowvec(x, gain, "layernorm_rows gain");
  check_rowvec(x, bias, "layernorm_rows bias");
  NS_REQUIRE(dst.data() != x.data(),
             "layernorm_rows_into: dst must not alias the input");
  ensure_shape(dst, x.shape());
  if (xhat != nullptr) ensure_shape(*xhat, x.shape());
  if (inv_std != nullptr) ensure_shape(*inv_std, Shape{rows});
  const float* pg = gain.data();
  const float* pb = bias.data();
#if defined(NS_X86_64) || defined(NS_AARCH64)
  if (fast_kernels_enabled()) {
    layernorm_rows_fast(dst.data(), x.data(), pg, pb, rows, cols, eps,
                        xhat != nullptr ? xhat->data() : nullptr,
                        inv_std != nullptr ? inv_std->data() : nullptr);
    return;
  }
#endif
  float* px = xhat != nullptr ? xhat->data() : nullptr;
  float* ps = inv_std != nullptr ? inv_std->data() : nullptr;
  std::size_t i = 0;
#ifdef NS_X86_64
  if (cpu_has_avx2())
    i = layernorm_rows_avx2(dst.data(), x.data(), pg, pb, rows, cols, eps, px,
                            ps);
#endif
  for (; i < rows; ++i)
    layernorm_row(dst.data() + i * cols, x.data() + i * cols, pg, pb, cols,
                  eps, px != nullptr ? px + i * cols : nullptr,
                  ps != nullptr ? ps + i : nullptr);
}

void block_attention_into(Tensor& out, const Tensor& q, const Tensor& k,
                          const Tensor& v,
                          std::span<const std::size_t> block_lens, float scale,
                          Workspace& ws) {
  check_rank2(q, "block_attention");
  check_same_shape(q, k, "block_attention q/k");
  check_same_shape(q, v, "block_attention q/v");
  const std::size_t tokens = q.size(0), dh = q.size(1);
  std::size_t covered = 0;
  for (std::size_t len : block_lens) covered += len;
  NS_REQUIRE(covered == tokens, "block_attention: block lens cover "
                                    << covered << " of " << tokens
                                    << " rows");
  NS_REQUIRE(out.data() != q.data() && out.data() != k.data() &&
                 out.data() != v.data(),
             "block_attention_into: dst must not alias an operand");
  ensure_shape(out, q.shape());
  // Sample the fast flag once so every block of this call agrees.
  using GemmFn = void (*)(const float*, const float*, float*, std::size_t,
                          std::size_t, std::size_t, std::size_t);
  GemmFn kernel = &gemm_rows;
#if defined(NS_X86_64)
  if (fast_kernels_enabled()) kernel = &gemm_rows_fma;
#elif defined(NS_AARCH64)
  if (fast_kernels_enabled()) kernel = &gemm_rows_neon;
#endif
  std::size_t base = 0;
  for (std::size_t len : block_lens) {
    if (len == 0) continue;
    Tensor kt = ws.acquire(Shape{dh, len});
    const float* kb = k.data() + base * dh;
    float* pkt = kt.data();
    for (std::size_t r = 0; r < len; ++r)
      for (std::size_t c = 0; c < dh; ++c) pkt[c * len + r] = kb[r * dh + c];
    Tensor attn = ws.acquire(Shape{len, len});
    kernel(q.data() + base * dh, pkt, attn.data(), 0, len, dh, len);
    softmax_scaled_rows_inplace(attn.data(), len, len, scale);
    kernel(attn.data(), v.data() + base * dh, out.data() + base * dh, 0, len,
           len, dh);
    ws.release(std::move(kt));
    ws.release(std::move(attn));
    base += len;
  }
}

// ------------------------------------------------------------- Workspace

Tensor Workspace::acquire(const Shape& shape) {
  std::size_t numel = shape.empty() ? 0 : 1;
  for (std::size_t d : shape) numel *= d;
  if (numel == 0) return Tensor(shape);
  // Best fit: the smallest pooled storage that holds `numel` (the most
  // recently released among equals), so variable-length forwards reuse
  // buffers instead of allocating and zero-filling fresh ones.
  std::size_t best = pool_.size();
  for (std::size_t i = pool_.size(); i > 0; --i) {
    const std::size_t cap = pool_[i - 1].capacity();
    if (cap < numel) continue;
    if (best == pool_.size() || cap < pool_[best].capacity()) best = i - 1;
    if (cap == numel) break;
  }
  if (best == pool_.size()) return Tensor(shape);
  Tensor t = std::move(pool_[best]);
  pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(best));
  ++reuse_count_;
  t.reshape_in_place(shape);
  return t;
}

Tensor Workspace::acquire_zero(const Shape& shape) {
  Tensor t = acquire(shape);
  t.fill(0.0f);
  return t;
}

void Workspace::release(Tensor t) {
  // A buffer whose storage escaped (autograd node, caller copy) must not be
  // recycled — hand it back to the allocator instead.
  if (!t.storage_unique()) return;
  if (pool_.size() >= 64) return;  // bound steady-state footprint
  pool_.push_back(std::move(t));
}

}  // namespace ns
