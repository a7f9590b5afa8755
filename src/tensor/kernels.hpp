// Parallel, allocation-free compute kernels behind the tensor-op API.
//
// Every `_into(dst, ...)` kernel writes its result into a caller-provided
// destination instead of allocating a fresh tensor; dst is re-allocated only
// when its shape does not already match the result. The allocating free
// functions in tensor.hpp are thin wrappers over these kernels and remain
// the convenience API for cold paths (see src/tensor/README.md for the full
// contract).
//
// Aliasing: elementwise kernels (add/sub/mul/scale/add_scalar/add_rowvec/
// colwise_scale/softmax_rows) permit dst to alias an input (in-place
// update). matmul_into, transpose2d_into, and layernorm_rows_into require
// dst to be distinct from every input.
//
// Determinism: matmul_into shards fixed row-blocks of C across the thread
// pool above a FLOP threshold, but every output element is accumulated in
// ascending-k order by exactly one task, with a separately rounded multiply
// and add per step. The canonical gemm is vectorized (AVX2 or SSE2 on
// x86-64, chosen per CPU; NEON on aarch64), but each vector lane performs
// exactly that scalar sequence and never a fused multiply-add, so results
// are bitwise identical for any thread count, including the sequential
// path, and on x86-64 with or without AVX2. Unlike the historic scalar
// loop, the kernel never skips zero multiplicands, so NaN/Inf in either
// operand propagates per IEEE semantics.
//
// The canonical softmax and GELU evaluate exp and tanh per element. On
// x86-64 CPUs with AVX2 and FMA those are the kernels' own 8-lane
// transcriptions of glibc 2.36's expf (its FMA build) and tanhf, equal to
// that libm on all 2^32 float inputs, so strict bits there no longer depend
// on the libm build; only lanes off glibc's main path (exp at |x| >= 88 or
// NaN, tanh at |x| >= 22, |x| < 2^-55 or non-finite) call libm. Elsewhere
// they are libm's std::exp / std::tanh.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace ns {

class ThreadPool;

// Parallelization threshold for matmul_into: below this many FLOPs
// (2*m*n*k) the pool dispatch overhead exceeds the win and the kernel runs
// on the calling thread. Exposed so tests can pick shapes on either side.
inline constexpr std::size_t kMatmulParallelFlops = std::size_t{1} << 22;

// Parallelization threshold for block-diagonal attention (vblock_attention;
// block_attention_into always runs on the calling thread): total
// score-stage FLOPs (4 * dh * sum(len^2))
// above which the per-block loop fans out across the thread pool. Much
// lower than kMatmulParallelFlops because each block is an independent
// chain of small matmuls — a single cluster's batched forward (e.g. 8
// blocks of 48 tokens) should shard across workers even though every
// individual matmul is far below the matmul threshold. Blocks write
// disjoint output rows and each block's arithmetic is untouched, so any
// partition is bitwise identical to the sequential loop.
inline constexpr std::size_t kBlockAttentionParallelFlops = std::size_t{1}
                                                           << 18;

/// Runtime kernel dispatch tier, resolved once per process from CPU
/// capabilities (`__builtin_cpu_supports` on x86-64, architecture macros on
/// aarch64). The tier names which fast-kernel variants a FastKernelScope
/// opts into; kScalar means the scope is a no-op and every kernel runs the
/// canonical path. The tier says nothing about the canonical kernels' bits:
/// the canonical gemm is vectorized on every tier, and the canonical
/// softmax/GELU evaluate exp and tanh 8 lanes at a time on kAvx2Fma, all
/// bit for bit.
enum class KernelTier {
  kScalar = 0,   ///< canonical kernels only (no FastKernelScope variants)
  kNeon = 1,     ///< aarch64 NEON gemm/softmax/gelu/layernorm variants
  kAvx2Fma = 2,  ///< x86-64 AVX2+FMA variants
};

/// The tier the running CPU dispatches to (cached after the first call).
KernelTier kernel_dispatch_tier();
/// Stable lowercase name for a tier ("scalar", "neon", "avx2_fma").
const char* kernel_tier_name(KernelTier tier);

/// Reshapes dst to `shape`, reusing its storage when the element count
/// already matches (and the storage is not shared); otherwise allocates.
/// Contents are unspecified afterwards — callers overwrite every element.
void ensure_shape(Tensor& dst, const Shape& shape);

void add_into(Tensor& dst, const Tensor& a, const Tensor& b);
void sub_into(Tensor& dst, const Tensor& a, const Tensor& b);
void mul_into(Tensor& dst, const Tensor& a, const Tensor& b);
void scale_into(Tensor& dst, const Tensor& a, float s);
void add_scalar_into(Tensor& dst, const Tensor& a, float s);

/// C[m,n] = A[m,k] @ B[k,n], tiled and (above kMatmulParallelFlops)
/// row-block parallel on `pool` (global pool when nullptr).
void matmul_into(Tensor& dst, const Tensor& a, const Tensor& b,
                 ThreadPool* pool = nullptr);

/// Thread-local opt-in for the fast AVX2/FMA kernel variants: the fused
/// multiply-add gemm in matmul_into, the vectorized-exp softmax in
/// softmax_rows_into, and the vectorized tanh-approximation gelu kernels.
/// Both gemms are vectorized; the fast one keeps the ascending-k
/// accumulation per output element but fuses each multiply-add (one
/// rounding instead of two). The canonical softmax/gelu evaluate exp and
/// tanh with libm's bits (their own transcriptions of glibc's expf/tanhf on
/// AVX2+FMA CPUs, libm elsewhere); the fast ones use short polynomials
/// accurate to a few ulps and fold the attention scale into the exponent.
/// Results are therefore *not* bitwise identical to the canonical kernels
/// — they are equally valid float evaluations. Only
/// paths without a bitwise-reproducibility contract may opt in: the
/// batched trainer at batch > 1 and the relaxed/quantized serve scoring
/// paths (DESIGN.md §16) do; eval, strict-replay serving, residual
/// statistics and the batch-1 trainer never do. The scope nests, applies
/// to the constructing thread only, and is a no-op on CPUs without
/// AVX2+FMA (on aarch64, NEON variants dispatch unconditionally under the
/// scope). Each kernel
/// samples the flag on the calling thread, so parallel row-blocks of one
/// call always agree on the variant. Construction and destruction must
/// happen on the same thread in LIFO order; the destructor aborts the
/// process on depth underflow (see src/tensor/README.md).
class FastKernelScope {
 public:
  FastKernelScope();
  ~FastKernelScope();
  FastKernelScope(const FastKernelScope&) = delete;
  FastKernelScope& operator=(const FastKernelScope&) = delete;
};

/// True when the calling thread is inside a FastKernelScope and the CPU
/// supports the fast kernels.
bool fast_kernels_enabled();
void transpose2d_into(Tensor& dst, const Tensor& a);
/// dst[T,D] = x[T,D] + b[D] broadcast over rows.
void add_rowvec_into(Tensor& dst, const Tensor& x, const Tensor& b);
/// dst[T,D] = x[T,D] * s[T] broadcast over columns.
void colwise_scale_into(Tensor& dst, const Tensor& x, const Tensor& s);
/// Row-wise, max-subtracted softmax of a 2-D tensor; rows of width 0 are
/// left empty.
void softmax_rows_into(Tensor& dst, const Tensor& x);
/// y[i] = exp(y[i]) and y[i] = tanh(y[i]) as the canonical softmax and GELU
/// kernels evaluate them: on x86-64 CPUs with AVX2 and FMA, their 8-lane
/// transcriptions of glibc's expf and tanhf; std::exp / std::tanh
/// elsewhere. Exposed for the kernel tests and the exhaustive libm check
/// (`bench_micro_kernels --canonical-math-sweep`).
void canonical_exp(std::span<float> y);
void canonical_tanh(std::span<float> y);
/// Elementwise tanh-approximation GELU: 0.5x(1 + tanh(c(x + a x^3))).
/// The canonical path reproduces the historic autograd loop bit for bit;
/// inside a FastKernelScope a vectorized variant is used instead.
void gelu_into(Tensor& dst, const Tensor& x);
/// dx = dy * dGELU(x) with the analytic derivative of the tanh form.
void gelu_backward_into(Tensor& dx, const Tensor& x, const Tensor& dy);
/// Row-wise layer norm with learned gain/bias over the last dimension.
/// When xhat / inv_std are non-null they receive the normalized
/// activations [T,D] and per-row 1/std [T] needed by the backward pass.
void layernorm_rows_into(Tensor& dst, const Tensor& x, const Tensor& gain,
                         const Tensor& bias, float eps = 1e-5f,
                         Tensor* xhat = nullptr, Tensor* inv_std = nullptr);

/// Arena of reusable tensor buffers for steady-state forward/backward
/// passes. acquire() returns a tensor of the requested shape, recycling the
/// smallest released buffer whose storage holds that many elements,
/// re-shaped in place (contents unspecified); acquire_zero() additionally
/// clears it. release() returns a buffer to the pool only when its storage
/// is unshared — a buffer whose storage escaped (e.g. into an autograd
/// graph) is simply dropped, so recycling can never alias live data. Not
/// thread-safe: use one Workspace per module or per thread.
class Workspace {
 public:
  Tensor acquire(const Shape& shape);
  Tensor acquire_zero(const Shape& shape);
  void release(Tensor t);

  /// Buffers currently pooled for reuse.
  std::size_t pooled() const { return pool_.size(); }
  /// How many acquires were served from the pool (vs fresh allocations).
  std::size_t reuse_count() const { return reuse_count_; }

 private:
  std::vector<Tensor> pool_;
  std::size_t reuse_count_ = 0;
};

/// Fused block-diagonal attention for the forward-only scoring path:
/// out[T,dh] = softmax(scale · q kᵀ) v, evaluated independently per block
/// of `block_lens` (which must cover all T rows). Unlike the autograd op
/// (vblock_attention) this kernel never copies q/k/v blocks (it reads the
/// contiguous row ranges in place) and keeps no attention matrices for a
/// backward pass. Outside a FastKernelScope it runs the autograd op's
/// kernel sequence (gemm, scale, softmax, gemm), so its output is bitwise
/// equal to vblock_attention's; inside one, the gemms run the dispatch
/// tier's vector variants and the scale folds into the softmax exponent,
/// so results agree only to vector-math accuracy. dst must not alias
/// q/k/v; scratch comes from `ws`.
void block_attention_into(Tensor& out, const Tensor& q, const Tensor& k,
                          const Tensor& v,
                          std::span<const std::size_t> block_lens, float scale,
                          Workspace& ws);

}  // namespace ns
