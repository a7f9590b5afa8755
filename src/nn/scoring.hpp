// Forward-only scoring plan: the evaluator of every serve scoring path
// (DESIGN.md §16).
//
// A ScoringPlan is an immutable, compiled form of one fitted
// TransformerReconstructor. It re-expresses the model's eval-mode
// forward_blocked() directly on the tensor kernels — no autograd nodes, no
// per-op tensor allocation (scratch comes from a caller workspace), the
// three per-head q/k/v projections packed into one [d, 3d] gemm, and
// attention evaluated by the fused block_attention_into kernel.
//
// Arithmetic comes in three modes, one per ScoringPath. A canonical plan
// (ScoringPlan::canonical) runs the canonical kernels (a vectorized gemm
// whose lanes round like the scalar loop; softmax/gelu whose exp and tanh
// return glibc's expf/tanhf bits, 8 lanes at a time on AVX2+FMA CPUs) in
// the model's operation order, so its output is bitwise equal to eval-mode
// forward_blocked() — the strict serve path. A relaxed plan lets every
// kernel use the FastKernelScope dispatch tier, and a quantized plan
// additionally runs the encoder/MoE weight matrices in int8 with
// per-channel scales calibrated from the weights as it compiles. Both
// compute the same mathematical function (identical MoE top-k routing
// code, clamping and residual structure) but agree with the canonical plan
// only to vector-math (or int8) accuracy, never bitwise. Every mode is a
// pure function of the model's weights, so compiling the same model twice
// gives plans with bitwise equal forwards.
//
// The serve stack compiles each model generation once, when the
// GenerationRegistry publishes it (serve/model_registry.hpp); every shard
// and scoring task then shares that plan.
//
// Thread safety: a built plan is immutable and may be shared across
// threads; forward() only mutates the caller's workspace and its output,
// so any number of forwards through one plan may run at once.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/transformer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quant.hpp"

namespace ns {

class ThreadPool;

/// How serve-time forwards are evaluated (DESIGN.md §16).
///
/// Detection compares scores to k-sigma thresholds, so exact float
/// reproducibility is a replay/testing concern, not a correctness one —
/// the relaxed and quantized paths compute the same mathematical function
/// with different rounding, and flag flips can only happen for scores
/// already within rounding distance of the threshold.
enum class ScoringPath {
  /// Canonical ScoringPlan (ScoringPlan::canonical): the canonical
  /// kernels (vectorized gemm, no fused multiply-add; softmax/gelu with
  /// libm's exp/tanh bits) in the model's operation order, bitwise equal
  /// to the model's own eval-mode forward, so serving is bitwise identical
  /// to batch detect() — the default, and what serve_replay /
  /// compare_detections / all bitwise tests use (the CLI's --strict-replay
  /// selects it).
  kStrict = 0,
  /// Relaxed fp32 ScoringPlan: the same compiled forward with
  /// FastKernelScope vector math on the dispatched tier.
  kRelaxed = 1,
  /// kRelaxed plus int8 per-channel quantized encoder/MoE weights, with
  /// scales calibrated from the weights when the plan compiles.
  kQuantized = 2,
};

/// Per-channel int8 calibration for one model: the quantization scales of
/// every quantizable weight matrix, in ScoringPlan traversal order —
/// input_proj, then per layer the packed q|k|v matrix, out_proj, and each
/// expert's (or the dense FFN's) fc1/fc2. The routing gate and the decoder
/// stay fp32 and have no entry. A pure function of the weights.
struct QuantCalibration {
  std::vector<std::vector<float>> channel_scales;
};

/// Max-abs/127 per-channel scales for every quantizable matrix of `model`.
QuantCalibration calibrate_quantization(const TransformerReconstructor& model);

class ScoringPlan {
 public:
  /// Compiles `model`. With a non-null `calibration` the encoder/MoE
  /// weights are int8-quantized using its scales (which must match the
  /// model's architecture); without one the plan keeps fp32 weights
  /// (relaxed path). Weight storage is shared with the model, so the plan
  /// must not outlive mutation of the model's parameters — serving never
  /// mutates published models (retraining trains clones).
  explicit ScoringPlan(const TransformerReconstructor& model,
                       const QuantCalibration* calibration = nullptr);

  /// Compiles `model` for canonical arithmetic: fp32 weights and no
  /// FastKernelScope, so forward() is bitwise equal to the model's
  /// eval-mode forward_blocked() on the same inputs.
  static ScoringPlan canonical(const TransformerReconstructor& model);

  /// Compiles `model` in the arithmetic of `path`: canonical for kStrict,
  /// fp32 for kRelaxed, and for kQuantized int8 with the scales of
  /// calibrate_quantization(model).
  static ScoringPlan compile(const TransformerReconstructor& model,
                             ScoringPath path);

  bool quantized() const { return quantized_; }
  std::size_t input_dim() const { return input_dim_; }

  /// Evaluates the reconstruction of x [T, input_dim]. offsets /
  /// segment_ids have one entry per token; block_lens partitions the rows
  /// into independent attention blocks (<= 1 entries means one dense
  /// block), exactly like TransformerReconstructor::forward_blocked.
  Tensor forward(const Tensor& x, std::span<const std::size_t> offsets,
                 std::span<const std::size_t> segment_ids,
                 std::span<const std::size_t> block_lens, Workspace& ws,
                 ThreadPool* pool = nullptr) const;

 private:
  struct PlanLinear {
    Tensor w;            ///< fp32 weights [in, out] (shared storage)
    QuantizedMatrix qw;  ///< set instead of used-for-matmul w when quantized
    Tensor b;            ///< bias [out]; unset when !has_bias
    bool has_bias = false;
    void apply(Tensor& dst, const Tensor& x, ThreadPool* pool) const;
  };
  struct PlanExpert {
    PlanLinear fc1, fc2;
  };
  struct PlanLayer {
    Tensor ln1_gain, ln1_bias, ln2_gain, ln2_bias;
    PlanLinear qkv;       ///< packed [d, 3d]: q heads | k heads | v heads
    PlanLinear out_proj;  ///< [d, d] + bias
    Tensor gate_w;        ///< [d, N], fp32 always; unset for dense FFN
    std::vector<PlanExpert> experts;  ///< N experts, or 1 dense FFN
    bool moe = false;
    std::size_t top_k = 1;
  };

  std::size_t input_dim_ = 0, d_model_ = 0, heads_ = 0, head_dim_ = 0;
  bool quantized_ = false;
  bool canonical_ = false;
  PlanLinear input_proj_;
  Tensor sin_table_;           // shared with the model's posenc
  Tensor segment_embedding_;   // shared; unset when !segment_term_
  std::size_t max_len_ = 0, max_segments_ = 0;
  bool segment_term_ = false;
  std::vector<PlanLayer> layers_;
  Tensor final_gain_, final_bias_;
  PlanLinear decoder_;  ///< fp32 always
};

}  // namespace ns
