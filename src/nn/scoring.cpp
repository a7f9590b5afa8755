#include "nn/scoring.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "tensor/shape_check.hpp"

namespace ns {
namespace {

/// Packs the per-head q/k/v projection matrices [d, dh] into one [d, 3d]
/// matrix (column layout: q heads | k heads | v heads, head-major within
/// each third) so a single gemm computes every projection of a layer.
Tensor pack_qkv(const MultiHeadSelfAttention& attn) {
  const std::size_t heads = attn.heads();
  const std::size_t dh = attn.head_dim();
  const std::size_t dim = heads * dh;
  const std::size_t cols = 3 * dim;
  Tensor packed(Shape{dim, cols});
  float* pp = packed.data();
  for (std::size_t h = 0; h < heads; ++h) {
    const Tensor* mats[3] = {&attn.wq(h).value(), &attn.wk(h).value(),
                             &attn.wv(h).value()};
    for (std::size_t which = 0; which < 3; ++which) {
      const float* pw = mats[which]->data();
      const std::size_t base = which * dim + h * dh;
      for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dh; ++c)
          pp[r * cols + base + c] = pw[r * dh + c];
    }
  }
  return packed;
}

}  // namespace

QuantCalibration calibrate_quantization(
    const TransformerReconstructor& model) {
  QuantCalibration calib;
  const auto add = [&calib](const Tensor& w) {
    calib.channel_scales.push_back(per_channel_scales(w));
  };
  add(model.input_proj().weight().value());
  for (const auto& layer : model.layers()) {
    add(pack_qkv(layer->attention));
    add(layer->attention.out_proj().weight().value());
    const auto add_ffn = [&](const FeedForward& ffn) {
      add(ffn.fc1().weight().value());
      add(ffn.fc2().weight().value());
    };
    if (layer->moe) {
      for (std::size_t i = 0; i < layer->moe->num_experts(); ++i)
        add_ffn(layer->moe->expert(i));
    } else {
      add_ffn(*layer->ffn);
    }
  }
  return calib;
}

ScoringPlan::ScoringPlan(const TransformerReconstructor& model,
                         const QuantCalibration* calibration)
    : quantized_(calibration != nullptr) {
  const TransformerConfig& cfg = model.config();
  input_dim_ = cfg.input_dim;
  d_model_ = cfg.d_model;
  heads_ = cfg.num_heads;
  head_dim_ = d_model_ / heads_;

  // Consumes calibration entries in the documented traversal order; the
  // final count check catches a calibration built for a different
  // architecture.
  std::size_t next_scale = 0;
  const auto take_scales = [&]() -> const std::vector<float>* {
    if (calibration == nullptr) return nullptr;
    NS_REQUIRE(next_scale < calibration->channel_scales.size(),
               "quant calibration has only "
                   << calibration->channel_scales.size()
                   << " matrices — model needs more");
    return &calibration->channel_scales[next_scale++];
  };
  const auto make_quantizable = [&](Tensor w, const Var* bias) {
    PlanLinear pl;
    if (const std::vector<float>* scales = take_scales())
      pl.qw = quantize_with_scales(w, *scales);
    pl.w = std::move(w);
    if (bias != nullptr) {
      pl.b = bias->value();
      pl.has_bias = true;
    }
    return pl;
  };
  const auto make_fp32 = [](Tensor w, const Var* bias) {
    PlanLinear pl;
    pl.w = std::move(w);
    if (bias != nullptr) {
      pl.b = bias->value();
      pl.has_bias = true;
    }
    return pl;
  };

  input_proj_ = make_quantizable(model.input_proj().weight().value(),
                                 &model.input_proj().bias());

  const SegmentPositionalEncoding& pe = model.posenc();
  sin_table_ = pe.sin_table();
  max_len_ = pe.max_len();
  max_segments_ = pe.max_segments();
  segment_term_ = pe.segment_term_enabled();
  if (segment_term_) segment_embedding_ = pe.segment_embedding().value();

  layers_.reserve(model.layers().size());
  for (const auto& lp : model.layers()) {
    PlanLayer layer;
    layer.ln1_gain = lp->ln1.gain().value();
    layer.ln1_bias = lp->ln1.bias().value();
    layer.ln2_gain = lp->ln2.gain().value();
    layer.ln2_bias = lp->ln2.bias().value();
    layer.qkv = make_quantizable(pack_qkv(lp->attention), nullptr);
    layer.out_proj = make_quantizable(lp->attention.out_proj().weight().value(),
                                      &lp->attention.out_proj().bias());
    if (lp->moe) {
      layer.moe = true;
      layer.top_k = lp->moe->top_k();
      // The gate stays fp32 even in quantized mode: its output drives the
      // discrete top-k selection, where int8 noise could flip routing.
      layer.gate_w = lp->moe->gate_weight().value();
      layer.experts.reserve(lp->moe->num_experts());
      for (std::size_t i = 0; i < lp->moe->num_experts(); ++i) {
        const FeedForward& e = lp->moe->expert(i);
        PlanExpert pe2;
        pe2.fc1 = make_quantizable(e.fc1().weight().value(), &e.fc1().bias());
        pe2.fc2 = make_quantizable(e.fc2().weight().value(), &e.fc2().bias());
        layer.experts.push_back(std::move(pe2));
      }
    } else {
      PlanExpert pe2;
      pe2.fc1 = make_quantizable(lp->ffn->fc1().weight().value(),
                                 &lp->ffn->fc1().bias());
      pe2.fc2 = make_quantizable(lp->ffn->fc2().weight().value(),
                                 &lp->ffn->fc2().bias());
      layer.experts.push_back(std::move(pe2));
    }
    layers_.push_back(std::move(layer));
  }

  final_gain_ = model.final_norm().gain().value();
  final_bias_ = model.final_norm().bias().value();
  decoder_ = make_fp32(model.decoder().weight().value(),
                       &model.decoder().bias());
  if (calibration != nullptr)
    NS_REQUIRE(next_scale == calibration->channel_scales.size(),
               "quant calibration has " << calibration->channel_scales.size()
                                        << " matrices — model uses only "
                                        << next_scale);
}

ScoringPlan ScoringPlan::canonical(const TransformerReconstructor& model) {
  ScoringPlan plan(model);
  plan.canonical_ = true;
  return plan;
}

ScoringPlan ScoringPlan::compile(const TransformerReconstructor& model,
                                 ScoringPath path) {
  switch (path) {
    case ScoringPath::kStrict:
      return canonical(model);
    case ScoringPath::kRelaxed:
      return ScoringPlan(model);
    case ScoringPath::kQuantized: {
      const QuantCalibration calibration = calibrate_quantization(model);
      return ScoringPlan(model, &calibration);
    }
  }
  throw InvalidArgument("ScoringPlan::compile: unknown scoring path");
}

void ScoringPlan::PlanLinear::apply(Tensor& dst, const Tensor& x,
                                    ThreadPool* pool) const {
  if (!qw.empty())
    quantized_matmul_into(dst, x, qw, pool);
  else
    matmul_into(dst, x, w, pool);
  if (has_bias) add_rowvec_into(dst, dst, b);
}

Tensor ScoringPlan::forward(const Tensor& x,
                            std::span<const std::size_t> offsets,
                            std::span<const std::size_t> segment_ids,
                            std::span<const std::size_t> block_lens,
                            Workspace& ws, ThreadPool* pool) const {
  check_cols(x, input_dim_, "ScoringPlan::forward");
  const std::size_t tokens = x.size(0);
  NS_REQUIRE(offsets.size() == tokens && segment_ids.size() == tokens,
             "ScoringPlan: offsets/segment_ids must have one entry per token");
  // Relaxed/quantized plans legalize the dispatch tier's fast variants
  // (fused multiply-add, polynomial exp/tanh) for every kernel below; a
  // canonical plan keeps the canonical, bitwise-reproducible ones.
  std::optional<FastKernelScope> fast;
  if (!canonical_) fast.emplace();
  const std::size_t d = d_model_;
  const std::size_t one_block[1] = {tokens};
  const std::span<const std::size_t> blocks =
      block_lens.size() <= 1 ? std::span<const std::size_t>(one_block)
                             : block_lens;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  Tensor h = ws.acquire(Shape{tokens, d});
  input_proj_.apply(h, x, pool);

  // Positional encoding by direct row adds: the same two float adds as the
  // model's gathered-row add and one-hot matmul (a one-hot row selects its
  // embedding row exactly).
  float* ph = h.data();
  for (std::size_t t = 0; t < tokens; ++t) {
    const std::size_t off = std::min(offsets[t], max_len_ - 1);
    const float* row = sin_table_.data() + off * d;
    float* hr = ph + t * d;
    for (std::size_t j = 0; j < d; ++j) hr[j] += row[j];
    if (segment_term_) {
      const std::size_t seg = std::min(segment_ids[t], max_segments_ - 1);
      const float* erow = segment_embedding_.data() + seg * d;
      for (std::size_t j = 0; j < d; ++j) hr[j] += erow[j];
    }
  }

  Tensor ln = ws.acquire(Shape{tokens, d});
  Tensor qkv = ws.acquire(Shape{tokens, 3 * d});
  Tensor qh = ws.acquire(Shape{tokens, head_dim_});
  Tensor kh = ws.acquire(Shape{tokens, head_dim_});
  Tensor vh = ws.acquire(Shape{tokens, head_dim_});
  Tensor oh = ws.acquire(Shape{tokens, head_dim_});
  Tensor merged = ws.acquire(Shape{tokens, d});
  Tensor proj = ws.acquire(Shape{tokens, d});
  for (const PlanLayer& layer : layers_) {
    layernorm_rows_into(ln, h, layer.ln1_gain, layer.ln1_bias);
    layer.qkv.apply(qkv, ln, pool);
    const float* pq = qkv.data();
    const std::size_t qkv_cols = 3 * d;
    for (std::size_t head = 0; head < heads_; ++head) {
      // De-interleave this head's contiguous [T, dh] operands, run the
      // fused attention kernel, and re-interleave into the merged output.
      for (std::size_t t = 0; t < tokens; ++t) {
        const float* src = pq + t * qkv_cols + head * head_dim_;
        std::copy_n(src, head_dim_, qh.data() + t * head_dim_);
        std::copy_n(src + d, head_dim_, kh.data() + t * head_dim_);
        std::copy_n(src + 2 * d, head_dim_, vh.data() + t * head_dim_);
      }
      block_attention_into(oh, qh, kh, vh, blocks, inv_sqrt_dh, ws);
      for (std::size_t t = 0; t < tokens; ++t)
        std::copy_n(oh.data() + t * head_dim_, head_dim_,
                    merged.data() + t * d + head * head_dim_);
    }
    layer.out_proj.apply(proj, merged, pool);
    add_into(h, h, proj);  // attention residual (in place)

    layernorm_rows_into(ln, h, layer.ln2_gain, layer.ln2_bias);
    Tensor block_out = ws.acquire_zero(Shape{tokens, d});
    if (layer.moe) {
      const std::size_t n_experts = layer.experts.size();
      Tensor gate_logits = ws.acquire(Shape{tokens, n_experts});
      matmul_into(gate_logits, ln, layer.gate_w, pool);
      Tensor gate_probs = ws.acquire(Shape{tokens, n_experts});
      softmax_rows_into(gate_probs, gate_logits);
      // The model's exact top-k routing (moe.cpp): same comparator, same
      // partial_sort tie-break, ascending token order per expert.
      std::vector<std::vector<std::size_t>> routed(n_experts);
      std::vector<std::size_t> order(n_experts);
      for (std::size_t t = 0; t < tokens; ++t) {
        const float* row = gate_probs.data() + t * n_experts;
        std::iota(order.begin(), order.end(), 0);
        std::partial_sort(order.begin(),
                          order.begin() + static_cast<std::ptrdiff_t>(
                                              layer.top_k),
                          order.end(),
                          [row](std::size_t a, std::size_t b) {
                            return row[a] > row[b];
                          });
        for (std::size_t k = 0; k < layer.top_k; ++k)
          routed[order[k]].push_back(t);
      }
      for (std::size_t i = 0; i < n_experts; ++i) {
        if (routed[i].empty()) continue;
        const std::size_t len = routed[i].size();
        Tensor xi = ws.acquire(Shape{len, d});
        for (std::size_t r = 0; r < len; ++r)
          std::copy_n(ln.data() + routed[i][r] * d, d, xi.data() + r * d);
        const std::size_t hidden = layer.experts[i].fc1.w.size(1);
        Tensor h1 = ws.acquire(Shape{len, hidden});
        layer.experts[i].fc1.apply(h1, xi, pool);
        gelu_into(h1, h1);
        Tensor yi = ws.acquire(Shape{len, d});
        layer.experts[i].fc2.apply(yi, h1, pool);
        // Gate-scaled scatter back to token rows, expert-ascending like the
        // model's vscatter_rows accumulation.
        for (std::size_t r = 0; r < len; ++r) {
          const std::size_t t = routed[i][r];
          const float g = gate_probs.data()[t * n_experts + i];
          const float* src = yi.data() + r * d;
          float* out_row = block_out.data() + t * d;
          for (std::size_t j = 0; j < d; ++j) out_row[j] += g * src[j];
        }
        ws.release(std::move(xi));
        ws.release(std::move(h1));
        ws.release(std::move(yi));
      }
      ws.release(std::move(gate_logits));
      ws.release(std::move(gate_probs));
    } else {
      const PlanExpert& ffn = layer.experts.front();
      const std::size_t hidden = ffn.fc1.w.size(1);
      Tensor h1 = ws.acquire(Shape{tokens, hidden});
      ffn.fc1.apply(h1, ln, pool);
      gelu_into(h1, h1);
      ffn.fc2.apply(block_out, h1, pool);
      ws.release(std::move(h1));
    }
    add_into(h, h, block_out);  // FFN/MoE residual (in place)
    ws.release(std::move(block_out));
  }

  layernorm_rows_into(ln, h, final_gain_, final_bias_);
  Tensor out(Shape{tokens, input_dim_});
  decoder_.apply(out, ln, pool);
  ws.release(std::move(h));
  ws.release(std::move(ln));
  ws.release(std::move(qkv));
  ws.release(std::move(qh));
  ws.release(std::move(kh));
  ws.release(std::move(vh));
  ws.release(std::move(oh));
  ws.release(std::move(merged));
  ws.release(std::move(proj));
  return out;
}

}  // namespace ns
