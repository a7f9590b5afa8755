// Transformer reconstruction model with a sparse-MoE (or dense-FFN) block —
// the per-cluster shared model of the paper (Fig. 3).
//
// Tokens are the metric vectors at each timestep. The model projects them to
// d_model, adds segment-aware positional encoding, runs pre-LN encoder
// layers (self-attention + MoE), and linearly decodes back to metric space;
// training minimizes (W)MSE between input and reconstruction.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "nn/attention.hpp"
#include "nn/linear.hpp"
#include "nn/moe.hpp"
#include "nn/module.hpp"
#include "nn/positional.hpp"

namespace ns {

struct TransformerConfig {
  std::size_t input_dim = 16;    ///< number of metrics M
  std::size_t d_model = 36;      ///< token embedding width (divisible by heads)
  std::size_t num_layers = 3;    ///< encoder layers (paper artifact: 3)
  std::size_t num_heads = 3;     ///< attention heads (paper artifact: 3)
  std::size_t ffn_hidden = 64;   ///< expert / FFN hidden width
  std::size_t num_experts = 3;   ///< MoE experts (paper artifact: 3)
  std::size_t top_k = 1;         ///< experts per token (paper artifact: 1)
  bool use_moe = true;           ///< false -> dense FFN (ablation C5)
  bool use_segment_encoding = true;  ///< false -> plain PE (ablation C4)
  std::size_t max_position = 4096;   ///< intra-segment offset capacity
  std::size_t max_segments = 64;     ///< distinct segments per stream
  /// Load-balance loss scale (MoE only).
  static constexpr float aux_loss_weight = 0.01f;
};

class TransformerReconstructor : public Module {
 public:
  TransformerReconstructor(const TransformerConfig& config, Rng& rng);

  /// x: [T, input_dim] tokens. offsets/segment_ids: per-token intra-segment
  /// position and segment identity (see SegmentPositionalEncoding).
  /// Returns the reconstruction [T, input_dim]. The forward is
  /// deterministic: `rng` draws nothing (the model has no dropout) and
  /// stays for perfbench's layer pass, which still passes one.
  Var forward(const Var& x, std::span<const std::size_t> offsets,
              std::span<const std::size_t> segment_ids, Rng& rng) const;

  /// Batched variant: x stacks several independent chunks row-wise
  /// (block_lens[i] rows each, summing to T). Attention is computed per
  /// block (MultiHeadSelfAttention::forward), and every other stage
  /// is per-token, so the result is bitwise equal to running forward() on
  /// each chunk separately and concatenating — one pass serves many nodes
  /// (the serve engine's cross-node batching) or trains on many chunks (the
  /// fit-side mini-batch trainer). Works in training mode: the autograd
  /// tape covers the whole batch, so a backward() through the result yields
  /// the batch-mean gradient. An empty or single-entry block_lens degrades
  /// to the plain forward(). `rng` draws nothing, as in forward().
  Var forward_blocked(const Var& x, std::span<const std::size_t> offsets,
                      std::span<const std::size_t> segment_ids, Rng& rng,
                      std::span<const std::size_t> block_lens) const;

  /// Convenience overload: single segment starting at offset 0.
  Var forward(const Var& x, Rng& rng) const;

  /// Sum of MoE load-balancing losses from the latest forward(), scaled by
  /// aux_loss_weight. Returns an undefined Var when MoE is disabled.
  Var aux_loss() const;

  /// Tokens routed per expert per layer in the latest forward().
  std::vector<std::vector<std::size_t>> expert_loads() const;

  const TransformerConfig& config() const { return config_; }

  struct EncoderLayer : public Module {
    EncoderLayer(const TransformerConfig& config, Rng& rng);
    /// `attn_blocks` with >= 2 entries confines attention to consecutive
    /// row blocks of those lengths; empty (or singleton) means dense
    /// attention over all rows.
    Var forward(const Var& x,
                std::span<const std::size_t> attn_blocks = {}) const;

    LayerNorm ln1, ln2;
    MultiHeadSelfAttention attention;
    std::unique_ptr<MoELayer> moe;        // set when use_moe
    std::unique_ptr<FeedForward> ffn;     // set when !use_moe
  };

  /// Submodule views for the forward-only ScoringPlan compiler
  /// (src/nn/scoring.hpp), which re-expresses this model's eval-mode
  /// forward_blocked() without the autograd graph.
  const Linear& input_proj() const { return input_proj_; }
  const SegmentPositionalEncoding& posenc() const { return posenc_; }
  const std::vector<std::unique_ptr<EncoderLayer>>& layers() const {
    return layers_;
  }
  const LayerNorm& final_norm() const { return final_norm_; }
  const Linear& decoder() const { return decoder_; }

 private:
  TransformerConfig config_;
  Linear input_proj_;
  SegmentPositionalEncoding posenc_;
  std::vector<std::unique_ptr<EncoderLayer>> layers_;
  LayerNorm final_norm_;
  Linear decoder_;
};

}  // namespace ns
