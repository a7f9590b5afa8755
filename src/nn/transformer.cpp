#include "nn/transformer.hpp"

#include <numeric>

#include "common/error.hpp"
#include "tensor/shape_check.hpp"

namespace ns {

TransformerReconstructor::EncoderLayer::EncoderLayer(
    const TransformerConfig& config, Rng& rng)
    : ln1(config.d_model),
      ln2(config.d_model),
      attention(config.d_model, config.num_heads, rng) {
  register_child(&ln1);
  register_child(&ln2);
  register_child(&attention);
  if (config.use_moe) {
    moe = std::make_unique<MoELayer>(config.d_model, config.ffn_hidden,
                                     config.num_experts, config.top_k, rng);
    register_child(moe.get());
  } else {
    ffn = std::make_unique<FeedForward>(config.d_model, config.ffn_hidden, rng);
    register_child(ffn.get());
  }
}

Var TransformerReconstructor::EncoderLayer::forward(
    const Var& x, float dropout, Rng& rng, bool is_training,
    std::span<const std::size_t> attn_blocks) const {
  // Pre-LN residual blocks.
  Var attn_out = attention.forward(ln1.forward(x), attn_blocks);
  attn_out = vdropout(attn_out, dropout, rng, is_training);
  Var h = vadd(x, attn_out);
  Var block_in = ln2.forward(h);
  Var block_out = moe ? moe->forward(block_in) : ffn->forward(block_in);
  block_out = vdropout(block_out, dropout, rng, is_training);
  return vadd(h, block_out);
}

TransformerReconstructor::TransformerReconstructor(
    const TransformerConfig& config, Rng& rng)
    : config_(config),
      input_proj_(config.input_dim, config.d_model, rng),
      posenc_(config.d_model, config.max_position, config.max_segments,
              config.use_segment_encoding, rng),
      final_norm_(config.d_model),
      decoder_(config.d_model, config.input_dim, rng) {
  NS_REQUIRE(config.num_layers > 0, "transformer needs >= 1 layer");
  register_child(&input_proj_);
  register_child(&posenc_);
  register_child(&final_norm_);
  register_child(&decoder_);
  layers_.reserve(config.num_layers);
  for (std::size_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<EncoderLayer>(config, rng));
    register_child(layers_.back().get());
  }
}

Var TransformerReconstructor::forward(
    const Var& x, std::span<const std::size_t> offsets,
    std::span<const std::size_t> segment_ids, Rng& rng) const {
  return forward_blocked(x, offsets, segment_ids, rng, {});
}

Var TransformerReconstructor::forward_blocked(
    const Var& x, std::span<const std::size_t> offsets,
    std::span<const std::size_t> segment_ids, Rng& rng,
    std::span<const std::size_t> block_lens) const {
  check_cols(x.value(), config_.input_dim, "TransformerReconstructor::forward");
  if (block_lens.size() > 1) {
    std::size_t total = 0;
    for (std::size_t len : block_lens) total += len;
    NS_REQUIRE(total == x.shape()[0],
               "block lengths sum to " << total << " but input has "
                                       << x.shape()[0] << " rows");
  }
  Var h = input_proj_.forward(x);
  h = posenc_.forward(h, offsets, segment_ids);
  for (const auto& layer : layers_)
    h = layer->forward(h, config_.dropout, rng, training(), block_lens);
  h = final_norm_.forward(h);
  return decoder_.forward(h);
}

Var TransformerReconstructor::forward(const Var& x, Rng& rng) const {
  const std::size_t tokens = x.shape()[0];
  std::vector<std::size_t> offsets(tokens);
  std::iota(offsets.begin(), offsets.end(), 0);
  const std::vector<std::size_t> segment_ids(tokens, 0);
  return forward(x, offsets, segment_ids, rng);
}

Var TransformerReconstructor::aux_loss() const {
  if (!config_.use_moe || config_.aux_loss_weight <= 0.0f) return Var();
  Var total;
  for (const auto& layer : layers_) {
    Var term = layer->moe->aux_load_balance_loss();
    total = total.defined() ? vadd(total, term) : term;
  }
  return vscale(total, config_.aux_loss_weight);
}

std::vector<std::vector<std::size_t>> TransformerReconstructor::expert_loads()
    const {
  std::vector<std::vector<std::size_t>> loads;
  if (!config_.use_moe) return loads;
  loads.reserve(layers_.size());
  for (const auto& layer : layers_)
    loads.push_back(layer->moe->last_expert_load());
  return loads;
}

}  // namespace ns
