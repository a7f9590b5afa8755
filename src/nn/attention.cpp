#include "nn/attention.hpp"

#include <cmath>

#include "common/error.hpp"
#include "tensor/shape_check.hpp"

namespace ns {

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t dim,
                                               std::size_t heads, Rng& rng)
    : dim_(dim),
      heads_(heads),
      head_dim_(dim / heads),
      out_proj_(dim, dim, rng) {
  NS_REQUIRE(heads > 0 && dim % heads == 0,
             "attention dim " << dim << " not divisible by heads " << heads);
  wq_.reserve(heads);
  wk_.reserve(heads);
  wv_.reserve(heads);
  for (std::size_t h = 0; h < heads; ++h) {
    wq_.push_back(add_parameter(xavier_init(dim, head_dim_, rng)));
    wk_.push_back(add_parameter(xavier_init(dim, head_dim_, rng)));
    wv_.push_back(add_parameter(xavier_init(dim, head_dim_, rng)));
  }
  register_child(&out_proj_);
}

Var MultiHeadSelfAttention::forward(
    const Var& x, std::span<const std::size_t> block_lens) const {
  check_cols(x.value(), dim_, "MultiHeadSelfAttention::forward");
  const std::size_t one_block[1] = {x.shape()[0]};
  const std::span<const std::size_t> blocks =
      block_lens.size() <= 1 ? std::span<const std::size_t>(one_block)
                             : block_lens;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<Var> head_outputs;
  head_outputs.reserve(heads_);
  for (std::size_t h = 0; h < heads_; ++h) {
    // Projections run over the whole batch (each output row depends only on
    // its own input row); only the quadratic score stage is per block, fused
    // into a single graph node (bitwise identical to the composed per-block
    // op chain — see vblock_attention).
    Var q = vmatmul(x, wq_[h]);                       // [T, dh]
    Var k = vmatmul(x, wk_[h]);                       // [T, dh]
    Var v = vmatmul(x, wv_[h]);                       // [T, dh]
    head_outputs.push_back(
        vblock_attention(q, k, v, blocks, inv_sqrt_dh));  // [T, dh]
  }
  Var merged = vconcat_cols(head_outputs);            // [T, dim]
  return out_proj_.forward(merged);
}

}  // namespace ns
