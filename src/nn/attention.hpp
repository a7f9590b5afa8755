// Multi-head self-attention over a token sequence [T, D].
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "tensor/tensor.hpp"

namespace ns {

class MultiHeadSelfAttention : public Module {
 public:
  /// dim must be divisible by heads.
  MultiHeadSelfAttention(std::size_t dim, std::size_t heads, Rng& rng);

  /// x: [T, dim] -> [T, dim]. x stacks independent blocks of
  /// `block_lens[i]` rows (summing to T) and attention is computed per
  /// block — scores, softmax and the value mix never cross a block
  /// boundary — at sum(len_i^2) instead of T^2 score work, the difference
  /// between batched training being faster or slower than sequential.
  /// Zero or one entry is the dense case: one block of all T rows. Each
  /// block's output is bitwise equal to a forward over that block alone.
  Var forward(const Var& x, std::span<const std::size_t> block_lens = {}) const;

  std::size_t heads() const { return heads_; }
  std::size_t head_dim() const { return head_dim_; }

  /// Per-head projection matrices [dim, head_dim] and the output projection
  /// — read by the ScoringPlan compiler (src/nn/scoring.hpp).
  const Var& wq(std::size_t h) const { return wq_[h]; }
  const Var& wk(std::size_t h) const { return wk_[h]; }
  const Var& wv(std::size_t h) const { return wv_[h]; }
  const Linear& out_proj() const { return out_proj_; }

 private:
  std::size_t dim_, heads_, head_dim_;
  // Per-head projection matrices [dim, head_dim].
  std::vector<Var> wq_, wk_, wv_;
  Linear out_proj_;
};

}  // namespace ns
