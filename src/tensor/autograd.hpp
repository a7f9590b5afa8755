// Tape-based reverse-mode automatic differentiation over ns::Tensor.
//
// A Var is a handle to a graph node holding a value and (after backward())
// a gradient. Leaf Vars (parameters) persist across training steps; interior
// nodes are rebuilt every forward pass and freed when the last Var handle
// goes out of scope. Every op here is covered by finite-difference gradient
// checks in tests/tensor_autograd_test.cpp.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace ns {

namespace autograd_detail {

struct Node {
  Tensor value;
  Tensor grad;        // allocated lazily, same shape as value
  bool grad_alloc = false;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Reads this->grad, accumulates into parents' grads.
  std::function<void(Node&)> backward;

  Tensor& ensure_grad() {
    if (!grad_alloc) {
      grad = Tensor(value.shape());
      grad_alloc = true;
    }
    return grad;
  }
};

}  // namespace autograd_detail

class Var {
 public:
  Var() = default;

  /// Leaf node (parameter or constant input).
  static Var leaf(Tensor value, bool requires_grad);
  /// Non-differentiable constant.
  static Var constant(Tensor value) { return leaf(std::move(value), false); }

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }
  const Shape& shape() const { return node_->value.shape(); }
  bool requires_grad() const { return node_ && node_->requires_grad; }

  /// Gradient accumulated by backward(). Valid only on requires_grad nodes.
  const Tensor& grad() const;
  /// Zeroes (and allocates if needed) this node's gradient buffer.
  void zero_grad();

  /// Runs reverse-mode accumulation from this (scalar) node.
  /// Seeds with ones, so the node need not be literally 1-element, but
  /// training code always calls it on scalar losses.
  void backward() const;

  // Internal: exposed for op implementations.
  std::shared_ptr<autograd_detail::Node> node() const { return node_; }
  explicit Var(std::shared_ptr<autograd_detail::Node> node)
      : node_(std::move(node)) {}

 private:
  std::shared_ptr<autograd_detail::Node> node_;
};

// ---- Differentiable ops. Names mirror the raw-tensor ops in tensor.hpp.

Var vadd(const Var& a, const Var& b);
Var vsub(const Var& a, const Var& b);
Var vmul(const Var& a, const Var& b);  // Hadamard
Var vscale(const Var& a, float s);
Var vadd_scalar(const Var& a, float s);
Var vmatmul(const Var& a, const Var& b);
Var vtranspose(const Var& a);
Var vadd_rowvec(const Var& x, const Var& b);
/// Scales each row i of x by s[i]; s has T elements (shape [T] or [T,1]).
Var vcolwise_scale(const Var& x, const Var& s);
Var vsoftmax_rows(const Var& x);
/// Row-wise layer normalization with learned gain/bias over the last dim.
Var vlayernorm_rows(const Var& x, const Var& gain, const Var& bias,
                    float eps = 1e-5f);
Var vrelu(const Var& a);
Var vgelu(const Var& a);
Var vtanh(const Var& a);
Var vsigmoid(const Var& a);
Var vexp(const Var& a);
Var vsum(const Var& a);   // -> scalar [1]
Var vmean(const Var& a);  // -> scalar [1]
Var vslice_cols(const Var& x, std::size_t c0, std::size_t c1);
Var vslice_rows(const Var& x, std::size_t r0, std::size_t r1);
/// out[r, :] = x[rows[r], :]. Indices may repeat; gradients scatter-add
/// back into the source rows. Backbone of sparse expert routing.
Var vgather_rows(const Var& x, std::span<const std::size_t> rows);
/// Inverse of vgather_rows: a [total_rows, C] tensor that is zero except
/// out[rows[r], :] += x[r, :] (repeated indices accumulate). Gradients
/// gather the corresponding rows of the upstream gradient.
Var vscatter_rows(const Var& x, std::span<const std::size_t> rows,
                  std::size_t total_rows);
Var vconcat_cols(std::span<const Var> parts);
Var vconcat_rows(std::span<const Var> parts);
/// Fused block-diagonal attention for one head. q/k/v are [T, dh]; rows
/// split into consecutive blocks whose lengths (summing to T) are given in
/// `block_lens`, and each block attends only within itself:
///   out_b = softmax(q_b @ k_b^T * scale) @ v_b,
///   out = concat_rows(out_b).
/// Forward values are bitwise identical to the composed per-block chain
/// (vslice_rows / vmatmul / vtranspose / vscale / vsoftmax_rows /
/// vconcat_rows) — the same kernels run in the same order — but the whole
/// stage is a single graph node, which removes ~8 node allocations per
/// (head, block) from the batched trainer's hot loop.
/// Gradients are also bitwise identical to the composed chain (see the
/// impl notes).
Var vblock_attention(const Var& q, const Var& k, const Var& v,
                     std::span<const std::size_t> block_lens, float scale);

/// Elementwise multiply by a constant mask tensor (no gradient to the mask).
Var vmask(const Var& x, const Tensor& mask);
/// Inverted dropout; identity when !training or p == 0.
Var vdropout(const Var& x, float p, Rng& rng, bool training);

/// Mean squared error against a constant target: mean((x - target)^2).
Var vmse_loss(const Var& pred, const Tensor& target);
/// Weighted MSE per the paper's Eq. 5: rows are timesteps, columns are
/// metrics; weight[j] scales metric j. Result = (1/(T*M)) sum w_j * d_ij^2.
Var vwmse_loss(const Var& pred, const Tensor& target, const Tensor& weights);

}  // namespace ns
