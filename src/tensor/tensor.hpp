// Dense float32 tensor, contiguous row-major.
//
// This is the numeric foundation for the nn substrate (Transformer+MoE,
// LSTM, VAE). Storage is shared (shared_ptr) so reshape is O(1); any op
// that would need strided views materializes a copy instead — simplicity
// and predictability over cleverness, per the repo design notes.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ns {

using Shape = std::vector<std::size_t>;

std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  /// Empty 0-element tensor.
  Tensor() : Tensor(Shape{0}) {}

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor wrapping the given flat data (copied). data.size() must match.
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  /// I.i.d. N(0, stddev^2).
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  /// I.i.d. U[lo, hi).
  static Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi);
  /// 1-D tensor from values.
  static Tensor from_vector(std::vector<float> values);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size(std::size_t dim) const {
    NS_REQUIRE(dim < shape_.size(), "Tensor::size dim out of range");
    return shape_[dim];
  }
  std::size_t numel() const { return numel_; }

  float* data() { return storage_->data(); }
  const float* data() const { return storage_->data(); }
  std::span<float> flat() { return {data(), numel_}; }
  std::span<const float> flat() const { return {data(), numel_}; }

  float& at(std::size_t i) {
    NS_REQUIRE(i < numel_, "Tensor::at out of range");
    return data()[i];
  }
  float at(std::size_t i) const {
    NS_REQUIRE(i < numel_, "Tensor::at out of range");
    return data()[i];
  }

  /// 2-D element access (rank must be 2).
  float& at(std::size_t r, std::size_t c) {
    NS_REQUIRE(rank() == 2 && r < shape_[0] && c < shape_[1],
               "Tensor::at(r,c) out of range");
    return data()[r * shape_[1] + c];
  }
  float at(std::size_t r, std::size_t c) const {
    NS_REQUIRE(rank() == 2 && r < shape_[0] && c < shape_[1],
               "Tensor::at(r,c) out of range");
    return data()[r * shape_[1] + c];
  }

  /// O(1) reshape sharing storage. numel must be preserved.
  Tensor reshape(Shape new_shape) const;

  /// Elements the storage holds: numel(), unless reshape_in_place gave
  /// this buffer a smaller shape.
  std::size_t capacity() const { return storage_->size(); }

  /// Gives this tensor any shape whose numel fits capacity(), keeping its
  /// storage (contents unspecified). Workspace's recycling primitive; the
  /// storage must not be shared.
  void reshape_in_place(Shape new_shape);

  /// Deep copy.
  Tensor clone() const;

  /// Fills every element with `value`.
  void fill(float value);

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  /// True when no other Tensor (or captured copy) shares this storage.
  /// Workspace recycling and in-place kernels rely on this to avoid
  /// mutating data visible through another handle.
  bool storage_unique() const { return storage_.use_count() == 1; }

 private:
  Shape shape_;
  std::size_t numel_ = 0;
  std::shared_ptr<std::vector<float>> storage_;
};

// ---- Non-differentiable tensor math (used by backward passes and by all
// ---- non-NN numeric code). Shapes are validated; results are new tensors.
//
// NOTE (soft-deprecated on hot paths): each op below that has an `_into`
// counterpart in tensor/kernels.hpp is now a thin allocating wrapper over
// that kernel. New hot-path code (nn forward/backward, serve scoring)
// should call the `_into` variants against Workspace buffers instead; these
// wrappers remain for cold paths and existing call sites. See
// src/tensor/README.md for the contract.

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
Tensor add_scalar(const Tensor& a, float s);

/// C[m,n] = A[m,k] @ B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// 2-D transpose.
Tensor transpose2d(const Tensor& a);
/// Adds row vector b[D] to every row of X[T,D].
Tensor add_rowvec(const Tensor& x, const Tensor& b);
/// Multiplies every row of X[T,D] elementwise by s[T] (or s[T,1]).
Tensor colwise_scale(const Tensor& x, const Tensor& s);
/// Row-wise softmax of a 2-D tensor.
Tensor softmax_rows(const Tensor& x);
/// Column slice [c0, c1) of a 2-D tensor.
Tensor slice_cols(const Tensor& x, std::size_t c0, std::size_t c1);
/// Row slice [r0, r1) of a 2-D tensor.
Tensor slice_rows(const Tensor& x, std::size_t r0, std::size_t r1);
/// Concatenates 2-D tensors along columns (equal row counts).
Tensor concat_cols(std::span<const Tensor> parts);
/// Concatenates 2-D tensors along rows (equal column counts).
Tensor concat_rows(std::span<const Tensor> parts);

double sum_all(const Tensor& a);
double mean_all(const Tensor& a);
double max_abs(const Tensor& a);

}  // namespace ns
