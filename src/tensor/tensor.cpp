#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "tensor/kernels.hpp"
#include "tensor/shape_check.hpp"

namespace ns {
namespace {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

}  // namespace

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ',';
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      numel_(shape_numel(shape_)),
      storage_(std::make_shared<std::vector<float>>(numel_, 0.0f)) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), numel_(shape_numel(shape_)) {
  NS_REQUIRE(data.size() == numel_,
             "Tensor data size " << data.size() << " != numel for shape "
                                 << shape_to_string(shape_));
  storage_ = std::make_shared<std::vector<float>>(std::move(data));
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& x : t.flat()) x = static_cast<float>(rng.gaussian(0.0, stddev));
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& x : t.flat()) x = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::from_vector(std::vector<float> values) {
  const std::size_t n = values.size();
  return Tensor(Shape{n}, std::move(values));
}

Tensor Tensor::reshape(Shape new_shape) const {
  NS_REQUIRE(shape_numel(new_shape) == numel_,
             "reshape " << shape_to_string(shape_) << " -> "
                        << shape_to_string(new_shape) << " changes numel");
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.numel_ = numel_;
  out.storage_ = storage_;  // share
  return out;
}

void Tensor::reshape_in_place(Shape new_shape) {
  const std::size_t numel = shape_numel(new_shape);
  NS_REQUIRE(numel <= capacity(),
             "reshape_in_place " << shape_to_string(new_shape)
                                 << " exceeds capacity " << capacity());
  NS_REQUIRE(storage_unique(), "reshape_in_place on shared storage");
  shape_ = std::move(new_shape);
  numel_ = numel;
}

Tensor Tensor::clone() const {
  Tensor out;
  out.shape_ = shape_;
  out.numel_ = numel_;
  out.storage_ = std::make_shared<std::vector<float>>(data(), data() + numel_);
  return out;
}

void Tensor::fill(float value) { std::fill_n(data(), numel_, value); }

// ----------------------------------------------------------------- free ops
// Allocating wrappers over the `_into` kernels in tensor/kernels.cpp. Kept
// for cold paths; hot paths call the kernels against Workspace buffers.

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out;
  add_into(out, a, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out;
  sub_into(out, a, b);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor out;
  mul_into(out, a, b);
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out;
  scale_into(out, a, s);
  return out;
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor out;
  add_scalar_into(out, a, s);
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_into(out, a, b);
  return out;
}

Tensor transpose2d(const Tensor& a) {
  Tensor out;
  transpose2d_into(out, a);
  return out;
}

Tensor add_rowvec(const Tensor& x, const Tensor& b) {
  Tensor out;
  add_rowvec_into(out, x, b);
  return out;
}

Tensor colwise_scale(const Tensor& x, const Tensor& s) {
  Tensor out;
  colwise_scale_into(out, x, s);
  return out;
}

Tensor softmax_rows(const Tensor& x) {
  Tensor out;
  softmax_rows_into(out, x);
  return out;
}

Tensor slice_cols(const Tensor& x, std::size_t c0, std::size_t c1) {
  check_rank2(x, "slice_cols");
  NS_REQUIRE(c0 < c1 && c1 <= x.size(1),
             "slice_cols range [" << c0 << ',' << c1 << ") out of cols "
                                  << x.size(1));
  const std::size_t rows = x.size(0), cols = x.size(1), w = c1 - c0;
  Tensor out(Shape{rows, w});
  for (std::size_t i = 0; i < rows; ++i)
    std::copy_n(x.data() + i * cols + c0, w, out.data() + i * w);
  return out;
}

Tensor slice_rows(const Tensor& x, std::size_t r0, std::size_t r1) {
  check_rank2(x, "slice_rows");
  NS_REQUIRE(r0 < r1 && r1 <= x.size(0),
             "slice_rows range [" << r0 << ',' << r1 << ") out of rows "
                                  << x.size(0));
  const std::size_t cols = x.size(1);
  Tensor out(Shape{r1 - r0, cols});
  std::copy_n(x.data() + r0 * cols, (r1 - r0) * cols, out.data());
  return out;
}

Tensor concat_cols(std::span<const Tensor> parts) {
  NS_REQUIRE(!parts.empty(), "concat_cols of zero tensors");
  const std::size_t rows = parts[0].size(0);
  std::size_t total_cols = 0;
  for (const Tensor& p : parts) {
    NS_REQUIRE(p.rank() == 2 && p.size(0) == rows,
               "concat_cols: row mismatch");
    total_cols += p.size(1);
  }
  Tensor out(Shape{rows, total_cols});
  std::size_t offset = 0;
  for (const Tensor& p : parts) {
    const std::size_t w = p.size(1);
    for (std::size_t i = 0; i < rows; ++i)
      std::copy_n(p.data() + i * w, w, out.data() + i * total_cols + offset);
    offset += w;
  }
  return out;
}

Tensor concat_rows(std::span<const Tensor> parts) {
  NS_REQUIRE(!parts.empty(), "concat_rows of zero tensors");
  const std::size_t cols = parts[0].size(1);
  std::size_t total_rows = 0;
  for (const Tensor& p : parts) {
    NS_REQUIRE(p.rank() == 2 && p.size(1) == cols,
               "concat_rows: column mismatch");
    total_rows += p.size(0);
  }
  Tensor out(Shape{total_rows, cols});
  std::size_t offset = 0;
  for (const Tensor& p : parts) {
    std::copy_n(p.data(), p.numel(), out.data() + offset);
    offset += p.numel();
  }
  return out;
}

double sum_all(const Tensor& a) {
  double s = 0.0;
  for (float x : a.flat()) s += x;
  return s;
}

double mean_all(const Tensor& a) {
  return a.numel() == 0 ? 0.0 : sum_all(a) / static_cast<double>(a.numel());
}

double max_abs(const Tensor& a) {
  double m = 0.0;
  for (float x : a.flat()) m = std::max(m, std::abs(static_cast<double>(x)));
  return m;
}

}  // namespace ns
