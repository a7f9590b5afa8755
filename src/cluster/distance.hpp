// Distance primitives shared by the clustering algorithms.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace ns {

inline double squared_euclidean(std::span<const float> a,
                                std::span<const float> b) {
  NS_REQUIRE(a.size() == b.size(), "distance: dimension mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return acc;
}

inline double euclidean(std::span<const float> a, std::span<const float> b) {
  return std::sqrt(squared_euclidean(a, b));
}

/// Dense symmetric pairwise distance matrix (row-major n*n).
class DistanceMatrix {
 public:
  DistanceMatrix() = default;
  explicit DistanceMatrix(std::size_t n) : n_(n), data_(n * n, 0.0) {}

  /// Builds the Euclidean (or squared-Euclidean) matrix over points,
  /// computed in parallel.
  static DistanceMatrix build(const std::vector<std::vector<float>>& points,
                              bool squared = false);

  /// The matrix of every entry's square root. Applied to a squared build
  /// it is the Euclidean build bit for bit, since euclidean() is the square
  /// root of squared_euclidean().
  DistanceMatrix square_roots() const;

  std::size_t size() const { return n_; }
  double at(std::size_t i, std::size_t j) const { return data_[i * n_ + j]; }
  void set(std::size_t i, std::size_t j, double v) {
    data_[i * n_ + j] = v;
    data_[j * n_ + i] = v;
  }

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// Per-dimension mean of a set of points (the cluster centroid).
std::vector<float> centroid_of(const std::vector<std::vector<float>>& points,
                               std::span<const std::size_t> member_indices);

}  // namespace ns
