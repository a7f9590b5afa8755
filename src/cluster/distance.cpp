#include "cluster/distance.hpp"

#include "common/thread_pool.hpp"

namespace ns {

DistanceMatrix DistanceMatrix::build(
    const std::vector<std::vector<float>>& points, bool squared) {
  DistanceMatrix m(points.size());
  parallel_for(0, points.size(), [&](std::size_t i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const double d = squared ? squared_euclidean(points[i], points[j])
                               : euclidean(points[i], points[j]);
      m.data_[i * m.n_ + j] = d;
      m.data_[j * m.n_ + i] = d;
    }
  });
  return m;
}

DistanceMatrix DistanceMatrix::square_roots() const {
  DistanceMatrix m(n_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    m.data_[i] = std::sqrt(data_[i]);
  return m;
}

std::vector<float> centroid_of(const std::vector<std::vector<float>>& points,
                               std::span<const std::size_t> member_indices) {
  NS_REQUIRE(!member_indices.empty(), "centroid of empty cluster");
  const std::size_t dim = points[member_indices[0]].size();
  std::vector<double> acc(dim, 0.0);
  for (std::size_t idx : member_indices) {
    NS_REQUIRE(points[idx].size() == dim, "centroid: dimension mismatch");
    for (std::size_t d = 0; d < dim; ++d) acc[d] += points[idx][d];
  }
  std::vector<float> out(dim);
  const double inv = 1.0 / static_cast<double>(member_indices.size());
  for (std::size_t d = 0; d < dim; ++d)
    out[d] = static_cast<float>(acc[d] * inv);
  return out;
}

}  // namespace ns
