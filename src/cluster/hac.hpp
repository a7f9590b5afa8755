// Hierarchical Agglomerative Clustering (paper §3.3).
//
// Bottom-up merging driven by the Lance–Williams update, so single,
// complete, average and Ward linkages share one implementation. The full
// merge sequence (dendrogram) is retained; cut(k) produces flat labels for
// any k without re-running, and choose_k_by_silhouette scans a k range and
// picks the silhouette-optimal cut, matching the paper's claim that
// "operators do not require iterative attempts to determine the optimal
// number of clusters".
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/distance.hpp"

namespace ns {

enum class Linkage { kSingle, kComplete, kAverage, kWard };

class Hac {
 public:
  /// Runs the agglomeration over the given points. O(n^2) memory. Each row
  /// caches its nearest live partner, so a merge rescans only the rows it
  /// invalidated: O(n^2) time in practice, O(n^3) at worst.
  Hac(const std::vector<std::vector<float>>& points, Linkage linkage);
  /// The same over the points' prebuilt distances: squared Euclidean for
  /// Ward, Euclidean otherwise, as the points constructor builds them.
  Hac(DistanceMatrix distances, Linkage linkage);

  std::size_t num_points() const { return n_; }

  /// Flat cluster labels in [0, k) for a cut producing k clusters.
  /// Labels are compacted in first-appearance order.
  std::vector<std::size_t> cut(std::size_t k) const;

  /// Heights (merge distances) in merge order; useful for dendrogram
  /// inspection and tests (must be non-decreasing for single/complete/
  /// average/ward on metric inputs... single linkage is always monotone).
  const std::vector<double>& merge_heights() const { return heights_; }

 private:
  struct Merge {
    std::size_t a, b;  // cluster ids being merged (point ids or n_+step)
  };

  std::size_t n_ = 0;
  std::vector<Merge> merges_;
  std::vector<double> heights_;
};

/// Silhouette coefficient of a flat labeling on a distance matrix.
/// Points in singleton clusters contribute 0 (scikit-learn convention);
/// returns 0 when there are fewer than 2 clusters.
double silhouette_score(const DistanceMatrix& distances,
                        const std::vector<std::size_t>& labels);

struct AutoKResult {
  std::size_t k = 0;
  double silhouette = 0.0;
  std::vector<std::size_t> labels;
};

/// Cuts `hac` at every k in [k_min, k_max] and returns the cut with the
/// highest silhouette score on `distances`.
AutoKResult choose_k_by_silhouette(const Hac& hac,
                                   const DistanceMatrix& distances,
                                   std::size_t k_min, std::size_t k_max);

}  // namespace ns
