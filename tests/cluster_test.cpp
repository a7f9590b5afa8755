#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/distance.hpp"
#include "cluster/gmm.hpp"
#include "cluster/hac.hpp"
#include "cluster/kmeans.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace ns {
namespace {

// Three well-separated Gaussian blobs in 2-D.
std::vector<std::vector<float>> three_blobs(std::size_t per_blob,
                                            std::uint64_t seed,
                                            double spread = 0.3) {
  Rng rng(seed);
  const std::vector<std::pair<double, double>> centers{
      {0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  std::vector<std::vector<float>> points;
  for (const auto& [cx, cy] : centers)
    for (std::size_t i = 0; i < per_blob; ++i)
      points.push_back({static_cast<float>(cx + rng.gaussian(0, spread)),
                        static_cast<float>(cy + rng.gaussian(0, spread))});
  return points;
}

// True iff `labels` partitions points into blobs exactly (up to renaming).
bool matches_blobs(const std::vector<std::size_t>& labels,
                   std::size_t per_blob) {
  for (std::size_t blob = 0; blob * per_blob < labels.size(); ++blob) {
    const std::size_t expected = labels[blob * per_blob];
    for (std::size_t i = 0; i < per_blob; ++i)
      if (labels[blob * per_blob + i] != expected) return false;
    // Different blobs must get different labels.
    for (std::size_t other = 0; other < blob; ++other)
      if (labels[other * per_blob] == expected) return false;
  }
  return true;
}

TEST(Distance, EuclideanKnownValues) {
  const std::vector<float> a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(euclidean(a, b), 5.0);
  EXPECT_DOUBLE_EQ(squared_euclidean(a, b), 25.0);
  const std::vector<float> c{1, 2, 3};
  EXPECT_THROW(euclidean(a, c), InvalidArgument);
}

TEST(Distance, MatrixSymmetricZeroDiagonal) {
  const auto points = three_blobs(5, 1);
  const auto m = DistanceMatrix::build(points);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m.at(i, i), 0.0);
    for (std::size_t j = 0; j < m.size(); ++j)
      EXPECT_EQ(m.at(i, j), m.at(j, i));
  }
}

TEST(Distance, CentroidOfSubset) {
  const std::vector<std::vector<float>> points{{0, 0}, {2, 2}, {100, 100}};
  const std::vector<std::size_t> members{0, 1};
  const auto c = centroid_of(points, members);
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 1.0f);
  EXPECT_THROW(centroid_of(points, std::vector<std::size_t>{}),
               InvalidArgument);
}

class HacLinkageTest : public ::testing::TestWithParam<Linkage> {};

TEST_P(HacLinkageTest, RecoversThreeBlobs) {
  const std::size_t per_blob = 12;
  const auto points = three_blobs(per_blob, 7);
  Hac hac(points, GetParam());
  const auto labels = hac.cut(3);
  EXPECT_TRUE(matches_blobs(labels, per_blob));
}

TEST_P(HacLinkageTest, CutBoundaries) {
  const auto points = three_blobs(4, 8);
  Hac hac(points, GetParam());
  // k = n: every point its own cluster.
  const auto fine = hac.cut(points.size());
  std::set<std::size_t> unique(fine.begin(), fine.end());
  EXPECT_EQ(unique.size(), points.size());
  // k = 1: single cluster.
  const auto coarse = hac.cut(1);
  for (std::size_t l : coarse) EXPECT_EQ(l, 0u);
  EXPECT_THROW(hac.cut(0), InvalidArgument);
  EXPECT_THROW(hac.cut(points.size() + 1), InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, HacLinkageTest,
                         ::testing::Values(Linkage::kSingle,
                                           Linkage::kComplete,
                                           Linkage::kAverage, Linkage::kWard));

TEST(Hac, SingleLinkageHeightsMonotone) {
  const auto points = three_blobs(8, 9);
  Hac hac(points, Linkage::kSingle);
  const auto& h = hac.merge_heights();
  for (std::size_t i = 1; i < h.size(); ++i) EXPECT_GE(h[i], h[i - 1] - 1e-9);
}

TEST(Hac, SinglePointDataset) {
  const std::vector<std::vector<float>> points{{1.0f, 2.0f}};
  Hac hac(points, Linkage::kAverage);
  EXPECT_EQ(hac.cut(1), std::vector<std::size_t>{0});
}

// ---- Hac as it was before each row cached its nearest partner: the
// Lance–Williams coefficients, the constructor's full closest-pair scan and
// cut()'s union-find replay, verbatim but for the merges living in a
// returned struct, kept as the reference.

// Lance–Williams coefficients: d(k, i∪j) = ai*d(ki) + aj*d(kj) + b*d(ij)
// + g*|d(ki) - d(kj)|. Ward operates on squared Euclidean distances.
struct LwCoeffs {
  double ai, aj, b, g;
};

LwCoeffs lw_coeffs(Linkage linkage, double ni, double nj, double nk) {
  switch (linkage) {
    case Linkage::kSingle: return {0.5, 0.5, 0.0, -0.5};
    case Linkage::kComplete: return {0.5, 0.5, 0.0, 0.5};
    case Linkage::kAverage:
      return {ni / (ni + nj), nj / (ni + nj), 0.0, 0.0};
    case Linkage::kWard: {
      const double denom = ni + nj + nk;
      return {(ni + nk) / denom, (nj + nk) / denom, -nk / denom, 0.0};
    }
  }
  return {0.5, 0.5, 0.0, 0.0};
}

struct ReferenceDendrogram {
  std::vector<std::pair<std::size_t, std::size_t>> merges;
  std::vector<double> heights;
};

ReferenceDendrogram reference_hac(
    const std::vector<std::vector<float>>& points, Linkage linkage) {
  const std::size_t n_ = points.size();
  ReferenceDendrogram out;
  auto& merges_ = out.merges;
  auto& heights_ = out.heights;
  const bool squared = (linkage == Linkage::kWard);
  DistanceMatrix dist = DistanceMatrix::build(points, squared);

  // active[i]: current cluster id occupying slot i (or SIZE_MAX when merged
  // away). Slots reuse the distance matrix rows.
  std::vector<bool> alive(n_, true);
  std::vector<double> size(n_, 1.0);
  std::vector<std::size_t> cluster_id(n_);
  std::iota(cluster_id.begin(), cluster_id.end(), 0);

  merges_.reserve(n_ > 0 ? n_ - 1 : 0);
  heights_.reserve(n_ > 0 ? n_ - 1 : 0);

  for (std::size_t step = 0; step + 1 < n_; ++step) {
    // Find the closest alive pair.
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!alive[i]) continue;
      for (std::size_t j = i + 1; j < n_; ++j) {
        if (!alive[j]) continue;
        if (dist.at(i, j) < best) {
          best = dist.at(i, j);
          bi = i;
          bj = j;
        }
      }
    }
    merges_.push_back({cluster_id[bi], cluster_id[bj]});
    heights_.push_back(squared ? std::sqrt(std::max(0.0, best)) : best);

    // Merge bj into bi; update distances via Lance–Williams.
    const double ni = size[bi], nj = size[bj];
    for (std::size_t k = 0; k < n_; ++k) {
      if (!alive[k] || k == bi || k == bj) continue;
      const LwCoeffs c = lw_coeffs(linkage, ni, nj, size[k]);
      const double dki = dist.at(k, bi);
      const double dkj = dist.at(k, bj);
      const double dij = dist.at(bi, bj);
      dist.set(k, bi,
               c.ai * dki + c.aj * dkj + c.b * dij + c.g * std::abs(dki - dkj));
    }
    alive[bj] = false;
    size[bi] = ni + nj;
    cluster_id[bi] = n_ + step;  // dendrogram node id
  }
  return out;
}

std::vector<std::size_t> reference_cut(const ReferenceDendrogram& dendrogram,
                                       std::size_t n_, std::size_t k) {
  const auto& merges = dendrogram.merges;
  NS_REQUIRE(k >= 1 && k <= n_, "cut: k " << k << " out of [1," << n_ << "]");
  // Replay the first n_-k merges through a union-find.
  std::vector<std::size_t> parent(2 * n_);
  std::iota(parent.begin(), parent.end(), 0);
  const std::function<std::size_t(std::size_t)> find =
      [&](std::size_t x) -> std::size_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t step = 0; step < n_ - k; ++step) {
    const std::size_t node = n_ + step;
    parent[find(merges[step].first)] = node;
    parent[find(merges[step].second)] = node;
  }
  // Compact labels in first-appearance order. A hash map keeps the
  // compaction O(n); a linear scan over the seen roots would make cut()
  // O(n*k), which the silhouette sweep calls k_max times.
  std::vector<std::size_t> labels(n_);
  std::unordered_map<std::size_t, std::size_t> root_label;
  root_label.reserve(k);
  for (std::size_t i = 0; i < n_; ++i) {
    const auto [it, inserted] =
        root_label.try_emplace(find(i), root_label.size());
    labels[i] = it->second;
  }
  NS_CHECK(root_label.size() == k,
           "cut produced " << root_label.size() << " clusters, expected "
                           << k);
  return labels;
}


/// n points in 3-D on a small integer grid (many equal distances), or with
/// Gaussian coordinates when `continuous`; every third point from the
/// fourth on repeats an earlier one (distance 0).
std::vector<std::vector<float>> tied_points(std::size_t n, bool continuous,
                                            Rng& rng) {
  std::vector<std::vector<float>> points;
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= 3 && i % 3 == 0) {
      points.push_back(points[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
      continue;
    }
    std::vector<float> p(3);
    for (float& x : p)
      x = continuous ? static_cast<float>(rng.gaussian())
                     : static_cast<float>(rng.uniform_int(0, 3));
    points.push_back(std::move(p));
  }
  return points;
}

TEST(HacEquivalence, MatchesFullScanReferenceWithTies) {
  Rng rng(12);
  for (const Linkage linkage : {Linkage::kSingle, Linkage::kComplete,
                                Linkage::kAverage, Linkage::kWard})
    for (const std::size_t n : {1, 2, 3, 50, 300})
      for (const bool continuous : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "linkage " << static_cast<int>(linkage) << " n " << n
                     << " continuous " << continuous);
        const auto points = tied_points(n, continuous, rng);
        const Hac hac(points, linkage);
        const ReferenceDendrogram want = reference_hac(points, linkage);
        const std::vector<double>& heights = hac.merge_heights();
        ASSERT_EQ(heights.size(), want.heights.size());
        for (std::size_t s = 0; s < heights.size(); ++s)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(heights[s]),
                    std::bit_cast<std::uint64_t>(want.heights[s]))
              << "merge " << s;
        // cut(k) replays the first n - k merges, so equal cuts at every k
        // mean the same clusters merged at every step.
        for (std::size_t k = 1; k <= n; ++k)
          ASSERT_EQ(hac.cut(k), reference_cut(want, n, k)) << "k " << k;
      }
}

TEST(Silhouette, PerfectSeparationNearOne) {
  const std::size_t per_blob = 10;
  const auto points = three_blobs(per_blob, 10, 0.05);
  const auto dist = DistanceMatrix::build(points);
  std::vector<std::size_t> labels(points.size());
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i / per_blob;
  EXPECT_GT(silhouette_score(dist, labels), 0.95);
}

TEST(Silhouette, RandomLabelsScoreLow) {
  const auto points = three_blobs(10, 11);
  const auto dist = DistanceMatrix::build(points);
  Rng rng(12);
  std::vector<std::size_t> labels(points.size());
  for (auto& l : labels) l = static_cast<std::size_t>(rng.uniform_int(0, 2));
  EXPECT_LT(silhouette_score(dist, labels), 0.3);
}

TEST(Silhouette, SingleClusterIsZero) {
  const auto points = three_blobs(5, 13);
  const auto dist = DistanceMatrix::build(points);
  const std::vector<std::size_t> labels(points.size(), 0);
  EXPECT_EQ(silhouette_score(dist, labels), 0.0);
}

TEST(Silhouette, HandComputedTwoClusters) {
  // Points 0,1 at distance 1; points 2,3 at distance 1; clusters 8 apart.
  const std::vector<std::vector<float>> points{{0, 0}, {1, 0}, {8, 0}, {9, 0}};
  const auto dist = DistanceMatrix::build(points);
  const std::vector<std::size_t> labels{0, 0, 1, 1};
  // For point 0: a=1, b=(8+9)/2=8.5 -> s=(8.5-1)/8.5. Symmetric for others
  // with b=(7+8)/2=7.5 for point 1 etc.
  const double s0 = (8.5 - 1.0) / 8.5;
  const double s1 = (7.5 - 1.0) / 7.5;
  const double expected = (2 * s0 + 2 * s1) / 4.0;
  EXPECT_NEAR(silhouette_score(dist, labels), expected, 1e-9);
}

TEST(AutoK, FindsThreeForThreeBlobs) {
  const auto points = three_blobs(10, 14);
  Hac hac(points, Linkage::kAverage);
  const auto dist = DistanceMatrix::build(points);
  const auto result = choose_k_by_silhouette(hac, dist, 2, 10);
  EXPECT_EQ(result.k, 3u);
  EXPECT_GT(result.silhouette, 0.8);
  EXPECT_TRUE(matches_blobs(result.labels, 10));
}

TEST(KMeans, RecoversBlobs) {
  const std::size_t per_blob = 15;
  const auto points = three_blobs(per_blob, 15);
  Rng rng(16);
  const auto result = kmeans(points, 3, rng);
  EXPECT_TRUE(matches_blobs(result.labels, per_blob));
  EXPECT_EQ(result.centroids.size(), 3u);
  EXPECT_LT(result.inertia / points.size(), 1.0);
}

TEST(KMeans, KEqualsNTrivial) {
  const std::vector<std::vector<float>> points{{0, 0}, {5, 5}, {9, 1}};
  Rng rng(17);
  const auto result = kmeans(points, 3, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

TEST(KMeans, InvalidKRejected) {
  const std::vector<std::vector<float>> points{{0, 0}};
  Rng rng(18);
  EXPECT_THROW(kmeans(points, 2, rng), InvalidArgument);
  EXPECT_THROW(kmeans({}, 1, rng), InvalidArgument);
}

TEST(Gmm, FitsAndAssignsBlobs) {
  const std::size_t per_blob = 30;
  const auto points = three_blobs(per_blob, 19);
  Rng rng(20);
  BayesianGmm gmm(3);
  gmm.fit(points, rng);
  ASSERT_TRUE(gmm.fitted());
  // Points in the same blob get the same component.
  for (std::size_t blob = 0; blob < 3; ++blob) {
    const std::size_t expected = gmm.assign(points[blob * per_blob]);
    for (std::size_t i = 1; i < per_blob; ++i)
      EXPECT_EQ(gmm.assign(points[blob * per_blob + i]), expected);
  }
}

TEST(Gmm, PrunesExcessComponents) {
  // One tight blob, but 6 allowed components: pruning should collapse most.
  Rng data_rng(21);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 100; ++i)
    points.push_back({static_cast<float>(data_rng.gaussian(5, 0.2)),
                      static_cast<float>(data_rng.gaussian(5, 0.2))});
  Rng rng(22);
  BayesianGmm gmm(6, /*dirichlet_alpha=*/1.0, /*prune_weight=*/0.05);
  gmm.fit(points, rng, 80);
  EXPECT_LT(gmm.components().size(), 6u);
}

TEST(Gmm, MahalanobisSeparatesInliersFromOutliers) {
  const auto points = three_blobs(30, 23);
  Rng rng(24);
  BayesianGmm gmm(4);
  gmm.fit(points, rng);
  const std::vector<float> inlier{0.1f, -0.1f};
  const std::vector<float> outlier{50.0f, 50.0f};
  EXPECT_LT(gmm.mahalanobis_score(inlier), 5.0);
  EXPECT_GT(gmm.mahalanobis_score(outlier),
            gmm.mahalanobis_score(inlier) * 10.0);
  EXPECT_GT(gmm.log_likelihood(inlier), gmm.log_likelihood(outlier));
}

TEST(Gmm, ScoreBeforeFitThrows) {
  BayesianGmm gmm;
  const std::vector<float> x{0, 0};
  EXPECT_THROW(gmm.mahalanobis_score(x), InvalidArgument);
}

}  // namespace
}  // namespace ns
