#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "cluster/distance.hpp"
#include "cluster/gmm.hpp"
#include "cluster/hac.hpp"
#include "cluster/kmeans.hpp"
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
