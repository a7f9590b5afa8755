// Additional edge-case coverage for the core pipeline pieces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "core/cluster_library.hpp"
#include "core/nodesentry.hpp"
#include "sim/dataset_builder.hpp"

namespace ns {
namespace {

TEST(ClusterLibraryEdge, MatchOnEmptyLibraryThrows) {
  ClusterLibrary library;
  EXPECT_THROW(library.match({1.0f, 2.0f}, 2.0), InvalidArgument);
}

TEST(ClusterLibraryEdge, UnmatchedWhenFarBeyondRadius) {
  ClusterLibrary library;
  ClusterEntry entry;
  entry.centroid = {0.0f, 0.0f};
  entry.radius = 1.0;
  library.clusters().push_back(std::move(entry));
  const MatchResult near = library.match({0.5f, 0.5f}, 2.0);
  EXPECT_TRUE(near.matched);
  const MatchResult far = library.match({100.0f, 100.0f}, 2.0);
  EXPECT_FALSE(far.matched);
  EXPECT_EQ(far.cluster, 0u);  // still reports the nearest cluster
}

TEST(ClusterLibraryEdge, ZeroRadiusClusterStillMatchesItself) {
  // A singleton cluster has radius 0; its own centroid must match.
  ClusterLibrary library;
  ClusterEntry entry;
  entry.centroid = {3.0f};
  entry.radius = 0.0;
  library.clusters().push_back(std::move(entry));
  EXPECT_TRUE(library.match({3.0f}, 2.5).matched);
}

TEST(ClusterLibraryEdge, NearestMemberPicksClosest) {
  ClusterLibrary library;
  ClusterEntry entry;
  entry.centroid = {0.0f};
  entry.member_features = {{0.0f}, {5.0f}, {10.0f}};
  library.clusters().push_back(std::move(entry));
  EXPECT_EQ(library.nearest_member(0, {6.0f}), 1u);
  EXPECT_EQ(library.nearest_member(0, {-1.0f}), 0u);
  EXPECT_THROW(library.nearest_member(5, {0.0f}), InvalidArgument);
}

TEST(ClusterLibraryEdge, ScaleWithoutFittedScalerIsIdentity) {
  ClusterLibrary library;
  const std::vector<float> raw{1.0f, 2.0f};
  EXPECT_EQ(library.scale(raw), raw);
}

class ModelTokensTest : public ::testing::Test {
 protected:
  static MtsDataset two_metric_dataset() {
    MtsDataset ds;
    for (int m = 0; m < 2; ++m) {
      MetricMeta meta;
      meta.name = "m" + std::to_string(m);
      ds.metrics.push_back(meta);
    }
    NodeSeries node;
    node.node_name = "n";
    node.values.assign(2, std::vector<float>(40));
    for (std::size_t t = 0; t < 40; ++t) {
      node.values[0][t] = t < 20 ? 10.0f : 14.0f;
      node.values[1][t] = std::sin(0.4f * static_cast<float>(t));
    }
    ds.nodes.push_back(node);
    ds.jobs.push_back({JobSpan{1, 0, 40}});
    return ds;
  }

  static NodeSentryConfig tiny_config() {
    NodeSentryConfig config;
    config.model.d_model = 12;
    config.model.num_heads = 2;
    config.model.num_layers = 1;
    config.train_epochs = 1;
    config.match_period = 8;  // leading window = first 8 steps
    return config;
  }
};

TEST_F(ModelTokensTest, CenteringSubtractsLeadingWindowMean) {
  NodeSentryConfig config = tiny_config();
  config.center_tokens = true;
  NodeSentry sentry(config);
  MtsDataset ds = two_metric_dataset();
  sentry.fit(ds, 40);
  const Tensor tokens = sentry.model_tokens(CoreSegment{0, 0, 40, 1});
  // Leading window of the processed data has mean ~0 after centering.
  for (std::size_t m = 0; m < 2; ++m) {
    double lead_mean = 0.0;
    for (std::size_t t = 0; t < 8; ++t) lead_mean += tokens.at(t, m);
    EXPECT_NEAR(lead_mean / 8.0, 0.0, 1e-4) << "metric " << m;
  }
}

TEST_F(ModelTokensTest, CenteringDisabledKeepsValues) {
  NodeSentryConfig config = tiny_config();
  config.center_tokens = false;
  NodeSentry sentry(config);
  MtsDataset ds = two_metric_dataset();
  sentry.fit(ds, 40);
  const Tensor with_cap = sentry.model_tokens(CoreSegment{0, 0, 40, 1}, 16);
  EXPECT_EQ(with_cap.size(0), 16u);
  // Values equal the processed series directly.
  EXPECT_FLOAT_EQ(with_cap.at(0, 0),
                  sentry.processed().nodes[0].values[0][0]);
}

TEST(NodeSentryEdge, DetectBeforeFitThrows) {
  NodeSentry sentry(NodeSentryConfig{});
  EXPECT_THROW(sentry.detect(), InvalidArgument);
}

TEST(NodeSentryEdge, FitRejectsBadTrainEnd) {
  SimDatasetConfig config = d2_sim_config(0.25, 77);
  const SimDataset sim = build_sim_dataset(config);
  NodeSentry sentry(NodeSentryConfig{});
  EXPECT_THROW(sentry.fit(sim.data, 0), InvalidArgument);
  EXPECT_THROW(sentry.fit(sim.data, sim.data.num_timestamps() + 5),
               InvalidArgument);
}

TEST(NodeSentryEdge, DeterministicAcrossRuns) {
  SimDatasetConfig sim_config = d2_sim_config(0.4, 88);
  sim_config.anomaly_ratio = 0.02;
  const SimDataset sim = build_sim_dataset(sim_config);
  NodeSentryConfig config;
  config.train_epochs = 2;
  config.model.num_layers = 1;
  config.model.d_model = 12;
  config.model.num_heads = 2;
  config.seed = 31337;
  auto run_once = [&] {
    NodeSentry sentry(config);
    sentry.fit(sim.data, sim.train_end);
    return sentry.detect();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t n = 0; n < a.detections.size(); ++n) {
    EXPECT_EQ(a.detections[n].predictions, b.detections[n].predictions);
    for (std::size_t t = 0; t < a.detections[n].scores.size(); ++t)
      ASSERT_EQ(a.detections[n].scores[t], b.detections[n].scores[t]);
  }
}

// ------------------------------------------------ k-sigma threshold edges

constexpr float kNaNf = std::numeric_limits<float>::quiet_NaN();
constexpr float kInff = std::numeric_limits<float>::infinity();

TEST(KsigmaEdge, WindowZeroThrows) {
  const std::vector<float> scores(20, 1.0f);
  EXPECT_THROW(ksigma_flags(scores, 0, 20, 0, 3.0), InvalidArgument);
}

TEST(KsigmaEdge, BadRangeThrows) {
  const std::vector<float> scores(20, 1.0f);
  EXPECT_THROW(ksigma_flags(scores, 10, 5, 4, 3.0), InvalidArgument);
  EXPECT_THROW(ksigma_flags(scores, 0, 21, 4, 3.0), InvalidArgument);
}

TEST(KsigmaEdge, EmptyRangeIsAllZeros) {
  const std::vector<float> scores(20, 5.0f);
  const auto flags = ksigma_flags(scores, 7, 7, 4, 3.0);
  EXPECT_EQ(std::count(flags.begin(), flags.end(), 1), 0);
}

TEST(KsigmaEdge, WindowLargerThanSeriesStillFlagsSpike) {
  std::vector<float> scores(30, 1.0f);
  scores[25] = 100.0f;
  const auto flags = ksigma_flags(scores, 0, 30, 1000, 3.0, 0.2);
  EXPECT_EQ(flags[25], 1);
  EXPECT_EQ(std::count(flags.begin(), flags.end(), 1), 1);
}

TEST(KsigmaEdge, ZeroVarianceWindowDoesNotSelfFlag) {
  // A perfectly flat window must not flag its own continuation, but a
  // genuine jump out of the flat window must still trigger.
  std::vector<float> flat(40, 2.0f);
  const auto none = ksigma_flags(flat, 0, 40, 10, 3.0, 0.2);
  EXPECT_EQ(std::count(none.begin(), none.end(), 1), 0);
  flat[35] = 10.0f;
  const auto one = ksigma_flags(flat, 0, 40, 10, 3.0, 0.2);
  EXPECT_EQ(one[35], 1);
}

TEST(KsigmaEdge, NonFiniteScoresNeverFlaggedNorPoisoning) {
  std::vector<float> scores(60, 1.0f);
  for (std::size_t t = 20; t < 30; ++t) scores[t] = kNaNf;
  scores[30] = kInff;
  scores[50] = 100.0f;  // genuine spike after the corrupted stretch
  const auto flags = ksigma_flags(scores, 0, 60, 15, 3.0, 0.2);
  for (std::size_t t = 20; t <= 30; ++t) EXPECT_EQ(flags[t], 0) << t;
  // The NaN burst must not have wiped the statistics: the later real
  // spike is still caught.
  EXPECT_EQ(flags[50], 1);
  EXPECT_EQ(std::count(flags.begin(), flags.end(), 1), 1);
}

// ------------------------------------------------- causal median filter

TEST(MedianFilterEdge, WidthOneAndEmptyInputPassThrough) {
  const std::vector<float> scores{3.0f, 1.0f, 2.0f};
  EXPECT_EQ(causal_median_filter(scores, 1), scores);
  EXPECT_TRUE(causal_median_filter({}, 5).empty());
}

TEST(MedianFilterEdge, WidthLargerThanSeriesUsesPrefix) {
  const std::vector<float> scores{1.0f, 3.0f, 2.0f};
  const auto out = causal_median_filter(scores, 100);
  EXPECT_EQ(out[0], 1.0f);  // median{1}
  EXPECT_EQ(out[1], 3.0f);  // median{1,3} -> upper middle
  EXPECT_EQ(out[2], 2.0f);  // median{1,2,3}
}

TEST(MedianFilterEdge, RemovesSingleSpikeKeepsPlateau) {
  std::vector<float> scores(20, 1.0f);
  scores[10] = 50.0f;  // lone spike: filtered out
  for (std::size_t t = 14; t < 20; ++t) scores[t] = 50.0f;  // real plateau
  const auto out = causal_median_filter(scores, 3);
  EXPECT_EQ(out[10], 1.0f);
  EXPECT_EQ(out[16], 50.0f);
}

TEST(MedianFilterEdge, NonFiniteSamplesExcludedFromWindow) {
  std::vector<float> scores{1.0f, kNaNf, 2.0f, kInff, 3.0f};
  const auto out = causal_median_filter(scores, 3);
  EXPECT_EQ(out[2], 2.0f);  // median of finite {1, 2}
  EXPECT_EQ(out[4], 3.0f);  // median of finite {2, 3}
  EXPECT_TRUE(std::isfinite(out[2]));
}

TEST(MedianFilterEdge, AllNonFiniteWindowPassesInputThrough) {
  const std::vector<float> scores{kNaNf, kNaNf, kNaNf};
  const auto out = causal_median_filter(scores, 2);
  for (float v : out) EXPECT_TRUE(std::isnan(v));
}

/// Random reconstruction/chunk pair plus WMSE statistics for one chunk.
struct ScoringInputs {
  static constexpr std::size_t kLen = 12;
  static constexpr std::size_t kMetrics = 5;
  Tensor weights{Shape{kMetrics}};
  Tensor scale;
  Tensor out;
  Tensor chunk;
  double baseline = 0.8;

  ScoringInputs() {
    Rng rng(7);
    for (std::size_t m = 0; m < kMetrics; ++m)
      weights.at(m) = 0.7f + 0.13f * static_cast<float>(m);
    scale = Tensor::rand_uniform(Shape{kMetrics}, rng, 0.5f, 2.0f);
    out = Tensor::randn(Shape{kLen, kMetrics}, rng);
    chunk = Tensor::randn(Shape{kLen, kMetrics}, rng);
  }
};

TEST(ChunkPointScores, NullMaskEqualsAllOnesMaskBytewise) {
  const ScoringInputs in;
  constexpr std::size_t kLen = ScoringInputs::kLen;
  constexpr std::size_t M = ScoringInputs::kMetrics;
  // The weights' float sum is not exactly M, so a divide-by-M form and the
  // valid-weight-mass form give different bits.
  double weight_sum = 0.0;
  for (std::size_t m = 0; m < M; ++m) weight_sum += in.weights.at(m);
  ASSERT_NE(weight_sum, static_cast<double>(M));

  const ValidityMask all_ones(1, M, kLen);
  std::vector<float> scores_null(kLen, -1.0f), scores_ones(kLen, -1.0f);
  std::vector<float> terms_null(kLen * M, -1.0f), terms_ones(kLen * M, -1.0f);
  EXPECT_EQ(chunk_point_scores(in.weights, in.scale, in.baseline, in.out,
                               in.chunk, nullptr, 0, 0, scores_null.data(),
                               terms_null.data()),
            kLen);
  EXPECT_EQ(chunk_point_scores(in.weights, in.scale, in.baseline, in.out,
                               in.chunk, &all_ones, 0, 0, scores_ones.data(),
                               terms_ones.data()),
            kLen);
  EXPECT_EQ(std::memcmp(scores_null.data(), scores_ones.data(),
                        kLen * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(terms_null.data(), terms_ones.data(),
                        kLen * M * sizeof(float)),
            0);
  for (std::size_t t = 0; t < kLen; ++t) {
    double sum = 0.0;
    for (std::size_t m = 0; m < M; ++m) sum += terms_null[t * M + m];
    EXPECT_NEAR(sum, scores_null[t], 1e-5 * std::abs(scores_null[t])) << t;
  }
  // Asking for the terms never moves a score bit.
  std::vector<float> scores_only(kLen, -1.0f);
  chunk_point_scores(in.weights, in.scale, in.baseline, in.out, in.chunk,
                     nullptr, 0, 0, scores_only.data());
  EXPECT_EQ(std::memcmp(scores_only.data(), scores_null.data(),
                        kLen * sizeof(float)),
            0);
}

TEST(ChunkPointScores, InvalidCellsCarryNoWeightOrTerm) {
  const ScoringInputs in;
  constexpr std::size_t kLen = ScoringInputs::kLen;
  constexpr std::size_t M = ScoringInputs::kMetrics;
  ValidityMask mask(1, M, kLen);
  for (std::size_t m = 0; m < M; ++m) mask.at(0, m, 3) = 0;  // dead tick
  mask.at(0, 2, 5) = 0;
  std::vector<float> scores(kLen, -1.0f), terms(kLen * M, -1.0f);
  EXPECT_EQ(chunk_point_scores(in.weights, in.scale, in.baseline, in.out,
                               in.chunk, &mask, 0, 0, scores.data(),
                               terms.data()),
            kLen - 1);
  EXPECT_EQ(scores[3], -1.0f);  // a dead timestamp keeps its score
  for (std::size_t m = 0; m < M; ++m) EXPECT_EQ(terms[3 * M + m], 0.0f);
  EXPECT_EQ(terms[5 * M + 2], 0.0f);
  // Tick 5 renormalizes over the four valid metrics' weight mass.
  double err = 0.0, weight = 0.0;
  for (std::size_t m = 0; m < M; ++m) {
    if (m == 2) continue;
    const double d = in.out.at(5, m) - in.chunk.at(5, m);
    err += in.weights.at(m) * d * d / in.scale.at(m);
    weight += in.weights.at(m);
  }
  EXPECT_EQ(scores[5], static_cast<float>(err / weight / in.baseline));
}

}  // namespace
}  // namespace ns
