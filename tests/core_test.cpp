#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <limits>
#include <numeric>

#include "core/nodesentry.hpp"
#include "eval/metrics.hpp"
#include "sim/dataset_builder.hpp"

namespace ns {
namespace {

// Small simulated cluster reused across tests (built once: fitting is the
// expensive part).
class NodeSentryFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimDatasetConfig sim_config = d2_sim_config(0.6, 7);
    sim_config.anomaly_ratio = 0.01;  // denser anomalies for stable tests
    sim_ = new SimDataset(build_sim_dataset(sim_config));
    NodeSentryConfig config = fast_config();
    sentry_ = new NodeSentry(config);
    fit_report_ = sentry_->fit(sim_->data, sim_->train_end);
    detect_report_ = new NodeSentry::DetectReport(sentry_->detect());
  }

  static void TearDownTestSuite() {
    delete detect_report_;
    delete sentry_;
    delete sim_;
    detect_report_ = nullptr;
    sentry_ = nullptr;
    sim_ = nullptr;
  }

  static NodeSentryConfig fast_config() {
    NodeSentryConfig config;
    config.model.d_model = 24;
    config.model.num_layers = 2;
    config.model.num_heads = 2;
    config.model.ffn_hidden = 32;
    config.train_epochs = 3;
    config.learning_rate = 3e-3f;
    config.max_tokens_per_segment = 96;
    config.train_window = 32;
    config.match_period = 60;
    config.threshold_window = 40;
    config.k_max = 8;
    config.seed = 99;
    return config;
  }

  static SimDataset* sim_;
  static NodeSentry* sentry_;
  static NodeSentry::FitReport fit_report_;
  static NodeSentry::DetectReport* detect_report_;
};

SimDataset* NodeSentryFixture::sim_ = nullptr;
NodeSentry* NodeSentryFixture::sentry_ = nullptr;
NodeSentry::FitReport NodeSentryFixture::fit_report_;
NodeSentry::DetectReport* NodeSentryFixture::detect_report_ = nullptr;

TEST_F(NodeSentryFixture, FitBuildsClusters) {
  EXPECT_GT(fit_report_.num_segments, 10u);
  EXPECT_GE(fit_report_.num_clusters, 2u);
  EXPECT_GT(fit_report_.metrics_after_reduction, 5u);
  // Reduction: far fewer metrics than the raw catalog.
  EXPECT_LT(fit_report_.metrics_after_reduction,
            sim_->data.num_metrics() / 2);
  EXPECT_GT(fit_report_.silhouette, 0.0);
  // detect() ran with incremental updates, which never add a cluster.
  EXPECT_EQ(sentry_->library().size(), fit_report_.num_clusters);
}

TEST_F(NodeSentryFixture, ClustersHaveModelsWeightsMembers) {
  for (const auto& entry : sentry_->library().clusters()) {
    EXPECT_NE(entry.model, nullptr);
    EXPECT_FALSE(entry.members.empty());
    EXPECT_LE(entry.members.size(),
              sentry_->config().segments_per_cluster);
    EXPECT_EQ(entry.metric_weights.numel(),
              sentry_->processed().num_metrics());
    // Weights normalized to mean ~1 and positive.
    double sum = 0.0;
    for (float w : entry.metric_weights.flat()) {
      EXPECT_GT(w, 0.0f);
      sum += w;
    }
    EXPECT_NEAR(sum / entry.metric_weights.numel(), 1.0, 1e-3);
    EXPECT_GT(entry.training_tokens, 0u);
  }
}

TEST_F(NodeSentryFixture, DetectScoresTestRegionOnly) {
  const auto& detections = detect_report_->detections;
  ASSERT_EQ(detections.size(), sim_->data.num_nodes());
  for (const auto& det : detections) {
    for (std::size_t t = 0; t < sim_->train_end; ++t) {
      EXPECT_EQ(det.scores[t], 0.0f);
      EXPECT_EQ(det.predictions[t], 0);
    }
  }
  EXPECT_GT(detect_report_->scored_points, 0u);
  EXPECT_GT(detect_report_->segments_matched, 0u);
}

TEST_F(NodeSentryFixture, DetectionQualityBeatsChance) {
  std::vector<std::vector<std::uint8_t>> masks;
  for (std::size_t n = 0; n < sim_->data.num_nodes(); ++n)
    masks.push_back(evaluation_mask(sim_->data.jobs[n],
                                    sim_->data.num_timestamps(),
                                    sim_->train_end, /*guard_steps=*/4));
  const DetectionMetrics m =
      aggregate_nodes(detect_report_->detections, sim_->data.labels, masks);
  // The full benches measure absolute quality; here we just require the
  // pipeline to be far better than random on the dense-anomaly fixture.
  EXPECT_GT(m.auc, 0.7);
  EXPECT_GT(m.recall, 0.3);
  EXPECT_GT(m.f1, 0.2);
}

TEST_F(NodeSentryFixture, AnomalousPointsScoreHigherThanNormal) {
  double anomaly_score = 0.0, normal_score = 0.0;
  std::size_t anomaly_count = 0, normal_count = 0;
  for (std::size_t n = 0; n < sim_->data.num_nodes(); ++n) {
    const auto& det = detect_report_->detections[n];
    for (std::size_t t = sim_->train_end; t < det.scores.size(); ++t) {
      if (sim_->data.labels[n][t]) {
        anomaly_score += det.scores[t];
        ++anomaly_count;
      } else {
        normal_score += det.scores[t];
        ++normal_count;
      }
    }
  }
  ASSERT_GT(anomaly_count, 0u);
  ASSERT_GT(normal_count, 0u);
  EXPECT_GT(anomaly_score / anomaly_count,
            2.0 * normal_score / normal_count);
}

TEST_F(NodeSentryFixture, LibrarySaveLoadRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ns_library_test").string();
  sentry_->library().save(dir);

  TransformerConfig mc = sentry_->config().model;
  mc.input_dim = sentry_->processed().num_metrics();
  mc.max_segments =
      std::max<std::size_t>(sentry_->config().segments_per_cluster, 2);
  mc.max_position = std::max<std::size_t>(
      mc.max_position, sentry_->config().max_tokens_per_segment);
  ClusterLibrary restored;
  restored.load(dir, mc, 5);
  ASSERT_EQ(restored.size(), sentry_->library().size());
  for (std::size_t c = 0; c < restored.size(); ++c) {
    const auto& a = sentry_->library().clusters()[c];
    const auto& b = restored.clusters()[c];
    EXPECT_EQ(a.centroid, b.centroid);
    EXPECT_DOUBLE_EQ(a.radius, b.radius);
    const auto pa = a.model->parameters();
    const auto pb = b.model->parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
      for (std::size_t j = 0; j < pa[i].value().numel(); ++j)
        ASSERT_EQ(pa[i].value().at(j), pb[i].value().at(j));
  }
  std::filesystem::remove_all(dir);
}

TEST_F(NodeSentryFixture, MatchFindsOwnCentroid) {
  const auto& clusters = sentry_->library().clusters();
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const MatchResult m = sentry_->library().match(
        clusters[c].centroid, sentry_->config().match_threshold_factor);
    EXPECT_EQ(m.cluster, c);
    EXPECT_TRUE(m.matched);
    EXPECT_NEAR(m.distance, 0.0, 1e-6);
  }
}

TEST(Segments, TrainingSegmentsClippedToTrainRegion) {
  MtsDataset ds;
  MetricMeta meta;
  meta.name = "m";
  ds.metrics.push_back(meta);
  NodeSeries node;
  node.node_name = "n";
  node.values.push_back(std::vector<float>(100, 0.0f));
  ds.nodes.push_back(node);
  ds.jobs.push_back({JobSpan{1, 0, 40}, JobSpan{2, 40, 80}, JobSpan{3, 80, 100}});
  NodeSentryConfig config;
  config.min_segment_length = 8;
  const auto train = training_segments(ds, 60, config);
  ASSERT_EQ(train.size(), 2u);
  EXPECT_EQ(train[1].begin, 40u);
  EXPECT_EQ(train[1].end, 60u);  // clipped
  const auto test = test_segments(ds, 60, config);
  ASSERT_EQ(test.size(), 2u);
  EXPECT_EQ(test[0].begin, 60u);
  EXPECT_EQ(test[0].end, 80u);
  EXPECT_EQ(test[1].begin, 80u);
}

TEST(Segments, FixedLengthVariantIgnoresJobs) {
  MtsDataset ds;
  MetricMeta meta;
  meta.name = "m";
  ds.metrics.push_back(meta);
  NodeSeries node;
  node.values.push_back(std::vector<float>(100, 0.0f));
  ds.nodes.push_back(node);
  ds.jobs.push_back({JobSpan{1, 0, 100}});
  NodeSentryConfig config;
  config.fixed_length_segmentation = true;
  config.fixed_segment_length = 30;
  config.min_segment_length = 8;
  const auto train = training_segments(ds, 90, config);
  ASSERT_EQ(train.size(), 3u);
  EXPECT_EQ(train[0].length(), 30u);
  EXPECT_EQ(train[2].end, 90u);
}

TEST(Segments, TokensLayout) {
  MtsDataset ds;
  for (int m = 0; m < 2; ++m) {
    MetricMeta meta;
    meta.name = "m" + std::to_string(m);
    ds.metrics.push_back(meta);
  }
  NodeSeries node;
  node.values = {{1, 2, 3, 4}, {10, 20, 30, 40}};
  ds.nodes.push_back(node);
  const CoreSegment seg{0, 1, 3, 0};
  const Tensor tokens = segment_tokens(ds, seg);
  EXPECT_EQ(tokens.shape(), (Shape{2, 2}));
  EXPECT_EQ(tokens.at(0, 0), 2.0f);
  EXPECT_EQ(tokens.at(0, 1), 20.0f);
  EXPECT_EQ(tokens.at(1, 0), 3.0f);
  // Cap.
  const Tensor capped = segment_tokens(ds, CoreSegment{0, 0, 4, 0}, 2);
  EXPECT_EQ(capped.size(0), 2u);
}

// Golden clustering of two small simulated fleets: silhouette-chosen k,
// the silhouette itself and every cluster's kept members in order. Moving a
// single segment to another cluster fails, so a change to features, scaling,
// the PCA projection or HAC must reproduce these or update them knowingly.
// The silhouette tolerance absorbs last-bit float differences in the
// projection; eigenvector signs do not matter, since every consumer of the
// projected space uses Euclidean distance.
struct ExpectedClustering {
  std::size_t auto_k = 0;
  double silhouette = 0.0;
  /// Per cluster, the kept members as (node, begin, end), nearest first.
  std::vector<std::vector<std::array<std::size_t, 3>>> members;
};

void expect_pinned_clustering(const SimDatasetConfig& sim_config,
                              const ExpectedClustering& want) {
  const SimDataset sim = build_sim_dataset(sim_config);
  NodeSentryConfig config;
  config.train_epochs = 1;
  NodeSentry sentry(config);
  const NodeSentry::FitReport report = sentry.fit(sim.data, sim.train_end);
  EXPECT_EQ(sentry.auto_k(), want.auto_k);
  EXPECT_NEAR(report.silhouette, want.silhouette, 1e-6);
  const auto& clusters = sentry.library().clusters();
  ASSERT_EQ(clusters.size(), want.members.size());
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    std::vector<std::array<std::size_t, 3>> got;
    for (const CoreSegment& m : clusters[c].members)
      got.push_back({m.node, m.begin, m.end});
    EXPECT_EQ(got, want.members[c]) << "cluster " << c;
  }
}

TEST(PinnedClustering, D1Sim) {
  expect_pinned_clustering(
      d1_sim_config(0.25, 5),
      {8,
       0.37186231174151063,
       {{{2, 289, 350}, {0, 399, 432}, {2, 350, 387}, {0, 0, 78}},
        {{2, 104, 147}, {7, 104, 147}, {6, 202, 225}, {6, 271, 304}},
        {{0, 99, 136}, {6, 345, 391}, {6, 312, 332}, {6, 254, 271}},
        {{2, 25, 104}, {6, 79, 174}, {2, 387, 432}, {0, 136, 184}},
        {{1, 261, 295}, {2, 250, 261}, {1, 304, 349}, {0, 381, 399}},
        {{4, 117, 131}, {4, 314, 338}, {4, 170, 188}, {6, 174, 191}},
        {{1, 295, 304}, {2, 234, 250}},
        {{3, 375, 432}, {4, 338, 428}, {3, 29, 167}, {3, 364, 375}}}});
}

TEST(PinnedClustering, D2Sim) {
  expect_pinned_clustering(
      d2_sim_config(0.25, 5),
      {11,
       0.29083229033100427,
       {{{0, 0, 25}, {3, 0, 25}},
        {{0, 25, 53}, {0, 185, 204}, {0, 204, 308}},
        {{3, 102, 153}, {0, 330, 360}, {1, 139, 168}, {0, 53, 154}},
        {{1, 0, 23}, {2, 225, 264}, {3, 299, 313}, {0, 154, 185}},
        {{0, 321, 330}},
        {{1, 23, 74}, {2, 0, 64}, {2, 264, 332}, {3, 53, 102}},
        {{1, 74, 82}},
        {{3, 249, 299}, {3, 25, 53}, {3, 217, 249}, {1, 325, 344}},
        {{2, 64, 129}, {1, 99, 131}},
        {{1, 131, 139}},
        {{3, 153, 217}, {1, 168, 205}}}});
}

// Golden detect() runs with §3.5 adaptation on: a 64-bit FNV-1a hash over
// every node's score bytes, then its prediction bytes, plus the report's
// counters. Matching, fine-tune triggers and the scoring arithmetic all
// feed the hash, so a change to any of them (or to the order adaptation
// runs in) must reproduce these or update them knowingly.
// The hashes hold for -O2 builds (the default RelWithDebInfo and the
// sanitizer presets): the batched trainer's AVX2/FMA kernels round
// differently at -O3.
struct ExpectedDetection {
  std::uint64_t hash = 0;
  std::size_t matched = 0;
  std::size_t unmatched = 0;
  std::size_t finetunes = 0;
  std::size_t scored_points = 0;
};

std::uint64_t detection_hash(const std::vector<NodeDetection>& detections) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const NodeDetection& det : detections) {
    mix(det.scores.data(), det.scores.size() * sizeof(float));
    mix(det.predictions.data(), det.predictions.size());
  }
  return h;
}

/// The benches' configuration (bench_nodesentry_config()).
NodeSentryConfig bench_config() {
  NodeSentryConfig config;
  config.train_epochs = 10;
  config.learning_rate = 3e-3f;
  return config;
}

void expect_pinned_detection(const SimDatasetConfig& sim_config,
                             const NodeSentryConfig& config,
                             const ExpectedDetection& want) {
  const SimDataset sim = build_sim_dataset(sim_config);
  NodeSentry sentry(config);
  sentry.fit(sim.data, sim.train_end);
  const NodeSentry::DetectReport report = sentry.detect();
  EXPECT_EQ(detection_hash(report.detections), want.hash)
      << std::hex << detection_hash(report.detections);
  EXPECT_EQ(report.segments_matched, want.matched);
  EXPECT_EQ(report.segments_unmatched, want.unmatched);
  EXPECT_EQ(report.incremental_finetunes, want.finetunes);
  EXPECT_EQ(report.scored_points, want.scored_points);
}

TEST(PinnedDetect, D2Sim) {
  expect_pinned_detection(d2_sim_config(0.25, 5), bench_config(),
                          {0x23fc6b5ea6575391ull, 26, 3, 3, 958});
}

TEST(PinnedDetect, D2SimManyUnmatchedAndTunes) {
  NodeSentryConfig config = bench_config();
  config.match_threshold_factor = 1.0;
  config.finetune_trigger = 1.5;
  expect_pinned_detection(d2_sim_config(0.25, 5), config,
                          {0xc332fbc96372108dull, 15, 14, 3, 958});
}

TEST(PinnedDetect, DeploymentSimMaskedCells) {
  expect_pinned_detection(deployment_sim_config(33), bench_config(),
                          {0x8fd4d9be94c7f540ull, 66, 7, 9, 7679});
}

// A tight match threshold leaves many test patterns unmatched. detect()
// scores them on their nearest cluster and adds nothing to the library:
// the fitted clusters and their centroids are exactly as fit() left them.
TEST(IncrementalDetect, DetectNeverGrowsTheLibrary) {
  const SimDataset sim = build_sim_dataset(d2_sim_config(0.25, 5));
  NodeSentryConfig config = bench_config();
  config.match_threshold_factor = 1.0;
  NodeSentry sentry(config);
  sentry.fit(sim.data, sim.train_end);
  std::vector<std::vector<float>> centroids;
  for (const ClusterEntry& entry : sentry.library().clusters())
    centroids.push_back(entry.centroid);
  const NodeSentry::DetectReport report = sentry.detect();
  ASSERT_GT(report.segments_unmatched, 0u);
  ASSERT_EQ(sentry.library().size(), centroids.size());
  for (std::size_t c = 0; c < centroids.size(); ++c)
    EXPECT_EQ(sentry.library().clusters()[c].centroid, centroids[c])
        << "cluster " << c;
}

// With a fine-tune trigger no matching window reaches, adaptation on has
// nothing left to do: unmatched segments score on their nearest cluster
// exactly as with adaptation off.
TEST(IncrementalDetect, UnmatchedSegmentsScoreLikeAdaptationOff) {
  const SimDataset sim = build_sim_dataset(d2_sim_config(0.25, 5));
  NodeSentryConfig on = bench_config();
  on.match_threshold_factor = 1.0;
  on.incremental_updates = true;
  on.finetune_trigger = std::numeric_limits<double>::infinity();
  NodeSentryConfig off = on;
  off.incremental_updates = false;
  NodeSentry adapting(on), frozen(off);
  adapting.fit(sim.data, sim.train_end);
  frozen.fit(sim.data, sim.train_end);
  const NodeSentry::DetectReport a = adapting.detect();
  const NodeSentry::DetectReport b = frozen.detect();
  ASSERT_GT(a.segments_unmatched, 0u);
  EXPECT_EQ(a.incremental_finetunes, 0u);
  EXPECT_EQ(a.segments_matched, b.segments_matched);
  EXPECT_EQ(a.segments_unmatched, b.segments_unmatched);
  EXPECT_EQ(a.scored_points, b.scored_points);
  EXPECT_EQ(detection_hash(a.detections), detection_hash(b.detections));
}

TEST(KSigma, FlagsSpikeAboveThreshold) {
  std::vector<float> scores(100, 1.0f);
  for (std::size_t i = 0; i < scores.size(); ++i)
    scores[i] += 0.01f * static_cast<float>(i % 5);  // small variation
  scores[60] = 10.0f;  // spike
  const auto flags = ksigma_flags(scores, 10, 100, 30, 3.0);
  EXPECT_EQ(flags[60], 1);
  // Nothing before the monitored range.
  for (std::size_t t = 0; t < 10; ++t) EXPECT_EQ(flags[t], 0);
  // The quiet region stays quiet.
  std::size_t flagged = std::accumulate(flags.begin(), flags.end(), 0u);
  EXPECT_LE(flagged, 3u);
}

TEST(KSigma, HigherKFlagsLess) {
  Rng rng(5);
  std::vector<float> scores(300);
  for (auto& s : scores) s = static_cast<float>(std::abs(rng.gaussian()));
  const auto loose = ksigma_flags(scores, 20, 300, 50, 1.0);
  const auto strict = ksigma_flags(scores, 20, 300, 50, 4.0);
  const auto count = [](const std::vector<std::uint8_t>& f) {
    return std::accumulate(f.begin(), f.end(), 0u);
  };
  EXPECT_GT(count(loose), count(strict));
}

TEST(KSigma, ColdStartDoesNotFlag) {
  std::vector<float> scores{100.0f, 100.0f, 100.0f, 100.0f, 100.0f};
  const auto flags = ksigma_flags(scores, 0, 5, 10, 3.0);
  for (auto f : flags) EXPECT_EQ(f, 0);  // fewer than 8 history samples
}

}  // namespace
}  // namespace ns
