#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "ts/mts.hpp"
#include "ts/preprocess.hpp"

namespace ns {
namespace {

const float kNaN = kMissingValue;

MtsDataset tiny_dataset(std::size_t nodes = 2, std::size_t metrics = 3,
                        std::size_t t = 40) {
  MtsDataset ds;
  Rng rng(42);
  for (std::size_t m = 0; m < metrics; ++m) {
    MetricMeta meta;
    meta.name = "metric_" + std::to_string(m);
    meta.semantic_group = meta.name;
    ds.metrics.push_back(meta);
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    NodeSeries series;
    series.node_name = "node-" + std::to_string(n);
    for (std::size_t m = 0; m < metrics; ++m) {
      std::vector<float> xs(t);
      for (std::size_t i = 0; i < t; ++i)
        xs[i] = static_cast<float>(std::sin(0.2 * i + m) + rng.gaussian(0, 0.1));
      series.values.push_back(std::move(xs));
    }
    ds.nodes.push_back(std::move(series));
    ds.jobs.push_back({JobSpan{1, 0, t / 2}, JobSpan{2, t / 2, t}});
    ds.labels.emplace_back(t, 0);
  }
  return ds;
}

TEST(Mts, ValidateAcceptsConsistentDataset) {
  EXPECT_NO_THROW(tiny_dataset().validate());
}

TEST(Mts, ValidateRejectsBadJobSpan) {
  MtsDataset ds = tiny_dataset();
  ds.jobs[0][1].end = 10000;
  EXPECT_THROW(ds.validate(), InvalidArgument);
}

TEST(Mts, ValidateRejectsOverlappingJobs) {
  MtsDataset ds = tiny_dataset();
  ds.jobs[0][1].begin = ds.jobs[0][0].end - 2;
  EXPECT_THROW(ds.validate(), InvalidArgument);
}

TEST(Mts, CollectSegmentsRespectsMinLength) {
  MtsDataset ds = tiny_dataset();
  ds.jobs[0] = {JobSpan{1, 0, 2}, JobSpan{2, 2, 40}};
  auto segments = collect_segments(ds, 4);
  // Node 0 contributes only its long job; node 1 contributes both.
  EXPECT_EQ(segments.size(), 3u);
}

TEST(Mts, SegmentValuesSliceCorrectly) {
  MtsDataset ds = tiny_dataset();
  auto vals = segment_values(ds, SegmentRef{1, 1});
  EXPECT_EQ(vals.size(), ds.num_metrics());
  EXPECT_EQ(vals[0].size(), 20u);
  EXPECT_EQ(vals[0][0], ds.nodes[1].values[0][20]);
}

TEST(Interpolate, FillsInteriorGapLinearly) {
  std::vector<float> xs{1.0f, kNaN, kNaN, 4.0f};
  EXPECT_EQ(interpolate_missing(xs), 2u);
  EXPECT_FLOAT_EQ(xs[1], 2.0f);
  EXPECT_FLOAT_EQ(xs[2], 3.0f);
}

TEST(Interpolate, FillsEdgesWithNearestValue) {
  std::vector<float> xs{kNaN, kNaN, 5.0f, kNaN};
  interpolate_missing(xs);
  EXPECT_FLOAT_EQ(xs[0], 5.0f);
  EXPECT_FLOAT_EQ(xs[1], 5.0f);
  EXPECT_FLOAT_EQ(xs[3], 5.0f);
}

TEST(Interpolate, AllMissingBecomesZero) {
  std::vector<float> xs{kNaN, kNaN, kNaN};
  EXPECT_EQ(interpolate_missing(xs), 3u);
  for (float x : xs) EXPECT_EQ(x, 0.0f);
}

TEST(Interpolate, NoMissingIsNoop) {
  std::vector<float> xs{1, 2, 3};
  EXPECT_EQ(interpolate_missing(xs), 0u);
}

TEST(Clean, DatasetWideInterpolation) {
  MtsDataset ds = tiny_dataset();
  ds.nodes[0].values[1][5] = kNaN;
  ds.nodes[1].values[2][0] = kNaN;
  EXPECT_EQ(clean_dataset(ds), 2u);
  EXPECT_FALSE(std::isnan(ds.nodes[0].values[1][5]));
}

TEST(Aggregate, MergesSemanticGroups) {
  MtsDataset ds;
  // Two per-core copies of "cpu_usage" plus one independent metric.
  for (int core = 0; core < 2; ++core) {
    MetricMeta meta;
    meta.name = "cpu_usage_core" + std::to_string(core);
    meta.semantic_group = "cpu_usage";
    meta.unit_id = core;
    ds.metrics.push_back(meta);
  }
  MetricMeta mem;
  mem.name = "mem_used";
  mem.semantic_group = "mem_used";
  ds.metrics.push_back(mem);
  NodeSeries node;
  node.node_name = "n0";
  node.values = {{2.0f, 4.0f}, {4.0f, 8.0f}, {1.0f, 1.0f}};
  ds.nodes.push_back(node);

  auto result = aggregate_semantics(ds);
  EXPECT_EQ(result.dataset.num_metrics(), 2u);
  EXPECT_EQ(result.dataset.metrics[0].name, "cpu_usage");
  EXPECT_FLOAT_EQ(result.dataset.nodes[0].values[0][0], 3.0f);  // (2+4)/2
  EXPECT_FLOAT_EQ(result.dataset.nodes[0].values[0][1], 6.0f);  // (4+8)/2
  EXPECT_EQ(result.sources[0].size(), 2u);
}

TEST(Prune, DropsPerfectlyCorrelatedMetric) {
  MtsDataset ds = tiny_dataset(1, 1, 32);
  // Metric 1 = exact affine copy of metric 0; metric 2 independent.
  MetricMeta m1 = ds.metrics[0];
  m1.name = "copy";
  ds.metrics.push_back(m1);
  MetricMeta m2 = ds.metrics[0];
  m2.name = "independent";
  ds.metrics.push_back(m2);
  std::vector<float> copy = ds.nodes[0].values[0];
  for (float& x : copy) x = 2.0f * x + 1.0f;
  ds.nodes[0].values.push_back(copy);
  Rng rng(9);
  std::vector<float> indep(32);
  for (float& x : indep) x = static_cast<float>(rng.gaussian());
  ds.nodes[0].values.push_back(indep);

  auto result = prune_correlated(ds, 0.99);
  EXPECT_EQ(result.kept.size(), 2u);
  EXPECT_EQ(result.kept[0], 0u);
  EXPECT_EQ(result.kept[1], 2u);
  EXPECT_EQ(result.dataset.num_metrics(), 2u);
}

TEST(Prune, ThresholdOneKeepsEverything) {
  MtsDataset ds = tiny_dataset();
  auto result = prune_correlated(ds, 1.01);
  EXPECT_EQ(result.kept.size(), ds.num_metrics());
}

// ---- prune_correlated's greedy pearson() loop as it was before each
// metric's moments were taken once, verbatim up to the kept list (its
// sampling step is split out so tests can read the sampled series), kept as
// the reference.

std::vector<std::vector<float>> reference_samples(const MtsDataset& dataset,
                                                  std::size_t sample_nodes,
                                                  std::size_t stride) {
  const std::size_t m = dataset.num_metrics();
  const std::size_t n_nodes = std::min(sample_nodes, dataset.nodes.size());

  // Build subsampled concatenated series per metric across sample nodes.
  std::vector<std::vector<float>> samples(m);
  for (std::size_t mi = 0; mi < m; ++mi) {
    for (std::size_t n = 0; n < n_nodes; ++n) {
      const auto& series = dataset.nodes[n].values[mi];
      for (std::size_t t = 0; t < series.size(); t += stride)
        samples[mi].push_back(series[t]);
    }
  }
  return samples;
}

std::vector<std::size_t> reference_prune_kept(const MtsDataset& dataset,
                                              double threshold,
                                              std::size_t sample_nodes,
                                              std::size_t stride) {
  const std::size_t m = dataset.num_metrics();
  const std::vector<std::vector<float>> samples =
      reference_samples(dataset, sample_nodes, stride);

  std::vector<std::size_t> kept;
  std::vector<bool> dropped(m, false);
  for (std::size_t a = 0; a < m; ++a) {
    if (dropped[a]) continue;
    kept.push_back(a);
    // Drop all later metrics that are near-duplicates of metric a.
    for (std::size_t b = a + 1; b < m; ++b) {
      if (dropped[b]) continue;
      if (pearson(samples[a], samples[b]) >= threshold) dropped[b] = true;
    }
  }
  return kept;
}

/// 10 nodes x 12 metrics: random walks, exact, affine and negated copies,
/// near copies, flat metrics and a mixture.
MtsDataset correlated_dataset() {
  constexpr std::size_t kMetrics = 12, kT = 301;
  MtsDataset ds = tiny_dataset(10, kMetrics, kT);
  Rng rng(77);
  for (NodeSeries& node : ds.nodes) {
    auto& v = node.values;
    double walk_a = 0.0, walk_b = 0.0;
    for (std::size_t t = 0; t < kT; ++t) {
      walk_a += rng.gaussian();
      walk_b += rng.gaussian();
      v[0][t] = static_cast<float>(walk_a);
      v[1][t] = 2.5f * v[0][t] - 3.0f;
      v[2][t] = static_cast<float>(walk_b);
      v[3][t] = v[2][t] + static_cast<float>(rng.gaussian(0.0, 0.05));
      v[4][t] = 7.0f;
      v[5][t] = 1.0f - v[0][t];
      v[6][t] = 7.0f;
      v[7][t] = v[3][t] + static_cast<float>(rng.gaussian(0.0, 0.01));
      v[8][t] = static_cast<float>(rng.gaussian());
      v[9][t] = v[0][t];
      v[10][t] = 0.5f * v[8][t] + static_cast<float>(rng.gaussian(0.0, 0.1));
      v[11][t] = 0.5f * v[0][t] + 0.5f * v[2][t];
    }
  }
  return ds;
}

TEST(PruneEquivalence, MatchesGreedyPearsonLoop) {
  const MtsDataset ds = correlated_dataset();
  std::vector<double> thresholds = {-1.0, 0.0, 0.5, 0.99, 1.01};
  // Thresholds at a pair's exact coefficient and one ulp above it: any
  // change in the coefficient's bits flips one of the two decisions.
  const auto samples = reference_samples(ds, 8, 1);
  const std::pair<std::size_t, std::size_t> pairs[] = {
      {0, 1}, {2, 3}, {0, 9}, {3, 7}, {0, 11}, {8, 10}};
  for (const auto& [a, b] : pairs) {
    const double r = pearson(samples[a], samples[b]);
    thresholds.push_back(r);
    thresholds.push_back(std::nextafter(r, 2.0));
  }
  for (const double threshold : thresholds)
    for (const std::size_t sample_nodes : {2, 8})
      for (const std::size_t stride : {1, 3}) {
        SCOPED_TRACE(::testing::Message() << threshold << ' ' << sample_nodes
                                          << ' ' << stride);
        const PruneResult got =
            prune_correlated(ds, threshold, sample_nodes, stride);
        EXPECT_EQ(got.kept,
                  reference_prune_kept(ds, threshold, sample_nodes, stride));
        ASSERT_EQ(got.dataset.num_metrics(), got.kept.size());
        for (std::size_t n = 0; n < ds.num_nodes(); ++n)
          for (std::size_t k = 0; k < got.kept.size(); ++k)
            EXPECT_EQ(got.dataset.nodes[n].values[k],
                      ds.nodes[n].values[got.kept[k]]);
      }
}

TEST(Standardizer, ZeroMeanUnitishScale) {
  MtsDataset ds = tiny_dataset(1, 2, 200);
  Standardizer st;
  st.fit(ds, ds.num_timestamps());
  st.apply(ds);
  for (std::size_t m = 0; m < 2; ++m) {
    double mu = 0.0;
    for (float x : ds.nodes[0].values[m]) mu += x;
    EXPECT_NEAR(mu / 200.0, 0.0, 0.2);
  }
}

TEST(Standardizer, ClipsResidualOutliers) {
  MtsDataset ds = tiny_dataset(1, 1, 100);
  ds.nodes[0].values[0][50] = 1e6f;  // extreme outlier
  Standardizer st;
  st.fit(ds, 100);
  st.apply(ds, 5.0f);
  for (float x : ds.nodes[0].values[0]) {
    EXPECT_LE(x, 5.0f);
    EXPECT_GE(x, -5.0f);
  }
  EXPECT_FLOAT_EQ(ds.nodes[0].values[0][50], 5.0f);
}

TEST(Standardizer, ConstantMetricMapsToZero) {
  MtsDataset ds = tiny_dataset(1, 1, 50);
  std::fill(ds.nodes[0].values[0].begin(), ds.nodes[0].values[0].end(), 7.0f);
  Standardizer st;
  st.fit(ds, 50);
  st.apply(ds);
  for (float x : ds.nodes[0].values[0]) EXPECT_FLOAT_EQ(x, 0.0f);
}

TEST(Standardizer, FitOnTrainPrefixOnly) {
  MtsDataset ds = tiny_dataset(1, 1, 100);
  // Large shift in the "test" half must not affect fitted moments.
  for (std::size_t t = 60; t < 100; ++t) ds.nodes[0].values[0][t] += 100.0f;
  Standardizer st;
  st.fit(ds, 60);
  const double mu = st.mean(0, 0);
  EXPECT_LT(std::abs(mu), 2.0);
}

TEST(Standardizer, ApplyBeforeFitThrows) {
  MtsDataset ds = tiny_dataset();
  Standardizer st;
  EXPECT_THROW(st.apply(ds), InvalidArgument);
}

TEST(JobSpans, InsertsIdleGaps) {
  const std::vector<JobSpan> scheduled{{10, 5, 10}, {11, 20, 30}};
  auto spans = build_job_spans(scheduled, 40);
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_TRUE(spans[0].is_idle());
  EXPECT_EQ(spans[0].begin, 0u);
  EXPECT_EQ(spans[0].end, 5u);
  EXPECT_EQ(spans[1].job_id, 10);
  EXPECT_TRUE(spans[2].is_idle());
  EXPECT_EQ(spans[4].begin, 30u);
  EXPECT_EQ(spans[4].end, 40u);
  // Full coverage, no overlap.
  std::size_t cursor = 0;
  for (const auto& s : spans) {
    EXPECT_EQ(s.begin, cursor);
    cursor = s.end;
  }
  EXPECT_EQ(cursor, 40u);
}

TEST(JobSpans, RejectsOverlap) {
  const std::vector<JobSpan> scheduled{{1, 0, 10}, {2, 5, 15}};
  EXPECT_THROW(build_job_spans(scheduled, 20), InvalidArgument);
}

TEST(JobSpans, EmptyScheduleIsOneIdleSpan) {
  auto spans = build_job_spans({}, 25);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].is_idle());
  EXPECT_EQ(spans[0].length(), 25u);
}

TEST(Preprocess, EndToEndPipeline) {
  MtsDataset ds = tiny_dataset(3, 4, 60);
  // Make metric 3 a near-copy of metric 0 on all nodes so pruning fires.
  for (auto& node : ds.nodes) node.values[3] = node.values[0];
  ds.nodes[0].values[1][7] = kNaN;  // and cleaning
  auto out = preprocess(ds, 36);
  EXPECT_EQ(out.dataset.num_metrics(), 3u);
  EXPECT_EQ(out.kept_metrics.size(), 3u);
  EXPECT_TRUE(out.standardizer.fitted());
  out.dataset.validate();
  for (float x : out.dataset.nodes[0].values[0]) {
    EXPECT_LE(std::abs(x), 5.0f);
    EXPECT_FALSE(std::isnan(x));
  }
}

}  // namespace
}  // namespace ns
