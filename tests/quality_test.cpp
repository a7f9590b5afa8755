// Unit tests for the telemetry data-quality guard (ts/quality) and its
// integration with the preprocessing pipeline.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/dataset_builder.hpp"
#include "sim/telemetry_faults.hpp"
#include "ts/preprocess.hpp"
#include "ts/quality.hpp"
#include "ts/stream.hpp"

namespace ns {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/// One node, `metrics` noisy-but-benign series of length T.
MtsDataset make_dataset(std::size_t metrics, std::size_t T) {
  MtsDataset ds;
  for (std::size_t m = 0; m < metrics; ++m) {
    MetricMeta meta;
    meta.name = "m";
    meta.name += std::to_string(m);
    meta.semantic_group = meta.name;  // no aggregation
    ds.metrics.push_back(meta);
  }
  NodeSeries node;
  node.node_name = "n0";
  node.values.assign(metrics, std::vector<float>(T));
  for (std::size_t m = 0; m < metrics; ++m)
    for (std::size_t t = 0; t < T; ++t)
      node.values[m][t] =
          std::sin(0.3f * static_cast<float>(t + 7 * m)) +
          0.01f * static_cast<float>((t * 2654435761u + m) % 100);
  ds.nodes.push_back(std::move(node));
  ds.jobs.push_back({JobSpan{1, 0, T}});
  return ds;
}

TEST(QualityGuard, CleanDataReportsClean) {
  MtsDataset ds = make_dataset(3, 200);
  const QualityResult result = apply_quality_guard(ds);
  EXPECT_TRUE(result.report.clean());
  EXPECT_EQ(result.report.points_invalid, 0u);
  EXPECT_EQ(result.report.points_total, 3u * 200u);
  for (std::size_t m = 0; m < 3; ++m)
    EXPECT_DOUBLE_EQ(result.mask.valid_fraction(0, m, 0, 200), 1.0);
}

TEST(QualityGuard, InfRunMaskedAsNonFinite) {
  MtsDataset ds = make_dataset(2, 200);
  for (std::size_t t = 40; t < 52; ++t) ds.nodes[0].values[1][t] = kInf;
  const QualityResult result = apply_quality_guard(ds);
  EXPECT_GE(result.report.count(QualityIssue::kNonFinite), 12u);
  for (std::size_t t = 40; t < 52; ++t) {
    EXPECT_FALSE(result.mask.valid(0, 1, t)) << t;
    // Sanitized to NaN so interpolation produces finite filler.
    EXPECT_TRUE(std::isnan(ds.nodes[0].values[1][t])) << t;
  }
  EXPECT_TRUE(result.mask.valid(0, 1, 39));
  EXPECT_TRUE(result.mask.valid(0, 0, 45));  // other metric untouched
}

TEST(QualityGuard, ShortGapStaysValidForInterpolation) {
  MtsDataset ds = make_dataset(1, 200);
  for (std::size_t t = 60; t < 66; ++t) ds.nodes[0].values[0][t] = kNan;
  const QualityResult result = apply_quality_guard(ds);
  EXPECT_EQ(result.report.points_invalid, 0u);
  EXPECT_EQ(result.report.points_interpolatable, 6u);
  for (std::size_t t = 60; t < 66; ++t)
    EXPECT_TRUE(result.mask.valid(0, 0, t)) << t;
}

TEST(QualityGuard, LongGapMasked) {
  MtsDataset ds = make_dataset(1, 300);
  for (std::size_t t = 100; t < 140; ++t) ds.nodes[0].values[0][t] = kNan;
  const QualityResult result = apply_quality_guard(ds);
  EXPECT_EQ(result.report.count(QualityIssue::kLongGap), 40u);
  for (std::size_t t = 100; t < 140; ++t)
    EXPECT_FALSE(result.mask.valid(0, 0, t)) << t;
  EXPECT_TRUE(result.mask.valid(0, 0, 99));
  EXPECT_TRUE(result.mask.valid(0, 0, 140));
}

TEST(QualityGuard, StuckRunMaskedButConstantSeriesSpared) {
  MtsDataset ds = make_dataset(2, 300);
  // Metric 0: live series that freezes for 80 steps.
  for (std::size_t t = 150; t < 230; ++t) ds.nodes[0].values[0][t] = 1.25f;
  // Metric 1: legitimately constant signal (e.g. a capacity gauge).
  for (std::size_t t = 0; t < 300; ++t) ds.nodes[0].values[1][t] = 64.0f;
  const QualityResult result = apply_quality_guard(ds);
  EXPECT_GE(result.report.count(QualityIssue::kStuckSensor), 80u);
  for (std::size_t t = 150; t < 230; ++t)
    EXPECT_FALSE(result.mask.valid(0, 0, t)) << t;
  for (std::size_t t = 0; t < 300; ++t)
    EXPECT_TRUE(result.mask.valid(0, 1, t)) << t;
}

TEST(QualityGuard, ExtremeSpikeMasked) {
  MtsDataset ds = make_dataset(1, 200);
  ds.nodes[0].values[0][77] = 1e7f;
  const QualityResult result = apply_quality_guard(ds);
  EXPECT_GE(result.report.count(QualityIssue::kSpike), 1u);
  EXPECT_FALSE(result.mask.valid(0, 0, 77));
  EXPECT_TRUE(result.mask.valid(0, 0, 76));
  EXPECT_TRUE(result.mask.valid(0, 0, 78));
}

TEST(QualityGuard, ModerateAnomalyNotMasked) {
  // A genuine workload anomaly (a few sigma) must NOT be eaten by the
  // guard — that is the detector's job.
  MtsDataset ds = make_dataset(1, 200);
  for (std::size_t t = 90; t < 110; ++t) ds.nodes[0].values[0][t] += 4.0f;
  const QualityResult result = apply_quality_guard(ds);
  EXPECT_EQ(result.report.count(QualityIssue::kSpike), 0u);
  for (std::size_t t = 90; t < 110; ++t)
    EXPECT_TRUE(result.mask.valid(0, 0, t)) << t;
}

TEST(QualityGuard, DeadMetricFullyMasked) {
  MtsDataset ds = make_dataset(2, 200);
  for (std::size_t t = 0; t < 196; ++t) ds.nodes[0].values[0][t] = kNan;
  const QualityResult result = apply_quality_guard(ds);
  EXPECT_GT(result.report.count(QualityIssue::kDeadMetric), 0u);
  EXPECT_DOUBLE_EQ(result.mask.valid_fraction(0, 0, 0, 200), 0.0);
  EXPECT_DOUBLE_EQ(result.mask.valid_fraction(0, 1, 0, 200), 1.0);
}

TEST(ValidityMaskTest, FractionsAndEmptyBehavior) {
  ValidityMask empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.valid(3, 5, 100));
  EXPECT_DOUBLE_EQ(empty.valid_fraction(0, 0, 0, 10), 1.0);
  EXPECT_DOUBLE_EQ(empty.segment_valid_fraction(0, 0, 10), 1.0);

  ValidityMask mask(1, 2, 10);
  for (std::size_t t = 0; t < 5; ++t) mask.at(0, 0, t) = 0;
  EXPECT_DOUBLE_EQ(mask.valid_fraction(0, 0, 0, 10), 0.5);
  EXPECT_DOUBLE_EQ(mask.valid_fraction(0, 1, 0, 10), 1.0);
  EXPECT_DOUBLE_EQ(mask.segment_valid_fraction(0, 0, 10), 0.75);
  EXPECT_DOUBLE_EQ(mask.valid_fraction(0, 0, 5, 10), 1.0);
  // Degenerate range counts as fully valid rather than dividing by zero.
  EXPECT_DOUBLE_EQ(mask.valid_fraction(0, 0, 4, 4), 1.0);
}

TEST(ValidityMaskTest, AggregateValidIffAnySourceValid) {
  ValidityMask mask(1, 3, 4);
  for (std::size_t t = 0; t < 4; ++t) mask.at(0, 0, t) = 0;  // metric 0 dead
  mask.at(0, 1, 2) = 0;
  // Group A = {0, 1}; group B = {2}.
  const ValidityMask agg = mask.aggregate({{0, 1}, {2}});
  EXPECT_EQ(agg.num_metrics(), 2u);
  EXPECT_TRUE(agg.valid(0, 0, 0));    // metric 1 alive covers metric 0
  EXPECT_FALSE(agg.valid(0, 0, 2));   // both sources invalid at t=2
  EXPECT_TRUE(agg.valid(0, 1, 2));
}

TEST(ValidityMaskTest, SelectMetricsKeepsListedOnly) {
  ValidityMask mask(1, 3, 2);
  mask.at(0, 2, 1) = 0;
  const ValidityMask kept = mask.select_metrics({2, 0});
  EXPECT_EQ(kept.num_metrics(), 2u);
  EXPECT_FALSE(kept.valid(0, 0, 1));  // old metric 2 is new metric 0
  EXPECT_TRUE(kept.valid(0, 1, 1));
}

TEST(QualityGuard, PreprocessProducesAlignedMask) {
  SimDatasetConfig config = d2_sim_config(0.3, 21);
  config.anomaly_ratio = 0.0;
  SimDataset sim = build_sim_dataset(config);

  TelemetryFaultPlanConfig plan;
  plan.region_begin = 0;
  plan.region_end = sim.data.num_timestamps();
  plan.events_per_type = 2;
  Rng rng(5);
  const auto events = plan_telemetry_faults(
      plan, sim.data.num_nodes(), sim.data.num_metrics(), rng);
  ASSERT_GT(apply_telemetry_faults(sim.data, events), 0u);

  const PreprocessOutput out = preprocess(sim.data, sim.train_end);
  ASSERT_FALSE(out.mask.empty());
  EXPECT_EQ(out.mask.num_nodes(), out.dataset.num_nodes());
  EXPECT_EQ(out.mask.num_metrics(), out.dataset.num_metrics());
  EXPECT_EQ(out.mask.num_timestamps(), out.dataset.num_timestamps());
  EXPECT_GT(out.quality.points_invalid, 0u);
  // The processed values must be finite everywhere — masked cells carry
  // interpolated filler, not NaN/Inf.
  for (const NodeSeries& node : out.dataset.nodes)
    for (const auto& series : node.values)
      for (float v : series) ASSERT_TRUE(std::isfinite(v));
}

TEST(QualityGuard, CleanPreprocessMatchesStreamReplay) {
  // On pristine data the guard is a no-op: it reports clean, its mask is
  // all ones, and the processed values equal an independent per-sample
  // replay of the fitted pipeline (StreamPreprocessor) bit for bit.
  SimDatasetConfig config = d2_sim_config(0.25, 31);
  config.anomaly_ratio = 0.0;
  config.missing_rate = 0.0;
  const SimDataset sim = build_sim_dataset(config);

  const PreprocessOutput out = preprocess(sim.data, sim.train_end);
  EXPECT_TRUE(out.quality.clean());
  const std::size_t N = out.dataset.num_nodes();
  const std::size_t M = out.dataset.num_metrics();
  const std::size_t T = out.dataset.num_timestamps();
  ASSERT_EQ(out.mask.num_nodes(), N);
  ASSERT_EQ(out.mask.num_metrics(), M);
  ASSERT_EQ(out.mask.num_timestamps(), T);
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t m = 0; m < M; ++m)
      for (std::size_t t = 0; t < T; ++t)
        ASSERT_EQ(out.mask.at(n, m, t), 1) << n << ' ' << m << ' ' << t;

  const StreamPreprocessor replay(sim.data.num_metrics(),
                                  out.aggregation_sources, out.kept_metrics,
                                  &out.standardizer, 5.0f);
  std::vector<float> raw(sim.data.num_metrics());
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t r = 0; r < raw.size(); ++r)
        raw[r] = sim.data.nodes[n].values[r][t];
      const StreamPreprocessor::Row row = replay.process(n, raw);
      for (std::size_t m = 0; m < M; ++m) {
        const float batch = out.dataset.nodes[n].values[m][t];
        ASSERT_EQ(row.valid[m], 1) << n << ' ' << m << ' ' << t;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(row.values[m]),
                  std::bit_cast<std::uint32_t>(batch))
            << n << ' ' << m << ' ' << t;
      }
    }
}

TEST(TelemetryFaults, PlanCoversEveryTypeInsideRegion) {
  TelemetryFaultPlanConfig plan;
  plan.region_begin = 100;
  plan.region_end = 500;
  plan.events_per_type = 3;
  Rng rng(9);
  const auto events = plan_telemetry_faults(plan, 4, 6, rng);
  EXPECT_EQ(events.size(), 3u * kNumTelemetryFaultTypes);
  std::array<std::size_t, kNumTelemetryFaultTypes> per_type{};
  for (const auto& event : events) {
    EXPECT_LT(event.node, 4u);
    EXPECT_LT(event.metric, 6u);
    EXPECT_GE(event.begin, 100u);
    EXPECT_LE(event.end, 500u);
    EXPECT_LT(event.begin, event.end);
    ++per_type[static_cast<std::size_t>(event.type)];
  }
  for (std::size_t t = 0; t < kNumTelemetryFaultTypes; ++t)
    EXPECT_EQ(per_type[t], 3u) << telemetry_fault_name(
        static_cast<TelemetryFaultType>(t));
}

TEST(TelemetryFaults, ApplyCorruptsExactlyTheEventSpans) {
  MtsDataset ds = make_dataset(3, 100);
  std::vector<TelemetryFaultEvent> events(1);
  events[0] = {0, 1, 20, 30, TelemetryFaultType::kNanBurst, 1.0};
  EXPECT_EQ(apply_telemetry_faults(ds, events), 10u);
  for (std::size_t t = 20; t < 30; ++t)
    EXPECT_TRUE(std::isnan(ds.nodes[0].values[1][t]));
  EXPECT_FALSE(std::isnan(ds.nodes[0].values[1][19]));
  EXPECT_FALSE(std::isnan(ds.nodes[0].values[0][25]));

  events[0] = {0, 0, 10, 14, TelemetryFaultType::kNodeDropout, 1.0};
  EXPECT_EQ(apply_telemetry_faults(ds, events), 3u * 4u);
  for (std::size_t m = 0; m < 3; ++m)
    for (std::size_t t = 10; t < 14; ++t)
      EXPECT_TRUE(std::isnan(ds.nodes[0].values[m][t]));
}

}  // namespace
}  // namespace ns
