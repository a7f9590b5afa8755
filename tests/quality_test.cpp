// Unit tests for the telemetry data-quality guard (ts/quality) and its
// integration with the preprocessing pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
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

// ---- The quality guard as it was before scan_spikes selected its
// quantiles, verbatim (two full sorts per series), kept as the reference.
namespace reference {

/// Per-series scan state shared by the classification passes below.
struct SeriesGuard {
  std::vector<float>& series;
  ValidityMask& mask;
  QualityReport& report;
  std::size_t node;
  std::size_t metric;

  void invalidate(std::size_t t, QualityIssue issue) {
    if (mask.at(node, metric, t) == 0) return;  // count each cell once
    mask.at(node, metric, t) = 0;
    ++report.points_invalid;
    ++report.issue_points[static_cast<std::size_t>(issue)];
    series[t] = kMissingValue;
  }

  void invalidate_run(std::size_t begin, std::size_t end, QualityIssue issue) {
    for (std::size_t t = begin; t < end; ++t) invalidate(t, issue);
    report.events.push_back(QualityEvent{node, metric, begin, end, issue});
  }
};

void scan_non_finite(SeriesGuard& g) {
  const std::size_t n = g.series.size();
  std::size_t t = 0;
  while (t < n) {
    if (!std::isinf(g.series[t])) {
      ++t;
      continue;
    }
    std::size_t end = t + 1;
    while (end < n && std::isinf(g.series[end])) ++end;
    g.invalidate_run(t, end, QualityIssue::kNonFinite);
    t = end;
  }
}

void scan_gaps(SeriesGuard& g) {
  const std::size_t n = g.series.size();
  std::size_t t = 0;
  while (t < n) {
    if (!std::isnan(g.series[t]) || g.mask.at(g.node, g.metric, t) == 0) {
      ++t;
      continue;
    }
    std::size_t end = t + 1;
    while (end < n && std::isnan(g.series[end]) &&
           g.mask.at(g.node, g.metric, end) != 0)
      ++end;
    if (end - t > QualityConfig::max_interpolation_gap) {
      g.invalidate_run(t, end, QualityIssue::kLongGap);
    } else {
      g.report.points_interpolatable += end - t;
    }
    t = end;
  }
}

void scan_stuck(SeriesGuard& g) {
  const std::size_t n = g.series.size();
  if (n < QualityConfig::stuck_run_length) return;
  // A globally constant series is a legitimately flat metric (e.g. total
  // memory); only repetition inside an otherwise-live series is "stuck".
  float first = kMissingValue;
  bool constant = true;
  for (float v : g.series) {
    if (std::isnan(v)) continue;
    if (std::isnan(first)) {
      first = v;
    } else if (v != first) {
      constant = false;
      break;
    }
  }
  if (constant) return;
  std::size_t t = 0;
  while (t < n) {
    if (std::isnan(g.series[t])) {
      ++t;
      continue;
    }
    std::size_t end = t + 1;
    while (end < n && g.series[end] == g.series[t]) ++end;
    if (end - t >= QualityConfig::stuck_run_length)
      g.invalidate_run(t, end, QualityIssue::kStuckSensor);
    t = end;
  }
}

void scan_spikes(SeriesGuard& g) {
  std::vector<float> finite;
  finite.reserve(g.series.size());
  for (std::size_t t = 0; t < g.series.size(); ++t)
    if (!std::isnan(g.series[t])) finite.push_back(g.series[t]);
  if (finite.size() < 8) return;
  // Sort once and take every quantile from the same order statistics
  // (type-7, shared with percentile()) instead of one nth_element pass per
  // quantile; the deviations need their own order, so one more sort.
  std::sort(finite.begin(), finite.end());
  static constexpr double kQs[] = {0.05, 0.5, 0.95};
  const std::vector<double> qs = quantiles_from_sorted(finite, kQs);
  const double p5 = qs[0];
  const double med = qs[1];
  const double p95 = qs[2];
  for (float& v : finite) v = static_cast<float>(std::abs(v - med));
  std::sort(finite.begin(), finite.end());
  const double mad = quantile_from_sorted(finite, 0.5);
  // Workload telemetry is often bimodal (idle floor vs busy plateau): the
  // MAD hugs the idle mode and would flag legitimate busy samples. Floor
  // the robust scale with the central 90% range so only values far outside
  // the series' own observed dynamic range count as non-physical.
  const double scale = std::max(mad, (p95 - p5) / 2.0);
  // A (near-)zero scale means the series barely moves; spike detection on
  // it would flag any twitch, so it is left to the stuck/constant logic.
  if (scale <= 1e-12) return;
  const double limit = QualityConfig::spike_mad_factor * scale;
  std::size_t t = 0;
  const std::size_t n = g.series.size();
  while (t < n) {
    const float v = g.series[t];
    if (std::isnan(v) || std::abs(v - med) <= limit) {
      ++t;
      continue;
    }
    std::size_t end = t + 1;
    while (end < n && !std::isnan(g.series[end]) &&
           std::abs(g.series[end] - med) > limit)
      ++end;
    g.invalidate_run(t, end, QualityIssue::kSpike);
    t = end;
  }
}

void scan_dead(SeriesGuard& g) {
  const std::size_t n = g.series.size();
  if (n == 0) return;
  std::size_t valid_count = 0;
  for (std::size_t t = 0; t < n; ++t)
    valid_count += g.mask.at(g.node, g.metric, t) != 0 &&
                   !std::isnan(g.series[t]);
  if (static_cast<double>(valid_count) / static_cast<double>(n) >=
      QualityConfig::dead_metric_min_valid)
    return;
  g.invalidate_run(0, n, QualityIssue::kDeadMetric);
}

QualityResult reference_quality_guard(MtsDataset& dataset) {
  QualityResult result;
  const std::size_t N = dataset.num_nodes();
  const std::size_t M = dataset.num_metrics();
  const std::size_t T = dataset.num_timestamps();
  result.mask = ValidityMask(N, M, T, 1);
  std::vector<QualityReport> per_node(N);
  parallel_for(0, N, [&](std::size_t n) {
    for (std::size_t m = 0; m < M; ++m) {
      SeriesGuard g{dataset.nodes[n].values[m], result.mask, per_node[n], n, m};
      scan_non_finite(g);
      scan_stuck(g);
      scan_spikes(g);
      scan_gaps(g);
      scan_dead(g);
    }
  });
  QualityReport& report = result.report;
  report.points_total = N * M * T;
  for (QualityReport& local : per_node) {
    report.points_invalid += local.points_invalid;
    report.points_interpolatable += local.points_interpolatable;
    for (std::size_t i = 0; i < kNumQualityIssues; ++i)
      report.issue_points[i] += local.issue_points[i];
    report.events.insert(report.events.end(), local.events.begin(),
                         local.events.end());
  }
  return result;
}

}  // namespace reference

// ---- ValidityMask::aggregate and select_metrics as they were before they
// ran per node on whole rows, verbatim but for the public accessors they
// read through here, kept as the reference.

ValidityMask reference_aggregate(
    const ValidityMask& mask,
    const std::vector<std::vector<std::size_t>>& sources) {
  if (mask.empty()) return {};
  ValidityMask out(mask.num_nodes(), sources.size(), mask.num_timestamps(),
                   0);
  for (std::size_t n = 0; n < mask.num_nodes(); ++n)
    for (std::size_t g = 0; g < sources.size(); ++g)
      for (std::size_t t = 0; t < mask.num_timestamps(); ++t) {
        std::uint8_t any = 0;
        for (std::size_t src : sources[g]) any |= mask.at(n, src, t);
        out.at(n, g, t) = any;
      }
  return out;
}

ValidityMask reference_select_metrics(const ValidityMask& mask,
                                      const std::vector<std::size_t>& kept) {
  if (mask.empty()) return {};
  ValidityMask out(mask.num_nodes(), kept.size(), mask.num_timestamps(), 0);
  for (std::size_t n = 0; n < mask.num_nodes(); ++n)
    for (std::size_t k = 0; k < kept.size(); ++k)
      for (std::size_t t = 0; t < mask.num_timestamps(); ++t)
        out.at(n, k, t) = mask.at(n, kept[k], t);
  return out;
}

void expect_masks_equal(const ValidityMask& got, const ValidityMask& want) {
  ASSERT_EQ(got.empty(), want.empty());
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_metrics(), want.num_metrics());
  ASSERT_EQ(got.num_timestamps(), want.num_timestamps());
  for (std::size_t n = 0; n < got.num_nodes(); ++n)
    for (std::size_t m = 0; m < got.num_metrics(); ++m)
      for (std::size_t t = 0; t < got.num_timestamps(); ++t)
        ASSERT_EQ(got.at(n, m, t), want.at(n, m, t))
            << n << ' ' << m << ' ' << t;
}

/// Runs the guard and the two-sort reference on copies of `input` and
/// expects the same mask, report, events and sanitized values, bit for bit.
void expect_guard_matches_reference(const MtsDataset& input) {
  MtsDataset got_data = input;
  MtsDataset want_data = input;
  const QualityResult got = apply_quality_guard(got_data);
  const QualityResult want = reference::reference_quality_guard(want_data);
  expect_masks_equal(got.mask, want.mask);
  EXPECT_EQ(got.report.points_total, want.report.points_total);
  EXPECT_EQ(got.report.points_invalid, want.report.points_invalid);
  EXPECT_EQ(got.report.points_interpolatable,
            want.report.points_interpolatable);
  EXPECT_EQ(got.report.issue_points, want.report.issue_points);
  ASSERT_EQ(got.report.events.size(), want.report.events.size());
  for (std::size_t i = 0; i < got.report.events.size(); ++i) {
    const QualityEvent& a = got.report.events[i];
    const QualityEvent& b = want.report.events[i];
    EXPECT_EQ(a.node, b.node) << "event " << i;
    EXPECT_EQ(a.metric, b.metric) << "event " << i;
    EXPECT_EQ(a.begin, b.begin) << "event " << i;
    EXPECT_EQ(a.end, b.end) << "event " << i;
    EXPECT_EQ(a.issue, b.issue) << "event " << i;
  }
  for (std::size_t n = 0; n < input.num_nodes(); ++n)
    for (std::size_t m = 0; m < input.num_metrics(); ++m) {
      const std::vector<float>& a = got_data.nodes[n].values[m];
      const std::vector<float>& b = want_data.nodes[n].values[m];
      ASSERT_EQ(a.size(), b.size());
      ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
          << "node " << n << " metric " << m << " sanitized values differ";
    }
}

/// The median and spike limit the two-sort scan_spikes computes for a
/// series without Inf or stuck runs (which it therefore sees unchanged),
/// or nothing when it skips the series.
std::optional<std::pair<double, double>> reference_spike_limit(
    const std::vector<float>& series) {
  std::vector<float> finite;
  for (float v : series)
    if (!std::isnan(v)) finite.push_back(v);
  if (finite.size() < 8) return std::nullopt;
  std::sort(finite.begin(), finite.end());
  const double p5 = quantile_from_sorted(finite, 0.05);
  const double med = quantile_from_sorted(finite, 0.5);
  const double p95 = quantile_from_sorted(finite, 0.95);
  for (float& v : finite) v = static_cast<float>(std::abs(v - med));
  std::sort(finite.begin(), finite.end());
  const double scale =
      std::max(quantile_from_sorted(finite, 0.5), (p95 - p5) / 2.0);
  if (scale <= 1e-12) return std::nullopt;
  return std::make_pair(med, QualityConfig::spike_mad_factor * scale);
}

/// The float on the `outward` side of the median that lies farthest from
/// it while |x - med| <= limit (so it stays valid); the next float out is
/// flagged. Any error in the median, p5, p95 or MAD moves one of the two.
float last_float_within(double med, double limit, float outward) {
  float x = static_cast<float>(med + (outward > 0 ? limit : -limit));
  const float inward = -outward;
  while (std::abs(x - med) > limit) x = std::nextafter(x, inward);
  while (std::abs(std::nextafter(x, outward) - med) <= limit)
    x = std::nextafter(x, outward);
  return x;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

enum class SeriesKind {
  kGaussian,      ///< the 90% range sets the spike scale
  kSkewed,        ///< lopsided modes: the MAD sets the spike scale
  kIntegers,      ///< many ties
  kConstant,      ///< zero scale
  kNearConstant,  ///< two adjacent floats: ties and a tiny scale
  kStuckRun,      ///< noise around a 60-point bit-identical run
};
constexpr std::size_t kNumSeriesKinds = 6;

std::vector<float> random_series(SeriesKind kind, std::size_t T, Rng& rng) {
  std::vector<float> s(T);
  const double offset = rng.uniform(-50.0, 50.0);
  const double sigma = std::pow(10.0, rng.uniform(-3.0, 3.0));
  for (std::size_t t = 0; t < T; ++t) {
    double v = offset;
    switch (kind) {
      case SeriesKind::kGaussian:
      case SeriesKind::kStuckRun: v += sigma * rng.gaussian(); break;
      case SeriesKind::kSkewed: {
        // 4 % far below, 47 % at the low mode, 45 % at the high mode and
        // 4 % above: the median sits in the low mode and more than half
        // the points lie one mode gap from it.
        const double u = rng.uniform();
        const double mode = u < 0.04 ? -10.0 : u < 0.51 ? 0.0
                                     : u < 0.96 ? 1.0 : 2.0;
        v += sigma * (mode + 0.01 * rng.gaussian());
        break;
      }
      case SeriesKind::kIntegers: v = std::round(3.0 * rng.gaussian()); break;
      case SeriesKind::kConstant: break;
      case SeriesKind::kNearConstant:
        if (rng.bernoulli(0.5))
          v = std::nextafter(static_cast<float>(offset), 1e30f);
        break;
    }
    s[t] = static_cast<float>(v);
  }
  if (kind == SeriesKind::kStuckRun && T > 60) {
    const std::size_t at = pick(rng, T - 60);
    std::fill(s.begin() + static_cast<std::ptrdiff_t>(at),
              s.begin() + static_cast<std::ptrdiff_t>(at + 60), s[at]);
  }
  return s;
}

/// `nodes` x `metrics` random series of length T: every kind, NaN holes
/// short and long, Inf, extreme spikes of both signs and, on long series
/// free of Inf and stuck runs, a pair of spikes on either side of the
/// reference spike limit.
MtsDataset random_guard_dataset(std::size_t nodes, std::size_t metrics,
                                std::size_t T, Rng& rng) {
  MtsDataset ds = make_dataset(metrics, T);
  ds.nodes.resize(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    ds.nodes[n].node_name = "n" + std::to_string(n);
    ds.nodes[n].values.resize(metrics);
    for (std::size_t m = 0; m < metrics; ++m) {
      const auto kind = static_cast<SeriesKind>(m % kNumSeriesKinds);
      std::vector<float> s = random_series(kind, T, rng);
      if (rng.bernoulli(0.5)) {
        const std::size_t holes = 1 + pick(rng, 3);
        for (std::size_t h = 0; h < holes; ++h) {
          const std::size_t longest = rng.bernoulli(0.5) ? 6 : 40;
          const std::size_t len = 1 + pick(rng, std::min(T / 2, longest));
          const std::size_t at = pick(rng, T - len + 1);
          std::fill_n(s.begin() + static_cast<std::ptrdiff_t>(at), len, kNan);
        }
      }
      if (rng.bernoulli(0.3)) {
        s[pick(rng, T)] = 1e8f;
        s[pick(rng, T)] = -1e8f;
      }
      if (T >= 100 && kind != SeriesKind::kStuckRun && rng.bernoulli(0.6)) {
        // Extreme placeholders keep their ranks when the final spikes
        // replace them, so the reference limit stays what it was.
        const std::size_t hi = pick(rng, T);
        std::size_t lo = pick(rng, T);
        while (lo == hi) lo = pick(rng, T);
        s[hi] = 1e30f;
        s[lo] = -1e30f;
        if (const auto ref = reference_spike_limit(s)) {
          const auto [med, limit] = *ref;
          const float up = last_float_within(med, limit, kInf);
          const float down = last_float_within(med, limit, -kInf);
          const bool flag_up = rng.bernoulli(0.5);
          s[hi] = flag_up ? std::nextafter(up, kInf) : up;
          s[lo] = flag_up ? down : std::nextafter(down, -kInf);
        }
      } else if (rng.bernoulli(0.2)) {
        s[pick(rng, T)] = rng.bernoulli(0.5) ? kInf : -kInf;
      }
      ds.nodes[n].values[m] = std::move(s);
    }
  }
  ds.jobs.assign(nodes, {JobSpan{1, 0, T}});
  return ds;
}

TEST(QualityGuardEquivalence, RandomSeriesMatchTwoSortReference) {
  Rng rng(2024);
  for (std::size_t T : {8, 9, 10, 11, 12}) {
    SCOPED_TRACE(T);
    for (int rep = 0; rep < 4; ++rep)
      expect_guard_matches_reference(random_guard_dataset(3, 24, T, rng));
  }
  SCOPED_TRACE(2880);
  for (int rep = 0; rep < 3; ++rep)
    expect_guard_matches_reference(random_guard_dataset(4, 24, 2880, rng));
}

TEST(QualityGuardEquivalence, FaultedD2SimMatchesTwoSortReference) {
  SimDataset sim = build_sim_dataset(d2_sim_config(0.5, 23));
  TelemetryFaultPlanConfig plan;
  plan.region_begin = 0;
  plan.region_end = sim.data.num_timestamps();
  plan.events_per_type = 10;
  Rng rng(17);
  const auto events = plan_telemetry_faults(plan, sim.data.num_nodes(),
                                            sim.data.num_metrics(), rng);
  ASSERT_GT(apply_telemetry_faults(sim.data, events), 0u);
  expect_guard_matches_reference(sim.data);
}

/// One node whose metrics are `series` (all of one length).
MtsDataset dataset_of(std::vector<std::vector<float>> series) {
  MtsDataset ds = make_dataset(series.size(), series.front().size());
  ds.nodes[0].values = std::move(series);
  return ds;
}

std::size_t spike_points(const QualityReport& report) {
  return report.issue_points[static_cast<std::size_t>(QualityIssue::kSpike)];
}

/// The median and the range floor's limit, spike_mad_factor * (p95 - p5)
/// / 2, that the two-sort scan_spikes computes for a finite series free of
/// Inf and stuck runs.
std::pair<double, double> reference_range_limit(
    const std::vector<float>& series) {
  std::vector<float> sorted = series;
  std::sort(sorted.begin(), sorted.end());
  const double p5 = quantile_from_sorted(sorted, 0.05);
  const double med = quantile_from_sorted(sorted, 0.5);
  const double p95 = quantile_from_sorted(sorted, 0.95);
  return {med, QualityConfig::spike_mad_factor * ((p95 - p5) / 2.0)};
}

TEST(QualityGuardEquivalence, RangesOneFloatEitherSideOfTheBound) {
  // Gaussian series whose farthest point, above or below the median, sits
  // on the last float within the range floor's limit or on the next float
  // out. A Gaussian's MAD is below its range floor, so the limit is the
  // floor's: the first point is never a spike and the second always is.
  Rng rng(77);
  for (const std::size_t T : {40, 2880}) {
    SCOPED_TRACE(T);
    std::vector<std::vector<float>> series;
    std::size_t want_spikes = 0;
    for (int rep = 0; rep < 6; ++rep)
      for (const float outward : {kInf, -kInf})
        for (const bool beyond : {false, true}) {
          const double offset = rng.uniform(-50.0, 50.0);
          const double sigma = std::pow(10.0, rng.uniform(-3.0, 3.0));
          std::vector<float> s(T);
          for (float& v : s)
            v = static_cast<float>(offset + sigma * rng.gaussian());
          // A placeholder at the far end keeps its rank when replaced.
          const std::size_t at = pick(rng, T);
          s[at] = outward > 0 ? 1e30f : -1e30f;
          const auto [med, limit] = reference_range_limit(s);
          const auto full = reference_spike_limit(s);
          ASSERT_TRUE(full.has_value());
          ASSERT_EQ(full->second, limit) << "the MAD set the limit";
          const float edge = last_float_within(med, limit, outward);
          s[at] = beyond ? std::nextafter(edge, outward) : edge;
          want_spikes += beyond;
          series.push_back(std::move(s));
        }
    const MtsDataset ds = dataset_of(std::move(series));
    expect_guard_matches_reference(ds);
    MtsDataset copy = ds;
    EXPECT_EQ(spike_points(apply_quality_guard(copy).report), want_spikes);
  }
}

TEST(QualityGuardEquivalence, ConstantSeriesMatchTwoSortReference) {
  // Short series (no stuck scan) and long ones, with and without NaN holes,
  // at values whose quantile interpolation rounds differently.
  for (const std::size_t T : {8, 9, 12, 47, 2880}) {
    SCOPED_TRACE(T);
    std::vector<std::vector<float>> series;
    for (const float value : {0.0f, -0.0f, 1.0f, -3.7f, 0.1f, 1e30f, -1e-30f,
                              std::numeric_limits<float>::denorm_min(),
                              std::numeric_limits<float>::max()})
      for (const bool holes : {false, true}) {
        std::vector<float> s(T, value);
        if (holes)
          for (std::size_t t = 1; t < T; t += 3) s[t] = kNan;
        series.push_back(std::move(s));
      }
    const MtsDataset ds = dataset_of(std::move(series));
    expect_guard_matches_reference(ds);
    MtsDataset copy = ds;
    EXPECT_EQ(spike_points(apply_quality_guard(copy).report), 0u);
  }
}

TEST(QualityGuardEquivalence, TwoValuedSeriesMatchTwoSortReference) {
  // Two values at every share of the minority value on 40 points (below
  // the stuck-run length), and on 2,880 points at shares around the p5
  // and p95 ranks and the median. The minority is spread evenly, so where
  // it is common the majority forms no stuck run either.
  const auto two_valued = [](std::size_t T, std::size_t minority, float major,
                             float minor) {
    std::vector<float> s(T, major);
    for (std::size_t i = 0; i < minority; ++i) s[i * T / minority] = minor;
    return s;
  };
  const std::vector<std::pair<float, float>> pairs = {
      {0.0f, 1.0f}, {5.0f, -2.5f}, {1e6f, std::nextafter(1e6f, kInf)},
      {-0.001f, 40.0f}};
  std::vector<std::vector<float>> short_series;
  for (const auto& [a, b] : pairs)
    for (std::size_t minority = 0; minority <= 40; ++minority)
      short_series.push_back(two_valued(40, minority, a, b));
  expect_guard_matches_reference(dataset_of(std::move(short_series)));

  std::vector<std::vector<float>> long_series;
  for (const auto& [a, b] : pairs)
    for (const std::size_t around : {144, 1440, 2736})
      for (std::size_t minority = around - 3; minority <= around + 3;
           ++minority)
        long_series.push_back(two_valued(2880, minority, a, b));
  expect_guard_matches_reference(dataset_of(std::move(long_series)));
}

TEST(ValidityMaskEquivalence, AggregateAndSelectMatchOldLoops) {
  Rng rng(31);
  const std::size_t N = 5, M = 12, T = 257;
  ValidityMask mask(N, M, T, 1);
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t m = 0; m < M; ++m)
      for (std::size_t t = 0; t < T; ++t)
        mask.at(n, m, t) = rng.bernoulli(m % 3 == 0 ? 0.9 : 0.4) ? 1 : 0;
  // Groups of every size, an empty one, and a source listed twice.
  const std::vector<std::vector<std::size_t>> sources = {
      {0}, {1, 2, 3}, {}, {4, 4, 5}, {11, 6}, {7, 8, 9, 10}};
  const std::vector<std::size_t> kept = {5, 0, 5, 11};
  expect_masks_equal(mask.aggregate(sources),
                     reference_aggregate(mask, sources));
  expect_masks_equal(mask.select_metrics(kept),
                     reference_select_metrics(mask, kept));
  expect_masks_equal(mask.select_metrics({}),
                     reference_select_metrics(mask, {}));
  EXPECT_TRUE(ValidityMask().aggregate(sources).empty());
  EXPECT_TRUE(ValidityMask().select_metrics(kept).empty());
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
