#include "ts/quality.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "common/thread_pool.hpp"

namespace ns {

double ValidityMask::valid_fraction(std::size_t node, std::size_t metric,
                                    std::size_t begin, std::size_t end) const {
  if (data_.empty() || end <= begin) return 1.0;
  std::size_t valid_count = 0;
  for (std::size_t t = begin; t < end; ++t)
    valid_count += at(node, metric, t) != 0;
  return static_cast<double>(valid_count) / static_cast<double>(end - begin);
}

double ValidityMask::segment_valid_fraction(std::size_t node,
                                            std::size_t begin,
                                            std::size_t end) const {
  if (data_.empty() || end <= begin || metrics_ == 0) return 1.0;
  std::size_t valid_count = 0;
  for (std::size_t m = 0; m < metrics_; ++m)
    for (std::size_t t = begin; t < end; ++t)
      valid_count += at(node, m, t) != 0;
  return static_cast<double>(valid_count) /
         static_cast<double>(metrics_ * (end - begin));
}

double ValidityMask::row_valid_fraction(std::size_t node,
                                        std::size_t t) const {
  if (data_.empty() || metrics_ == 0) return 1.0;
  std::size_t valid_count = 0;
  for (std::size_t m = 0; m < metrics_; ++m) valid_count += at(node, m, t) != 0;
  return static_cast<double>(valid_count) / static_cast<double>(metrics_);
}

ValidityMask ValidityMask::aggregate(
    const std::vector<std::vector<std::size_t>>& sources) const {
  if (data_.empty()) return {};
  ValidityMask out(num_nodes(), sources.size(), timestamps_, 0);
  for (std::size_t n = 0; n < num_nodes(); ++n)
    for (std::size_t g = 0; g < sources.size(); ++g)
      for (std::size_t t = 0; t < timestamps_; ++t) {
        std::uint8_t any = 0;
        for (std::size_t src : sources[g]) any |= at(n, src, t);
        out.at(n, g, t) = any;
      }
  return out;
}

ValidityMask ValidityMask::select_metrics(
    const std::vector<std::size_t>& kept) const {
  if (data_.empty()) return {};
  ValidityMask out(num_nodes(), kept.size(), timestamps_, 0);
  for (std::size_t n = 0; n < num_nodes(); ++n)
    for (std::size_t k = 0; k < kept.size(); ++k)
      for (std::size_t t = 0; t < timestamps_; ++t)
        out.at(n, k, t) = at(n, kept[k], t);
  return out;
}

const char* quality_issue_name(QualityIssue issue) {
  switch (issue) {
    case QualityIssue::kLongGap: return "long_gap";
    case QualityIssue::kNonFinite: return "non_finite";
    case QualityIssue::kStuckSensor: return "stuck_sensor";
    case QualityIssue::kSpike: return "spike";
    case QualityIssue::kDeadMetric: return "dead_metric";
  }
  return "unknown";
}

namespace {

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

}  // namespace

QualityResult apply_quality_guard(MtsDataset& dataset) {
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

}  // namespace ns
