#include "ts/quality.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

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
  parallel_for(0, num_nodes(), [&](std::size_t n) {
    for (std::size_t g = 0; g < sources.size(); ++g) {
      std::uint8_t* dst = out.data_[n].data() + g * timestamps_;
      for (std::size_t src : sources[g]) {
        const std::uint8_t* row = data_[n].data() + src * timestamps_;
        for (std::size_t t = 0; t < timestamps_; ++t) dst[t] |= row[t];
      }
    }
  });
  return out;
}

ValidityMask ValidityMask::select_metrics(
    const std::vector<std::size_t>& kept) const {
  if (data_.empty()) return {};
  ValidityMask out(num_nodes(), kept.size(), timestamps_, 0);
  parallel_for(0, num_nodes(), [&](std::size_t n) {
    for (std::size_t k = 0; k < kept.size(); ++k) {
      const std::uint8_t* row = data_[n].data() + kept[k] * timestamps_;
      std::copy(row, row + timestamps_, out.data_[n].data() + k * timestamps_);
    }
  });
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

// The type-7 quantile q of the sample `xs`, exactly as quantile_from_sorted
// reads it from the sorted sample: order statistics lo and lo + 1 around
// pos = q * (n - 1). Both lie in [first, last), a range an earlier
// selection split off (no value before `first` is larger and no value from
// `last` on is smaller), so lo is found by selection inside it and lo + 1
// is the minimum of the partition above lo.
double select_quantile(std::vector<float>& xs, std::size_t first,
                       std::size_t last, double q) {
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto at = [&xs](std::size_t i) {
    return xs.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::nth_element(at(first), at(lo), at(last));
  const float next = *std::min_element(at(lo + 1), at(last));
  return (1.0 - frac) * xs[lo] + frac * next;
}

// Bins of the coarse histogram spikes_ruled_out() reads.
constexpr std::size_t kSpikeBins = 256;

// True when the sample's range and a coarse count histogram prove that no
// value lies more than spike_mad_factor * (p95 - p5) / 2 from the median,
// the limit below which scan_spikes returns before the MAD: the sample is
// the `count` non-NaN values of `series`, `smallest` and `largest` its
// extremes. Values fall in kSpikeBins equal bins between the extremes, and
// binning is monotone, so the bin holding order statistic k bounds it.
// p5, the median and p95 interpolate between order statistics lo and
// lo + 1 of their type-7 positions; the median is bounded by the bins of
// both, p5 from above by the bin of its lo + 1 and p95 from below by the
// bin of its lo. Every bound is widened by a whole bin and the comparison
// keeps a 0.1 % margin, both far beyond the rounding of the binning and of
// scan_spikes' own arithmetic. A constant sample is ruled out at once: its
// median is its value exactly, so no point lies beyond any limit and
// scan_spikes flags nothing.
bool spikes_ruled_out(const std::vector<float>& series, std::size_t count,
                      float smallest, float largest) {
  if (smallest == largest) return true;
  const double base = smallest;
  const double top = largest;
  const double width = (top - base) / kSpikeBins;
  const double per_width = kSpikeBins / (top - base);
  std::array<std::size_t, kSpikeBins> cumulative{};
  for (const float v : series)
    if (!std::isnan(v))
      ++cumulative[std::min(kSpikeBins - 1,
                            static_cast<std::size_t>(
                                (static_cast<double>(v) - base) * per_width))];
  for (std::size_t b = 1; b < kSpikeBins; ++b)
    cumulative[b] += cumulative[b - 1];
  const auto bin_of = [&cumulative](std::size_t k) {
    return static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), k) -
        cumulative.begin());
  };
  const auto below = [&](std::size_t k) {
    const std::size_t b = bin_of(k);
    return b < 2 ? base : base + static_cast<double>(b - 1) * width;
  };
  const auto above = [&](std::size_t k) {
    const std::size_t b = bin_of(k);
    if (b + 2 >= kSpikeBins) return top;
    return base + static_cast<double>(b + 2) * width;
  };
  // Order statistic lo of each quantile, as select_quantile computes it.
  const auto lower_rank = [count](double q) {
    return static_cast<std::size_t>(q * static_cast<double>(count - 1));
  };
  const std::size_t mid = lower_rank(0.5);
  const double p5_above = above(lower_rank(0.05) + 1);
  const double p95_below = below(lower_rank(0.95));
  const double farthest = std::max(top - below(mid), above(mid + 1) - base);
  return p95_below > p5_above &&
         farthest * 1.001 <
             QualityConfig::spike_mad_factor * (p95_below - p5_above) / 2.0;
}

void scan_spikes(SeriesGuard& g) {
  std::size_t count = 0;
  float smallest = std::numeric_limits<float>::infinity();
  float largest = -smallest;
  for (const float v : g.series) {
    if (std::isnan(v)) continue;
    ++count;
    smallest = std::min(smallest, v);
    largest = std::max(largest, v);
  }
  if (count < 8 || spikes_ruled_out(g.series, count, smallest, largest))
    return;
  std::vector<float> finite;
  finite.reserve(count);
  for (const float v : g.series)
    if (!std::isnan(v)) finite.push_back(v);
  // The median splits the sample, so p5 is selected below it and p95 above
  // it. From eight points on, each of these ranges also holds order
  // statistic lo + 1 of its quantile, as select_quantile requires.
  const std::size_t mid =
      static_cast<std::size_t>(0.5 * static_cast<double>(count - 1));
  const double med = select_quantile(finite, 0, count, 0.5);
  const double p5 = select_quantile(finite, 0, mid, 0.05);
  const double p95 = select_quantile(finite, mid + 1, count, 0.95);
  // Workload telemetry is often bimodal (idle floor vs busy plateau): the
  // MAD hugs the idle mode and would flag legitimate busy samples. Floor
  // the robust scale with the central 90% range so only values far outside
  // the series' own observed dynamic range count as non-physical. The MAD
  // can only raise the limit above that floor, so when no point lies beyond
  // the floor's limit nothing is flagged and the MAD is not needed.
  const double range_scale = (p95 - p5) / 2.0;
  const double range_limit = QualityConfig::spike_mad_factor * range_scale;
  if (std::none_of(finite.begin(), finite.end(), [&](float v) {
        return std::abs(v - med) > range_limit;
      }))
    return;
  for (float& v : finite) v = static_cast<float>(std::abs(v - med));
  const double mad = select_quantile(finite, 0, count, 0.5);
  const double scale = std::max(mad, range_scale);
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
