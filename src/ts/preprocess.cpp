#include "ts/preprocess.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "common/mathutil.hpp"
#include "common/thread_pool.hpp"

namespace ns {

std::size_t interpolate_missing(std::vector<float>& series) {
  const std::size_t n = series.size();
  std::size_t filled = 0;
  std::size_t i = 0;
  // Find first observed value.
  while (i < n && std::isnan(series[i])) ++i;
  if (i == n) {  // all missing
    std::fill(series.begin(), series.end(), 0.0f);
    return n;
  }
  // Fill leading gap with the first observation.
  for (std::size_t j = 0; j < i; ++j) {
    series[j] = series[i];
    ++filled;
  }
  std::size_t last_obs = i;
  for (++i; i < n; ++i) {
    if (!std::isnan(series[i])) {
      if (i > last_obs + 1) {
        // Linear interpolation across the gap (last_obs, i).
        const float lo = series[last_obs];
        const float hi = series[i];
        const float span = static_cast<float>(i - last_obs);
        for (std::size_t j = last_obs + 1; j < i; ++j) {
          const float t = static_cast<float>(j - last_obs) / span;
          series[j] = lo + t * (hi - lo);
          ++filled;
        }
      }
      last_obs = i;
    }
  }
  // Trailing gap: extend the last observation.
  for (std::size_t j = last_obs + 1; j < n; ++j) {
    series[j] = series[last_obs];
    ++filled;
  }
  return filled;
}

std::size_t clean_dataset(MtsDataset& dataset) {
  std::vector<std::size_t> per_node(dataset.nodes.size(), 0);
  parallel_for(0, dataset.nodes.size(), [&](std::size_t n) {
    std::size_t filled = 0;
    for (auto& series : dataset.nodes[n].values)
      filled += interpolate_missing(series);
    per_node[n] = filled;
  });
  std::size_t total = 0;
  for (std::size_t f : per_node) total += f;
  return total;
}

AggregationResult aggregate_semantics(const MtsDataset& dataset,
                                      const ValidityMask* mask) {
  // Group metric indices by semantic_group, preserving first-seen order.
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::string, std::size_t> group_index;
  for (std::size_t m = 0; m < dataset.metrics.size(); ++m) {
    const std::string& key = dataset.metrics[m].semantic_group.empty()
                                 ? dataset.metrics[m].name
                                 : dataset.metrics[m].semantic_group;
    auto [it, inserted] = group_index.try_emplace(key, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(m);
  }

  AggregationResult out;
  out.sources = groups;
  out.dataset.interval_seconds = dataset.interval_seconds;
  out.dataset.jobs = dataset.jobs;
  out.dataset.labels = dataset.labels;
  out.dataset.metrics.reserve(groups.size());
  for (const auto& group : groups) {
    MetricMeta meta = dataset.metrics[group.front()];
    if (!meta.semantic_group.empty()) meta.name = meta.semantic_group;
    meta.unit_id = -1;  // aggregated to node level
    out.dataset.metrics.push_back(std::move(meta));
  }

  const std::size_t t = dataset.num_timestamps();
  out.dataset.nodes.resize(dataset.nodes.size());
  parallel_for(0, dataset.nodes.size(), [&](std::size_t n) {
    NodeSeries& dst = out.dataset.nodes[n];
    dst.node_name = dataset.nodes[n].node_name;
    dst.values.assign(groups.size(), std::vector<float>(t, 0.0f));
    for (std::size_t g = 0; g < groups.size(); ++g) {
      // Average only the valid sources per timestamp so one stuck core
      // counter does not poison the whole semantic group. When no source
      // is valid, fall back to the filler average (the reduced mask marks
      // the point invalid, so it carries no scoring weight anyway). The
      // all-valid case is sum * 1/size in source order, the arithmetic
      // StreamPreprocessor replays per sample.
      const float inv = 1.0f / static_cast<float>(groups[g].size());
      for (std::size_t i = 0; i < t; ++i) {
        float valid_sum = 0.0f, all_sum = 0.0f;
        std::size_t valid_count = 0;
        for (std::size_t src : groups[g]) {
          const float v = dataset.nodes[n].values[src][i];
          all_sum += v;
          if (mask == nullptr || mask->valid(n, src, i)) {
            valid_sum += v;
            ++valid_count;
          }
        }
        if (valid_count == groups[g].size())
          dst.values[g][i] = all_sum * inv;
        else
          dst.values[g][i] =
              valid_count > 0
                  ? valid_sum / static_cast<float>(valid_count)
                  : all_sum * inv;
      }
    }
  });
  return out;
}

PruneResult prune_correlated(const MtsDataset& dataset, double threshold,
                             std::size_t sample_nodes, std::size_t stride) {
  NS_REQUIRE(stride >= 1, "prune_correlated: stride must be >= 1");
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

  // pearson()'s means and sums of squared deviations depend on one metric
  // only, so they are taken once per metric in its summation order; a pair
  // then costs the one pass over the cross products.
  std::vector<double> mu(m), ss(m);
  parallel_for(0, m, [&](std::size_t mi) {
    mu[mi] = mean(samples[mi]);
    double sum = 0.0;
    for (float x : samples[mi]) {
      const double d = x - mu[mi];
      sum += d * d;
    }
    ss[mi] = sum;
  });
  const auto correlation = [&](std::size_t a, std::size_t b) {
    if (samples[a].size() < 2 || ss[a] <= 0.0 || ss[b] <= 0.0) return 0.0;
    double num = 0.0;
    for (std::size_t i = 0; i < samples[a].size(); ++i) {
      const double xa = samples[a][i] - mu[a];
      const double xb = samples[b][i] - mu[b];
      num += xa * xb;
    }
    return num / std::sqrt(ss[a] * ss[b]);
  };

  std::vector<std::size_t> kept;
  // One byte per metric: the candidates of a kept metric are tested in
  // parallel and each writes its own flag.
  std::vector<std::uint8_t> dropped(m, 0);
  for (std::size_t a = 0; a < m; ++a) {
    if (dropped[a]) continue;
    kept.push_back(a);
    // Drop all later metrics that are near-duplicates of metric a.
    parallel_for(a + 1, m, [&](std::size_t b) {
      if (!dropped[b] && correlation(a, b) >= threshold) dropped[b] = 1;
    });
  }

  PruneResult out;
  out.kept = kept;
  out.dataset.interval_seconds = dataset.interval_seconds;
  out.dataset.jobs = dataset.jobs;
  out.dataset.labels = dataset.labels;
  for (std::size_t k : kept) out.dataset.metrics.push_back(dataset.metrics[k]);
  out.dataset.nodes.resize(dataset.nodes.size());
  parallel_for(0, dataset.nodes.size(), [&](std::size_t n) {
    out.dataset.nodes[n].node_name = dataset.nodes[n].node_name;
    out.dataset.nodes[n].values.reserve(kept.size());
    for (std::size_t k : kept)
      out.dataset.nodes[n].values.push_back(dataset.nodes[n].values[k]);
  });
  return out;
}

void Standardizer::fit(const MtsDataset& dataset, std::size_t fit_until,
                       double trim, const ValidityMask* mask) {
  const std::size_t t_max =
      std::min(fit_until, dataset.num_timestamps());
  NS_REQUIRE(t_max > 0, "Standardizer::fit on empty window");
  mean_.assign(dataset.nodes.size(), {});
  stddev_.assign(dataset.nodes.size(), {});
  parallel_for(0, dataset.nodes.size(), [&](std::size_t n) {
    mean_[n].resize(dataset.num_metrics());
    stddev_[n].resize(dataset.num_metrics());
    for (std::size_t m = 0; m < dataset.num_metrics(); ++m) {
      std::vector<float> window;
      window.reserve(t_max);
      for (std::size_t i = 0; i < t_max; ++i)
        if (mask == nullptr || mask->valid(n, m, i))
          window.push_back(dataset.nodes[n].values[m][i]);
      if (window.size() < 2) {
        // Dead-in-training metric: neutral moments keep the filler at 0.
        mean_[n][m] = 0.0;
        stddev_[n][m] = 1.0;
        continue;
      }
      const TrimmedMoments tm = trimmed_moments(std::move(window), trim);
      mean_[n][m] = tm.mean;
      // Zero-variance metrics (constant series) get unit scale so they map
      // to exactly 0 after centering instead of NaN.
      stddev_[n][m] = tm.stddev > 1e-9 ? tm.stddev : 1.0;
    }
  });
}

void Standardizer::apply(MtsDataset& dataset, float clip) const {
  NS_REQUIRE(fitted(), "Standardizer::apply before fit");
  NS_REQUIRE(mean_.size() == dataset.nodes.size(),
             "Standardizer node count mismatch");
  parallel_for(0, dataset.nodes.size(), [&](std::size_t n) {
    NS_REQUIRE(mean_[n].size() == dataset.num_metrics(),
               "Standardizer metric count mismatch");
    for (std::size_t m = 0; m < dataset.num_metrics(); ++m) {
      const float mu = static_cast<float>(mean_[n][m]);
      const float inv_sigma = static_cast<float>(1.0 / stddev_[n][m]);
      for (float& x : dataset.nodes[n].values[m]) {
        x = (x - mu) * inv_sigma;
        x = std::clamp(x, -clip, clip);
      }
    }
  });
}

std::vector<JobSpan> build_job_spans(std::span<const JobSpan> scheduled,
                                     std::size_t total_timestamps,
                                     std::size_t min_idle_length) {
  std::vector<JobSpan> sorted(scheduled.begin(), scheduled.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const JobSpan& a, const JobSpan& b) { return a.begin < b.begin; });
  std::vector<JobSpan> out;
  std::size_t cursor = 0;
  std::int64_t idle_id = -1;
  for (const JobSpan& span : sorted) {
    NS_REQUIRE(span.begin >= cursor,
               "build_job_spans: overlapping job records at " << span.begin);
    NS_REQUIRE(span.end <= total_timestamps && span.begin < span.end,
               "build_job_spans: span out of range");
    if (span.begin > cursor && span.begin - cursor >= min_idle_length)
      out.push_back(JobSpan{idle_id--, cursor, span.begin});
    else if (span.begin > cursor && !out.empty())
      out.back().end = span.begin;  // absorb a micro-gap into the prior span
    else if (span.begin > cursor)
      out.push_back(JobSpan{idle_id--, cursor, span.begin});
    out.push_back(span);
    cursor = span.end;
  }
  if (cursor < total_timestamps)
    out.push_back(JobSpan{idle_id--, cursor, total_timestamps});
  return out;
}

PreprocessOutput preprocess(const MtsDataset& raw, std::size_t fit_until,
                            double correlation_threshold, double trim,
                            float clip) {
  PreprocessOutput out;
  MtsDataset cleaned = raw;
  QualityResult guarded = apply_quality_guard(cleaned);
  out.quality = std::move(guarded.report);
  clean_dataset(cleaned);
  AggregationResult aggregated = aggregate_semantics(cleaned, &guarded.mask);
  out.aggregation_sources = std::move(aggregated.sources);
  ValidityMask reduced = guarded.mask.aggregate(out.aggregation_sources);
  PruneResult pruned =
      prune_correlated(aggregated.dataset, correlation_threshold);
  out.kept_metrics = std::move(pruned.kept);
  out.dataset = std::move(pruned.dataset);
  out.mask = reduced.select_metrics(out.kept_metrics);
  out.standardizer.fit(out.dataset, fit_until, trim, &out.mask);
  out.standardizer.apply(out.dataset, clip);
  return out;
}

}  // namespace ns
