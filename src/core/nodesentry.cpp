#include "core/nodesentry.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>

#include "cluster/distance.hpp"
#include "common/log.hpp"
#include "common/mathutil.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/trainer.hpp"
#include "features/extract.hpp"
#include "nn/optim.hpp"
#include "nn/scoring.hpp"
#include "obs/timer.hpp"
#include "tensor/kernels.hpp"

namespace ns {
namespace {

/// WMSE weights from MAC (Eq. 5–6): metrics with high mean absolute change
/// are intrinsically unstable within a pattern, so they are down-weighted
/// (w = 1 / (1 + MAC), MAC averaged over `members`, normalized to mean 1).
Tensor mac_weights(const MtsDataset& processed,
                   const std::vector<CoreSegment>& members) {
  const std::size_t M = processed.num_metrics();
  std::vector<double> mac(M, 0.0);
  for (const CoreSegment& seg : members) {
    const auto values = core_segment_values(processed, seg);
    for (std::size_t m = 0; m < M; ++m)
      mac[m] += mean_absolute_change(values[m]);
  }
  Tensor weights(Shape{M});
  double weight_sum = 0.0;
  for (std::size_t m = 0; m < M; ++m) {
    const double w = 1.0 / (1.0 + mac[m] / members.size());
    weights.at(m) = static_cast<float>(w);
    weight_sum += w;
  }
  const float norm = static_cast<float>(static_cast<double>(M) / weight_sum);
  for (std::size_t m = 0; m < M; ++m) weights.at(m) *= norm;
  return weights;
}

}  // namespace

std::vector<float> NodeSentry::segment_features(
    const CoreSegment& segment) const {
  return extract_segment_features(core_segment_values(processed_, segment));
}

Tensor NodeSentry::model_tokens(const CoreSegment& segment,
                                std::size_t max_tokens) const {
  Tensor tokens = segment_tokens(processed_, segment, max_tokens);
  if (config_.center_tokens) center_tokens_leading(tokens, config_.match_period);
  return tokens;
}

void center_tokens_leading(Tensor& tokens, std::size_t match_period) {
  const std::size_t rows = tokens.size(0);
  const std::size_t cols = tokens.size(1);
  const std::size_t lead = std::min(rows, match_period);
  if (lead == 0) return;
  for (std::size_t m = 0; m < cols; ++m) {
    double mu = 0.0;
    for (std::size_t t = 0; t < lead; ++t) mu += tokens.at(t, m);
    mu /= static_cast<double>(lead);
    for (std::size_t t = 0; t < rows; ++t)
      tokens.at(t, m) -= static_cast<float>(mu);
  }
}

SegmentRoute route_segment(const ClusterLibrary& library,
                           const std::vector<std::vector<float>>& window,
                           const ValidityMask& mask, std::size_t mask_node,
                           std::size_t mask_begin,
                           const NodeSentryConfig& config) {
  const std::size_t M = window.size();
  NS_REQUIRE(M > 0 && !window.front().empty() && mask.num_metrics() == M,
             "route_segment: empty window or metric count mismatch");
  const std::size_t mask_end = mask_begin + window.front().size();
  SegmentRoute route;
  // A mostly-masked window cannot be matched honestly: the segment is
  // reported kInsufficientData and its points keep score 0.
  route.valid_fraction =
      mask.segment_valid_fraction(mask_node, mask_begin, mask_end);
  if (route.valid_fraction < config.quality.min_segment_valid_fraction) {
    route.status = SegmentStatus::kInsufficientData;
    return route;
  }
  // Metrics dead within the window are excluded from the feature distance
  // (their feature blocks are mean-imputed), so a dying sensor degrades
  // the match instead of dominating it.
  std::vector<std::uint8_t> feature_valid;
  const std::size_t fpm = features_per_metric();
  for (std::size_t m = 0; m < M; ++m) {
    if (mask.valid_fraction(mask_node, m, mask_begin, mask_end) >=
        config.quality.min_metric_valid_fraction)
      continue;
    if (feature_valid.empty()) feature_valid.assign(M * fpm, 1);
    std::fill_n(feature_valid.begin() + static_cast<std::ptrdiff_t>(m * fpm),
                fpm, static_cast<std::uint8_t>(0));
  }
  const std::vector<float> features =
      library.scale_masked(extract_segment_features(window), feature_valid);
  const MatchResult match =
      library.match(features, config.match_threshold_factor);
  route.matched = match.matched;
  route.cluster = match.cluster;
  route.member = library.nearest_member(match.cluster, features);
  return route;
}

TrainOptions NodeSentry::train_options(std::size_t epochs) const {
  TrainOptions options;
  options.epochs = epochs;
  options.learning_rate = config_.learning_rate;
  options.batch = config_.train_batch;
  options.denoise_noise = config_.denoise_noise;
  options.denoise_token_drop = config_.denoise_token_drop;
  return options;
}

TransformerConfig NodeSentry::model_config() const {
  TransformerConfig mc = config_.model;
  mc.input_dim = processed_.num_metrics();
  mc.max_segments = std::max<std::size_t>(config_.segments_per_cluster, 2);
  mc.max_position =
      std::max<std::size_t>(mc.max_position, config_.max_tokens_per_segment);
  return mc;
}

QualityReport NodeSentry::adopt_preprocess(const MtsDataset& raw,
                                           std::size_t train_end) {
  PreprocessOutput pre =
      preprocess(raw, train_end, config_.correlation_threshold,
                 config_.standardize_trim, config_.standardize_clip);
  train_end_ = train_end;
  processed_ = std::move(pre.dataset);
  mask_ = std::move(pre.mask);
  standardizer_ = std::move(pre.standardizer);
  aggregation_sources_ = std::move(pre.aggregation_sources);
  kept_metrics_ = std::move(pre.kept_metrics);
  raw_metrics_ = raw.num_metrics();
  return std::move(pre.quality);
}

NodeSentry::FitReport NodeSentry::fit(const MtsDataset& raw,
                                      std::size_t train_end) {
  NS_REQUIRE(train_end > 0 && train_end <= raw.num_timestamps(),
             "fit: train_end out of range");
  FitReport report;
  Stopwatch total;
  // Stage durations also land in the shared metrics registry so one
  // exposition (obs/export.hpp) covers offline fit next to the serve path.
  obs::Registry& metrics = obs::Registry::global();
  const auto fit_stage_hist = [&metrics](const char* stage) -> obs::Histogram& {
    return metrics.histogram(
        "ns_fit_stage_seconds", "Offline fit stage duration in seconds",
        obs::default_duration_buckets(), {{"stage", stage}}, 256);
  };

  // ---- Preprocessing (§3.2) behind the data-quality guard
  Stopwatch sw;
  report.quality = adopt_preprocess(raw, train_end);
  report.preprocess_seconds = sw.elapsed_s();
  fit_stage_hist("preprocess").observe(report.preprocess_seconds);
  report.metrics_after_reduction = processed_.num_metrics();
  if (!report.quality.clean())
    NS_LOG_INFO("quality guard masked " << report.quality.points_invalid
                                        << " of " << report.quality.points_total
                                        << " raw points ("
                                        << report.quality.events.size()
                                        << " events)");

  // ---- Segmentation + feature extraction (§3.3)
  sw.restart();
  std::vector<CoreSegment> segments =
      training_segments(processed_, train_end, config_);
  NS_REQUIRE(!segments.empty(), "fit: no training segments");
  // Quality gate: a segment that is mostly masked would teach the shared
  // model filler values; drop it from training.
  std::vector<CoreSegment> usable;
  usable.reserve(segments.size());
  for (const CoreSegment& seg : segments)
    if (mask_.segment_valid_fraction(seg.node, seg.begin, seg.end) >=
        config_.quality.min_segment_valid_fraction)
      usable.push_back(seg);
  report.segments_dropped_quality = segments.size() - usable.size();
  NS_REQUIRE(!usable.empty(),
             "fit: no training segments with sufficient data quality");
  segments = std::move(usable);
  Rng rng(config_.seed);
  if (config_.training_subsample < 1.0) {
    // Uniform random subset (Fig. 6a training-size sweep).
    std::vector<CoreSegment> kept;
    for (const CoreSegment& seg : segments)
      if (rng.bernoulli(config_.training_subsample)) kept.push_back(seg);
    if (!kept.empty()) segments = std::move(kept);
  }
  std::vector<std::vector<float>> features(segments.size());
  ThreadPool& pool = ThreadPool::global();
  pool.parallel_for(0, segments.size(), 1, [&](std::size_t i) {
    features[i] = segment_features(segments[i]);
  });
  // Column z-scaling so no single feature (e.g. abs_energy, which grows
  // with segment length) dominates the clustering distance, then PCA to
  // concentrate the informative directions (Challenge 1).
  library_.scaler().fit(features);
  library_.scaler().transform_in_place(features);
  if (config_.pca_components > 0 && features.size() > 2) {
    library_.pca().fit(features, config_.pca_components);
    library_.pca().transform_in_place(features);
  }
  report.feature_seconds = sw.elapsed_s();
  fit_stage_hist("features").observe(report.feature_seconds);
  report.num_segments = segments.size();

  // ---- Coarse-grained clustering (§3.3)
  sw.restart();
  std::vector<std::size_t> labels;
  std::size_t k = 1;
  if (segments.size() == 1) {
    labels.assign(1, 0);
    auto_k_ = 1;
  } else {
    // One O(n^2 d) distance build: Ward merges on the squared distances and
    // the silhouette reads their square roots, euclidean() bit for bit.
    DistanceMatrix squared = DistanceMatrix::build(features, true);
    const DistanceMatrix dist = squared.square_roots();
    Hac hac(config_.linkage == Linkage::kWard ? std::move(squared)
                                              : DistanceMatrix(dist),
            config_.linkage);
    if (config_.forced_k > 0) {
      // Forced k: the O(n^2 * k_max) silhouette sweep would only produce a
      // result we discard, so cut directly and report the silhouette of
      // the cut actually used. auto_k() stays 0 — no sweep ran.
      k = std::min(config_.forced_k, segments.size());
      labels = hac.cut(k);
      report.silhouette = silhouette_score(dist, labels);
      auto_k_ = 0;
    } else {
      const std::size_t k_max =
          std::min(config_.k_max, segments.size());
      const AutoKResult auto_k = choose_k_by_silhouette(
          hac, dist, std::min(config_.k_min, k_max), k_max);
      auto_k_ = auto_k.k;
      report.silhouette = auto_k.silhouette;
      k = auto_k.k;
      labels = auto_k.labels;
    }
    if (config_.random_cluster_assignment) {
      // Ablation C2: same model count, random membership.
      for (auto& label : labels)
        label = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
    }
  }
  report.clustering_seconds = sw.elapsed_s();
  fit_stage_hist("clustering").observe(report.clustering_seconds);

  // ---- Fine-grained model sharing (§3.4)
  sw.restart();
  std::vector<std::vector<std::size_t>> members(k);
  for (std::size_t i = 0; i < labels.size(); ++i)
    members[labels[i]].push_back(i);
  library_.clusters().clear();
  library_.clusters().resize(k);
  std::vector<std::size_t> nonempty;
  for (std::size_t c = 0; c < k; ++c)
    if (!members[c].empty()) nonempty.push_back(c);
  // Every cluster's members and training chunks come first, so the
  // clusters can then train longest-first.
  std::vector<std::vector<TrainChunk>> chunks(k);
  pool.parallel_for(0, nonempty.size(), 1, [&](std::size_t idx) {
    const std::size_t c = nonempty[idx];
    library_.clusters()[c] = select_members(segments, features, members[c]);
    chunks[c] = member_chunks(library_.clusters()[c]);
  });
  // Clusters are trained in waves so a checkpoint can be published after
  // each wave: a crash mid-fit loses at most one wave of work, and the
  // last checkpoint is always a complete, loadable library prefix.
  const bool checkpointing = !config_.checkpoint_dir.empty();
  const std::size_t wave =
      checkpointing && config_.checkpoint_every > 0 ? config_.checkpoint_every
                                                    : nonempty.size();
  obs::Histogram& cluster_train_hist = metrics.histogram(
      "ns_fit_cluster_train_seconds",
      "Per-cluster shared-model training duration in seconds",
      obs::default_duration_buckets(), {}, 256);
  for (std::size_t base = 0; base < nonempty.size(); base += wave) {
    const std::size_t stop = std::min(nonempty.size(), base + wave);
    // Within a wave the clusters with the most training tokens start first
    // (ties by index), so the longest ones are not left to run alone at
    // the end. Each cluster trains from its own seed on one thread, so the
    // order changes no model.
    std::vector<std::size_t> order(
        nonempty.begin() + static_cast<std::ptrdiff_t>(base),
        nonempty.begin() + static_cast<std::ptrdiff_t>(stop));
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return library_.clusters()[a].training_tokens >
                              library_.clusters()[b].training_tokens;
                     });
    pool.parallel_for(0, order.size(), 1, [&](std::size_t o) {
      const std::size_t c = order[o];
      obs::ScopedTimer timer(&cluster_train_hist, "fit.train_cluster");
      ClusterEntry& entry = library_.clusters()[c];
      const std::uint64_t seed = config_.seed + 1000 + c;
      Rng model_rng(seed);
      entry.model =
          std::make_shared<TransformerReconstructor>(model_config(), model_rng);
      train_cluster(entry, chunks[c], config_.train_epochs, seed ^ 0xABCDEF);
    });
    if (checkpointing) {
      std::vector<const ClusterEntry*> trained;
      trained.reserve(stop);
      for (std::size_t i = 0; i < stop; ++i)
        trained.push_back(&library_.clusters()[nonempty[i]]);
      write_checkpoint(trained, stop);
      ++report.checkpoints_written;
    }
  }
  // Drop empty clusters (possible under random assignment).
  auto& clusters = library_.clusters();
  clusters.erase(std::remove_if(clusters.begin(), clusters.end(),
                                [](const ClusterEntry& e) {
                                  return e.members.empty();
                                }),
                 clusters.end());
  report.training_seconds = sw.elapsed_s();
  fit_stage_hist("training").observe(report.training_seconds);
  report.num_clusters = library_.size();
  report.total_seconds = total.elapsed_s();
  NS_LOG_INFO("NodeSentry fit: " << report.num_segments << " segments -> "
                                 << report.num_clusters << " clusters in "
                                 << report.total_seconds << " s");
  return report;
}

void NodeSentry::write_checkpoint(
    const std::vector<const ClusterEntry*>& snapshot_clusters,
    std::size_t step) const {
  ClusterLibrary snapshot;
  snapshot.scaler() = library_.scaler();
  snapshot.pca() = library_.pca();
  snapshot.clusters().reserve(snapshot_clusters.size());
  for (const ClusterEntry* entry : snapshot_clusters)
    snapshot.clusters().push_back(*entry);
  std::string dir = config_.checkpoint_dir;
  if (config_.checkpoint_history)
    dir = (std::filesystem::path(dir) / ("step_" + std::to_string(step)))
              .string();
  snapshot.save(dir);
}

void NodeSentry::restore(const MtsDataset& raw, std::size_t train_end,
                         const std::string& checkpoint_directory) {
  NS_REQUIRE(train_end > 0 && train_end <= raw.num_timestamps(),
             "restore: train_end out of range");
  adopt_preprocess(raw, train_end);
  library_ = ClusterLibrary{};
  library_.load(checkpoint_directory, model_config(), config_.seed);
  NS_REQUIRE(!library_.empty(), "restore: checkpoint holds no clusters");
  NS_LOG_INFO("NodeSentry restored " << library_.size()
                                     << " clusters from "
                                     << checkpoint_directory);
}

ClusterEntry NodeSentry::select_members(
    const std::vector<CoreSegment>& segments,
    const std::vector<std::vector<float>>& features,
    const std::vector<std::size_t>& member_indices) const {
  ClusterEntry entry;
  entry.centroid = centroid_of(features, member_indices);

  // Mean member distance = matching radius.
  double radius = 0.0;
  for (std::size_t idx : member_indices)
    radius += euclidean(features[idx], entry.centroid);
  entry.radius = radius / static_cast<double>(member_indices.size());

  // K segments nearest the centroid become the shared model's training set.
  std::vector<std::pair<double, std::size_t>> by_distance;
  by_distance.reserve(member_indices.size());
  for (std::size_t idx : member_indices)
    by_distance.emplace_back(euclidean(features[idx], entry.centroid), idx);
  std::sort(by_distance.begin(), by_distance.end());
  const std::size_t keep =
      std::min(config_.segments_per_cluster, by_distance.size());
  for (std::size_t i = 0; i < keep; ++i) {
    entry.members.push_back(segments[by_distance[i].second]);
    entry.member_features.push_back(features[by_distance[i].second]);
  }
  entry.metric_weights = mac_weights(processed_, entry.members);
  return entry;
}

std::vector<TrainChunk> NodeSentry::member_chunks(ClusterEntry& entry) const {
  std::vector<TrainChunk> chunks;
  for (std::size_t s = 0; s < entry.members.size(); ++s) {
    const Tensor tokens =
        model_tokens(entry.members[s], config_.max_tokens_per_segment);
    for (TrainChunk& chunk : train_chunks(tokens, config_.train_window, s)) {
      entry.training_tokens += chunk.offsets.size();
      chunks.push_back(std::move(chunk));
    }
  }
  return chunks;
}

void NodeSentry::train_cluster(ClusterEntry& entry,
                               const std::vector<TrainChunk>& chunks,
                               std::size_t epochs, std::uint64_t seed) {
  TrainStats stats = train_reconstructor(*entry.model, chunks,
                                         entry.metric_weights,
                                         train_options(epochs), seed);
  entry.residual_scale = std::move(stats.residual_scale);
  entry.baseline_error = stats.baseline_error;
}

std::vector<std::uint8_t> ksigma_flags(const std::vector<float>& scores,
                                       std::size_t begin, std::size_t end,
                                       std::size_t window, double k_sigma,
                                       double sigma_floor_fraction) {
  NS_REQUIRE(begin <= end && end <= scores.size(),
             "ksigma_flags: bad range");
  NS_REQUIRE(window >= 1, "ksigma_flags: window must be >= 1");
  std::vector<std::uint8_t> flags(scores.size(), 0);
  // Ring buffer of the last `window` *finite* scores with running sums. A
  // NaN/Inf score (degraded telemetry) is neither flagged nor admitted to
  // the statistics — one poisoned sample must not disable thresholding for
  // an entire window length.
  std::vector<float> ring(window, 0.0f);
  double sum = 0.0, sum_sq = 0.0;
  std::size_t count = 0, head = 0;
  // Warm-up gate: wait for enough history before trusting the estimate.
  // `count` is capped at `window` once the ring fills, so the gate must be
  // clamped to the window length — a fixed `count >= 8` can never be
  // satisfied when window < 8 and silently produced zero flags for
  // small-window configs.
  const std::size_t warmup = std::min<std::size_t>(window, 8);
  for (std::size_t t = begin; t < end; ++t) {
    const float score = scores[t];
    if (!std::isfinite(score)) continue;
    if (count >= warmup) {  // enough history for a stable estimate
      const double mu = sum / static_cast<double>(count);
      const double var =
          std::max(0.0, sum_sq / static_cast<double>(count) - mu * mu);
      const double sigma = std::max(std::sqrt(var),
                                    sigma_floor_fraction * std::abs(mu)) +
                           1e-9;
      if (score > mu + k_sigma * sigma) flags[t] = 1;
    }
    // Slide the window: add current, evict the oldest if full.
    if (count == window) {
      const float old = ring[head];
      sum -= old;
      sum_sq -= static_cast<double>(old) * old;
    } else {
      ++count;
    }
    ring[head] = score;
    head = (head + 1) % window;
    sum += score;
    sum_sq += static_cast<double>(score) * score;
  }
  return flags;
}

std::vector<float> causal_median_filter(const std::vector<float>& scores,
                                        std::size_t width) {
  if (width <= 1) return scores;
  std::vector<float> out(scores.size());
  std::vector<float> window;
  for (std::size_t t = 0; t < scores.size(); ++t) {
    const std::size_t begin = t + 1 >= width ? t + 1 - width : 0;
    window.clear();
    // Non-finite samples would make nth_element's ordering (and thus the
    // "median") meaningless; the median is taken over finite samples only.
    for (std::size_t i = begin; i <= t; ++i)
      if (std::isfinite(scores[i])) window.push_back(scores[i]);
    if (window.empty()) {
      out[t] = scores[t];
      continue;
    }
    std::nth_element(window.begin(), window.begin() + window.size() / 2,
                     window.end());
    out[t] = window[window.size() / 2];
  }
  return out;
}

std::size_t chunk_point_scores(const ClusterEntry& entry, const Tensor& out,
                               const Tensor& chunk, const ValidityMask* mask,
                               std::size_t mask_node, std::size_t mask_begin,
                               float* out_scores, float* out_contrib) {
  return chunk_point_scores(entry.metric_weights, entry.residual_scale,
                            entry.baseline_error, out, chunk, mask, mask_node,
                            mask_begin, out_scores, out_contrib);
}

std::size_t chunk_point_scores(const Tensor& metric_weights,
                               const Tensor& residual_scale,
                               double baseline_error, const Tensor& out,
                               const Tensor& chunk, const ValidityMask* mask,
                               std::size_t mask_node, std::size_t mask_begin,
                               float* out_scores, float* out_contrib) {
  const std::size_t len = chunk.size(0);
  const std::size_t M = chunk.size(1);
  NS_REQUIRE(out.size(0) == len && out.size(1) == M,
             "chunk_point_scores: reconstruction shape mismatch");
  const auto valid = [&](std::size_t m, std::size_t t) {
    return mask == nullptr || mask->valid(mask_node, m, mask_begin + t);
  };
  std::size_t scored = 0;
  for (std::size_t t = 0; t < len; ++t) {
    // The weighted error renormalizes over the metrics alive at this
    // timestamp, so a masked sensor shrinks the evidence base instead of
    // injecting filler residuals into the score.
    double err = 0.0, weight = 0.0;
    for (std::size_t m = 0; m < M; ++m) {
      if (!valid(m, t)) continue;
      const double d = out.at(t, m) - chunk.at(t, m);
      err += metric_weights.at(m) * d * d / residual_scale.at(m);
      weight += metric_weights.at(m);
    }
    float* row = out_contrib != nullptr ? out_contrib + t * M : nullptr;
    if (row != nullptr) std::fill(row, row + M, 0.0f);
    if (weight <= 0.0) continue;  // fully-dead timestamp: score untouched
    out_scores[t] = static_cast<float>(err / weight / baseline_error);
    ++scored;
    if (row == nullptr) continue;
    // Per-metric terms of the score just written, with its divisor: they
    // read the score's inputs and never feed back into it.
    for (std::size_t m = 0; m < M; ++m) {
      if (!valid(m, t)) continue;
      const double d = out.at(t, m) - chunk.at(t, m);
      row[m] = static_cast<float>(metric_weights.at(m) * d * d /
                                  residual_scale.at(m) / weight /
                                  baseline_error);
    }
  }
  return scored;
}

std::vector<float> score_reference_levels(
    const std::vector<float>& scores,
    std::span<const std::pair<std::size_t, std::size_t>> segment_ranges) {
  std::vector<float> reference(scores.size(), 1.0f);
  for (const auto& [begin, end] : segment_ranges) {
    NS_REQUIRE(begin <= end && end <= scores.size(),
               "score_reference_levels: bad range");
    // Non-finite scores never enter the reference (same policy as
    // ksigma_flags: a NaN burst must not poison the threshold).
    std::vector<float> seg_scores;
    seg_scores.reserve(end - begin);
    for (std::size_t t = begin; t < end; ++t)
      if (std::isfinite(scores[t])) seg_scores.push_back(scores[t]);
    if (seg_scores.empty()) continue;
    // 25th percentile, not median: a fault can cover a large fraction of a
    // short (clipped) test segment, and the reference must track the
    // *normal* level, not the contaminated bulk.
    const float ref = static_cast<float>(
        std::max(1e-6, percentile(std::move(seg_scores), 0.25)));
    for (std::size_t t = begin; t < end; ++t) reference[t] = ref;
  }
  return reference;
}

std::vector<float> smooth_scores(const std::vector<float>& scores,
                                 const NodeSentryConfig& config) {
  return causal_median_filter(scores, config.score_median_window);
}

std::vector<std::uint8_t> detection_flags(const std::vector<float>& scores,
                                          const std::vector<float>& reference,
                                          std::size_t begin,
                                          const NodeSentryConfig& config) {
  const std::size_t T = scores.size();
  NS_REQUIRE(reference.size() == T,
             "detection_flags: reference/scores size mismatch");
  const std::vector<float> smoothed = smooth_scores(scores, config);
  const std::vector<std::uint8_t> base_flags =
      ksigma_flags(smoothed, begin, T, config.threshold_window,
                   config.k_sigma, config.sigma_floor_fraction);
  std::vector<std::uint8_t> flags(T, 0);
  for (std::size_t t = begin; t < T; ++t) {
    const double ref = reference[t];
    const bool above_floor = config.min_score_factor <= 0.0 ||
                             smoothed[t] >= config.min_score_factor * ref;
    const bool hard_hit = config.hard_score_factor > 0.0 &&
                          smoothed[t] >= config.hard_score_factor * ref;
    if ((base_flags[t] && above_floor) || hard_hit) flags[t] = 1;
  }
  return flags;
}

NodeSentry::DetectReport NodeSentry::detect() {
  NS_REQUIRE(!library_.empty(), "detect before fit");
  DetectReport report;
  Stopwatch total;
  const std::size_t T = processed_.num_timestamps();
  const std::size_t N = processed_.num_nodes();
  const std::size_t M = processed_.num_metrics();
  report.detections.assign(N, NodeDetection{});
  for (auto& d : report.detections) {
    d.scores.assign(T, 0.0f);
    d.predictions.assign(T, 0);
  }

  const std::vector<CoreSegment> segments =
      test_segments(processed_, train_end_, config_);
  obs::Registry& metrics = obs::Registry::global();
  const char* kDetectHelp = "Batch detect stage latency in seconds";
  obs::Histogram& detect_match_hist = metrics.histogram(
      "ns_detect_stage_seconds", kDetectHelp, obs::default_latency_buckets(),
      {{"stage", "match"}}, 4096);
  obs::Histogram& detect_score_hist = metrics.histogram(
      "ns_detect_stage_seconds", kDetectHelp, obs::default_latency_buckets(),
      {{"stage", "score"}}, 4096);
  ThreadPool& pool = ThreadPool::global();

  // A segment's matching window: its first match_period ticks.
  const auto matching_window = [this](const CoreSegment& seg) {
    CoreSegment window = seg;
    window.end = std::min(seg.end, seg.begin + config_.match_period);
    return window;
  };

  // ---- Pass 1, parallel per segment: route_segment gates and matches each
  // segment on its matching window, as the serve engine does. Matching only
  // reads the fitted library, so an unmatched pattern scores on its nearest
  // cluster.
  std::vector<SegmentRoute> routes(segments.size());
  std::vector<double> route_seconds(segments.size(), 0.0);
  pool.parallel_for(0, segments.size(), 1, [&](std::size_t i) {
    Stopwatch match_sw;
    const CoreSegment window = matching_window(segments[i]);
    routes[i] = route_segment(library_, core_segment_values(processed_, window),
                              mask_, window.node, window.begin, config_);
    route_seconds[i] = match_sw.elapsed_s();
    detect_match_hist.observe(route_seconds[i]);
  });
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentRoute& route = routes[i];
    report.outcomes.push_back(
        SegmentOutcome{segments[i], route.status, route.valid_fraction});
    report.match_seconds += route_seconds[i];
    if (route.status == SegmentStatus::kInsufficientData) {
      ++report.segments_insufficient;
      continue;
    }
    ++(route.matched ? report.segments_matched : report.segments_unmatched);
  }

  // Eval-mode reconstruction of a segment's leading token rows (offsets
  // 0, 1, ...) through a canonical plan, bitwise the model's own eval
  // forward; `blocks` confines attention as in forward_blocked().
  const auto reconstruct = [](const ScoringPlan& plan, const Tensor& tokens,
                              std::size_t segment_id,
                              std::span<const std::size_t> blocks,
                              Workspace& ws) {
    std::vector<std::size_t> offsets(tokens.size(0));
    std::iota(offsets.begin(), offsets.end(), 0);
    const std::vector<std::size_t> seg_ids(tokens.size(0), segment_id);
    return plan.forward(tokens, offsets, seg_ids, blocks, ws);
  };

  // Normalized mean reconstruction error of a matching window (capped at
  // one detection chunk) — the trigger for targeted incremental
  // fine-tuning. Masked (invalid) cells carry no weight; the error
  // renormalizes over the valid cells' weight mass.
  const auto window_error = [&](const ClusterEntry& entry,
                                const ScoringPlan& plan,
                                const CoreSegment& window, std::size_t member,
                                Workspace& ws) {
    const Tensor tokens = model_tokens(window, config_.detect_chunk);
    const Tensor out = reconstruct(plan, tokens, member, {}, ws);
    double err = 0.0, weight = 0.0;
    for (std::size_t t = 0; t < tokens.size(0); ++t)
      for (std::size_t m = 0; m < M; ++m) {
        if (!mask_.valid(window.node, m, window.begin + t)) continue;
        const double d = out.at(t, m) - tokens.at(t, m);
        err += entry.metric_weights.at(m) * d * d /
               entry.residual_scale.at(m);
        weight += entry.metric_weights.at(m);
      }
    if (weight <= 0.0) return 0.0;
    return err / weight / entry.baseline_error;
  };

  // Light fine-tune of a cluster's shared model on one matching window
  // (the cluster's other members are already fitted; retraining them here
  // would dominate online cost). Positional metadata matches scoring.
  const auto finetune = [&](ClusterEntry& entry, const ScoringPlan& plan,
                            const CoreSegment& window, std::size_t member,
                            Workspace& ws) {
    Rng tune_rng(config_.seed ^ (window.begin * 31 + window.node));
    Adam optimizer(entry.model->parameters(), config_.learning_rate);
    const Tensor tokens = model_tokens(window, config_.max_tokens_per_segment);
    // Robust (trimmed) fine-tuning: tokens in the top error quartile under
    // the current model are excluded from the loss — if the window hides a
    // localized anomaly, those are its points, and learning them would mask
    // the fault for the rest of the segment.
    std::vector<float> token_weight(tokens.size(0), 1.0f);
    {
      const Tensor probe = reconstruct(plan, tokens, member, {}, ws);
      std::vector<float> errs(tokens.size(0));
      for (std::size_t t = 0; t < tokens.size(0); ++t) {
        double e = 0.0;
        for (std::size_t m = 0; m < M; ++m) {
          if (!mask_.valid(window.node, m, window.begin + t)) continue;
          const double d = probe.at(t, m) - tokens.at(t, m);
          e += entry.metric_weights.at(m) * d * d /
               entry.residual_scale.at(m);
        }
        errs[t] = static_cast<float>(e);
      }
      const float cut = static_cast<float>(percentile(errs, 0.75));
      for (std::size_t t = 0; t < tokens.size(0); ++t)
        if (errs[t] > cut) token_weight[t] = 0.0f;
    }
    const std::vector<TrainChunk> pieces =
        train_chunks(tokens, config_.train_window, member);
    for (std::size_t epoch = 0; epoch < config_.finetune_epochs; ++epoch) {
      for (const TrainChunk& piece : pieces) {
        const std::size_t start = piece.offsets.front();
        const std::size_t rows = piece.offsets.size();
        Tensor chunk = piece.tokens.clone();
        for (std::size_t t = 0; t < rows; ++t) {
          if (tune_rng.bernoulli(config_.denoise_token_drop)) {
            for (std::size_t m = 0; m < M; ++m) chunk.at(t, m) = 0.0f;
            continue;
          }
          for (std::size_t m = 0; m < M; ++m)
            chunk.at(t, m) += static_cast<float>(
                tune_rng.gaussian(0.0, config_.denoise_noise));
        }
        const std::vector<std::size_t> seg_ids(rows, piece.segment_id);
        optimizer.zero_grad();
        Var out = entry.model->forward(Var::constant(chunk), piece.offsets,
                                       seg_ids, tune_rng);
        // Row-masked WMSE: rows with token weight 0 drop out of the loss
        // (sqrt(w_m) folded into a constant [T, M] mask).
        Tensor weight_mask(Shape{rows, M});
        for (std::size_t t = 0; t < rows; ++t)
          for (std::size_t m = 0; m < M; ++m) {
            const bool cell_valid =
                mask_.valid(window.node, m, window.begin + start + t);
            weight_mask.at(t, m) =
                cell_valid ? token_weight[start + t] *
                                 std::sqrt(entry.metric_weights.at(m))
                           : 0.0f;
          }
        Var diff = vsub(out, Var::constant(piece.tokens));
        Var masked = vmask(diff, weight_mask);
        Var loss = vmean(vmul(masked, masked));
        loss.backward();
        optimizer.step();
      }
    }
  };

  // Reconstruction scoring of a whole segment: its detect_chunk-row chunks
  // (a trailing 1-row chunk is skipped) run as one block-diagonal forward,
  // bitwise equal to one forward per chunk. Returns the points scored.
  const auto score_segment = [&](const ClusterEntry& entry,
                                 const ScoringPlan& plan,
                                 const CoreSegment& seg, std::size_t member,
                                 Workspace& ws) {
    const std::size_t len = seg.length();
    std::vector<std::size_t> blocks;
    std::size_t rows = 0;
    for (std::size_t start = 0; start < len; start += config_.detect_chunk) {
      const std::size_t stop = std::min(len, start + config_.detect_chunk);
      if (stop - start < 2) break;
      blocks.push_back(stop - start);
      rows = stop;
    }
    if (rows == 0) return std::size_t{0};
    Tensor tokens = model_tokens(seg);
    if (rows < len) tokens = slice_rows(tokens, 0, rows);
    const Tensor out = reconstruct(plan, tokens, member, blocks, ws);
    float* scores = report.detections[seg.node].scores.data() + seg.begin;
    std::size_t points = 0, start = 0;
    for (const std::size_t block : blocks) {
      const std::size_t stop = start + block;
      points += chunk_point_scores(
          entry, slice_rows(out, start, stop), slice_rows(tokens, start, stop),
          &mask_, seg.node, seg.begin + start, scores + start);
      start = stop;
    }
    return points;
  };

  // ---- Pass 2, parallel over clusters, largest first: each cluster walks
  // its own segments in test order — fine-tune trigger, optional fine-tune,
  // then scoring. A cluster's model changes only through its own segments
  // and eval forwards draw no randomness, so every score equals that of
  // one sequential walk over all segments, at any thread count.
  const std::size_t K = library_.size();
  std::vector<std::vector<std::size_t>> walks(K);
  std::vector<std::size_t> work(K, 0);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (routes[i].status != SegmentStatus::kScored) continue;
    walks[routes[i].cluster].push_back(i);
    work[routes[i].cluster] += segments[i].length();
  }
  std::vector<std::size_t> order(K);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&work](std::size_t a, std::size_t b) {
                     return work[a] > work[b];
                   });
  std::vector<std::size_t> scored(K, 0), finetunes(K, 0);
  pool.parallel_for(0, K, 1, [&](std::size_t o) {
    const std::size_t c = order[o];
    if (walks[c].empty()) return;
    ClusterEntry& entry = library_.clusters()[c];
    Workspace ws;
    ScoringPlan plan = ScoringPlan::canonical(*entry.model);
    for (const std::size_t i : walks[c]) {
      const CoreSegment& seg = segments[i];
      const SegmentRoute& route = routes[i];
      if (route.matched && config_.incremental_updates) {
        // Targeted adaptation: only when the shared model visibly misfits
        // this segment's matching window — but not when the window looks
        // outright anomalous (learning it would mask the fault).
        const CoreSegment window = matching_window(seg);
        const double err = window_error(entry, plan, window, route.member, ws);
        if (err > config_.finetune_trigger && err < config_.finetune_ceiling) {
          finetune(entry, plan, window, route.member, ws);
          // The plan packs q|k|v into its own copy of the weights, so it
          // is recompiled from the tuned model.
          plan = ScoringPlan::canonical(*entry.model);
          ++finetunes[c];
        }
      }
      obs::ScopedTimer score_timer(&detect_score_hist, "detect.score");
      scored[c] += score_segment(entry, plan, seg, route.member, ws);
    }
  });
  for (std::size_t c = 0; c < K; ++c) {
    report.scored_points += scored[c];
    report.incremental_finetunes += finetunes[c];
  }

  // ---- Pass 3, parallel per node: dynamic k-sigma thresholding (§3.5).
  // The reference level and flag rules live in score_reference_levels /
  // detection_flags, shared with the serve engine so both paths threshold
  // identically. Each iteration only touches its own node's record.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> ranges(N);
  for (const CoreSegment& seg : segments)
    ranges[seg.node].emplace_back(seg.begin, seg.end);
  pool.parallel_for(0, N, 1, [&](std::size_t n) {
    const std::vector<float> reference =
        score_reference_levels(report.detections[n].scores, ranges[n]);
    report.detections[n].predictions = detection_flags(
        report.detections[n].scores, reference, train_end_, config_);
  });
  report.total_seconds = total.elapsed_s();
  return report;
}

}  // namespace ns
