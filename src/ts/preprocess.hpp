// The paper's four-step preprocessing pipeline (§3.2):
// Cleaning -> Reduction (semantic aggregation + correlation pruning) ->
// Standardization (trimmed z-score, clipped) -> job-based Segmentation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ts/mts.hpp"
#include "ts/quality.hpp"

namespace ns {

// ---------------------------------------------------------------- Cleaning

/// Linearly interpolates NaN gaps in place using the nearest observed
/// neighbours; leading/trailing gaps are filled with the nearest value.
/// An all-NaN series becomes all zeros. Returns the number of filled points.
std::size_t interpolate_missing(std::vector<float>& series);

/// Applies interpolate_missing to every node/metric series of the dataset.
std::size_t clean_dataset(MtsDataset& dataset);

// --------------------------------------------------------------- Reduction

/// Result of semantic aggregation: per-core metrics sharing a
/// semantic_group are averaged into one node-level metric.
struct AggregationResult {
  MtsDataset dataset;  ///< aggregated copy (labels/jobs carried over)
  /// For each output metric, the input metric indices it averages.
  std::vector<std::vector<std::size_t>> sources;
};

/// Each output point averages only the *valid* source metrics at that
/// timestamp (a dying per-core sensor no longer poisons its semantic
/// group); points with no valid source fall back to averaging the filler
/// values and are themselves invalid in the reduced mask (see
/// ValidityMask::aggregate). A null `mask` means every cell is valid.
AggregationResult aggregate_semantics(const MtsDataset& dataset,
                                      const ValidityMask* mask = nullptr);

/// Greedy correlation pruning: metrics whose Pearson r against an earlier
/// kept metric is >= threshold (paper: 0.99) are dropped. Correlation is
/// estimated on up to `sample_nodes` nodes with a stride-subsampled series.
struct PruneResult {
  MtsDataset dataset;              ///< pruned copy
  std::vector<std::size_t> kept;   ///< indices of surviving input metrics
};

PruneResult prune_correlated(const MtsDataset& dataset,
                             double threshold = 0.99,
                             std::size_t sample_nodes = 8,
                             std::size_t stride = 1);

// --------------------------------------------------------- Standardization

/// Per node-metric z-score using 5%-trimmed moments (Eq. 2), with final
/// values clipped to [-clip, +clip] (paper: 5). Fitted on training data and
/// applied to train and test alike.
class Standardizer {
 public:
  /// Fits per-(node, metric) trimmed mean/std on `dataset`, considering
  /// only timestamps in [0, fit_until) — pass num_timestamps() to use all.
  /// Invalid points of `mask` are excluded from the moments (filler values
  /// must not drag the z-scale); a series with fewer than two valid fit
  /// points gets neutral moments (mean 0, std 1). A null `mask` means every
  /// point is valid.
  void fit(const MtsDataset& dataset, std::size_t fit_until,
           double trim = 0.05, const ValidityMask* mask = nullptr);

  /// Applies z-score + clipping in place. Dataset shape must match fit().
  void apply(MtsDataset& dataset, float clip = 5.0f) const;

  bool fitted() const { return !mean_.empty(); }
  double mean(std::size_t node, std::size_t metric) const {
    return mean_.at(node).at(metric);
  }
  double stddev(std::size_t node, std::size_t metric) const {
    return stddev_.at(node).at(metric);
  }

 private:
  std::vector<std::vector<double>> mean_;    // [node][metric]
  std::vector<std::vector<double>> stddev_;  // [node][metric]
};

// ------------------------------------------------------------ Segmentation

/// Builds job spans from raw (job_id, start, end) records for one node,
/// inserting idle spans (job_id = -1) in scheduling gaps so the whole
/// timeline is covered. Records must be non-overlapping.
std::vector<JobSpan> build_job_spans(
    std::span<const JobSpan> scheduled, std::size_t total_timestamps,
    std::size_t min_idle_length = 1);

/// Runs the full §3.2 pipeline, preceded by the data-quality guard:
/// guard -> clean -> aggregate (mask-aware) -> prune -> standardize
/// (fitting on [0, fit_until), invalid points excluded). Returns the
/// processed dataset plus the validity mask mapped into the processed
/// metric space and the guard's QualityReport (raw metric indices).
struct PreprocessOutput {
  MtsDataset dataset;
  std::vector<std::vector<std::size_t>> aggregation_sources;
  std::vector<std::size_t> kept_metrics;
  Standardizer standardizer;
  ValidityMask mask;       ///< processed-space, one bit per processed cell
  QualityReport quality;   ///< events indexed in *raw* metric space
};

PreprocessOutput preprocess(const MtsDataset& raw, std::size_t fit_until,
                            double correlation_threshold = 0.99,
                            double trim = 0.05, float clip = 5.0f);

}  // namespace ns
