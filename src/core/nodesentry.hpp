// NodeSentry: unsupervised node-level anomaly detection for HPC systems via
// coarse-grained clustering and fine-grained model sharing (the paper's
// primary contribution).
//
// Offline (fit): preprocess -> job-based segmentation -> TSFEL-style
// feature extraction -> HAC with silhouette-chosen k -> per cluster, train
// one shared Transformer+MoE reconstruction model on the K segments nearest
// the centroid, with MAC-derived WMSE weights and segment-aware positional
// encoding.
//
// Online (detect): for every test segment, extract features from a short
// matching window after the job transition, match the nearest cluster,
// reconstruct with its shared model, score by weighted reconstruction
// error, and flag anomalies with a sliding k-sigma threshold. Unmatched
// patterns optionally spawn new clusters; matched ones can be fine-tuned
// incrementally.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/cluster_library.hpp"
#include "core/config.hpp"
#include "core/segments.hpp"
#include "core/trainer.hpp"
#include "eval/metrics.hpp"
#include "ts/mts.hpp"
#include "ts/preprocess.hpp"

namespace ns {

/// Outcome of one test segment during online detection.
enum class SegmentStatus : std::uint8_t {
  kScored = 0,
  /// Too little valid telemetry (per the quality mask) to score honestly;
  /// the segment's points keep score 0 instead of garbage.
  kInsufficientData = 1,
};

struct SegmentOutcome {
  CoreSegment segment;
  SegmentStatus status = SegmentStatus::kScored;
  double valid_fraction = 1.0;
};

class NodeSentry {
 public:
  explicit NodeSentry(NodeSentryConfig config) : config_(std::move(config)) {}

  struct FitReport {
    double preprocess_seconds = 0.0;
    double feature_seconds = 0.0;
    double clustering_seconds = 0.0;
    double training_seconds = 0.0;
    double total_seconds = 0.0;
    std::size_t num_segments = 0;
    std::size_t num_clusters = 0;
    std::size_t metrics_after_reduction = 0;
    double silhouette = 0.0;
    QualityReport quality;  ///< data-quality guard findings on the raw data
    /// Training segments dropped for falling under the quality gate.
    std::size_t segments_dropped_quality = 0;
    std::size_t checkpoints_written = 0;
  };

  /// Trains the full pipeline on raw data; the standardizer is fitted on
  /// [0, train_end) only. With config.checkpoint_dir set, the cluster
  /// library is checkpointed as training progresses (see config).
  FitReport fit(const MtsDataset& raw, std::size_t train_end);

  /// Resumes from a checkpoint written during a previous fit()/detect():
  /// re-runs the (deterministic) preprocessing on the same raw data and
  /// loads the checkpointed library, after which detect() behaves as if
  /// fit() had produced those clusters. Throws ns::ParseError when the
  /// checkpoint is truncated or corrupted.
  void restore(const MtsDataset& raw, std::size_t train_end,
               const std::string& checkpoint_directory);

  struct DetectReport {
    /// Per node, aligned to the full timeline (zeros before train_end).
    std::vector<NodeDetection> detections;
    double total_seconds = 0.0;
    /// Per-segment matching-window feature extraction plus centroid
    /// matching, summed over segments (and so over threads: it can exceed
    /// total_seconds).
    double match_seconds = 0.0;
    std::size_t scored_points = 0;
    std::size_t segments_matched = 0;
    std::size_t segments_unmatched = 0;
    /// Segments skipped as kInsufficientData (degraded telemetry).
    std::size_t segments_insufficient = 0;
    std::size_t incremental_new_clusters = 0;
    std::size_t incremental_finetunes = 0;
    /// Per-segment status, one per test segment, in test-segment order.
    std::vector<SegmentOutcome> outcomes;
  };

  /// Runs online detection over the test region of the fitted dataset.
  /// With config.incremental_updates, unmatched patterns spawn new clusters
  /// and matched patterns fine-tune their shared model (mutates the
  /// library). Segments are matched in test order; the clusters then adapt
  /// and score concurrently on the global pool, each walking its own
  /// segments in test order, and the result does not depend on the thread
  /// count.
  DetectReport detect();

  const ClusterLibrary& library() const { return library_; }
  ClusterLibrary& mutable_library() { return library_; }
  const MtsDataset& processed() const { return processed_; }
  /// Validity mask over the processed dataset: one bit per processed cell,
  /// never empty after fit() or restore() (the quality guard always runs).
  const ValidityMask& mask() const { return mask_; }
  std::size_t train_end() const { return train_end_; }
  const NodeSentryConfig& config() const { return config_; }
  /// Fitted preprocessing artifacts (valid after fit()/restore()). The
  /// serve engine replays them per sample so streaming preprocessing is
  /// bit-identical to the batch path on clean data.
  const Standardizer& standardizer() const { return standardizer_; }
  const std::vector<std::vector<std::size_t>>& aggregation_sources() const {
    return aggregation_sources_;
  }
  const std::vector<std::size_t>& kept_metrics() const {
    return kept_metrics_;
  }
  /// Number of raw (pre-aggregation) metrics seen at fit time.
  std::size_t raw_metrics() const { return raw_metrics_; }
  /// Silhouette-optimal k found during fit. 0 when fit ran with
  /// config.forced_k set — the silhouette sweep is skipped entirely then
  /// (FitReport.silhouette reports the forced cut's own score).
  std::size_t auto_k() const { return auto_k_; }

  /// Feature vector of a segment of the processed dataset (exposed for the
  /// labeling tool and tests).
  std::vector<float> segment_features(const CoreSegment& segment) const;

  /// Token matrix of a segment, centered per metric by the mean of the
  /// segment's leading window when config.center_tokens is set (see config
  /// for rationale). Exposed for tests.
  Tensor model_tokens(const CoreSegment& segment,
                      std::size_t max_tokens = 0) const;

  /// Architecture of the fitted library's models (config.model with the
  /// processed metric count folded in). The generation registry and
  /// background retrainer clone/restore models from this description.
  TransformerConfig model_config() const;

  /// The fit's training recipe run for `epochs` epochs: config's
  /// learning_rate, train_batch, denoise_noise and denoise_token_drop.
  /// fit()'s per-cluster training and the serve Retrainer both train
  /// through it, so a retrained generation learns as the fit did.
  TrainOptions train_options(std::size_t epochs) const;

 private:
  /// Chunks the member segments and trains the entry's shared model with
  /// the batched mini-batch trainer (core/trainer.hpp, DESIGN.md §11) on
  /// train_options(epochs): config.train_batch chunks per Adam step
  /// through one block-diagonal forward, then a batch-size-invariant,
  /// thread-count-invariant residual-statistics pass.
  void train_cluster(ClusterEntry& entry, std::size_t epochs,
                     std::uint64_t seed);
  /// Builds a fully-populated entry (centroid, radius, weights, members)
  /// from member segment indices, then trains it.
  ClusterEntry build_cluster(const std::vector<CoreSegment>& segments,
                             const std::vector<std::vector<float>>& features,
                             const std::vector<std::size_t>& member_indices,
                             std::uint64_t seed);
  /// Saves a consistent snapshot of `snapshot_clusters` (library order)
  /// into the configured checkpoint directory; `step` names the history
  /// subdirectory when checkpoint_history is on.
  void write_checkpoint(const std::vector<const ClusterEntry*>& snapshot_clusters,
                        std::size_t step) const;

  NodeSentryConfig config_;
  MtsDataset processed_;
  std::size_t train_end_ = 0;
  ClusterLibrary library_;
  ValidityMask mask_;
  std::size_t auto_k_ = 0;
  Standardizer standardizer_;
  std::vector<std::vector<std::size_t>> aggregation_sources_;
  std::vector<std::size_t> kept_metrics_;
  std::size_t raw_metrics_ = 0;
};

/// Centers tokens [rows, M] per metric by the mean of the leading
/// min(rows, match_period) rows (see NodeSentryConfig::center_tokens).
/// Shared by the batch model_tokens() path and the serve engine so both
/// feed the model bit-identical inputs.
void center_tokens_leading(Tensor& tokens, std::size_t match_period);

/// Per-point scores of one scored chunk: `out` is the model reconstruction
/// and `chunk` the clean tokens, both [len, M]. Writes out_scores[0..len)
/// (cells it skips are left untouched) and returns the number of scored
/// points. The weighted error divides by the weight mass of the metrics
/// valid at (mask_node, m, mask_begin + t); a timestamp with no valid
/// metric is skipped. A null `mask` marks every cell valid.
///
/// Attribution (DESIGN.md §15): with a non-null `out_contrib` the same pass
/// also writes out_contrib[t * M + m] = the m-th metric's term of point t's
/// score, with the score's divisor, so that sum_m out_contrib[t * M + m]
/// equals out_scores[t] up to float rounding. Invalid cells and skipped
/// timestamps get 0. The terms are computed after the score is written and
/// never feed back into it, so the score bits do not depend on
/// `out_contrib`.
std::size_t chunk_point_scores(const ClusterEntry& entry, const Tensor& out,
                               const Tensor& chunk, const ValidityMask* mask,
                               std::size_t mask_node, std::size_t mask_begin,
                               float* out_scores,
                               float* out_contrib = nullptr);

/// Statistics-based overload: identical arithmetic, but the whitening
/// divisor and baseline come from the caller instead of the ClusterEntry —
/// the serve engine's consensus path scores each model generation against
/// its *own* residual statistics (a retrained generation has its own
/// notion of "normal" error). The ClusterEntry overload delegates here.
std::size_t chunk_point_scores(const Tensor& metric_weights,
                               const Tensor& residual_scale,
                               double baseline_error, const Tensor& out,
                               const Tensor& chunk, const ValidityMask* mask,
                               std::size_t mask_node, std::size_t mask_begin,
                               float* out_scores,
                               float* out_contrib = nullptr);

/// Per-timestamp reference level for thresholding: each [begin, end) range
/// gets its own 25th-percentile score (floored at 1e-6), 1.0 elsewhere. A
/// segment whose pattern the matched model fits less well has a uniformly
/// elevated error; judging each point against its own segment keeps those
/// segments from drowning in false positives.
std::vector<float> score_reference_levels(
    const std::vector<float>& scores,
    std::span<const std::pair<std::size_t, std::size_t>> segment_ranges);

/// Final §3.5 anomaly flags for one node: causal median smoothing, sliding
/// k-sigma, then the relative floor / hard-ceiling rules against the
/// reference level. Flags cover [begin, scores.size()); zeros before.
std::vector<std::uint8_t> detection_flags(const std::vector<float>& scores,
                                          const std::vector<float>& reference,
                                          std::size_t begin,
                                          const NodeSentryConfig& config);

/// Sliding k-sigma dynamic threshold (§3.5): a point is anomalous when its
/// score exceeds mean + k * stddev of the previous `window` scores.
/// Returns per-point flags for [begin, end) of `scores` (zeros elsewhere).
/// Non-finite scores are never flagged and never enter the window
/// statistics (a NaN burst must not poison the threshold); `window` must
/// be >= 1. Flagging starts once min(window, 8) finite scores of history
/// have accumulated — the warm-up is clamped to the window length so
/// small-window configs threshold instead of silently never flagging.
std::vector<std::uint8_t> ksigma_flags(const std::vector<float>& scores,
                                       std::size_t begin, std::size_t end,
                                       std::size_t window, double k_sigma,
                                       double sigma_floor_fraction = 0.0,
                                       double min_score = 0.0,
                                       double hard_score = 0.0);

/// Causal median filter: out[t] = median(scores[t-w+1 .. t]) (clipped at the
/// front). Width 1 returns the input unchanged. Non-finite samples are
/// excluded from each window's median; a window with no finite sample
/// passes its input through unchanged.
std::vector<float> causal_median_filter(const std::vector<float>& scores,
                                        std::size_t width);

}  // namespace ns
