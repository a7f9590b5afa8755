// NodeSentry configuration: every knob of the offline training and online
// detection pipeline, including the switches used by the paper's ablation
// variants C1–C5 (§4.4) and hyperparameter sweeps (§4.6). Values no run
// varies are `static constexpr` members: they read like fields
// (`config.detect_chunk`) but cannot be set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "cluster/hac.hpp"
#include "nn/transformer.hpp"
#include "ts/quality.hpp"

namespace ns {

struct NodeSentryConfig {
  // ---- preprocessing (§3.2)
  double correlation_threshold = 0.99;
  double standardize_trim = 0.05;
  static constexpr float standardize_clip = 5.0f;
  /// Telemetry data-quality guard run ahead of cleaning: classifies
  /// NaN/Inf bursts, stuck sensors, spikes, long gaps and dead metrics,
  /// producing the validity mask that degrades scoring gracefully.
  static constexpr QualityConfig quality{};

  // ---- segmentation
  std::size_t min_segment_length = 8;
  /// Ablation C3: chop the timeline into fixed windows instead of job-based
  /// segments.
  bool fixed_length_segmentation = false;
  std::size_t fixed_segment_length = 96;

  // ---- coarse-grained clustering (§3.3)
  /// Principal components kept after feature z-scaling (0 disables PCA).
  /// Mitigates the curse of dimensionality on the ~40 x M feature space.
  std::size_t pca_components = 16;
  Linkage linkage = Linkage::kWard;
  static constexpr std::size_t k_min = 2;
  std::size_t k_max = 12;
  /// 0 = choose k automatically by silhouette. Ablation C1 forces 1.
  /// Fig. 6(b) sweeps multiples of the auto k.
  std::size_t forced_k = 0;
  /// Ablation C2: keep the number of models but assign segments randomly.
  bool random_cluster_assignment = false;
  /// Fig. 6(a): train on this fraction of the training segments.
  double training_subsample = 1.0;

  // ---- fine-grained model sharing (§3.4)
  /// K segments nearest the centroid used to train each shared model, and
  /// the freshest segments the serve Retrainer trains a clone on.
  static constexpr std::size_t segments_per_cluster = 4;
  /// Center each segment's tokens by the per-metric mean of its leading
  /// window before modeling. Per-node standardization (Eq. 2) leaves
  /// node-specific offsets inside every cluster (a node's z-level for the
  /// same workload depends on its own job mix); removing the segment's own
  /// baseline makes the shared model see coherent data across nodes. The
  /// leading window is what online detection has at matching time.
  bool center_tokens = true;
  TransformerConfig model;  ///< input_dim / max_segments set during fit()
  std::size_t train_epochs = 6;
  /// The paper's artifact uses 1.5e-4 with 30 epochs on larger data; the
  /// scaled-down benches use a larger step with fewer epochs.
  float learning_rate = 2e-3f;
  std::size_t train_window = 48;           ///< tokens per training chunk
  /// Training chunks packed into one block-diagonal mini-batch per Adam
  /// step. 1 reproduces the classic one-step-per-chunk trainer bit for
  /// bit; larger values take one step on the batch-mean gradient, which
  /// amortizes the optimizer and graph overhead over B chunks (the fit
  /// throughput win) at the cost of a different — not worse — optimizer
  /// trajectory. Residual statistics are batch-size-invariant.
  static constexpr std::size_t train_batch = 8;
  std::size_t max_tokens_per_segment = 192;
  /// Denoising training: inputs are corrupted with Gaussian noise (and
  /// random token drops) while the loss targets the clean tokens. This
  /// keeps the reconstructor from collapsing to an identity map, so
  /// off-pattern (anomalous) inputs are projected back toward the learned
  /// pattern and show a large reconstruction error.
  static constexpr float denoise_noise = 0.4f;
  static constexpr float denoise_token_drop = 0.15f;

  // ---- online detection (§3.5)
  /// Matching window after a job transition (paper default 1 h = 240 steps
  /// at 15 s). Fig. 6(e) sweeps this.
  std::size_t match_period = 240;
  /// Sliding window for the dynamic threshold (paper recommends 15–20 min).
  /// Fig. 6(f) sweeps this.
  std::size_t threshold_window = 60;
  double k_sigma = 3.0;
  /// Floor on the window stddev, as a fraction of the window mean; keeps
  /// ultra-quiet windows from flagging benign micro-spikes.
  static constexpr double sigma_floor_fraction = 0.2;
  /// Causal median filter width applied to scores before thresholding.
  /// Removes single-point reconstruction spikes while preserving real
  /// anomaly intervals, which span many samples.
  static constexpr std::size_t score_median_window = 3;
  /// Relative floor on the score: a point is only flagged when its smoothed
  /// score also exceeds this multiple of its segment's reference level, the
  /// 25th-percentile score of that test segment (score_reference_levels).
  /// Suppresses k-sigma triggers on benign local wiggles; genuine faults
  /// run several times the reference.
  double min_score_factor = 3.0;
  /// Hard ceiling: a smoothed score above this multiple of the segment's
  /// reference level is flagged even when the local k-sigma window is too
  /// noisy to trigger (e.g. the window already contains the anomaly's own
  /// samples).
  double hard_score_factor = 6.0;
  /// Bound on attention sequence length.
  static constexpr std::size_t detect_chunk = 96;
  /// A segment matches a cluster when its centroid distance is below
  /// factor * cluster radius; otherwise it is an unmatched pattern, scored
  /// on its nearest cluster and never fine-tuned.
  double match_threshold_factor = 2.5;

  // ---- incremental training (§3.5, RQ3)
  /// detect()'s adaptation switch: targeted fine-tuning of matched
  /// segments' shared models (finetune_trigger below). The serve engine
  /// never adapts.
  bool incremental_updates = true;
  /// Targeted incremental fine-tuning: when a *matched* segment's matching
  /// window reconstructs worse than this multiple of the cluster baseline,
  /// the shared model is fine-tuned on that window before scoring the rest
  /// of the segment (§3.5's adaptation, applied only where needed).
  double finetune_trigger = 3.0;
  /// Upper bound for targeted fine-tuning: a matching window whose error
  /// exceeds this multiple of the baseline is more likely anomalous than a
  /// benign pattern shift, and must not be learned.
  static constexpr double finetune_ceiling = 10.0;
  /// Epochs of every warm-start update of a fitted model: detect()'s
  /// fine-tune and each serve Retrainer clone.
  std::size_t finetune_epochs = 4;

  // ---- crash-safe checkpointing
  /// When non-empty, fit() checkpoints the cluster library into this
  /// directory as training progresses; a restart resumes from the last
  /// good library via NodeSentry::restore(). Empty disables checkpointing.
  std::string checkpoint_dir;
  /// Clusters trained between mid-fit checkpoints (0 = checkpoint only
  /// after the final cluster).
  std::size_t checkpoint_every = 0;
  /// Keep numbered step_<n> snapshots instead of overwriting one
  /// directory (each snapshot is a complete, loadable library).
  bool checkpoint_history = false;

  std::uint64_t seed = 1234;
};

}  // namespace ns
