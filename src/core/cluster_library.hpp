// The cluster library: one entry per coarse-grained pattern, holding the
// feature-space centroid, the WMSE metric weights (from MAC), the K member
// segments and the shared Transformer+MoE model (paper §3.3–§3.5).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/segments.hpp"
#include "features/extract.hpp"
#include "features/pca.hpp"
#include "nn/transformer.hpp"

namespace ns {

struct ClusterEntry {
  std::vector<float> centroid;  ///< feature-space centroid
  /// Mean member-to-centroid distance; scaled by match_threshold_factor to
  /// decide whether an online pattern "matches" this cluster.
  double radius = 0.0;
  Tensor metric_weights;  ///< [M] WMSE weights derived from MAC (Eq. 5–6)
  /// Per-metric mean squared residual of the trained model on its member
  /// segments. Online scoring whitens residuals by it (Mahalanobis-style),
  /// so metrics that are intrinsically unpredictable within this pattern
  /// (e.g. job-specific waveform phase) do not flood the anomaly score.
  Tensor residual_scale;
  /// Mean whitened reconstruction error on the member segments (~1 by
  /// construction); online scores are normalized by it so thresholds are
  /// comparable across clusters of different intrinsic difficulty.
  double baseline_error = 1.0;
  std::shared_ptr<TransformerReconstructor> model;
  std::vector<CoreSegment> members;          ///< the K training segments
  std::vector<std::vector<float>> member_features;
  /// Token rows of the training chunks; fit() trains longest-first by it.
  std::size_t training_tokens = 0;
};

struct MatchResult {
  std::size_t cluster = 0;
  double distance = 0.0;
  bool matched = false;  ///< distance within factor * radius
};

class ClusterLibrary {
 public:
  /// Column z-scaler + PCA fitted on the training feature matrix; centroids
  /// and member features are stored in the *projected* space, and online
  /// features must pass through scale() before match().
  FeatureScaler& scaler() { return scaler_; }
  const FeatureScaler& scaler() const { return scaler_; }
  Pca& pca() { return pca_; }
  const Pca& pca() const { return pca_; }
  std::vector<float> scale(const std::vector<float>& raw_features) const {
    std::vector<float> out =
        scaler_.fitted() ? scaler_.transform(raw_features) : raw_features;
    if (pca_.fitted()) out = pca_.transform(out);
    return out;
  }

  /// Degraded-mode variant of scale(): raw feature dimensions flagged
  /// invalid (dead metrics in the current window) are mean-imputed in the
  /// z-scaled space (set to 0, the training mean) before PCA projection,
  /// so matching falls back to the masked feature subset instead of
  /// comparing against garbage. `raw_valid` is per raw dimension; an empty
  /// vector behaves like scale().
  std::vector<float> scale_masked(const std::vector<float>& raw_features,
                                  const std::vector<std::uint8_t>& raw_valid) const;

  std::vector<ClusterEntry>& clusters() { return clusters_; }
  const std::vector<ClusterEntry>& clusters() const { return clusters_; }
  std::size_t size() const { return clusters_.size(); }
  bool empty() const { return clusters_.empty(); }

  /// Nearest-centroid match in feature space (Euclidean).
  MatchResult match(const std::vector<float>& features,
                    double match_threshold_factor) const;

  /// Index of the member segment of `cluster` whose features are nearest to
  /// `features` (used to pick the segment-id for positional encoding during
  /// online detection).
  std::size_t nearest_member(std::size_t cluster,
                             const std::vector<float>& features) const;

  /// Serializes centroids, radii, weights and model parameters to a
  /// directory (one framed file per cluster plus scaler and index files).
  /// Every file carries a versioned header and a CRC32 and is published
  /// atomically (tmp + fsync + rename); the index is written last, so a
  /// crash mid-save leaves the previous checkpoint loadable.
  void save(const std::string& directory) const;
  /// Restores a library saved by save(). `model_config` must describe the
  /// architecture used during training (input_dim included). Truncated or
  /// corrupted files — any flipped byte — are rejected with ns::ParseError.
  void load(const std::string& directory, const TransformerConfig& model_config,
            std::uint64_t seed);

 private:
  std::vector<ClusterEntry> clusters_;
  FeatureScaler scaler_;
  Pca pca_;
};

}  // namespace ns
