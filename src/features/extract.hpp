// TSFEL-style interpretable feature extraction (paper §3.3).
//
// Each metric series is summarized by a fixed set of statistical, temporal
// and spectral features (the paper uses TSFEL's 134; we implement 40 that
// span the same three domains, including the three the paper names: median,
// absolute energy, maximum power spectrum). A segment's feature vector is
// the concatenation over metrics — fixed-width regardless of segment
// length, which is what makes HAC over variable-length job segments work.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "ts/mts.hpp"

namespace ns {

/// Names of the per-metric features, in extraction order.
const std::vector<std::string>& feature_names();

/// Number of features per metric.
std::size_t features_per_metric();

/// Extracts the feature vector of a single series. Series with fewer than
/// 2 samples yield all-zero features. Never returns NaN/Inf.
std::vector<float> extract_series_features(std::span<const float> series);

/// Feature vector of one segment: per-metric features concatenated in
/// metric order (size = num_metrics * features_per_metric()).
std::vector<float> extract_segment_features(
    const std::vector<std::vector<float>>& segment);

/// Feature matrix over many segments of a dataset (row = segment), computed
/// in parallel.
std::vector<std::vector<float>> extract_feature_matrix(
    const MtsDataset& dataset, std::span<const SegmentRef> segments);

/// Column-wise z-scaler for feature matrices. Raw feature magnitudes span
/// orders of magnitude (abs_energy grows with segment length while
/// correlations live in [-1, 1]), which would let a handful of columns
/// dominate Euclidean distances during clustering and matching.
class FeatureScaler {
 public:
  /// Fits per-column mean/std over the matrix rows. Zero-variance columns
  /// get unit scale (they map to 0 after centering).
  void fit(const std::vector<std::vector<float>>& matrix);

  bool fitted() const { return !mean_.empty(); }
  std::size_t dim() const { return mean_.size(); }

  std::vector<float> transform(const std::vector<float>& features) const;
  void transform_in_place(std::vector<std::vector<float>>& matrix) const;

  const std::vector<float>& means() const { return mean_; }
  const std::vector<float>& stddevs() const { return stddev_; }
  /// Restores a scaler from persisted moments.
  void restore(std::vector<float> means, std::vector<float> stddevs);

 private:
  std::vector<float> mean_;
  std::vector<float> stddev_;
};

}  // namespace ns
