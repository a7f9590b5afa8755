// Common interface for the baseline anomaly detectors compared against
// NodeSentry in Table 4 (Prodigy, RUAD, ExaMon, ISC'20).
//
// Every baseline consumes the same preprocessed dataset (cleaning /
// reduction / standardization are shared infrastructure, as in the paper's
// controlled comparison) and produces per-node scores + binary predictions.
// All baselines threshold their scores with the same sliding k-sigma rule
// used by NodeSentry so the comparison isolates score quality.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "eval/metrics.hpp"
#include "ts/mts.hpp"

namespace ns {

struct DetectorReport {
  std::vector<NodeDetection> detections;  ///< per node, full timeline
  double train_seconds = 0.0;
  double detect_seconds = 0.0;
};

class Detector {
 public:
  virtual ~Detector() = default;
  virtual std::string name() const = 0;
  /// Trains on [0, train_end) of every node and scores [train_end, T).
  virtual DetectorReport run(const MtsDataset& processed,
                             std::size_t train_end) = 0;
};

/// Shared thresholding used by every baseline: NodeSentry's
/// detection_flags with its default knobs, flagging [train_end, T), against
/// one reference level, the median of the smoothed test-region scores.
std::vector<std::uint8_t> baseline_threshold(const std::vector<float>& scores,
                                             std::size_t train_end);

}  // namespace ns
