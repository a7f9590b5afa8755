// Point-wise anomaly-detection evaluation (paper §4.1.4).
//
// Implements the widely used point-adjustment strategy: a contiguous ground
// truth anomaly segment counts as detected if the method flags any point
// inside it (then the whole segment is credited). Points within a
// transition-guard window around job boundaries (paper: 1 minute) are
// excluded. Precision/recall/AUC are computed per node and averaged across
// nodes; F1 is derived from the averaged precision and recall.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ts/mts.hpp"

namespace ns {

struct DetectionMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double auc = 0.0;
};

/// Per-node detector output: anomaly scores (higher = more anomalous) and
/// binary predictions from the method's own thresholding.
struct NodeDetection {
  std::vector<float> scores;
  std::vector<std::uint8_t> predictions;
};

/// Evaluation mask: true where a timestamp participates in scoring.
/// Excludes `guard_steps` samples at the start and end of every job span
/// and everything before `eval_begin` (the train/test split point).
std::vector<std::uint8_t> evaluation_mask(
    std::span<const JobSpan> spans, std::size_t total_timestamps,
    std::size_t eval_begin, std::size_t guard_steps);

/// Applies point adjustment: returns a copy of `predictions` where every
/// ground-truth anomaly segment containing at least one masked-in predicted
/// point is fully marked. Masked-out points are ignored for the "any hit"
/// test but still expanded (they are excluded again during counting).
std::vector<std::uint8_t> point_adjust(
    std::span<const std::uint8_t> predictions,
    std::span<const std::uint8_t> labels,
    std::span<const std::uint8_t> mask);

/// Precision/recall/F1 on one node after point adjustment, restricted to
/// masked-in points.
DetectionMetrics node_prf(std::span<const std::uint8_t> predictions,
                          std::span<const std::uint8_t> labels,
                          std::span<const std::uint8_t> mask);

/// ROC AUC on one node: scores within each ground-truth segment are
/// replaced by the segment maximum (the point-adjust analogue for ranking),
/// then the Mann–Whitney statistic is computed over masked-in points.
/// Returns 0.5 when either class is absent.
double node_auc(std::span<const float> scores,
                std::span<const std::uint8_t> labels,
                std::span<const std::uint8_t> mask);

/// Averages per-node precision/recall/AUC over nodes that have at least one
/// labeled anomaly in their masked region (anomaly-free nodes cannot
/// contribute recall); F1 = harmonic mean of the averaged P and R.
DetectionMetrics aggregate_nodes(
    const std::vector<NodeDetection>& detections,
    const std::vector<std::vector<std::uint8_t>>& labels,
    const std::vector<std::vector<std::uint8_t>>& masks);

// Operator-facing counts that the paper's metric does not show: point
// adjustment credits a whole event for one flag, and aggregate_nodes skips
// every node without a labelled anomaly, so neither sees how many events
// were missed outright or how often a clean node raises an alarm.

struct EventRecall {
  std::size_t events = 0;  ///< maximal labelled runs with a masked-in point
  std::size_t hit = 0;     ///< of those, events with a flagged masked-in point
  double recall() const {
    return events > 0 ? static_cast<double>(hit) / events : 0.0;
  }
};

/// Counts ground-truth events over all nodes. An event is a maximal run of
/// labelled points holding at least one masked-in point; it is hit when a
/// masked-in point inside it is flagged (point_adjust's hit rule).
EventRecall event_recall(
    const std::vector<NodeDetection>& detections,
    const std::vector<std::vector<std::uint8_t>>& labels,
    const std::vector<std::vector<std::uint8_t>>& masks);

struct CleanNodeAlarms {
  double flagged_share = 0.0;       ///< flagged share of masked-in points
  double runs_per_node_hour = 0.0;  ///< alarm runs per masked-in node-hour
};

/// False alarms on the nodes aggregate_nodes skips: those with no masked-in
/// labelled point. An alarm run is a maximal run of flagged masked-in
/// points, so a masked-out point ends a run. Hours count masked-in points
/// at `interval_seconds` each (MtsDataset::interval_seconds).
CleanNodeAlarms clean_node_alarms(
    const std::vector<NodeDetection>& detections,
    const std::vector<std::vector<std::uint8_t>>& labels,
    const std::vector<std::vector<std::uint8_t>>& masks,
    double interval_seconds);

}  // namespace ns
