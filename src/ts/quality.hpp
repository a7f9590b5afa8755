// Data-quality guard: a pre-pipeline pass over raw telemetry (ISSUE:
// telemetry-fault hardening).
//
// Production collectors deliver worse than "sparse" data: stuck sensors,
// NaN/Inf bursts, whole-metric outages and node dropouts. The guard scans
// every (node, metric) series, classifies defects, and emits a per-point
// validity mask plus a QualityReport. Short NaN gaps stay valid and are
// filled by the existing linear interpolation; long gaps, non-finite
// values, stuck runs, non-physical spikes and dead metrics are *masked*
// instead of fabricated — downstream scoring renormalizes over the
// currently-alive metrics rather than trusting filler values. The guard has
// no off switch: preprocess() always runs it, so every processed cell of
// every fit, detect and serve run carries a validity bit, and the
// pipeline has one validity path (the clean case is an all-ones mask).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ts/mts.hpp"

namespace ns {

// ------------------------------------------------------------ ValidityMask

/// Per-(node, metric, timestamp) validity bits. A default-constructed
/// (empty) mask reads as all-valid; the pipeline's masks are never empty.
class ValidityMask {
 public:
  ValidityMask() = default;
  ValidityMask(std::size_t nodes, std::size_t metrics, std::size_t timestamps,
               std::uint8_t fill = 1)
      : metrics_(metrics),
        timestamps_(timestamps),
        data_(nodes, std::vector<std::uint8_t>(metrics * timestamps, fill)) {}

  bool empty() const { return data_.empty(); }
  std::size_t num_nodes() const { return data_.size(); }
  std::size_t num_metrics() const { return metrics_; }
  std::size_t num_timestamps() const { return timestamps_; }

  std::uint8_t& at(std::size_t node, std::size_t metric, std::size_t t) {
    return data_[node][metric * timestamps_ + t];
  }
  std::uint8_t at(std::size_t node, std::size_t metric, std::size_t t) const {
    return data_[node][metric * timestamps_ + t];
  }
  /// True when the cell is valid; an empty mask is all-valid.
  bool valid(std::size_t node, std::size_t metric, std::size_t t) const {
    return data_.empty() || at(node, metric, t) != 0;
  }

  /// Fraction of valid points of one metric over [begin, end).
  double valid_fraction(std::size_t node, std::size_t metric,
                        std::size_t begin, std::size_t end) const;
  /// Fraction of valid (metric, timestamp) cells over [begin, end), all
  /// metrics of the node.
  double segment_valid_fraction(std::size_t node, std::size_t begin,
                                std::size_t end) const;
  /// Fraction of valid metric cells of one row (node, t) — the store's
  /// in-band validity summary (a row is "valid" when this is 1.0).
  double row_valid_fraction(std::size_t node, std::size_t t) const;

  /// Maps the mask through semantic aggregation: output metric g at time t
  /// is valid iff at least one source metric is valid there.
  ValidityMask aggregate(
      const std::vector<std::vector<std::size_t>>& sources) const;
  /// Keeps only the listed metrics (correlation pruning).
  ValidityMask select_metrics(const std::vector<std::size_t>& kept) const;

 private:
  std::size_t metrics_ = 0;
  std::size_t timestamps_ = 0;
  std::vector<std::vector<std::uint8_t>> data_;  // [node][metric * T + t]
};

// ------------------------------------------------------------ QualityGuard

enum class QualityIssue : std::uint8_t {
  kLongGap = 0,    ///< NaN run longer than max_interpolation_gap
  kNonFinite,      ///< +/-Inf (and NaN embedded in otherwise-finite bursts)
  kStuckSensor,    ///< long run of bit-identical values in a live series
  kSpike,          ///< non-physical outlier far outside the robust range
  kDeadMetric,     ///< too few valid points — the whole series is masked
};
inline constexpr std::size_t kNumQualityIssues = 5;

const char* quality_issue_name(QualityIssue issue);

/// One classified defect interval of one (node, metric) series.
struct QualityEvent {
  std::size_t node = 0;
  std::size_t metric = 0;
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive
  QualityIssue issue = QualityIssue::kLongGap;
};

/// The guard's thresholds. They are constants: no run varies them.
struct QualityConfig {
  /// NaN gaps up to this length are trusted to linear interpolation; longer
  /// gaps are masked (the filler values exist but carry no weight).
  static constexpr std::size_t max_interpolation_gap = 16;
  /// Consecutive bit-identical values in a non-constant series at or above
  /// this run length are treated as a stuck sensor. Real float telemetry
  /// carries noise; exact repetition this long means the collector froze.
  static constexpr std::size_t stuck_run_length = 48;
  /// Robust z threshold for spikes: |x - median| > factor * MAD. Kept very
  /// high on purpose — genuine workload anomalies (the thing the detector
  /// must find) live well below it; only non-physical values (counter
  /// overflows, unit glitches) exceed it.
  static constexpr double spike_mad_factor = 50.0;
  /// A (node, metric) whose valid fraction falls below this is dead: the
  /// entire series is masked rather than reconstructed from thin air.
  static constexpr double dead_metric_min_valid = 0.05;
  /// Detection gate: a segment with less valid data than this is flagged
  /// kInsufficientData instead of scored (consumed by NodeSentry).
  static constexpr double min_segment_valid_fraction = 0.3;
  /// A metric counts as alive within a window when at least this fraction
  /// of its points there are valid (consumed by masked cluster matching).
  static constexpr double min_metric_valid_fraction = 0.5;
};

struct QualityReport {
  std::vector<QualityEvent> events;
  std::size_t points_total = 0;
  std::size_t points_invalid = 0;
  /// Short-gap NaN points left to the interpolation path (still valid).
  std::size_t points_interpolatable = 0;
  std::array<std::size_t, kNumQualityIssues> issue_points{};

  bool clean() const { return points_invalid == 0; }
  std::size_t count(QualityIssue issue) const {
    return issue_points[static_cast<std::size_t>(issue)];
  }
};

struct QualityResult {
  ValidityMask mask;
  QualityReport report;
};

/// Scans and sanitizes `dataset` in place: every invalid cell is set to NaN
/// (the later interpolation pass turns it into finite filler) and marked 0
/// in the mask. Short NaN gaps remain valid. The mask always has the
/// dataset's shape: every cell of every pipeline run carries a validity bit.
QualityResult apply_quality_guard(MtsDataset& dataset);

}  // namespace ns
