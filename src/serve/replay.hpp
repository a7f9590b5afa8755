// serve_replay: streams a materialized dataset through a FleetEngine the
// way a collector would deliver it — per-sample, optionally jittered and
// paced in (accelerated) real time — and finalizes the fleet. This is the
// equivalence harness: on clean data the result must reproduce batch
// detect() (incremental updates off) within float round-off.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "serve/fleet.hpp"
#include "sim/stream.hpp"
#include "store/store.hpp"

namespace ns {

struct ReplayOptions {
  /// 0 = replay as fast as possible; otherwise pace delivery at
  /// speedup x real time (one tick every interval_seconds / speedup).
  double speedup = 0.0;
  /// Invoked on the streaming thread every `progress_every` samples (0 =
  /// never) with the running sample count — the periodic metrics-dump
  /// hook for long replays (see nodesentry_serve --metrics-every).
  std::size_t progress_every = 0;
  std::function<void(std::size_t samples_streamed)> on_progress;
  ReplayJitterConfig jitter;
};

struct ReplayReport {
  ServeResult result;
  std::size_t samples_streamed = 0;
  double ingest_seconds = 0.0;       ///< wall time of the streaming loop
  double samples_per_second = 0.0;
};

/// Streams every sample of `raw` from begin_t (normally the fitted
/// train_end) through `fleet` and finalizes it.
ReplayReport serve_replay(FleetEngine& fleet, const MtsDataset& raw,
                          std::size_t begin_t,
                          const ReplayOptions& options = {});

/// Max |score difference| and prediction mismatch count between two
/// detection sets (e.g. serve replay vs batch detect). Shorter timelines
/// are treated as zero-padded.
struct DetectionDelta {
  double max_abs_score_delta = 0.0;
  std::size_t prediction_mismatches = 0;
};

DetectionDelta compare_detections(const std::vector<NodeDetection>& a,
                                  const std::vector<NodeDetection>& b);

/// Store-vs-detections equivalence: every sealed sample's in-band anomaly
/// bit must equal the prediction flag of its (node, tick). Pins the third
/// leg of replay == detect == store — the detections.csv the replay wrote
/// and the bits the store sealed describe the same history, bitwise.
struct StoreDelta {
  std::size_t samples_compared = 0;
  std::size_t flag_mismatches = 0;   ///< in-band bit != prediction flag
  std::size_t samples_unflagged = 0; ///< sample tick past the timeline
};

StoreDelta compare_detections_with_store(
    const std::vector<NodeDetection>& detections,
    const TimeSeriesStore& store, std::size_t begin_t);

}  // namespace ns
