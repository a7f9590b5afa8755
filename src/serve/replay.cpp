#include "serve/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace ns {

ReplayReport serve_replay(FleetEngine& fleet, const MtsDataset& raw,
                          std::size_t begin_t, const ReplayOptions& options) {
  NS_REQUIRE(options.speedup >= 0.0, "serve_replay: negative speedup");
  TelemetryReplaySource source(raw, begin_t, options.jitter);
  const std::size_t nodes_per_tick = std::max<std::size_t>(raw.num_nodes(), 1);
  const double tick_seconds =
      options.speedup > 0.0 ? raw.interval_seconds / options.speedup : 0.0;
  ReplayReport report;
  Stopwatch wall;
  StreamSample sample;
  while (source.next(sample)) {
    fleet.ingest(sample);
    ++report.samples_streamed;
    if (options.progress_every > 0 && options.on_progress &&
        report.samples_streamed % options.progress_every == 0)
      options.on_progress(report.samples_streamed);
    if (tick_seconds > 0.0 && report.samples_streamed % nodes_per_tick == 0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(tick_seconds));
  }
  report.ingest_seconds = wall.elapsed_s();
  report.samples_per_second =
      report.ingest_seconds > 0.0
          ? static_cast<double>(report.samples_streamed) /
                report.ingest_seconds
          : 0.0;
  report.result = fleet.finalize();
  return report;
}

DetectionDelta compare_detections(const std::vector<NodeDetection>& a,
                                  const std::vector<NodeDetection>& b) {
  NS_REQUIRE(a.size() == b.size(),
             "compare_detections: node count mismatch (" << a.size() << " vs "
                                                         << b.size() << ")");
  DetectionDelta delta;
  for (std::size_t n = 0; n < a.size(); ++n) {
    const std::size_t ts =
        std::max(a[n].scores.size(), b[n].scores.size());
    for (std::size_t t = 0; t < ts; ++t) {
      const float sa = t < a[n].scores.size() ? a[n].scores[t] : 0.0f;
      const float sb = t < b[n].scores.size() ? b[n].scores[t] : 0.0f;
      delta.max_abs_score_delta =
          std::max(delta.max_abs_score_delta,
                   static_cast<double>(std::abs(sa - sb)));
      const std::uint8_t pa =
          t < a[n].predictions.size() ? a[n].predictions[t] : 0;
      const std::uint8_t pb =
          t < b[n].predictions.size() ? b[n].predictions[t] : 0;
      if (pa != pb) ++delta.prediction_mismatches;
    }
  }
  return delta;
}

StoreDelta compare_detections_with_store(
    const std::vector<NodeDetection>& detections,
    const TimeSeriesStore& store, std::size_t begin_t) {
  NS_REQUIRE(detections.size() == store.num_nodes(),
             "compare_detections_with_store: node count mismatch ("
                 << detections.size() << " vs " << store.num_nodes() << ")");
  StoreDelta delta;
  for (std::size_t n = 0; n < detections.size(); ++n) {
    const std::vector<std::uint8_t>& flags = detections[n].predictions;
    TimeSeriesStore::Cursor cursor =
        store.range(n, begin_t, store.end_tick());
    StoreSample sample;
    while (cursor.next(sample)) {
      ++delta.samples_compared;
      if (sample.t >= flags.size()) {
        ++delta.samples_unflagged;
        if (sample.anomaly) ++delta.flag_mismatches;
        continue;
      }
      if (sample.anomaly != (flags[sample.t] != 0)) ++delta.flag_mismatches;
    }
  }
  return delta;
}

}  // namespace ns
