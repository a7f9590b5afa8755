// The shared §3.5 serving output: what a FleetEngine (serve/fleet.hpp, the
// one serving front) returns from finalize() and stats(), and what its
// ServeEngine shards (serve/engine.hpp) return to it for merging. The
// replay harness, the incident correlator, the benches and the serve CLI
// read these types; none of them depends on how the fleet is sharded.
#pragma once

#include <cstddef>
#include <vector>

#include "core/nodesentry.hpp"

namespace ns {

struct LatencySummary {
  /// Cumulative observations over the engine's lifetime — NOT capped by
  /// the quantile window (a wrapped window no longer understates
  /// throughput).
  std::size_t count = 0;
  /// Quantiles/max over the most recent `latency_reservoir` samples.
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

struct ServeStats {
  std::size_t samples_ingested = 0;
  std::size_t samples_out_of_order = 0;  ///< arrived behind a newer sample
  std::size_t samples_dropped_late = 0;  ///< behind the gap-fill watermark
  std::size_t gap_rows_filled = 0;       ///< hold-last placeholder rows
  std::size_t cells_masked = 0;          ///< non-finite cells made filler
  std::size_t segments_opened = 0;
  std::size_t segments_closed = 0;
  std::size_t segments_matched = 0;
  std::size_t segments_unmatched = 0;    ///< fell back to nearest cluster
  std::size_t segments_insufficient = 0; ///< failed the quality gate
  std::size_t segments_too_short = 0;    ///< < 2 rows, never scored
  std::size_t chunks_scored = 0;
  std::size_t points_scored = 0;
  std::size_t batches_run = 0;
  double mean_batch_occupancy = 0.0;     ///< mean chunks per batched forward
  std::size_t units_dropped = 0;         ///< backpressure drops
  std::size_t queue_depth = 0;           ///< pending units right now
  std::size_t max_queue_depth = 0;
  /// Times a per-node lane/attribution timeline reallocated its storage.
  /// Each growth reserves out to the node's newest seen tick, so this
  /// stays near log2(ticks) per node instead of growing with every unit.
  std::size_t score_reallocs = 0;
  /// Fleet only: times the producer had to wait on a full ingest ring
  /// (raw samples are never dropped — the producer spins instead).
  std::size_t ring_stalls = 0;
  /// Points voted on (every scored point), and points where the active
  /// generations disagreed (some flagged, some did not).
  std::size_t consensus_points = 0;
  std::size_t consensus_disagreements = 0;
  LatencySummary ingest_latency;
  LatencySummary match_latency;
  LatencySummary score_latency;          ///< per batched forward
};

/// Optional per-metric share of every scored point's WMSE score
/// (DESIGN.md §15). Enabled by ServeConfig::attribution; num_metrics == 0
/// means the run did not record attribution. Per node, contrib is the
/// flattened [t * num_metrics + m] matrix aligned to [0, timeline_end)
/// exactly like NodeDetection::scores (and empty where that record is):
/// each row's terms sum to the point's score (up to float rounding) and
/// are all-zero wherever the point was never scored. The incident
/// correlator (src/correlate) consumes this to rank root-cause metrics;
/// the score path itself never reads it.
struct ResidualAttribution {
  std::size_t num_metrics = 0;
  std::vector<std::vector<float>> contrib;  ///< [node][t * num_metrics + m]
  bool enabled() const { return num_metrics > 0; }
};

struct ServeResult {
  /// Per node, aligned to [0, timeline_end) like batch detect() (zeros
  /// before the serving start). A `ServeEngine` shard leaves the record of
  /// a node it never committed a row for empty (every node another shard
  /// owns); the fleet takes each node's record from its owner and
  /// stretches it to the fleet-wide timeline, so fleet results are never
  /// short.
  std::vector<NodeDetection> detections;
  std::size_t timeline_end = 0;
  ServeStats stats;
  ResidualAttribution attribution;  ///< empty unless ServeConfig::attribution
};

}  // namespace ns
