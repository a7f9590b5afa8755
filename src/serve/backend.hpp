// ServeBackend: the one serving contract every caller programs against.
//
// A backend is anything that accepts a per-sample telemetry stream and
// produces the shared §3.5 detection output: today that is the single
// `ServeEngine` (one reorder stash, one pending queue, one scoring loop)
// and the sharded `FleetEngine` (N engine shards behind consistent-hash
// node placement, DESIGN.md §14). Callers — the serve CLI, the replay
// harness, benches — must not care which one they talk to: `FleetEngine`
// with one shard is bitwise-identical to `ServeEngine`, and the contract
// below is everything they are allowed to touch.
//
// Threading contract: ingest()/pump()/finalize() are called from exactly
// one producer thread (the collector loop); stats() may be polled from any
// monitor thread at any time before finalize(). finalize() is single-shot
// and ends the stream.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/nodesentry.hpp"
#include "ts/stream.hpp"

namespace ns {

class GenerationRegistry;

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
  /// before the serving start). A standalone `ServeEngine` leaves the
  /// record of a node it never committed a row for empty, so readers
  /// bound-check each record (compare_detections zero-pads, the incident
  /// correlator skips). A `FleetEngine` shard's engine does this for every
  /// node another shard owns; the fleet takes each node's record from its
  /// owner and stretches it to the fleet-wide timeline, so fleet results
  /// are never short.
  std::vector<NodeDetection> detections;
  std::size_t timeline_end = 0;
  ServeStats stats;
  ResidualAttribution attribution;  ///< empty unless ServeConfig::attribution
};

/// Abstract serving surface (see file comment for the contract).
class ServeBackend {
 public:
  virtual ~ServeBackend() = default;

  /// Feeds one raw sample. Never blocks on scoring work.
  virtual void ingest(const StreamSample& sample) = 0;

  /// Nudges pending scoring work toward the workers; returns the number of
  /// units dispatched by THIS call. Backends with their own worker threads
  /// (the fleet) dispatch continuously and may return 0 — callers use it
  /// as a pacing hint, never for accounting.
  virtual std::size_t pump() = 0;

  /// Closes all open segments, drains in-flight work, and computes final
  /// scores + thresholded predictions. Single-shot: ends the stream.
  virtual ServeResult finalize() = 0;

  /// Snapshot of the running counters; safe to poll from any thread
  /// concurrently with ingest.
  virtual ServeStats stats() const = 0;

  /// Served node population (may exceed the fitted dataset's — see
  /// ServeConfig::num_nodes).
  virtual std::size_t num_nodes() const = 0;

  /// First serving tick (the fitted train_end).
  virtual std::size_t start_t() const = 0;

  /// The generation registry scoring reads; never null.
  virtual GenerationRegistry* generation_registry() = 0;

  /// Persists the rolling generation sets into `dir` (CRC-framed
  /// checkpoints, DESIGN.md §12).
  virtual void checkpoint(const std::string& dir) = 0;
};

}  // namespace ns
