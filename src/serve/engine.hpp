// Serve engine shard: the per-node online counterpart of NodeSentry::detect,
// built and run by a FleetEngine (serve/fleet.hpp), the one serving front.
//
// Samples arrive one (node, tick) at a time (ingest), are preprocessed with
// the artifacts retained from fit()/restore(), buffered per node with
// out-of-order tolerance, and segmented on job transitions. Every committed
// cell carries a validity bit: a non-finite value (replaced by the last
// good one) and a gap-filled row past max_interpolation_gap are invalid.
// Once a segment's matching window settles, route_segment gates and matches
// it against the cluster library (§3.5), as batch detect() does, and its
// token chunks are queued as scoring units, each with its cells' validity,
// which the WMSE score renormalizes over (the one validity path of batch
// detect()). pump()
// packs queued units *across nodes* by matched cluster and submits one
// task per cluster to the fleet's scoring pool; each task snapshots the
// cluster's model generations from the fleet's GenerationRegistry
// (DESIGN.md §12 — by default one seed generation: the fitted library
// model) and runs batched forwards through the ScoringPlan each generation
// was published with (block-diagonal attention), so one model pass serves
// many nodes while staying bit-identical to scoring each chunk alone. The
// engine never compiles a plan: the registry compiles each generation
// once, in the fleet's ScoringPath, and every shard shares it. finalize()
// is flush() + assembly: flush() commits the stashes, closes open
// segments and drains the pool; assembly applies the shared thresholding
// path (score_reference_levels / detection_flags) per generation lane,
// then the >= Q vote — on clean data the default G = Q = 1 result
// reproduces batch detect() (with incremental updates off) within float
// round-off (in practice: bit-identical).
//
// The engine owns no pool and no registry and checks none of its inputs:
// FleetEngine validates the config, the sentry, the registry and the
// store writer once, then builds every shard from the checked parts.
//
// Threading contract: ingest/pump/flush are called from one thread (the
// fleet shard's worker, or a test's own loop). finalize() runs there too,
// or on another thread once that one has been joined: its flush() is then
// a no-op, and the assembly reads only state the join published (a fleet
// flushes every shard on its worker, then assembles on the caller). Pool
// tasks only touch the completed-unit queue and the stats block, each
// behind its own mutex; stats() may be polled from any monitor thread (it
// reads only the mutex-guarded stats block and the atomic obs histograms
// — never ingest-owned state). Scoring never runs an autograd module and
// never mutates a model: plans are immutable, so any number of forwards
// through one cluster model — from this engine's tasks or from other
// fleet shards — run at the same time, with no lock between them, and a
// task finds its plans in the snapshot it already holds.
// Ingest never blocks on scoring, and it does not shed load either:
// ingest() pumps once pump_watermark units are pending, and pump() hands
// every pending unit to the pool. The pending queue's drop-oldest cap
// (max_pending_units, counted in stats.units_dropped) therefore fires only
// when a caller sets pump_watermark above it; the futures of dispatched
// tasks (inflight_) and the pool's task queue are unbounded, so sustained
// overload grows memory there (DESIGN.md §8).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/nodesentry.hpp"
#include "nn/scoring.hpp"
#include "obs/registry.hpp"
#include "serve/backend.hpp"
#include "store/codec.hpp"
#include "ts/stream.hpp"

namespace ns {

class ThreadPool;
class GenerationRegistry;
class Retrainer;
class StoreWriter;

/// Per-shard serving settings: every shard of a fleet runs with the same
/// copy (FleetConfig::engine). The fleet-level ones — the scoring pool's
/// size and an external generation registry — live in FleetConfig.
struct ServeConfig {
  /// How many ticks a sample may lag behind the newest sample of its node
  /// before the gap is filled with hold-last placeholders and later
  /// arrivals for those ticks are dropped as too late.
  std::size_t reorder_slack = 8;
  /// Bound on queued scoring units; past it the oldest unit is dropped.
  /// Reached only with pump_watermark above it: a pump dispatches every
  /// queued unit.
  std::size_t max_pending_units = 1024;
  /// Max total rows per batched forward (0 = one chunk per forward, i.e.
  /// sequential scoring — useful to cross-check the batched path).
  std::size_t max_batch_tokens = 384;
  /// ingest() auto-pumps once this many units are pending.
  std::size_t pump_watermark = 64;
  /// Window capacity of the per-stage latency histograms: quantiles/max
  /// are computed over this many most-recent samples (counts stay
  /// cumulative).
  std::size_t latency_reservoir = 4096;
  /// Metrics registry the engine's histograms/gauges live in; null means
  /// the process-global obs::Registry (shared with the fit pipeline, so
  /// one exposition carries both). Tests pass a private registry.
  obs::Registry* registry = nullptr;
  /// Record per-metric WMSE attribution alongside the scores
  /// (ServeResult::attribution, DESIGN.md §15): each scored point also
  /// keeps its M per-metric error terms, written by the scoring pass of the
  /// primary lane after each score — detections are bitwise unchanged
  /// whether this is on or off. Costs one extra [t, M] float plane per
  /// node; off by default, the incident correlator turns it on.
  bool attribution = false;
  /// Forward-evaluation strategy (see ScoringPath). Strict by default:
  /// opting into relaxed/quantized arithmetic is a deployment decision
  /// (the serve CLI defaults to kQuantized with --strict-replay opting
  /// back; replay/compare tooling always stays strict). The generation
  /// registry compiles every plan in this path, so an external registry
  /// (FleetConfig::generation_registry) must have been constructed with it.
  ScoringPath scoring_path = ScoringPath::kStrict;

  // ---- fleet-scale serving (DESIGN.md §14)
  /// Served node population; 0 = the fitted dataset's node count. A fleet
  /// serves MORE nodes than the fit saw: matching is population-agnostic
  /// (any segment matches into the shared cluster library), and a node id
  /// past the fitted population borrows the standardization profile of
  /// node (id mod fitted count) — the §3.2 artifacts are the only per-node
  /// state, so profile sharing extends the paper's model sharing to the
  /// preprocessing layer. With num_nodes <= fitted count the mapping is
  /// the identity and nothing changes.
  std::size_t num_nodes = 0;

  // ---- rolling generations + consensus (DESIGN.md §12)
  /// Every shard scores through the fleet's generation registry. G:
  /// staggered model generations per cluster (1..8; the per-point lane
  /// bitmap is a byte). The default G = Q = 1 serves the fitted library's
  /// models through the registry's seed generation — bitwise batch
  /// detect().
  std::size_t generations = 1;
  /// Q: a point is flagged when >= min(Q, lanes active at that point)
  /// generations flag it — the bootstrap fallback: with fewer than Q
  /// generations published yet, the ones that exist decide.
  std::size_t consensus_quorum = 1;
  /// When set, every matched closed segment's centered tokens are offered
  /// to this retrainer (bounded ring, never blocks ingest). It must publish
  /// into the registry the fleet scores through
  /// (FleetConfig::generation_registry); the fleet rejects any other,
  /// whose generations would never serve.
  Retrainer* retrainer = nullptr;

  // ---- embedded time-series store (DESIGN.md §13)
  /// When set, every real ingested row is retained (raw values + job id +
  /// validity summary) and handed to this writer at flag time — finalize()
  /// stamps each sample's in-band anomaly bit from the thresholded
  /// predictions, then enqueues per-node batches (bounded queue,
  /// drop-oldest; never blocks the collector loop). Gap-filled placeholder
  /// rows are NOT stored: the store records what actually arrived, and
  /// reconstruction restores the holes as NaN. The writer's store must
  /// have the fleet's node count and the sentry's raw metric count, and
  /// its queue_capacity must be 0 or at least the node count (one batch
  /// per node arrives in one burst); the fleet checks all three.
  StoreWriter* store_writer = nullptr;
};

class ServeEngine {
 public:
  /// The engine serves the library `sentry` holds after fit()/restore();
  /// `sentry` must outlive the engine, which only reads it (scoring runs
  /// the registry's compiled plans; a seed plan shares its library model's
  /// weights, so the library must not be retrained or fine-tuned while
  /// the engine serves). The serving timeline starts at sentry.train_end().
  /// Scoring and thresholding run on `pool`; scoring reads `generations`,
  /// which must hold at least one generation per library cluster, with
  /// cap config.generations, compiled in config.scoring_path. Both must
  /// outlive the engine. The engine checks none of this, nor the rest of
  /// `config`: FleetEngine's constructor does, once for every shard.
  ServeEngine(NodeSentry& sentry, const ServeConfig& config, ThreadPool& pool,
              GenerationRegistry& generations);

  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Feeds one raw sample. Never blocks on scoring work; out-of-order
  /// samples within reorder_slack ticks are reordered transparently.
  void ingest(const StreamSample& sample);

  /// Dispatches pending scoring units to the pool (grouped by cluster,
  /// packed into batched forwards). Returns the number of units dispatched.
  std::size_t pump();

  /// Ends the stream: commits every stashed row, closes all open segments,
  /// dispatches their closing chunks and waits until every scored unit has
  /// folded into the timelines. Idempotent; ingest() is rejected after it.
  void flush();

  /// flush(), then computes final scores + thresholded predictions (and
  /// attribution planes and store batches). Call once, after the stream
  /// ends.
  ServeResult finalize();

  /// Snapshot of the running counters (callable any time before finalize,
  /// from any thread — safe to poll concurrently with ingest).
  ServeStats stats() const;

 private:
  struct OpenSegment {
    std::size_t begin = 0;  ///< absolute tick of row 0
    std::int64_t job_id = 0;
    std::vector<std::vector<float>> rows;          ///< [len][M] processed
    std::vector<std::vector<std::uint8_t>> valid;  ///< parallel validity
    bool matched = false;
    bool insufficient = false;
    std::size_t cluster = 0;
    std::size_t segment_id = 0;           ///< positional segment id
    std::vector<float> center_mu;         ///< [M] leading-window mean
    std::size_t next_chunk_start = 0;     ///< first row not yet queued
  };

  struct StashedRow {
    StreamPreprocessor::Row row;
    std::int64_t job_id = 0;
    std::vector<float> raw;  ///< raw metric values; only kept for the store
  };

  struct NodeState {
    std::size_t next_t = 0;    ///< next tick to commit (contiguous frontier)
    std::size_t max_seen = 0;  ///< newest tick observed for this node
    bool any_seen = false;
    std::size_t gap_run = 0;   ///< current consecutive filled-gap length
    std::map<std::size_t, StashedRow> stash;  ///< out-of-order arrivals
    std::unique_ptr<OpenSegment> open;
    std::int64_t pending_job = 0;  ///< job id of the newest committed row
    std::vector<float> last_good;  ///< per-metric last finite processed value
  };

  /// One queued scoring unit: a detect_chunk-sized slice of one segment.
  struct PendingUnit {
    std::size_t cluster = 0;
    std::size_t node = 0;
    std::size_t abs_begin = 0;  ///< absolute tick of tokens row 0
    std::size_t offset = 0;     ///< row offset within the segment
    std::size_t segment_id = 0;
    Tensor tokens;              ///< [len, M], centered
    ValidityMask valid;         ///< (1 node, M, len): the rows' cell bits
  };

  /// A scored unit ready to fold into the per-node lane timelines.
  struct ScoredUnit {
    std::size_t node = 0;
    std::size_t abs_begin = 0;
    /// One score slice per generation that scored this unit, with the lane
    /// (gen_id % G) it belongs to, oldest first: the last entry is the
    /// newest generation — the primary lane, whose scores are reported.
    std::vector<std::uint8_t> lanes;
    std::vector<std::vector<float>> lane_scores;
    /// Attribution mode: per-metric terms of the primary scores,
    /// [len * M] row-major. Empty unless ServeConfig::attribution.
    std::vector<float> contrib;
  };

  /// A folded unit's footprint on its node's timeline: the lanes that
  /// scored [begin, end) and which of them is primary. Units of one node
  /// cover disjoint ranges, so a node's spans say which lanes hold a score
  /// at each point, and whose score is reported there.
  struct ScoredSpan {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint8_t lanes = 0;    ///< bitmap of lanes that scored the range
    std::uint8_t primary = 0;  ///< lane of the newest generation
  };

  void commit_row(std::size_t node, std::size_t t, std::int64_t job_id,
                  StreamPreprocessor::Row row);
  /// Store path: retains one real (non-gap) row for the finalize-time
  /// batch hand-off; the validity summary bit is "every processed cell of
  /// this row carries scoring weight".
  void retain_sample(std::size_t node, std::size_t t, std::int64_t job_id,
                     std::vector<float> raw,
                     const StreamPreprocessor::Row& row);
  void advance_node(std::size_t node);
  /// Commits the node's oldest stashed row, which sits at its frontier
  /// tick (advance_node, and flush() after gap-filling up to it).
  void commit_stashed(std::size_t node);
  void fill_gap_row(std::size_t node);
  void open_segment(std::size_t node, std::size_t t, std::int64_t job_id);
  void close_segment(std::size_t node, std::size_t end);
  void maybe_match(std::size_t node);
  void match_segment(std::size_t node);
  void emit_ready_chunks(std::size_t node, bool closing, std::size_t len);
  void enqueue_unit(PendingUnit unit);
  /// Scores one cluster's units through every generation of its registry
  /// snapshot, in batched forwards.
  void score_cluster_units(std::size_t cluster,
                           std::vector<PendingUnit> units);
  void drain_scored();
  /// One node's detection record (called from finalize's parallel_for):
  /// per-lane reference levels + flags, the >= Q vote, and the reported
  /// scores gathered from each span's primary lane. Consumes the node's
  /// lane timelines.
  void consensus_node_predictions(std::size_t node, NodeDetection& det,
                                  std::size_t timeline_end,
                                  std::size_t* out_points,
                                  std::size_t* out_disagreements);

  NodeSentry* sentry_;
  ServeConfig config_;
  StreamPreprocessor preproc_;
  std::size_t start_t_ = 0;
  std::size_t num_metrics_ = 0;
  /// Fitted node population: node ids at or past it borrow the profile of
  /// (id mod fitted_nodes_) for standardization (see ServeConfig::num_nodes).
  std::size_t fitted_nodes_ = 0;
  bool flushed_ = false;
  bool finalized_ = false;

  ThreadPool* pool_ = nullptr;
  GenerationRegistry* gen_registry_ = nullptr;

  /// Scoring state. Each node keeps one score timeline per generation lane
  /// (lane = gen_id % G) and the spans saying which lanes scored which
  /// points; finalize() gathers the reported scores from each span's
  /// primary lane. Pool tasks reach this state ONLY through drain_scored()
  /// (ingest thread).
  std::vector<std::vector<std::vector<float>>> lane_scores_;  ///< [G][node][t]
  std::vector<std::vector<ScoredSpan>> spans_;                ///< [node]

  std::vector<NodeState> nodes_;
  /// Store path: per-node retained samples awaiting their anomaly bit
  /// (stamped in finalize). Empty vectors unless store_writer is set.
  std::vector<std::vector<StoreSample>> retained_;
  /// Attribution mode: per-metric planes of the primary scores —
  /// [node][t * M + m], written only through drain_scored() (ingest
  /// thread), handed to ServeResult::attribution at finalize. Empty
  /// vectors unless ServeConfig::attribution.
  std::vector<std::vector<float>> contrib_;
  /// Per node: closed segment ranges [begin, end) with >= 2 rows, for the
  /// shared reference-level computation.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> ranges_;

  std::deque<PendingUnit> pending_;
  std::vector<std::future<void>> inflight_;

  mutable std::mutex results_mutex_;
  std::vector<ScoredUnit> scored_ready_;

  /// Guards stats_ and units_batched_total_. stats_.queue_depth is the
  /// published queue depth: pending_ itself is only ever touched by the
  /// ingest thread, so stats() must read the published copy, never
  /// pending_.size() (that was a data race against ingest).
  mutable std::mutex stats_mutex_;
  ServeStats stats_;
  std::size_t units_batched_total_ = 0;  ///< for mean occupancy accounting

  /// Shared per-stage instruments (owned by the registry, not the
  /// engine). ServeStats is a thin view over these: counts are the
  /// histograms' cumulative counts, quantiles their recent-sample window.
  obs::Registry* registry_ = nullptr;
  obs::Histogram* ingest_hist_ = nullptr;
  obs::Histogram* match_hist_ = nullptr;
  obs::Histogram* score_hist_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Counter* units_dropped_counter_ = nullptr;
  obs::Counter* score_reallocs_counter_ = nullptr;
  obs::Counter* consensus_points_counter_ = nullptr;
  obs::Counter* consensus_disagreements_counter_ = nullptr;
};

}  // namespace ns
