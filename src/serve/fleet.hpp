// FleetEngine: the one serving front (DESIGN.md §14). The serve CLI's
// session, the replay harness, the benches, the examples and perfbench all
// serve through it; a one-shard fleet is the single-engine deployment.
//
// One collector thread ingests the whole fleet's telemetry; a consistent-
// hash ring places each node on one of N ServeEngine shards; a lock-free
// SPSC ring per shard carries the samples to a dedicated worker thread
// that owns that shard's engine (reorder stash, pending queue, scoring
// dispatch). The shards SHARE everything that must stay fleet-wide
// consistent — the fitted cluster library (read-only), one
// GenerationRegistry, one scoring thread pool, one obs::Registry (so the
// latency instruments are fleet-wide automatically), and optionally one
// StoreWriter — and own everything per-node (stashes, segments, score
// timelines), which is what makes the split embarrassingly parallel: every
// node's samples land on exactly one shard, in order. Scoring reads the
// shared models only through the immutable ScoringPlans that registry
// compiled once per generation, so every shard runs the same plan of a
// cluster model at the same time without any fleet-wide lock.
//
// finalize() closes the rings; each worker drains its ring and flushes its
// own engine (ServeEngine::flush: commit, close, score), so the shards'
// end-of-stream work overlaps. It then joins the workers, assembles each
// shard's result on the calling thread, and merges: detections come from
// each node's owner shard (the others never saw its samples), counters
// sum, latency summaries read the shared instruments. The shard count
// moves no bit: every node's samples reach one shard in stream order, and
// scoring is packing-independent, so on clean data any fleet reproduces
// batch detect() (incremental updates off) bit for bit.
//
// The constructor is where serving is validated, once for every shard:
// FleetConfig::validate(), then the sentry (clusters, fitted nodes), an
// external registry's shape and seeding, the retrainer's registry and the
// store writer's shape — all before it builds a registry, a pool or a
// shard. The shard engines repeat none of it.
//
// Backpressure: a full ingest ring makes the producer WAIT (spin, yield,
// then short sleeps, each failed push counted in stats().ring_stalls),
// never drop — dropping raw samples would silently rewrite history
// downstream; the bounded scoring queue inside each shard already sheds
// load the visible way (units_dropped).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/backend.hpp"
#include "serve/engine.hpp"
#include "serve/spsc_ring.hpp"

namespace ns {

/// Consistent-hash node→shard placement. Each shard projects 64 virtual
/// points onto a 64-bit ring; a node belongs to the first point clockwise
/// of its own hash. Needs shards >= 1 (FleetConfig::validate() checks it
/// for a fleet). Growing the fleet by one shard moves ~1/(S+1) of the
/// nodes, every one of them TO the new shard — nodes never shuffle between
/// surviving shards, so their reorder stashes and score history stay put
/// on resharding.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(std::size_t shards);

  std::size_t shard_for(std::size_t node) const;
  std::size_t num_shards() const { return shards_; }

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t shard;
    bool operator<(const Point& other) const { return hash < other.hash; }
  };
  std::vector<Point> points_;  ///< sorted by hash
  std::size_t shards_ = 0;
};

struct FleetConfig {
  /// Engine shards (>= 1). One worker thread per shard.
  std::size_t shards = 1;
  /// Capacity of each shard's SPSC ingest ring (>= 2, rounded up to a
  /// power of two). Sized in samples; a full ring stalls the producer.
  std::size_t ring_capacity = 4096;
  /// Workers of the ONE scoring pool the fleet builds and every shard
  /// scores and thresholds on, beside the shard workers; 0 = the
  /// process-global pool.
  std::size_t threads = 0;
  /// External generation registry shared with a Retrainer (or restored
  /// from a checkpoint); null makes the fleet own one, seeded from the
  /// fitted library. Its cluster count must be the library's, its cap
  /// `engine.generations` and its path `engine.scoring_path`. The fleet
  /// seeds it from the library when every cluster is empty and rejects
  /// one that is only partly seeded.
  GenerationRegistry* generation_registry = nullptr;
  /// Template for every shard engine. `num_nodes` is the FLEET population
  /// (0 = the fitted dataset's); everything passes through verbatim
  /// (registry/store_writer/retrainer are already safe to share — see the
  /// file comment).
  ServeConfig engine;

  /// Checks shards >= 1, ring_capacity >= 2 and
  /// 1 <= engine.consensus_quorum <= engine.generations <= 8; throws
  /// ns::InvalidArgument on the first violation. FleetEngine's constructor
  /// and ServeSessionConfig::validate() call it.
  void validate() const;
};

class FleetEngine {
 public:
  /// `sentry` must be fitted (or restored) and outlive the fleet, which
  /// only reads it (see ServeEngine). Validates everything it is given
  /// (file comment), then starts the worker threads.
  FleetEngine(NodeSentry& sentry, FleetConfig config = {});
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Routes the sample to its owner shard's ring. Never drops; spins
  /// (counted in stats().ring_stalls) when that ring is full.
  void ingest(const StreamSample& sample);

  /// No-op returning 0: the shard workers dispatch continuously. Kept only
  /// because perfbench's serve pass still calls it.
  std::size_t pump() { return 0; }

  /// Closes the rings, lets every worker flush its shard after its last
  /// drain, joins the workers (rethrowing the first shard error, if any),
  /// assembles every shard's result on this thread, and merges detections
  /// + stats into fleet-wide views. Single-shot.
  ServeResult finalize();

  /// Merged snapshot of every shard's counters (safe from any thread).
  ServeStats stats() const;

  /// Served node population (may exceed the fitted dataset's — see
  /// ServeConfig::num_nodes).
  std::size_t num_nodes() const { return num_nodes_; }
  /// First serving tick (the fitted train_end).
  std::size_t start_t() const { return start_t_; }
  /// The generation registry every shard scores through; never null.
  GenerationRegistry* generation_registry() { return gen_registry_; }
  /// Saves the fleet-shared generation sets into `dir` (CRC-framed
  /// checkpoints, DESIGN.md §12).
  void checkpoint(const std::string& dir);

  std::size_t num_shards() const { return shards_.size(); }
  const ConsistentHashRing& placement() const { return ring_; }
  /// Per-shard engine access for tests and stats drill-down.
  const ServeEngine& shard(std::size_t i) const { return *shards_[i]->engine; }

 private:
  struct Shard {
    explicit Shard(std::size_t ring_capacity) : ring(ring_capacity) {}
    SpscRing<StreamSample> ring;
    std::unique_ptr<ServeEngine> engine;
    std::thread worker;
    /// Set by the worker after storing `error`; the worker keeps draining
    /// its ring after a failure so the producer can never wedge on a full
    /// ring, and skips the flush. The error resurfaces from finalize().
    std::atomic<bool> failed{false};
    std::exception_ptr error;
  };

  /// What a worker does once its ring is closed and drained: flush its
  /// engine (finalize) or just exit (an abandoned fleet's destructor).
  enum class Close : std::uint8_t { kOpen, kFlush, kAbandon };

  void worker_loop(Shard& shard);

  FleetConfig config_;
  ConsistentHashRing ring_;
  std::size_t num_nodes_ = 0;
  std::size_t start_t_ = 0;
  bool finalized_ = false;

  /// The one generation registry every shard scores through: borrowed
  /// from config.generation_registry, or owned.
  std::unique_ptr<GenerationRegistry> owned_gen_registry_;
  GenerationRegistry* gen_registry_ = nullptr;

  /// The scoring pool every shard shares (config.threads workers); null =
  /// the process-global pool. Declared before shards_ so it outlives the
  /// engines that submit to it.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<Close> closed_{Close::kOpen};
  std::atomic<std::uint64_t> ring_stalls_{0};
};

}  // namespace ns
