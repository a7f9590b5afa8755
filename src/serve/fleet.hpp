// FleetEngine: sharded fleet-scale serving behind the ServeBackend
// contract (DESIGN.md §14).
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
// sum, latency summaries read the shared instruments. With one shard the
// fleet is bitwise-identical to driving a lone ServeEngine: the ring
// preserves order, the shard engine is constructed with the same config,
// and scoring is packing-independent.
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
/// of its own hash. Growing the fleet by one shard moves ~1/(S+1) of the
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
  /// Capacity of each shard's SPSC ingest ring (rounded up to a power of
  /// two). Sized in samples; a full ring stalls the producer.
  std::size_t ring_capacity = 4096;
  /// Template for every shard engine. `num_nodes` is the FLEET population
  /// (0 = the fitted dataset's). Every shard scores through
  /// `generation_registry` when it is set, else through one registry the
  /// fleet owns, compiled in `scoring_path`. `threads` sizes ONE scoring
  /// pool the fleet builds and every shard scores and thresholds on (0 =
  /// the process-global pool); everything else passes through verbatim
  /// (registry/store_writer/retrainer are already safe to share — see the
  /// file comment).
  ServeConfig engine;
};

class FleetEngine final : public ServeBackend {
 public:
  /// `sentry` must outlive the engine (same contract as ServeEngine).
  /// Worker threads start immediately.
  FleetEngine(NodeSentry& sentry, FleetConfig config = {});
  ~FleetEngine() override;

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Routes the sample to its owner shard's ring. Never drops; spins
  /// (counted in stats().ring_stalls) when that ring is full.
  void ingest(const StreamSample& sample) override;

  /// No-op returning 0: the shard workers dispatch continuously. Kept so
  /// callers can pace any ServeBackend identically.
  std::size_t pump() override { return 0; }

  /// Closes the rings, lets every worker flush its shard after its last
  /// drain, joins the workers (rethrowing the first shard error, if any),
  /// assembles every shard's result on this thread, and merges detections
  /// + stats into fleet-wide views. Single-shot.
  ServeResult finalize() override;

  /// Merged snapshot of every shard's counters (safe from any thread).
  ServeStats stats() const override;

  std::size_t num_nodes() const override { return num_nodes_; }
  std::size_t start_t() const override { return start_t_; }
  GenerationRegistry* generation_registry() override { return gen_registry_; }
  /// Saves the fleet-shared generation sets (once — the shards share one
  /// registry).
  void checkpoint(const std::string& dir) override;

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
  /// from config.engine, or owned.
  std::unique_ptr<GenerationRegistry> owned_gen_registry_;
  GenerationRegistry* gen_registry_ = nullptr;

  /// The scoring pool every shard shares (config.engine.threads workers);
  /// null = the process-global pool. Declared before shards_ so it
  /// outlives the engines that submit to it.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<Close> closed_{Close::kOpen};
  std::atomic<std::uint64_t> ring_stalls_{0};
};

}  // namespace ns
