#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "serve/model_registry.hpp"

namespace ns {

namespace {

/// Producer backoff ladder on a full ingest ring: raw retries up to
/// kStallSpinWaits failed pushes, sched yields up to kStallYieldWaits, then
/// 50 us sleeps until a slot frees.
constexpr std::size_t kStallSpinWaits = 64;
constexpr std::size_t kStallYieldWaits = 1024;
/// Consecutive empty ring polls before a worker pumps its engine and naps
/// (~100 us) instead of spinning.
constexpr std::size_t kWorkerIdlePolls = 64;
/// Ring points per shard: more points balance nodes more evenly and build
/// the ring more slowly.
constexpr std::size_t kVnodesPerShard = 64;

/// splitmix64 finalizer: a cheap, well-distributed 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Merges per-shard snapshots into the fleet view: counters sum, maxima
/// take the max, mean batch occupancy is batch-weighted. Latency summaries
/// come from ANY one shard — the shards share one obs registry, so each
/// shard's histograms already cover the whole fleet (summing their counts
/// would double-count).
ServeStats merge_shard_stats(const std::vector<ServeStats>& per_shard,
                             std::uint64_t ring_stalls) {
  ServeStats out;
  double occupancy_weighted = 0.0;
  for (const ServeStats& s : per_shard) {
    out.samples_ingested += s.samples_ingested;
    out.samples_out_of_order += s.samples_out_of_order;
    out.samples_dropped_late += s.samples_dropped_late;
    out.gap_rows_filled += s.gap_rows_filled;
    out.cells_masked += s.cells_masked;
    out.segments_opened += s.segments_opened;
    out.segments_closed += s.segments_closed;
    out.segments_matched += s.segments_matched;
    out.segments_unmatched += s.segments_unmatched;
    out.segments_insufficient += s.segments_insufficient;
    out.segments_too_short += s.segments_too_short;
    out.chunks_scored += s.chunks_scored;
    out.points_scored += s.points_scored;
    out.batches_run += s.batches_run;
    out.units_dropped += s.units_dropped;
    out.queue_depth += s.queue_depth;
    out.max_queue_depth = std::max(out.max_queue_depth, s.max_queue_depth);
    out.score_reallocs += s.score_reallocs;
    out.consensus_points += s.consensus_points;
    out.consensus_disagreements += s.consensus_disagreements;
    occupancy_weighted +=
        s.mean_batch_occupancy * static_cast<double>(s.batches_run);
  }
  out.mean_batch_occupancy =
      out.batches_run > 0
          ? occupancy_weighted / static_cast<double>(out.batches_run)
          : 0.0;
  if (!per_shard.empty()) {
    out.ingest_latency = per_shard.front().ingest_latency;
    out.match_latency = per_shard.front().match_latency;
    out.score_latency = per_shard.front().score_latency;
  }
  out.ring_stalls = static_cast<std::size_t>(ring_stalls);
  return out;
}

}  // namespace

ConsistentHashRing::ConsistentHashRing(std::size_t shards)
    : shards_(shards) {
  NS_REQUIRE(shards >= 1, "fleet: ring needs >= 1 shard");
  points_.reserve(shards * kVnodesPerShard);
  for (std::size_t s = 0; s < shards; ++s)
    for (std::size_t v = 0; v < kVnodesPerShard; ++v)
      points_.push_back(
          {mix64((static_cast<std::uint64_t>(s) << 32) | v),
           static_cast<std::uint32_t>(s)});
  std::sort(points_.begin(), points_.end());
}

std::size_t ConsistentHashRing::shard_for(std::size_t node) const {
  // A distinct hash stream from the vnode points (different pre-xor) so
  // node hashes cannot systematically collide with point hashes.
  const std::uint64_t h =
      mix64(static_cast<std::uint64_t>(node) ^ 0xD6E8FEB86659FD93ull);
  auto it = std::lower_bound(points_.begin(), points_.end(), Point{h, 0});
  if (it == points_.end()) it = points_.begin();  // wrap around the ring
  return it->shard;
}

FleetEngine::FleetEngine(NodeSentry& sentry, FleetConfig config)
    : config_(std::move(config)), ring_(config_.shards) {
  NS_REQUIRE(config_.shards >= 1, "fleet: shards must be >= 1");
  NS_REQUIRE(config_.ring_capacity >= 2,
             "fleet: ring_capacity " << config_.ring_capacity << " < 2");
  obs::Registry* registry =
      config_.engine.registry ? config_.engine.registry
                              : &obs::Registry::global();
  if (config_.engine.generation_registry != nullptr) {
    gen_registry_ = config_.engine.generation_registry;
  } else {
    // The shards must score through ONE generation set; give them a
    // fleet-owned registry instead of letting each engine own a private
    // copy.
    owned_gen_registry_ = std::make_unique<GenerationRegistry>(
        sentry.library().size(), config_.engine.generations, registry,
        config_.engine.scoring_path);
    owned_gen_registry_->seed_from_library(sentry.library());
    gen_registry_ = owned_gen_registry_.get();
  }
  ServeConfig engine_config = config_.engine;
  engine_config.generation_registry = gen_registry_;
  // One scoring pool for the whole fleet: `threads` workers beside the
  // shard workers, not `threads` per shard (0 keeps the global pool).
  if (engine_config.threads > 0)
    pool_ = std::make_unique<ThreadPool>(engine_config.threads);
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>(config_.ring_capacity);
    shard->engine =
        std::make_unique<ServeEngine>(sentry, engine_config, pool_.get());
    shards_.push_back(std::move(shard));
  }
  num_nodes_ = shards_.front()->engine->num_nodes();
  start_t_ = shards_.front()->engine->start_t();
  for (auto& shard : shards_)
    shard->worker =
        std::thread([this, sh = shard.get()] { worker_loop(*sh); });
}

FleetEngine::~FleetEngine() {
  // finalize() normally joins; an abandoned fleet still must not leak
  // running threads, and its workers exit without flushing. Errors die
  // with the shard (destructors cannot throw).
  closed_.store(Close::kAbandon, std::memory_order_release);
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

void FleetEngine::ingest(const StreamSample& sample) {
  NS_REQUIRE(!finalized_, "fleet: ingest after finalize");
  NS_REQUIRE(sample.node < num_nodes_,
             "fleet: node " << sample.node << " out of range");
  Shard& shard = *shards_[ring_.shard_for(sample.node)];
  StreamSample routed = sample;
  // Never drop a raw sample: wait until the worker frees a slot, counting
  // every failed push as a stall. The wait climbs a backoff ladder — a few
  // raw retries (a slot usually frees within microseconds), then sched
  // yields, then short sleeps — so a long stall (slow consumer, tiny ring)
  // parks the producer instead of burning a full core the worker needs.
  std::size_t waits = 0;
  while (!shard.ring.try_push(std::move(routed))) {
    ring_stalls_.fetch_add(1, std::memory_order_relaxed);
    ++waits;
    if (waits <= kStallSpinWaits) continue;  // hot retry
    if (waits <= kStallYieldWaits) {
      std::this_thread::yield();
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void FleetEngine::worker_loop(Shard& shard) {
  // Runs one engine call unless the shard already failed. After a failure
  // the worker keeps draining (and discarding) so the producer can never
  // wedge on a full ring; the stored error resurfaces from finalize().
  const auto guarded = [&shard](auto&& call) {
    if (shard.failed.load(std::memory_order_relaxed)) return;
    try {
      call();
    } catch (...) {
      shard.error = std::current_exception();
      shard.failed.store(true, std::memory_order_release);
    }
  };
  StreamSample sample;
  const auto deliver = [&] {
    guarded([&] { shard.engine->ingest(sample); });
  };
  std::size_t idle_polls = 0;
  while (true) {
    if (shard.ring.try_pop(sample)) {
      idle_polls = 0;
      deliver();
      continue;
    }
    const Close close = closed_.load(std::memory_order_acquire);
    if (close != Close::kOpen) {
      // The producer stops pushing BEFORE closed_ is set, so one final
      // drain after the acquire sees everything. Then the end-of-stream
      // work runs here, on the thread that ingested, concurrently with
      // the other shards' flushes.
      while (shard.ring.try_pop(sample)) deliver();
      if (close == Close::kFlush) guarded([&] { shard.engine->flush(); });
      return;
    }
    ++idle_polls;
    if (idle_polls >= kWorkerIdlePolls) {
      idle_polls = 0;
      guarded([&] { shard.engine->pump(); });
      // Idle shard: nap instead of burning the core other shards need.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    } else {
      std::this_thread::yield();
    }
  }
}

ServeResult FleetEngine::finalize() {
  NS_REQUIRE(!finalized_, "fleet: finalize called twice");
  finalized_ = true;
  // Every worker flushes its own engine after its last drain, so the
  // shards' segment closes and closing forwards overlap.
  closed_.store(Close::kFlush, std::memory_order_release);
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  for (auto& shard : shards_)
    if (shard->failed.load(std::memory_order_acquire))
      std::rethrow_exception(shard->error);
  // The joins published every flushed engine to this thread. Assembly
  // (thresholding, attribution planes, store batches) runs shard by shard
  // here, each fanning its per-node work out over the scoring pool.
  std::vector<ServeResult> results;
  results.reserve(shards_.size());
  for (auto& shard : shards_) results.push_back(shard->engine->finalize());

  ServeResult merged;
  merged.timeline_end = start_t_;
  for (const ServeResult& r : results)
    merged.timeline_end = std::max(merged.timeline_end, r.timeline_end);
  merged.detections.assign(num_nodes_, NodeDetection{});
  std::vector<ServeStats> per_shard;
  per_shard.reserve(results.size());
  for (const ServeResult& r : results) per_shard.push_back(r.stats);
  const bool attribution = !results.empty() && results.front().attribution.enabled();
  if (attribution) {
    merged.attribution.num_metrics = results.front().attribution.num_metrics;
    merged.attribution.contrib.assign(num_nodes_, {});
  }
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    // Every sample of node n went to exactly one shard; the others hold an
    // all-zero record for it. Take the owner's and stretch it to the
    // fleet-wide timeline.
    const std::size_t owner = ring_.shard_for(n);
    NodeDetection& det = merged.detections[n];
    det = std::move(results[owner].detections[n]);
    det.scores.resize(merged.timeline_end, 0.0f);
    det.predictions.resize(merged.timeline_end, 0);
    if (attribution) {
      // Same owner-takes-all rule for the per-metric planes.
      std::vector<float>& plane = merged.attribution.contrib[n];
      plane = std::move(results[owner].attribution.contrib[n]);
      plane.resize(merged.timeline_end * merged.attribution.num_metrics, 0.0f);
    }
  }
  merged.stats = merge_shard_stats(
      per_shard, ring_stalls_.load(std::memory_order_relaxed));
  return merged;
}

ServeStats FleetEngine::stats() const {
  std::vector<ServeStats> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_)
    per_shard.push_back(shard->engine->stats());
  return merge_shard_stats(per_shard,
                           ring_stalls_.load(std::memory_order_relaxed));
}

void FleetEngine::checkpoint(const std::string& dir) {
  gen_registry_->save(dir);
}

}  // namespace ns
