// Background retrainer: the self-healing maintenance loop behind the
// generation registry (DESIGN.md §12).
//
// The serve engine feeds it the freshest matched segments (centered tokens,
// the same representation the models score); each cycle, every cluster with
// enough fresh data gets a new generation: clone the newest serving model,
// train the clone on the freshest K segments with the existing batched
// trainer, validate it (finite parameters, bounded baseline inflation), and
// publish it through the registry's atomic swap. The training recipe is the
// fitted detector's own (NodeSentry::train_options), run for
// config.finetune_epochs — nothing here configures it a second time.
// Serving is never touched by anything less than a validated publish:
//
//   train crash    -> bounded retries with exponential backoff, then the
//                     cycle records a failure; the serving set is unchanged.
//   repeated fails -> a per-cluster circuit breaker opens and skips the
//                     cluster for a cooldown, then half-opens for one probe.
//   poisoned data  -> validation rejects the clone (non-finite parameters
//                     or a baseline error inflated past the cap); counted
//                     as a failure, serving set unchanged.
//   publish crash  -> fires before the atomic swap, so readers never see a
//                     partial set and the on-disk checkpoint stays the
//                     previous complete one.
//
// run_cycle() is synchronous (tests drive it deterministically); start()
// runs it periodically on a background thread, concurrently with scoring —
// publish/snapshot are the only points of contact, both lock-free for
// readers.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/nodesentry.hpp"
#include "serve/model_registry.hpp"
#include "sim/telemetry_faults.hpp"

namespace ns {

/// How the maintenance loop runs. What a retrain trains on and how comes
/// from the fitted NodeSentry: the freshest
/// NodeSentryConfig::segments_per_cluster segments, chunked at its
/// train_window, trained with its train_options(finetune_epochs) and
/// seeded from its seed.
struct RetrainerConfig {
  /// A cluster retrains only once this many fresh segments accumulated
  /// (1..NodeSentryConfig::segments_per_cluster).
  std::size_t min_segments = 2;
  /// Training attempts per cluster per cycle (>= 1); attempt i sleeps
  /// backoff_initial * 2^(i-1) before retrying.
  std::size_t max_attempts = 3;
  std::chrono::milliseconds backoff_initial{1};
  /// Consecutive failed *cycles* before the breaker opens.
  std::size_t breaker_threshold = 3;
  /// Cycles the breaker stays open before half-opening for one probe.
  std::size_t breaker_cooldown = 4;
  /// When non-empty, the registry checkpoints here after every publish.
  std::string checkpoint_dir;
};

/// Per-cluster circuit-breaker state (exposed for stats and tests).
enum class BreakerState : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };

struct RetrainCycleReport {
  std::uint64_t cycle = 0;
  std::size_t clusters_with_data = 0;
  std::size_t retrains_published = 0;
  std::size_t retrains_failed = 0;      ///< all attempts exhausted
  std::size_t retrains_rejected = 0;    ///< failed validation
  std::size_t retries = 0;              ///< extra attempts after a crash
  std::size_t skipped_breaker_open = 0;
  std::size_t segments_consumed = 0;
};

class Retrainer {
 public:
  /// Per-cluster ring capacity; older offers fall off the back.
  static constexpr std::size_t kRingCapacity = 16;
  static_assert(kRingCapacity >= NodeSentryConfig::segments_per_cluster,
                "the ring must hold the freshest K segments");
  /// Validation: reject a clone whose baseline error exceeds this multiple
  /// of the generation it was cloned from (a poisoned or diverged train).
  static constexpr double kMaxBaselineInflation = 10.0;

  /// `registry` and the fitted `sentry` must outlive the retrainer. The
  /// sentry is read-only: its library gives the metric weights, its
  /// model_config() the architecture, and its config and train_options()
  /// the training recipe. `faults` is the chaos-test seam (null in
  /// production).
  Retrainer(GenerationRegistry& registry, const NodeSentry& sentry,
            RetrainerConfig config, obs::Registry* obs_registry = nullptr,
            RetrainFaultInjector* faults = nullptr);
  ~Retrainer();

  Retrainer(const Retrainer&) = delete;
  Retrainer& operator=(const Retrainer&) = delete;

  /// Offers one fresh segment (centered tokens, [len, M]) for `cluster`.
  /// Thread-safe and cheap: pushes into a bounded per-cluster ring,
  /// dropping the oldest entry when full. Called by the serve engine's
  /// ingest thread at segment close.
  void offer_segment(std::size_t cluster, Tensor tokens,
                     std::size_t segment_id);

  /// One synchronous maintenance pass over every cluster. Safe to call
  /// concurrently with scoring; NOT safe to call concurrently with itself
  /// (the background thread or the caller, pick one).
  RetrainCycleReport run_cycle();

  /// Starts the background thread: run_cycle() every `interval` until
  /// stop() or destruction.
  void start(std::chrono::milliseconds interval);
  void stop();

  /// The registry this retrainer publishes into.
  GenerationRegistry& registry() const { return *registry_; }

  BreakerState breaker(std::size_t cluster) const;
  /// Cycles run so far.
  std::uint64_t cycles() const;
  /// Fresh segments currently buffered for `cluster`.
  std::size_t buffered_segments(std::size_t cluster) const;
  /// Total offer_segment() calls accepted over the retrainer's lifetime
  /// (including offers later displaced from a full ring). Offers happen at
  /// segment close, before finalize-time flags exist — this counter lets
  /// tests pin that accounting (see close_segment's ordering note).
  std::uint64_t segments_offered() const {
    return segments_offered_.load(std::memory_order_relaxed);
  }

 private:
  struct FreshSegment {
    Tensor tokens;
    std::size_t segment_id = 0;
  };
  struct ClusterState {
    std::deque<FreshSegment> ring;  ///< guarded by ring_mutex_
    // Breaker bookkeeping: touched only by the cycle runner.
    std::size_t consecutive_failures = 0;
    std::size_t open_cycles_left = 0;
    BreakerState state = BreakerState::kClosed;
    std::uint64_t last_publish_cycle = 0;
  };

  /// One full retrain of `cluster` on `segments`: returns true when a new
  /// generation was published.
  bool retrain_cluster(std::size_t cluster,
                       std::vector<FreshSegment> segments,
                       RetrainCycleReport& report);
  bool validate_clone(const TransformerReconstructor& clone,
                      const TrainStats& stats, double base_baseline) const;

  GenerationRegistry* registry_;
  const NodeSentry* sentry_;
  RetrainerConfig config_;
  RetrainFaultInjector* faults_ = nullptr;

  mutable std::mutex ring_mutex_;
  std::vector<ClusterState> clusters_;
  std::atomic<std::uint64_t> cycle_{0};
  std::atomic<std::uint64_t> segments_offered_{0};

  std::thread worker_;
  std::mutex worker_mutex_;
  std::condition_variable worker_cv_;
  bool worker_stop_ = false;

  obs::Registry* obs_ = nullptr;
  obs::Counter* published_counter_ = nullptr;
  obs::Counter* failed_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;
  std::vector<obs::Gauge*> breaker_gauges_;  ///< per cluster: 0/1/2
  std::vector<obs::Gauge*> age_gauges_;      ///< cycles since last publish
};

}  // namespace ns
