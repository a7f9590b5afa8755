#include "serve/retrainer.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "nn/module.hpp"

namespace ns {

Retrainer::Retrainer(GenerationRegistry& registry, const NodeSentry& sentry,
                     RetrainerConfig config, obs::Registry* obs_registry,
                     RetrainFaultInjector* faults)
    : registry_(&registry),
      sentry_(&sentry),
      config_(std::move(config)),
      faults_(faults) {
  const std::size_t clusters = sentry.library().size();
  NS_REQUIRE(clusters == registry.num_clusters(),
             "retrainer: library has " << clusters << " clusters, registry "
                                       << registry.num_clusters());
  constexpr std::size_t K = NodeSentryConfig::segments_per_cluster;
  NS_REQUIRE(config_.min_segments >= 1 && config_.min_segments <= K,
             "retrainer: min_segments " << config_.min_segments
                                        << " out of [1," << K << "]");
  clusters_.resize(clusters);
  obs_ = obs_registry ? obs_registry : &obs::Registry::global();
  published_counter_ = &obs_->counter("ns_retrain_published_total",
                                      "Generations published by the retrainer");
  failed_counter_ = &obs_->counter(
      "ns_retrain_failed_total", "Retrains that exhausted every attempt");
  rejected_counter_ = &obs_->counter(
      "ns_retrain_rejected_total",
      "Retrained clones rejected by validation (never served)");
  retries_counter_ = &obs_->counter("ns_retrain_retries_total",
                                    "Retrain attempts retried after a crash");
  breaker_gauges_.reserve(clusters_.size());
  age_gauges_.reserve(clusters_.size());
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    const obs::LabelSet labels{{"cluster", std::to_string(c)}};
    breaker_gauges_.push_back(&obs_->gauge(
        "ns_retrain_breaker_state",
        "Circuit breaker: 0 closed, 1 open, 2 half-open", labels));
    age_gauges_.push_back(&obs_->gauge(
        "ns_generation_age_cycles",
        "Retrainer cycles since this cluster last published", labels));
  }
}

Retrainer::~Retrainer() { stop(); }

void Retrainer::offer_segment(std::size_t cluster, Tensor tokens,
                              std::size_t segment_id) {
  NS_REQUIRE(cluster < clusters_.size(),
             "retrainer: cluster " << cluster << " out of range");
  segments_offered_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ring_mutex_);
  std::deque<FreshSegment>& ring = clusters_[cluster].ring;
  ring.push_back({std::move(tokens), segment_id});
  while (ring.size() > kRingCapacity) ring.pop_front();
}

RetrainCycleReport Retrainer::run_cycle() {
  RetrainCycleReport report;
  report.cycle = cycle_.fetch_add(1, std::memory_order_relaxed) + 1;
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    std::vector<FreshSegment> segments;
    bool skip_open = false;
    {
      std::lock_guard<std::mutex> lock(ring_mutex_);
      ClusterState& cs = clusters_[c];
      if (cs.state == BreakerState::kOpen) {
        if (cs.open_cycles_left > 1) {
          --cs.open_cycles_left;
          skip_open = true;
        } else {
          // Cooldown over: half-open, one probe retrain is allowed.
          cs.open_cycles_left = 0;
          cs.state = BreakerState::kHalfOpen;
        }
      }
      if (!skip_open && cs.ring.size() >= config_.min_segments) {
        // Consume the freshest K; anything older is stale by definition
        // once a retrain on newer data happens, so the ring is drained.
        const std::size_t take =
            std::min(NodeSentryConfig::segments_per_cluster, cs.ring.size());
        segments.reserve(take);
        for (auto it = cs.ring.end() - static_cast<std::ptrdiff_t>(take);
             it != cs.ring.end(); ++it)
          segments.push_back(std::move(*it));
        cs.ring.clear();
      }
      if (skip_open && cs.ring.size() >= config_.min_segments)
        ++report.skipped_breaker_open;
      breaker_gauges_[c]->set(static_cast<double>(cs.state));
      age_gauges_[c]->set(
          static_cast<double>(report.cycle - cs.last_publish_cycle));
    }
    if (segments.empty()) continue;
    ++report.clusters_with_data;
    report.segments_consumed += segments.size();
    const bool published = retrain_cluster(c, std::move(segments), report);
    {
      std::lock_guard<std::mutex> lock(ring_mutex_);
      ClusterState& cs = clusters_[c];
      if (published) {
        cs.consecutive_failures = 0;
        cs.state = BreakerState::kClosed;
        cs.last_publish_cycle = report.cycle;
        age_gauges_[c]->set(0.0);
      } else {
        ++cs.consecutive_failures;
        if (cs.state == BreakerState::kHalfOpen ||
            cs.consecutive_failures >= config_.breaker_threshold) {
          cs.state = BreakerState::kOpen;
          cs.open_cycles_left = std::max<std::size_t>(
              config_.breaker_cooldown, 1);
        }
      }
      breaker_gauges_[c]->set(static_cast<double>(cs.state));
    }
  }
  return report;
}

bool Retrainer::retrain_cluster(std::size_t cluster,
                                std::vector<FreshSegment> segments,
                                RetrainCycleReport& report) {
  const std::uint64_t cycle = cycle_.load(std::memory_order_relaxed);
  // Base generation: the newest one. Segments only arrive from an engine
  // scoring through this registry, and the engine seeds every cluster.
  const auto snap = registry_->snapshot(cluster);
  NS_REQUIRE(!snap->generations.empty(),
             "retrainer: cluster " << cluster << " has no generations");
  const ModelGeneration& base = snap->generations.back();
  const ClusterEntry& entry = sentry_->library().clusters()[cluster];
  const NodeSentryConfig& fit = sentry_->config();

  // Chaos seam: poisoned-training-segment faults corrupt the gathered
  // tokens before chunking, exactly where a sick collector would.
  if (faults_ != nullptr) {
    Rng poison_rng(fit.seed ^ (cycle * 2654435761ull) ^ cluster);
    for (FreshSegment& seg : segments)
      faults_->poison(cluster, seg.tokens, poison_rng);
  }

  // The fit path's chunking: train_window-row windows, positional offsets
  // within the segment, the segment id for segment-aware positional
  // encoding.
  std::vector<TrainChunk> chunks;
  for (const FreshSegment& seg : segments)
    for (TrainChunk& chunk :
         train_chunks(seg.tokens, fit.train_window, seg.segment_id))
      chunks.push_back(std::move(chunk));
  if (chunks.empty()) return false;

  // The fit's recipe, with the warm-start epoch budget detect() uses too.
  const TrainOptions options = sentry_->train_options(fit.finetune_epochs);
  const std::uint64_t train_seed =
      fit.seed + cycle * 7919ull + cluster * 104729ull;
  const TransformerConfig model_config = sentry_->model_config();

  const std::size_t attempts = std::max<std::size_t>(config_.max_attempts, 1);
  for (std::size_t attempt = 1; attempt <= attempts; ++attempt) {
    try {
      if (faults_ != nullptr) faults_->at_stage(cluster, /*publishing=*/false);
      // Clone the base model through the parameter stream. Scoring
      // forwards only ever *read* parameter tensors (no gradients), so
      // streaming them out while the base keeps serving is safe; the clone
      // is private to this attempt.
      Rng clone_rng(train_seed);
      auto clone = std::make_shared<TransformerReconstructor>(model_config,
                                                              clone_rng);
      {
        std::stringstream buffer(std::ios::in | std::ios::out |
                                 std::ios::binary);
        save_parameters(*base.model, buffer);
        load_parameters(*clone, buffer);
      }
      const TrainStats stats = train_reconstructor(
          *clone, chunks, entry.metric_weights, options, train_seed);
      if (!validate_clone(*clone, stats, base.baseline_error)) {
        // Bad data trains a bad clone deterministically — retrying the
        // same segments cannot help, so reject without retries. The
        // serving set is untouched.
        ++report.retrains_rejected;
        rejected_counter_->inc();
        ++report.retrains_failed;
        failed_counter_->inc();
        return false;
      }
      // Crash-mid-publish fires *before* the atomic swap: readers never
      // see a partial set, and the on-disk checkpoint stays the previous
      // complete one.
      if (faults_ != nullptr) faults_->at_stage(cluster, /*publishing=*/true);
      ModelGeneration gen;
      gen.model = std::move(clone);
      gen.residual_scale = stats.residual_scale;
      gen.baseline_error = stats.baseline_error;
      gen.trained_cycle = cycle;
      registry_->publish(cluster, std::move(gen));
      if (!config_.checkpoint_dir.empty())
        registry_->save(config_.checkpoint_dir);
      ++report.retrains_published;
      published_counter_->inc();
      return true;
    } catch (const std::exception&) {
      if (attempt == attempts) {
        ++report.retrains_failed;
        failed_counter_->inc();
        return false;
      }
      ++report.retries;
      retries_counter_->inc();
      // Bounded exponential backoff before the next attempt.
      std::this_thread::sleep_for(config_.backoff_initial *
                                  (std::int64_t{1} << (attempt - 1)));
    }
  }
  return false;
}

bool Retrainer::validate_clone(const TransformerReconstructor& clone,
                               const TrainStats& stats,
                               double base_baseline) const {
  if (!std::isfinite(stats.baseline_error) || stats.baseline_error <= 0.0)
    return false;
  if (stats.baseline_error >
      kMaxBaselineInflation * std::max(base_baseline, 1e-9))
    return false;
  for (const float s : stats.residual_scale.flat())
    if (!std::isfinite(s)) return false;
  for (const Var& p : clone.parameters())
    for (const float v : p.value().flat())
      if (!std::isfinite(v)) return false;
  return true;
}

void Retrainer::start(std::chrono::milliseconds interval) {
  NS_REQUIRE(!worker_.joinable(), "retrainer: already started");
  {
    std::lock_guard<std::mutex> lock(worker_mutex_);
    worker_stop_ = false;
  }
  worker_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lock(worker_mutex_);
    while (!worker_stop_) {
      if (worker_cv_.wait_for(lock, interval, [this] { return worker_stop_; }))
        break;
      lock.unlock();
      try {
        run_cycle();
      } catch (...) {
        // A cycle-level error (e.g. checkpoint disk failure) must not kill
        // the maintenance thread; the failure counters carry the signal.
      }
      lock.lock();
    }
  });
}

void Retrainer::stop() {
  {
    std::lock_guard<std::mutex> lock(worker_mutex_);
    worker_stop_ = true;
  }
  worker_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

BreakerState Retrainer::breaker(std::size_t cluster) const {
  NS_REQUIRE(cluster < clusters_.size(),
             "retrainer: cluster " << cluster << " out of range");
  std::lock_guard<std::mutex> lock(ring_mutex_);
  return clusters_[cluster].state;
}

std::uint64_t Retrainer::cycles() const {
  return cycle_.load(std::memory_order_relaxed);
}

std::size_t Retrainer::buffered_segments(std::size_t cluster) const {
  NS_REQUIRE(cluster < clusters_.size(),
             "retrainer: cluster " << cluster << " out of range");
  std::lock_guard<std::mutex> lock(ring_mutex_);
  return clusters_[cluster].ring.size();
}

}  // namespace ns
