// Generation registry: rolling model generations per cluster behind an
// RCU-style epoch scheme (DESIGN.md §12).
//
// Each cluster holds up to G staggered generations of its shared
// reconstruction model. Every generation is published together with its
// compiled ScoringPlan: the registry compiles each model exactly once, in
// the one ScoringPath it was constructed with, when it seeds, publishes or
// loads the generation — so every engine and fleet shard scoring a
// generation shares that one plan, and no scoring task compiles or looks
// one up. Readers (the serve engine's scoring tasks) grab an immutable
// snapshot of the whole generation set by copying one shared_ptr; writers
// (the background retrainer) build a new set off to the side, under a
// per-cluster writer mutex, and publish it by swapping that pointer. The
// plan compiles before the writer mutex is taken, and the copy and the
// swap are the only work done under the slot's pointer mutex, so a reader
// waits at most for another pointer copy or swap — never for a publish in
// progress, a compile, a set copy or a forward. Publishing a generation
// past the cap retires the oldest from the set — but a reader still
// holding the old snapshot keeps the retired model and plan alive through
// their shared_ptrs until the last in-flight forward finishes, which is
// exactly the RCU grace period: no epoch counters, no reader registration.
//
// The full generation set checkpoints through the CRC-framed machinery
// (common/fileio.hpp): one framed file per cluster, a versioned index
// written last, so a crash at any point leaves the previous checkpoint
// fully loadable. Plans are not stored: load() recompiles them from the
// restored weights, bitwise equal to the plans of the registry that saved.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cluster_library.hpp"
#include "nn/scoring.hpp"
#include "obs/registry.hpp"

namespace ns {

/// One immutable published generation. The model and plan pointers are
/// shared with every snapshot that references them; after publish nothing
/// mutates the model's parameters (scoring forwards only read them), so
/// sharing is safe. Each generation carries its *own* residual statistics
/// — a retrained generation has its own notion of normal error, and
/// consensus scoring whitens each lane by its own stats.
struct ModelGeneration {
  std::uint64_t gen_id = 0;  ///< monotonically increasing per cluster
  std::shared_ptr<TransformerReconstructor> model;
  Tensor residual_scale;     ///< [M] whitening divisor (see ClusterEntry)
  double baseline_error = 1.0;
  /// Retrainer cycle that produced this generation (0 for the seed).
  std::uint64_t trained_cycle = 0;
  /// `model` compiled in the registry's ScoringPath. Set by the registry
  /// when it publishes or loads the generation (a caller's value is
  /// replaced); scoring forwards run through it.
  std::shared_ptr<const ScoringPlan> plan;
};

/// The immutable per-cluster set readers snapshot: generations in
/// ascending gen_id order, newest last, size <= max_generations.
struct GenerationSet {
  std::vector<ModelGeneration> generations;
};

class GenerationRegistry {
 public:
  /// `max_generations` is G; capped at 8 so the serve engine can track
  /// per-point lane activity in a byte. `obs_registry` null means the
  /// process-global registry. Every generation's plan compiles in `path`.
  GenerationRegistry(std::size_t num_clusters, std::size_t max_generations,
                     obs::Registry* obs_registry = nullptr,
                     ScoringPath path = ScoringPath::kStrict);

  GenerationRegistry(const GenerationRegistry&) = delete;
  GenerationRegistry& operator=(const GenerationRegistry&) = delete;

  /// Publishes generation 0 of every cluster from the fitted library:
  /// shares the entry's model pointer and copies its residual statistics.
  /// Call once before serving.
  void seed_from_library(const ClusterLibrary& library);

  /// RCU read side: one pointer copy under the slot's pointer mutex (never
  /// held across more than a copy or swap), never null. A cluster's set is
  /// empty only before it is seeded or loaded. The caller may keep the
  /// snapshot across a whole batched forward; retired generations it
  /// references stay alive until it drops the pointer.
  std::shared_ptr<const GenerationSet> snapshot(std::size_t cluster) const;

  /// RCU write side: compiles `gen.model` into `gen.plan`, then appends
  /// `gen` (gen_id assigned internally), retiring the oldest generation
  /// when the set exceeds max_generations. The compile runs before the
  /// writer mutex is taken; the new set becomes visible to readers in one
  /// pointer swap; concurrent publishes to the same cluster serialize on
  /// the writer mutex. Returns the assigned gen_id.
  std::uint64_t publish(std::size_t cluster, ModelGeneration gen);

  std::size_t num_clusters() const { return slots_.size(); }
  std::size_t max_generations() const { return max_generations_; }
  /// The arithmetic every generation's plan is compiled in.
  ScoringPath scoring_path() const { return path_; }
  /// Total publishes across all clusters (the global epoch).
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Checkpoints every cluster's generation set into `directory` through
  /// the CRC-framed atomic writer; the index commits last. Safe to call
  /// while readers score (it reads snapshots) but assumes one writer.
  void save(const std::string& directory) const;
  /// Restores a checkpoint written by save() and compiles every restored
  /// generation's plan. Throws ns::ParseError on any truncated or
  /// corrupted file, an index of another format version, or a cluster
  /// with no generations. `model_config` must match the trained
  /// architecture.
  void load(const std::string& directory,
            const TransformerConfig& model_config, std::uint64_t seed);

 private:
  struct ClusterSlot {
    /// Guards `current` for exactly one pointer copy or swap. libstdc++'s
    /// std::atomic<std::shared_ptr> takes an internal lock too, and the
    /// gcc 12 one releases it with relaxed ordering on load, which
    /// ThreadSanitizer reports as a race with the next publish.
    mutable std::mutex current_mutex;
    std::shared_ptr<const GenerationSet> current;
    std::mutex writer_mutex;
    std::uint64_t next_gen_id = 0;  ///< guarded by writer_mutex
  };

  /// Makes `set` the slot's current set (the caller holds writer_mutex).
  /// The old set is released after the pointer mutex is dropped.
  static void swap_current(ClusterSlot& slot,
                           std::shared_ptr<const GenerationSet> set);
  std::shared_ptr<const ScoringPlan> compile(
      const TransformerReconstructor& model) const;
  void update_gauges(std::size_t cluster, const GenerationSet& set);

  std::size_t max_generations_;
  ScoringPath path_;
  std::vector<std::unique_ptr<ClusterSlot>> slots_;
  std::atomic<std::uint64_t> epoch_{0};

  obs::Registry* obs_ = nullptr;
  std::vector<obs::Gauge*> active_gauges_;      ///< per cluster
  std::vector<obs::Gauge*> newest_gen_gauges_;  ///< per cluster
  obs::Counter* published_counter_ = nullptr;
  obs::Counter* retired_counter_ = nullptr;
};

}  // namespace ns
