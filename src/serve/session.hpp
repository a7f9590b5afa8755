// ServeSession: one struct, one validate(), one run().
//
// The serve CLI grew ~15 loose flags that were threaded positionally into
// ServeConfig, ReplayOptions, RetrainerConfig, StoreWriter and the metrics
// exporter. ServeSessionConfig collapses all of it into a single nested
// config — fleet (with its engine template) + generations + store +
// replay + metrics — with one validate() that cross-checks the knobs
// BEFORE any resource is built.
// ServeSession then owns the whole serving phase: it constructs the
// FleetEngine backend (one shard by default), the generation registry it
// scores through (plus the optional background retrainer), and the store
// writer, wires them together, replays the dataset, and tears everything
// down in order. The CLI, the replay harness and tests all construct the
// same struct instead of re-implementing the wiring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/backend.hpp"
#include "serve/fleet.hpp"
#include "serve/replay.hpp"
#include "serve/retrainer.hpp"
#include "store/writer.hpp"

namespace ns {

struct ServeSessionConfig {
  /// The serving backend: a FleetEngine of `fleet.shards` shards, each
  /// with one SPSC ring of `fleet.ring_capacity` samples and one worker
  /// thread (one shard is bitwise a lone ServeEngine, DESIGN.md §14).
  /// `fleet.engine` is the template for the shard engines: threads, reorder
  /// slack, batching, metrics registry, scoring path and G/Q
  /// (`generations`, `consensus_quorum`). The session wires its own
  /// generation registry (compiled in `scoring_path`), retrainer and store
  /// writer, so those three pointers are ignored here.
  FleetConfig fleet;

  /// Rolling generations (DESIGN.md §12): the session's registry has
  /// fleet.engine.generations lanes per cluster. Restored generations and
  /// retrained clones take their seed and training recipe from the fitted
  /// sentry.
  struct Generations {
    /// Run the background retrainer every this many ms (0 = never).
    std::size_t retrain_every_ms = 0;
    RetrainerConfig retrainer;
    /// Warm start: load generation sets from this directory when it is
    /// non-empty (a previous session's save_generations output).
    std::string restore_dir;
  } generations;

  /// Embedded time-series store (DESIGN.md §13). Disabled when dir empty.
  /// The store is created with the train region [0, train_end) already
  /// imported, so a later --from-store run has the full timeline.
  struct Store {
    std::string dir;
    StoreWriterConfig writer;
  } store;

  /// Streaming shape: pacing, jitter, pump cadence.
  ReplayOptions replay;

  /// Metrics exposition files (<prefix>.prom + <prefix>.json).
  struct Metrics {
    std::string out_prefix;  ///< empty = no files
    /// Also refresh the files every N streamed samples (0 = only at end).
    std::size_t every = 0;
  } metrics;

  /// Cross-checks every knob; throws ns::CheckFailure with a pointed
  /// message on the first violation. Construction-time resources (store
  /// directories, registry checkpoints) are validated by their owners —
  /// this is the pure-config gate.
  void validate() const;
};

class ServeSession {
 public:
  /// Builds the full serving stack (backend, registry, retrainer, store
  /// writer) for `dataset`'s test region. `sentry` must be fitted (or
  /// restored) and outlive the session; `dataset` must outlive run().
  ServeSession(NodeSentry& sentry, const MtsDataset& dataset,
               std::size_t train_end, ServeSessionConfig config);
  ~ServeSession();

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Starts the retrainer (if configured), replays the test region through
  /// the backend, stops the retrainer, refreshes the metrics files, and
  /// returns the report. Single-shot (drives the backend's finalize()).
  ReplayReport run();

  /// The fleet serving this session.
  ServeBackend& backend() { return *fleet_; }
  std::size_t num_shards() const { return fleet_->num_shards(); }

  GenerationRegistry* generation_registry() {
    return fleet_->generation_registry();
  }
  Retrainer* retrainer() { return retrainer_.get(); }
  /// Null unless the store was configured.
  StoreWriter* store_writer() { return store_writer_.get(); }

  /// Saves the generation sets under <dir>/generations.
  void save_generations(const std::string& dir);

 private:
  NodeSentry* sentry_;
  const MtsDataset* dataset_;
  std::size_t train_end_ = 0;
  ServeSessionConfig config_;
  bool ran_ = false;

  std::unique_ptr<GenerationRegistry> registry_;
  std::unique_ptr<Retrainer> retrainer_;
  std::unique_ptr<StoreWriter> store_writer_;
  std::unique_ptr<FleetEngine> fleet_;
};

}  // namespace ns
