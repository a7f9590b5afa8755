#include "serve/session.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "obs/export.hpp"
#include "serve/model_registry.hpp"
#include "store/query.hpp"

namespace ns {

void ServeSessionConfig::validate() const {
  NS_REQUIRE(fleet.shards >= 1, "session: fleet.shards must be >= 1");
  NS_REQUIRE(fleet.ring_capacity >= 2,
             "session: fleet.ring_capacity " << fleet.ring_capacity << " < 2");
  const ServeConfig& engine = fleet.engine;
  NS_REQUIRE(engine.generations >= 1 && engine.generations <= 8,
             "session: fleet.engine.generations " << engine.generations
                                                  << " out of [1,8]");
  NS_REQUIRE(engine.consensus_quorum >= 1 &&
                 engine.consensus_quorum <= engine.generations,
             "session: fleet.engine.consensus_quorum "
                 << engine.consensus_quorum << " out of [1,"
                 << engine.generations << "]");
  NS_REQUIRE(replay.speedup >= 0.0, "session: negative replay speedup");
  NS_REQUIRE(metrics.every == 0 || !metrics.out_prefix.empty(),
             "session: metrics.every needs metrics.out_prefix");
}

ServeSession::ServeSession(NodeSentry& sentry, const MtsDataset& dataset,
                           std::size_t train_end, ServeSessionConfig config)
    : sentry_(&sentry),
      dataset_(&dataset),
      train_end_(train_end),
      config_(std::move(config)) {
  config_.validate();
  // A zero-node fitted library leaves the engines' profile mapping
  // (sample.node % fitted nodes) with nothing to map onto; reject here,
  // before any resource (store, registry, shard threads) is built, instead
  // of letting the modulo blow up on the first ingested sample.
  NS_REQUIRE(sentry.processed().num_nodes() > 0,
             "session: fitted dataset has no nodes — no standardization "
             "profile to serve from");

  ServeConfig engine_config = config_.fleet.engine;
  engine_config.retrainer = nullptr;
  engine_config.store_writer = nullptr;

  registry_ = std::make_unique<GenerationRegistry>(
      sentry.library().size(), engine_config.generations,
      engine_config.registry, engine_config.scoring_path);
  // The loaded parameters overwrite every initialization, so the seed only
  // has to be a fixed one: the fit's.
  if (!config_.generations.restore_dir.empty())
    registry_->load(config_.generations.restore_dir, sentry.model_config(),
                    sentry.config().seed);
  engine_config.generation_registry = registry_.get();
  if (config_.generations.retrain_every_ms > 0) {
    retrainer_ = std::make_unique<Retrainer>(*registry_, sentry,
                                             config_.generations.retrainer);
    engine_config.retrainer = retrainer_.get();
  }

  if (!config_.store.dir.empty()) {
    TimeSeriesStore store = TimeSeriesStore::create(
        config_.store.dir, store_meta_from_dataset(dataset), StoreConfig{});
    store_append_dataset(store, dataset, 0, train_end);
    // finalize() hands over one batch per node in one burst: a smaller
    // nonzero bound would drop whole node histories.
    StoreWriterConfig writer_config = config_.store.writer;
    if (writer_config.queue_capacity > 0)
      writer_config.queue_capacity =
          std::max(writer_config.queue_capacity, store.num_nodes());
    store_writer_ = std::make_unique<StoreWriter>(
        std::move(store), writer_config, engine_config.registry);
    engine_config.store_writer = store_writer_.get();
  }

  if (config_.fleet.shards > 1) {
    FleetConfig fleet_config = config_.fleet;
    fleet_config.engine = engine_config;
    fleet_ = std::make_unique<FleetEngine>(sentry, fleet_config);
    backend_ = fleet_.get();
  } else {
    // One shard = the historic single-engine path: no ring, no worker
    // thread, bit-for-bit what pre-fleet deployments ran.
    engine_ = std::make_unique<ServeEngine>(sentry, engine_config);
    backend_ = engine_.get();
  }
}

ServeSession::~ServeSession() {
  if (retrainer_) retrainer_->stop();
}

ReplayReport ServeSession::run() {
  NS_REQUIRE(!ran_, "session: run() called twice");
  ran_ = true;
  if (retrainer_)
    retrainer_->start(
        std::chrono::milliseconds(config_.generations.retrain_every_ms));

  obs::Registry* registry = config_.fleet.engine.registry
                                ? config_.fleet.engine.registry
                                : &obs::Registry::global();
  ReplayOptions replay = config_.replay;
  if (!config_.metrics.out_prefix.empty() && config_.metrics.every > 0) {
    // Periodic exposition: a scraper can pick up <prefix>.prom while the
    // replay streams (files are swapped atomically).
    const std::string prefix = config_.metrics.out_prefix;
    replay.progress_every = config_.metrics.every;
    replay.on_progress = [registry, prefix](std::size_t) {
      obs::write_metrics_files(*registry, prefix);
    };
  }

  ReplayReport report = serve_replay(*backend_, *dataset_, train_end_, replay);
  if (retrainer_) retrainer_->stop();
  if (!config_.metrics.out_prefix.empty())
    obs::write_metrics_files(*registry, config_.metrics.out_prefix);
  return report;
}

void ServeSession::save_generations(const std::string& dir) {
  backend_->checkpoint((std::filesystem::path(dir) / "generations").string());
}

}  // namespace ns
