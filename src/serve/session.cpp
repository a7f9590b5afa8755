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
  fleet.validate();
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

  FleetConfig fleet_config = config_.fleet;
  ServeConfig& engine_config = fleet_config.engine;
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
  fleet_config.generation_registry = registry_.get();
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

  fleet_ = std::make_unique<FleetEngine>(sentry, fleet_config);
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

  ReplayReport report = serve_replay(*fleet_, *dataset_, train_end_, replay);
  if (retrainer_) retrainer_->stop();
  if (!config_.metrics.out_prefix.empty())
    obs::write_metrics_files(*registry, config_.metrics.out_prefix);
  return report;
}

void ServeSession::save_generations(const std::string& dir) {
  fleet_->checkpoint((std::filesystem::path(dir) / "generations").string());
}

}  // namespace ns
