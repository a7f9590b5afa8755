// Rolling model generations (DESIGN.md §12): RCU registry snapshot
// completeness under concurrent publish, default-config (G = Q = 1) serving
// through the registry bitwise equal to batch detect(), the retrainer-to-
// served-registry wiring check, the self-healing retrainer's failure
// semantics (crash-mid-train, crash-mid-publish, poisoned segments, circuit
// breaker), CRC-framed checkpoint round-trips, plans compiled at publish,
// rejection of empty, partly seeded or foreign generation sets, and a
// concurrent score/hot-swap race test (run under TSan via the race label).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fileio.hpp"
#include "core/nodesentry.hpp"
#include "nn/module.hpp"
#include "obs/export.hpp"
#include "serve/model_registry.hpp"
#include "serve/engine.hpp"
#include "serve/replay.hpp"
#include "serve/retrainer.hpp"
#include "sim/dataset_builder.hpp"
#include "sim/telemetry_faults.hpp"
#include "store/query.hpp"
#include "store/writer.hpp"

namespace ns {
namespace fs = std::filesystem;
namespace {

std::string temp_dir(const char* tag) {
  const std::string dir = fs::temp_directory_path() /
                          (std::string("ns_gens_") + tag + "_" +
                           std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string params_blob(const TransformerReconstructor& model) {
  std::ostringstream os(std::ios::binary);
  save_parameters(model, os);
  return std::move(os).str();
}

// One fitted detector shared by the suite (the serve engine and retrainer
// never mutate it: models run in eval mode, clones are trained privately).
class GenerationsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimDatasetConfig sim_config = d2_sim_config(0.3, 7);
    sim_config.missing_rate = 0.0;  // clean stream -> exact equivalence
    sim_config.anomaly_ratio = 0.01;
    sim_ = new SimDataset(build_sim_dataset(sim_config));
    sentry_ = new NodeSentry(fast_config());
    sentry_->fit(sim_->data, sim_->train_end);
    batch_ = new NodeSentry::DetectReport(sentry_->detect());
  }

  static void TearDownTestSuite() {
    delete batch_;
    delete sentry_;
    delete sim_;
    batch_ = nullptr;
    sentry_ = nullptr;
    sim_ = nullptr;
  }

  static NodeSentryConfig fast_config() {
    NodeSentryConfig config;
    config.model.d_model = 24;
    config.model.num_layers = 2;
    config.model.num_heads = 2;
    config.model.ffn_hidden = 32;
    config.train_epochs = 2;
    config.learning_rate = 3e-3f;
    config.max_tokens_per_segment = 96;
    config.train_window = 32;
    config.match_period = 60;
    config.threshold_window = 40;
    config.k_max = 6;
    config.seed = 99;
    config.incremental_updates = false;
    // Each retrain's epochs (detect() never adapts with updates off).
    config.finetune_epochs = 1;
    return config;
  }

  // The retrainer trains with the fit's recipe (train_window 32, lr 3e-3,
  // batch 8, the freshest 4 segments, seed 99) for finetune_epochs.
  static RetrainerConfig fast_retrain_config() {
    RetrainerConfig config;
    config.min_segments = 1;
    config.backoff_initial = std::chrono::milliseconds(0);
    return config;
  }

  /// Fills `retrainer`'s per-cluster rings with real serving segments by
  /// replaying the stream through a throwaway engine that scores through
  /// the retrainer's registry and offers every matched closed segment.
  static void feed(Retrainer& retrainer, obs::Registry& obs) {
    ServeConfig config;
    config.registry = &obs;
    config.generations = retrainer.registry().max_generations();
    config.generation_registry = &retrainer.registry();
    config.retrainer = &retrainer;
    ServeEngine engine(*sentry_, config);
    serve_replay(engine, sim_->data, sim_->train_end);
  }

  static std::vector<std::shared_ptr<const GenerationSet>> all_snapshots(
      const GenerationRegistry& registry) {
    std::vector<std::shared_ptr<const GenerationSet>> snaps;
    for (std::size_t c = 0; c < registry.num_clusters(); ++c)
      snaps.push_back(registry.snapshot(c));
    return snaps;
  }

  static SimDataset* sim_;
  static NodeSentry* sentry_;
  static NodeSentry::DetectReport* batch_;
};

SimDataset* GenerationsFixture::sim_ = nullptr;
NodeSentry* GenerationsFixture::sentry_ = nullptr;
NodeSentry::DetectReport* GenerationsFixture::batch_ = nullptr;

TEST_F(GenerationsFixture, RegistrySnapshotsCompleteUnderConcurrentPublish) {
  obs::Registry obs;
  GenerationRegistry registry(sentry_->library().size(), 3, &obs);
  registry.seed_from_library(sentry_->library());
  const ClusterEntry& entry = sentry_->library().clusters()[0];

  constexpr std::size_t kPublishes = 200;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r)
    readers.emplace_back([&] {
      std::uint64_t last_newest = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = registry.snapshot(0);
        // Invariants every reader must observe on every load: non-empty,
        // bounded by G, strictly ascending consecutive gen ids, every
        // generation fully formed, and the newest id never goes backwards.
        if (snap->generations.empty() || snap->generations.size() > 3) {
          ++violations;
          continue;
        }
        for (std::size_t g = 0; g < snap->generations.size(); ++g) {
          const ModelGeneration& gen = snap->generations[g];
          if (gen.model == nullptr || gen.residual_scale.numel() == 0)
            ++violations;
          if (g > 0 &&
              gen.gen_id != snap->generations[g - 1].gen_id + 1)
            ++violations;
        }
        const std::uint64_t newest = snap->generations.back().gen_id;
        if (newest < last_newest) ++violations;
        last_newest = newest;
      }
    });
  for (std::size_t p = 0; p < kPublishes; ++p) {
    ModelGeneration gen;
    gen.model = entry.model;
    gen.residual_scale = entry.residual_scale.clone();
    gen.baseline_error = entry.baseline_error;
    registry.publish(0, std::move(gen));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  const auto snap = registry.snapshot(0);
  EXPECT_EQ(snap->generations.size(), 3u);
  EXPECT_EQ(snap->generations.back().gen_id, kPublishes);
  EXPECT_GE(registry.epoch(), kPublishes);
}

TEST_F(GenerationsFixture, ConsensusWithOneGenerationMatchesBatchBitwise) {
  obs::Registry obs;
  ServeConfig config;  // G = 1, Q = 1 defaults: one seeded generation
  config.registry = &obs;
  ServeEngine engine(*sentry_, config);
  const ReplayReport rep = serve_replay(engine, sim_->data, sim_->train_end);

  ASSERT_EQ(rep.result.detections.size(), batch_->detections.size());
  const DetectionDelta delta =
      compare_detections(rep.result.detections, batch_->detections);
  EXPECT_EQ(delta.max_abs_score_delta, 0.0);  // bitwise, not just close
  EXPECT_EQ(delta.prediction_mismatches, 0u);
  EXPECT_GT(rep.result.stats.consensus_points, 0u);
  ASSERT_NE(engine.generation_registry(), nullptr);
  EXPECT_EQ(engine.generation_registry()->max_generations(), 1u);
}

// A default engine owns and seeds its registry, and the exposition shows
// it: one live generation per cluster, and every scored point voted.
TEST_F(GenerationsFixture, DefaultEngineExposesItsGenerations) {
  obs::Registry obs;
  ServeConfig config;
  config.registry = &obs;
  ServeEngine engine(*sentry_, config);
  const ReplayReport rep = serve_replay(engine, sim_->data, sim_->train_end);
  ASSERT_GT(rep.result.stats.consensus_points, 0u);

  const std::string prom = obs::to_prometheus(obs);
  EXPECT_NE(prom.find("ns_generations_active{cluster=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("ns_serve_consensus_points_total " +
                      std::to_string(rep.result.stats.consensus_points) +
                      "\n"),
            std::string::npos);
}

// A retrainer publishes into its own registry; an engine scoring through
// any other would never serve what it trains, so construction refuses it.
TEST_F(GenerationsFixture, RetrainerMustFeedTheServedRegistry) {
  obs::Registry obs;
  GenerationRegistry registry(sentry_->library().size(), 2, &obs);
  Retrainer retrainer(registry, *sentry_, fast_retrain_config(), &obs);
  ServeConfig config;
  config.registry = &obs;
  config.generations = 2;
  config.retrainer = &retrainer;
  // Without the registry the engine would score through one of its own.
  EXPECT_THROW({ ServeEngine engine(*sentry_, config); }, Error);

  config.generation_registry = &registry;
  EXPECT_NO_THROW({ ServeEngine engine(*sentry_, config); });
}

TEST_F(GenerationsFixture, RetrainerPublishesAndConsensusServesNewSet) {
  obs::Registry obs;
  GenerationRegistry registry(sentry_->library().size(), 3, &obs);
  Retrainer retrainer(registry, *sentry_, fast_retrain_config(), &obs);

  // First replay seeds the registry (via the engine) and feeds the rings.
  ServeConfig config;
  config.registry = &obs;
  config.generations = 3;
  config.consensus_quorum = 2;
  config.generation_registry = &registry;
  config.retrainer = &retrainer;
  {
    ServeEngine engine(*sentry_, config);
    serve_replay(engine, sim_->data, sim_->train_end);
  }
  const RetrainCycleReport report = retrainer.run_cycle();
  EXPECT_GT(report.clusters_with_data, 0u);
  EXPECT_GT(report.retrains_published, 0u);
  EXPECT_EQ(report.retrains_failed, 0u);

  bool saw_multi_generation = false;
  for (const auto& snap : all_snapshots(registry))
    if (snap->generations.size() >= 2) saw_multi_generation = true;
  EXPECT_TRUE(saw_multi_generation);

  // A fresh engine over the retrained registry must serve cleanly with the
  // staggered set (finite scores, consensus votes happening).
  ServeEngine engine(*sentry_, config);
  const ReplayReport rep = serve_replay(engine, sim_->data, sim_->train_end);
  EXPECT_GT(rep.result.stats.consensus_points, 0u);
  for (const NodeDetection& det : rep.result.detections)
    for (const float s : det.scores) ASSERT_TRUE(std::isfinite(s));
}

// The retrainer has no training recipe of its own: each clone trains with
// the fitted sentry's (train_window, learning rate, batch, denoising, the
// fit's seed) for its finetune_epochs, on the freshest segments_per_cluster
// offers. The fixture's recipe (window 32, lr 3e-3, 1 epoch) differs from
// any fixed default, so the published generation must equal, bit for bit,
// that training replayed by hand from the base generation.
TEST_F(GenerationsFixture, RetrainerTrainsWithTheFittedRecipe) {
  const NodeSentryConfig& fit = sentry_->config();
  const std::size_t K = NodeSentryConfig::segments_per_cluster;
  obs::Registry obs;
  GenerationRegistry registry(sentry_->library().size(), 2, &obs);
  registry.seed_from_library(sentry_->library());
  Retrainer retrainer(registry, *sentry_, fast_retrain_config(), &obs);

  // Offer cluster 0 more segments than K; only the freshest K may train.
  const std::vector<CoreSegment> segments =
      test_segments(sentry_->processed(), sentry_->train_end(), fit);
  ASSERT_GT(segments.size(), K);
  std::vector<Tensor> offered;
  for (std::size_t i = 0; i < K + 2; ++i) {
    offered.push_back(
        sentry_->model_tokens(segments[i], fit.max_tokens_per_segment));
    retrainer.offer_segment(0, offered.back().clone(), i % K);
  }
  const ModelGeneration base = registry.snapshot(0)->generations.back();

  const RetrainCycleReport report = retrainer.run_cycle();
  ASSERT_EQ(report.retrains_published, 1u);
  ASSERT_EQ(report.segments_consumed, K);
  const auto after = registry.snapshot(0);
  const ModelGeneration& published = after->generations.back();
  ASSERT_NE(published.model, base.model);

  std::vector<TrainChunk> chunks;
  for (std::size_t i = 2; i < K + 2; ++i)
    for (TrainChunk& chunk : train_chunks(offered[i], fit.train_window, i % K))
      chunks.push_back(std::move(chunk));
  TrainOptions recipe;
  recipe.epochs = fit.finetune_epochs;
  recipe.learning_rate = fit.learning_rate;
  recipe.batch = fit.train_batch;
  recipe.denoise_noise = fit.denoise_noise;
  recipe.denoise_token_drop = fit.denoise_token_drop;
  Rng rng(0);
  TransformerReconstructor expected(sentry_->model_config(), rng);
  {
    std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
    save_parameters(*base.model, buffer);
    load_parameters(expected, buffer);
  }
  // Cycle 1, cluster 0: the retrainer's per-cycle seed from the fit's.
  const TrainStats stats = train_reconstructor(
      expected, chunks, sentry_->library().clusters()[0].metric_weights,
      recipe, fit.seed + 7919ull);

  EXPECT_TRUE(params_blob(*published.model) == params_blob(expected))
      << "the published parameters differ from the fitted recipe's";
  EXPECT_EQ(published.baseline_error, stats.baseline_error);
  ASSERT_EQ(published.residual_scale.numel(), stats.residual_scale.numel());
  EXPECT_EQ(std::memcmp(published.residual_scale.data(),
                        stats.residual_scale.data(),
                        stats.residual_scale.numel() * sizeof(float)),
            0);
}

TEST_F(GenerationsFixture, CrashMidTrainNeverTouchesServingSet) {
  obs::Registry obs;
  GenerationRegistry registry(sentry_->library().size(), 3, &obs);
  registry.seed_from_library(sentry_->library());
  RetrainFaultInjector faults;
  RetrainerConfig config = fast_retrain_config();
  config.max_attempts = 2;
  Retrainer retrainer(registry, *sentry_, config, &obs, &faults);
  feed(retrainer, obs);

  const auto before = all_snapshots(registry);
  faults.arm(RetrainFaultType::kCrashMidTrain,
             RetrainFaultInjector::kEveryCluster, 1u << 20);
  const RetrainCycleReport report = retrainer.run_cycle();

  EXPECT_GT(report.clusters_with_data, 0u);
  EXPECT_EQ(report.retrains_published, 0u);
  EXPECT_EQ(report.retrains_failed, report.clusters_with_data);
  // max_attempts = 2: every failed cluster retried exactly once.
  EXPECT_EQ(report.retries, report.clusters_with_data);
  EXPECT_GT(faults.fired(), 0u);
  const auto after = all_snapshots(registry);
  for (std::size_t c = 0; c < before.size(); ++c)
    EXPECT_EQ(before[c].get(), after[c].get())
        << "cluster " << c << ": serving set changed by a crashed retrain";
}

TEST_F(GenerationsFixture, CrashMidPublishKeepsCheckpointComplete) {
  const std::string dir = temp_dir("midpub");
  obs::Registry obs;
  GenerationRegistry registry(sentry_->library().size(), 3, &obs);
  registry.seed_from_library(sentry_->library());
  RetrainFaultInjector faults;
  RetrainerConfig config = fast_retrain_config();
  config.checkpoint_dir = dir;
  Retrainer retrainer(registry, *sentry_, config, &obs, &faults);

  // Phase 1: a clean cycle publishes and checkpoints.
  feed(retrainer, obs);
  const RetrainCycleReport clean = retrainer.run_cycle();
  ASSERT_GT(clean.retrains_published, 0u);
  const auto before = all_snapshots(registry);

  // Phase 2: every attempt crashes right before the atomic swap.
  faults.arm(RetrainFaultType::kCrashMidPublish,
             RetrainFaultInjector::kEveryCluster, 1u << 20);
  feed(retrainer, obs);
  const RetrainCycleReport crashed = retrainer.run_cycle();
  EXPECT_EQ(crashed.retrains_published, 0u);
  EXPECT_GT(crashed.retrains_failed, 0u);

  // Serving set unchanged...
  const auto after = all_snapshots(registry);
  for (std::size_t c = 0; c < before.size(); ++c)
    EXPECT_EQ(before[c].get(), after[c].get()) << "cluster " << c;
  // ...and the on-disk checkpoint is still the previous complete one:
  // loadable, CRC-valid, with exactly the pre-crash generation sets.
  obs::Registry obs2;
  GenerationRegistry restored(sentry_->library().size(), 3, &obs2);
  ASSERT_NO_THROW(
      restored.load(dir, sentry_->model_config(), fast_config().seed));
  for (std::size_t c = 0; c < before.size(); ++c) {
    const auto loaded = restored.snapshot(c);
    ASSERT_EQ(loaded->generations.size(), before[c]->generations.size());
    for (std::size_t g = 0; g < loaded->generations.size(); ++g)
      EXPECT_EQ(loaded->generations[g].gen_id,
                before[c]->generations[g].gen_id);
  }
  fs::remove_all(dir);
}

TEST_F(GenerationsFixture, PoisonedSegmentsRejectedWithoutRetry) {
  obs::Registry obs;
  GenerationRegistry registry(sentry_->library().size(), 3, &obs);
  registry.seed_from_library(sentry_->library());
  RetrainFaultInjector faults;
  Retrainer retrainer(registry, *sentry_, fast_retrain_config(), &obs,
                      &faults);
  feed(retrainer, obs);

  const auto before = all_snapshots(registry);
  faults.arm(RetrainFaultType::kPoisonedSegments,
             RetrainFaultInjector::kEveryCluster, 1u << 20);
  const RetrainCycleReport report = retrainer.run_cycle();

  EXPECT_GT(report.clusters_with_data, 0u);
  EXPECT_EQ(report.retrains_published, 0u);
  EXPECT_EQ(report.retrains_rejected, report.clusters_with_data);
  // Rejection is deterministic-bad-data: no retries were burned on it.
  EXPECT_EQ(report.retries, 0u);
  const auto after = all_snapshots(registry);
  for (std::size_t c = 0; c < before.size(); ++c)
    EXPECT_EQ(before[c].get(), after[c].get())
        << "cluster " << c << ": poisoned retrain reached the serving set";
}

TEST_F(GenerationsFixture, BreakerOpensSkipsAndRecoversThroughProbe) {
  obs::Registry obs;
  GenerationRegistry registry(sentry_->library().size(), 3, &obs);
  registry.seed_from_library(sentry_->library());
  RetrainFaultInjector faults;
  RetrainerConfig config = fast_retrain_config();
  config.max_attempts = 1;
  config.breaker_threshold = 2;
  config.breaker_cooldown = 2;
  Retrainer retrainer(registry, *sentry_, config, &obs, &faults);

  faults.arm(RetrainFaultType::kCrashMidTrain,
             RetrainFaultInjector::kEveryCluster, 1u << 20);
  feed(retrainer, obs);
  const RetrainCycleReport c1 = retrainer.run_cycle();
  ASSERT_GT(c1.retrains_failed, 0u);
  for (std::size_t c = 0; c < registry.num_clusters(); ++c)
    EXPECT_NE(retrainer.breaker(c), BreakerState::kOpen) << "cluster " << c;

  feed(retrainer, obs);
  const RetrainCycleReport c2 = retrainer.run_cycle();
  ASSERT_GT(c2.retrains_failed, 0u);
  std::size_t open_cluster = registry.num_clusters();
  for (std::size_t c = 0; c < registry.num_clusters(); ++c)
    if (retrainer.breaker(c) == BreakerState::kOpen) open_cluster = c;
  ASSERT_LT(open_cluster, registry.num_clusters())
      << "no breaker opened after " << config.breaker_threshold
      << " consecutive failed cycles";

  // Open: the next cycle skips the cluster even though data is waiting.
  feed(retrainer, obs);
  const RetrainCycleReport c3 = retrainer.run_cycle();
  EXPECT_GT(c3.skipped_breaker_open, 0u);
  EXPECT_EQ(retrainer.breaker(open_cluster), BreakerState::kOpen);

  // Cooldown over: the breaker half-opens for one probe; with the fault
  // gone the probe publishes and the breaker closes.
  faults.disarm_all();
  feed(retrainer, obs);
  const RetrainCycleReport c4 = retrainer.run_cycle();
  EXPECT_GT(c4.retrains_published, 0u);
  EXPECT_EQ(retrainer.breaker(open_cluster), BreakerState::kClosed);
}

TEST_F(GenerationsFixture, CheckpointRoundTripPreservesEverything) {
  const std::string dir = temp_dir("roundtrip");
  obs::Registry obs;
  GenerationRegistry registry(sentry_->library().size(), 3, &obs);
  registry.seed_from_library(sentry_->library());
  // A second generation for cluster 0 with distinctive metadata.
  const ClusterEntry& entry = sentry_->library().clusters()[0];
  {
    ModelGeneration gen;
    gen.model = entry.model;
    gen.residual_scale = entry.residual_scale.clone();
    gen.baseline_error = 2.5;
    gen.trained_cycle = 7;
    registry.publish(0, std::move(gen));
  }
  registry.save(dir);

  obs::Registry obs2;
  GenerationRegistry restored(sentry_->library().size(), 3, &obs2);
  restored.load(dir, sentry_->model_config(), fast_config().seed);
  for (std::size_t c = 0; c < registry.num_clusters(); ++c) {
    const auto a = registry.snapshot(c);
    const auto b = restored.snapshot(c);
    ASSERT_EQ(a->generations.size(), b->generations.size()) << "cluster " << c;
    for (std::size_t g = 0; g < a->generations.size(); ++g) {
      const ModelGeneration& ga = a->generations[g];
      const ModelGeneration& gb = b->generations[g];
      EXPECT_EQ(ga.gen_id, gb.gen_id);
      EXPECT_EQ(ga.trained_cycle, gb.trained_cycle);
      EXPECT_EQ(ga.baseline_error, gb.baseline_error);
      ASSERT_EQ(ga.residual_scale.numel(), gb.residual_scale.numel());
      const auto fa = ga.residual_scale.flat();
      const auto fb = gb.residual_scale.flat();
      for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_EQ(fa[i], fb[i]);
      EXPECT_EQ(params_blob(*ga.model), params_blob(*gb.model))
          << "cluster " << c << " gen " << g;
    }
  }
  // A truncated cluster file must fail loudly (CRC framing), not serve
  // a partial generation set.
  const std::string victim = (fs::path(dir) / "gens_0.bin").string();
  fs::resize_file(victim, fs::file_size(victim) / 2);
  obs::Registry obs3;
  GenerationRegistry corrupt(sentry_->library().size(), 3, &obs3);
  EXPECT_THROW(corrupt.load(dir, sentry_->model_config(), fast_config().seed),
               Error);
  fs::remove_all(dir);
}

// Every published generation carries the plan the registry compiled for
// it, in the registry's scoring path: snapshots share it, and a canonical
// plan forwards bitwise like the model it was compiled from.
TEST_F(GenerationsFixture, PublishedGenerationsCarryTheirCompiledPlan) {
  obs::Registry obs;
  GenerationRegistry registry(sentry_->library().size(), 2, &obs);
  EXPECT_EQ(registry.scoring_path(), ScoringPath::kStrict);
  registry.seed_from_library(sentry_->library());
  const ClusterEntry& entry = sentry_->library().clusters()[0];
  const auto first = registry.snapshot(0);
  ASSERT_EQ(first->generations.size(), 1u);
  const ModelGeneration& seed = first->generations.front();
  ASSERT_NE(seed.plan, nullptr);
  EXPECT_EQ(registry.snapshot(0)->generations.front().plan, seed.plan);

  const std::size_t T = 12;
  Rng data_rng(5);
  const Tensor x =
      Tensor::randn(Shape{T, entry.model->config().input_dim}, data_rng);
  std::vector<std::size_t> offsets(T), seg_ids(T, 0);
  for (std::size_t t = 0; t < T; ++t) offsets[t] = t;
  Workspace ws;
  const Tensor planned = seed.plan->forward(x, offsets, seg_ids, {}, ws);
  Rng rng(0);
  const Var direct =
      entry.model->forward(Var::constant(x.clone()), offsets, seg_ids, rng);
  ASSERT_EQ(planned.numel(), direct.value().numel());
  EXPECT_EQ(std::memcmp(planned.data(), direct.value().data(),
                        planned.numel() * sizeof(float)),
            0);

  // A caller's plan never reaches the set: publish compiles its own.
  ModelGeneration gen;
  gen.model = entry.model;
  gen.residual_scale = entry.residual_scale.clone();
  gen.plan = seed.plan;
  registry.publish(0, std::move(gen));
  const auto second = registry.snapshot(0);
  ASSERT_EQ(second->generations.size(), 2u);
  ASSERT_NE(second->generations.back().plan, nullptr);
  EXPECT_NE(second->generations.back().plan, seed.plan);
}

// An empty generation set cannot be restored, a checkpoint of another
// format version is not read, and an engine refuses a registry that is
// seeded only in part or compiled for another scoring path.
TEST_F(GenerationsFixture, EmptyOrForeignGenerationSetsAreRejected) {
  const std::size_t clusters = sentry_->library().size();
  const std::string dir = temp_dir("rejects");
  obs::Registry obs;
  GenerationRegistry unseeded(clusters, 1, &obs);
  unseeded.save(dir);
  GenerationRegistry restored(clusters, 1, &obs);
  EXPECT_THROW(restored.load(dir, sentry_->model_config(), 1), ParseError);

  GenerationRegistry seeded(clusters, 1, &obs);
  seeded.seed_from_library(sentry_->library());
  seeded.save(dir);
  ASSERT_NO_THROW(restored.load(dir, sentry_->model_config(), 1));
  {
    // The index this build writes starts with its format version (2); a
    // version-1 index is refused before any cluster file is read.
    const std::string index = (fs::path(dir) / "gens_index.bin").string();
    std::string payload = read_framed_file(index);
    const std::uint32_t old_version = 1;
    std::memcpy(payload.data(), &old_version, sizeof(old_version));
    write_framed_file(index, payload);
  }
  EXPECT_THROW(restored.load(dir, sentry_->model_config(), 1), ParseError);
  fs::remove_all(dir);

  ServeConfig config;
  config.registry = &obs;
  GenerationRegistry quantized(clusters, 1, &obs, ScoringPath::kQuantized);
  config.generation_registry = &quantized;
  EXPECT_THROW({ ServeEngine engine(*sentry_, config); }, Error);
  config.scoring_path = ScoringPath::kQuantized;
  EXPECT_NO_THROW({ ServeEngine engine(*sentry_, config); });  // seeds it

  if (clusters < 2) GTEST_SKIP() << "one cluster cannot be partly seeded";
  GenerationRegistry partial(clusters, 1, &obs);
  const ClusterEntry& entry = sentry_->library().clusters()[0];
  ModelGeneration gen;
  gen.model = entry.model;
  gen.residual_scale = entry.residual_scale.clone();
  partial.publish(0, std::move(gen));
  config.scoring_path = ScoringPath::kStrict;
  config.generation_registry = &partial;
  EXPECT_THROW({ ServeEngine engine(*sentry_, config); }, Error);
}

TEST_F(GenerationsFixture, ConcurrentScoreAndHotSwapIsRaceFree) {
  // The TSan target: live ingest + scoring on one side, a retrainer
  // publishing (hot-swapping generations) on the other, meeting only at
  // the registry's atomic snapshot/publish and the offer ring.
  obs::Registry obs;
  GenerationRegistry registry(sentry_->library().size(), 3, &obs);
  Retrainer retrainer(registry, *sentry_, fast_retrain_config(), &obs);

  ServeConfig config;
  config.registry = &obs;
  config.generations = 3;
  config.consensus_quorum = 2;
  config.generation_registry = &registry;
  config.retrainer = &retrainer;
  ServeEngine engine(*sentry_, config);  // seeds the registry

  std::atomic<bool> stop{false};
  std::thread trainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      retrainer.run_cycle();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const ReplayReport rep = serve_replay(engine, sim_->data, sim_->train_end);
  stop.store(true, std::memory_order_release);
  trainer.join();

  EXPECT_GT(rep.result.stats.points_scored, 0u);
  for (const NodeDetection& det : rep.result.detections)
    for (const float s : det.scores)
      ASSERT_TRUE(std::isfinite(s)) << "non-finite score under hot-swap";
}

// Regression for the close_segment/retrainer ordering note: offers happen
// at segment close, BEFORE finalize-time detection flags exist — by
// design, since a live retrainer cannot wait for end-of-stream. The
// invariant that must hold regardless of retrain timing is that sealed
// store rows and reported detections agree bit for bit; the offer counter
// pins the accounting side (offers track matched closed segments, not
// flagged ones).
TEST_F(GenerationsFixture, ServeRetrainerStoreAgreement) {
  const std::string dir = temp_dir("retrain_store");
  {
    // The writer, engine and retrainer end here, before the store's
    // directory is removed: the writer's last flush needs it.
    obs::Registry obs;
    TimeSeriesStore store =
        TimeSeriesStore::create(dir, store_meta_from_dataset(sim_->data));
    store_append_dataset(store, sim_->data, 0, sim_->train_end);
    StoreWriter writer(std::move(store), StoreWriterConfig{}, &obs);
    GenerationRegistry registry(sentry_->library().size(), 2, &obs);
    registry.seed_from_library(sentry_->library());
    Retrainer retrainer(registry, *sentry_, fast_retrain_config(), &obs);

    ServeConfig config;
    config.registry = &obs;
    config.generations = 2;
    config.consensus_quorum = 1;
    config.generation_registry = &registry;
    config.retrainer = &retrainer;
    config.store_writer = &writer;
    ServeEngine engine(*sentry_, config);

    // Retrain mid-stream, deterministically: a cycle every ~40 ticks on the
    // streaming thread. Generations hot-swap while segments keep closing
    // and the store keeps retaining rows.
    ReplayOptions options;
    options.progress_every = sim_->data.num_nodes() * 40;
    options.on_progress = [&retrainer](std::size_t) { retrainer.run_cycle(); };
    const ReplayReport rep =
        serve_replay(engine, sim_->data, sim_->train_end, options);
    writer.drain();

    EXPECT_GT(retrainer.cycles(), 0u);
    // Offer accounting: every matched closed segment was offered, flags or
    // no flags; nothing beyond the closed-segment count can be offered.
    EXPECT_GT(retrainer.segments_offered(), 0u);
    EXPECT_LE(retrainer.segments_offered(), rep.result.stats.segments_closed);

    // The store's in-band bits were stamped at finalize from the SAME
    // predictions the replay reports — mid-stream retraining must not open
    // a gap between them.
    const StoreDelta delta = compare_detections_with_store(
        rep.result.detections, writer.store(), sim_->train_end);
    EXPECT_EQ(delta.samples_compared, rep.samples_streamed);
    EXPECT_EQ(delta.flag_mismatches, 0u);
    EXPECT_EQ(delta.samples_unflagged, 0u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ns
