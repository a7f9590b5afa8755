// Sharded fleet serving (DESIGN.md §14): one- and four-shard bitwise
// parity with batch detect() and with one shard engine fed directly on
// clean data, four shards equal to one with
// attribution and a store, consistent-hash placement stability under fleet
// growth, fleet-stats merge == sum of shard stats, one scoring pool per
// fleet, a shard error surfacing from finalize(), ServeSession config
// validation and generation checkpoint round trip, and two race tests (run
// under TSan via the race label): concurrent ingest/stats polling, and
// every shard scoring through one shared cluster model at once.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/nodesentry.hpp"
#include "obs/registry.hpp"
#include "serve/engine.hpp"
#include "serve/fleet.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/session.hpp"
#include "sim/dataset_builder.hpp"
#include "sim/stream.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "store/writer.hpp"

namespace ns {
namespace {

// One fitted detector shared by the whole suite; every test builds its own
// fleet on top (serving never mutates the fitted state).
class FleetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimDatasetConfig sim_config = d2_sim_config(0.3, 7);
    sim_config.missing_rate = 0.0;  // clean stream -> exact equivalence
    sim_config.anomaly_ratio = 0.01;
    sim_ = new SimDataset(build_sim_dataset(sim_config));
    sentry_ = new NodeSentry(fast_config());
    sentry_->fit(sim_->data, sim_->train_end);
    batch_ = new NodeSentry::DetectReport(sentry_->detect());
    single_ = new ServeResult(serve_on_one_engine());
  }

  static void TearDownTestSuite() {
    delete single_;
    delete batch_;
    delete sentry_;
    delete sim_;
    single_ = nullptr;
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
    return config;
  }

  /// The whole stream served by one shard engine, built the way a fleet
  /// builds its shards (ThreadPool::global(), a registry seeded from the
  /// library) but fed on this thread: with it as the reference, a fleet's
  /// placement, rings, workers and merge must add nothing to the bits.
  static ServeResult serve_on_one_engine() {
    GenerationRegistry generations(sentry_->library().size(), 1);
    generations.seed_from_library(sentry_->library());
    ServeEngine engine(*sentry_, ServeConfig{}, ThreadPool::global(),
                       generations);
    TelemetryReplaySource source(sim_->data, sim_->train_end);
    StreamSample sample;
    while (source.next(sample)) engine.ingest(sample);
    return engine.finalize();
  }

  /// Bitwise comparison: serving is deterministic per node and scoring is
  /// packing-independent, so shard count must not change a single bit.
  static void expect_bitwise_equal(const std::vector<NodeDetection>& a,
                                   const std::vector<NodeDetection>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t n = 0; n < a.size(); ++n) {
      ASSERT_EQ(a[n].scores.size(), b[n].scores.size()) << "node " << n;
      for (std::size_t t = 0; t < a[n].scores.size(); ++t)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a[n].scores[t]),
                  std::bit_cast<std::uint32_t>(b[n].scores[t]))
            << "node " << n << " t " << t;
      ASSERT_EQ(a[n].predictions.size(), b[n].predictions.size())
          << "node " << n;
      for (std::size_t t = 0; t < a[n].predictions.size(); ++t)
        ASSERT_EQ(a[n].predictions[t], b[n].predictions[t])
            << "node " << n << " t " << t;
    }
  }

  static SimDataset* sim_;
  static NodeSentry* sentry_;
  static NodeSentry::DetectReport* batch_;  ///< the reference detections
  static ServeResult* single_;  ///< one directly fed shard engine's run
};

SimDataset* FleetFixture::sim_ = nullptr;
NodeSentry* FleetFixture::sentry_ = nullptr;
NodeSentry::DetectReport* FleetFixture::batch_ = nullptr;
ServeResult* FleetFixture::single_ = nullptr;

TEST_F(FleetFixture, OneShardBitwiseIdenticalToServeEngine) {
  FleetConfig config;
  config.shards = 1;
  FleetEngine fleet(*sentry_, config);
  const ReplayReport rep = serve_replay(fleet, sim_->data, sim_->train_end);

  // A shard fed through its ring by its own worker serves what the same
  // engine serves fed directly, and both are batch's bits.
  expect_bitwise_equal(rep.result.detections, single_->detections);
  expect_bitwise_equal(rep.result.detections, batch_->detections);
  EXPECT_EQ(rep.result.timeline_end, single_->timeline_end);
  EXPECT_EQ(rep.result.timeline_end, sim_->data.num_timestamps());
  EXPECT_EQ(rep.result.stats.samples_ingested, rep.samples_streamed);
  EXPECT_EQ(rep.result.stats.samples_ingested,
            single_->stats.samples_ingested);
  EXPECT_EQ(rep.result.stats.points_scored, single_->stats.points_scored);
  EXPECT_EQ(rep.result.stats.units_dropped, 0u);
}

TEST_F(FleetFixture, MultiShardBitwiseIdenticalToServeEngine) {
  FleetConfig config;
  config.shards = 4;
  FleetEngine fleet(*sentry_, config);
  EXPECT_EQ(fleet.num_shards(), 4u);
  const ReplayReport rep = serve_replay(fleet, sim_->data, sim_->train_end);

  // Every node's samples reach its owner shard in stream order, and
  // scoring is packing-independent: four shards, same bits.
  expect_bitwise_equal(rep.result.detections, single_->detections);
  expect_bitwise_equal(rep.result.detections, batch_->detections);
  EXPECT_EQ(rep.result.stats.samples_ingested, rep.samples_streamed);
  EXPECT_EQ(rep.result.stats.samples_ingested,
            single_->stats.samples_ingested);
  EXPECT_EQ(rep.result.stats.segments_opened,
            single_->stats.segments_opened);
  EXPECT_EQ(rep.result.stats.points_scored, single_->stats.points_scored);
  EXPECT_EQ(rep.result.stats.units_dropped, 0u);
}

TEST_F(FleetFixture, TinyRingsStallTheProducerButLoseNothing) {
  FleetConfig config;
  config.shards = 2;
  config.ring_capacity = 2;  // force producer stalls on every burst
  FleetEngine fleet(*sentry_, config);
  const ReplayReport rep = serve_replay(fleet, sim_->data, sim_->train_end);

  // Stalls are allowed (and expected); sample loss is not. A two-slot
  // ring cannot absorb the replay burst, so the backoff ladder must have
  // engaged and been accounted.
  EXPECT_GT(rep.result.stats.ring_stalls, 0u);
  EXPECT_EQ(rep.result.stats.samples_ingested, rep.samples_streamed);
  expect_bitwise_equal(rep.result.detections, batch_->detections);
}

TEST_F(FleetFixture, StatsMergeEqualsSumOfShardStats) {
  FleetConfig config;
  config.shards = 3;
  FleetEngine fleet(*sentry_, config);
  const ReplayReport rep = serve_replay(fleet, sim_->data, sim_->train_end);

  ServeStats sum;
  std::size_t max_depth = 0;
  for (std::size_t s = 0; s < fleet.num_shards(); ++s) {
    const ServeStats shard = fleet.shard(s).stats();
    sum.samples_ingested += shard.samples_ingested;
    sum.segments_opened += shard.segments_opened;
    sum.segments_closed += shard.segments_closed;
    sum.chunks_scored += shard.chunks_scored;
    sum.points_scored += shard.points_scored;
    sum.batches_run += shard.batches_run;
    max_depth = std::max(max_depth, shard.max_queue_depth);
  }
  const ServeStats& merged = rep.result.stats;
  EXPECT_EQ(merged.samples_ingested, sum.samples_ingested);
  EXPECT_EQ(merged.segments_opened, sum.segments_opened);
  EXPECT_EQ(merged.segments_closed, sum.segments_closed);
  EXPECT_EQ(merged.chunks_scored, sum.chunks_scored);
  EXPECT_EQ(merged.points_scored, sum.points_scored);
  EXPECT_EQ(merged.batches_run, sum.batches_run);
  EXPECT_EQ(merged.max_queue_depth, max_depth);
  // The merge must also match a live stats() poll taken after finalize.
  const ServeStats live = fleet.stats();
  EXPECT_EQ(live.samples_ingested, merged.samples_ingested);
  EXPECT_EQ(live.points_scored, merged.points_scored);
}

TEST(FleetPlacement, GrowthMovesNodesOnlyToTheNewShard) {
  const std::size_t kNodes = 10000;
  for (std::size_t shards = 1; shards <= 8; ++shards) {
    const ConsistentHashRing before(shards);
    const ConsistentHashRing after(shards + 1);
    std::size_t moved = 0;
    for (std::size_t node = 0; node < kNodes; ++node) {
      const std::size_t a = before.shard_for(node);
      const std::size_t b = after.shard_for(node);
      if (a == b) continue;
      ++moved;
      // Consistent hashing: a node that changes owner can only move to
      // the NEW shard — survivors never trade nodes among themselves.
      EXPECT_EQ(b, shards) << "node " << node << " moved " << a << "->" << b;
    }
    // Expected share is kNodes/(shards+1); allow generous slack for vnode
    // placement variance, but reject wholesale reshuffles.
    EXPECT_LT(moved, kNodes * 3 / (shards + 1))
        << "resharding " << shards << "->" << shards + 1;
    EXPECT_GT(moved, 0u) << "resharding " << shards << "->" << shards + 1;
  }
}

TEST(FleetPlacement, EveryShardOwnsNodes) {
  const std::size_t kNodes = 10000;
  const std::size_t kShards = 8;
  const ConsistentHashRing ring(kShards);
  std::vector<std::size_t> owned(kShards, 0);
  for (std::size_t node = 0; node < kNodes; ++node)
    ++owned[ring.shard_for(node)];
  for (std::size_t s = 0; s < kShards; ++s) {
    // Balance sanity: with 64 vnodes/shard every shard should hold a
    // non-trivial slice (expected 12.5%; accept anything in [2%, 40%]).
    EXPECT_GT(owned[s], kNodes / 50) << "shard " << s;
    EXPECT_LT(owned[s], kNodes * 2 / 5) << "shard " << s;
  }
  // Placement is a pure function: a same-shaped ring agrees everywhere.
  const ConsistentHashRing again(kShards);
  for (std::size_t node = 0; node < 512; ++node)
    ASSERT_EQ(ring.shard_for(node), again.shard_for(node));
}

// Race harness (run under TSan via the race label): one producer streams
// into the rings, four shard workers ingest, a monitor hammers stats().
TEST_F(FleetFixture, ConcurrentIngestAndStatsPollingIsRaceFree) {
  FleetConfig config;
  config.shards = 4;
  config.ring_capacity = 64;  // small ring -> real producer/consumer overlap
  FleetEngine fleet(*sentry_, config);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> polls{0};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      const ServeStats stats = fleet.stats();
      EXPECT_LE(stats.samples_dropped_late, stats.samples_ingested);
      polls.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  const ReplayReport rep = serve_replay(fleet, sim_->data, sim_->train_end);
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_GT(polls.load(), 0u);
  expect_bitwise_equal(rep.result.detections, batch_->detections);
}

// Race harness for lock-free scoring (run under TSan via the race label):
// with forced_k = 1 every segment scores through ONE shared cluster model,
// so the four shards' pool tasks run forwards through it at the same time
// with nothing serializing them. Every copy of a node must still get batch
// detect()'s bits for it — with the default one generation and with G = 2
// lanes (one seeded generation).
TEST_F(FleetFixture, OneSharedModelScoresConcurrentlyAcrossShards) {
  NodeSentryConfig config = fast_config();
  config.forced_k = 1;
  NodeSentry sentry(config);
  sentry.fit(sim_->data, sim_->train_end);
  ASSERT_EQ(sentry.library().size(), 1u);
  // Four copies of every node, so a run has four times the forwards.
  constexpr std::size_t kCopies = 4;
  const std::size_t fitted = sim_->data.num_nodes();
  const NodeSentry::DetectReport batch = sentry.detect();
  std::vector<NodeDetection> reference;
  for (std::size_t copy = 0; copy < kCopies; ++copy)
    reference.insert(reference.end(), batch.detections.begin(),
                     batch.detections.end());
  for (const std::size_t generations : {1, 2}) {
    SCOPED_TRACE("G = " + std::to_string(generations));
    FleetConfig fleet_config;
    fleet_config.shards = 4;
    fleet_config.engine.num_nodes = fitted * kCopies;
    // One chunk per forward, dispatched as soon as it is queued: many
    // small same-model tasks in flight at once instead of a few big ones.
    fleet_config.engine.max_batch_tokens = 0;
    fleet_config.engine.pump_watermark = 1;
    fleet_config.engine.generations = generations;
    FleetEngine fleet(sentry, fleet_config);
    TelemetryReplaySource source(sim_->data, sim_->train_end);
    StreamSample sample;
    while (source.next(sample)) {
      for (std::size_t copy = 0; copy < kCopies; ++copy) {
        StreamSample tiled = sample;
        tiled.node = sample.node + copy * fitted;
        fleet.ingest(tiled);
      }
    }
    const ServeResult got = fleet.finalize();
    EXPECT_GE(got.stats.batches_run, 25 * fleet_config.shards);
    expect_bitwise_equal(got.detections, reference);
  }
}

// A fleet runs one scoring pool: `threads` workers beside its shard
// workers, not `threads` per shard.
TEST_F(FleetFixture, ShardsShareOneScoringPool) {
  const auto live_threads = [] {
    return static_cast<std::size_t>(std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator{}));
  };
  FleetConfig config;
  config.shards = 3;
  config.threads = 2;
  const std::size_t before = live_threads();
  FleetEngine fleet(*sentry_, config);
  EXPECT_EQ(live_threads(), before + config.shards + config.threads);
  fleet.finalize();
}

// Each worker flushes its own shard after its last drain. A shard whose
// engine threw (a sample with the wrong raw width) keeps draining, skips
// its flush and exits; the other shards flush; finalize() joins every
// worker and rethrows the failed shard's error.
TEST_F(FleetFixture, ShardErrorResurfacesFromFinalizeAndEveryWorkerExits) {
  const auto live_threads = [] {
    return static_cast<std::size_t>(std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator{}));
  };
  ThreadPool::global();  // scoring runs here; its workers predate `before`
  FleetConfig config;
  config.shards = 4;
  const std::size_t before = live_threads();
  FleetEngine fleet(*sentry_, config);
  EXPECT_EQ(live_threads(), before + config.shards);
  const std::size_t bad_node = 0;
  const std::size_t bad_shard = fleet.placement().shard_for(bad_node);
  TelemetryReplaySource source(sim_->data, sim_->train_end);
  StreamSample sample;
  std::size_t streamed = 0;
  while (source.next(sample)) {
    if (streamed++ == 100) {
      StreamSample bad = sample;
      bad.node = bad_node;
      bad.values.pop_back();
      fleet.ingest(bad);
    }
    fleet.ingest(sample);
  }
  try {
    fleet.finalize();
    ADD_FAILURE() << "finalize() did not rethrow the shard error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("metrics, expected"),
              std::string::npos)
        << e.what();
  }
  // finalize() joined every worker before rethrowing; give the kernel a
  // moment to retire the exited threads.
  for (int i = 0; i < 200 && live_threads() != before; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(live_threads(), before);
  for (std::size_t s = 0; s < fleet.num_shards(); ++s) {
    const ServeStats stats = fleet.shard(s).stats();
    if (s == bad_shard) {
      EXPECT_LT(stats.segments_closed, stats.segments_opened)
          << "the failed shard must not flush";
    } else {
      EXPECT_EQ(stats.segments_closed, stats.segments_opened)
          << "shard " << s << " did not flush";
    }
  }
  EXPECT_THROW(fleet.ingest(sample), Error);
}

// Attribution planes and sealed anomaly bits are assembled on the caller
// from shards that flushed on their own workers: four shards must give the
// one-shard fleet's detections, planes and store bits, bit for bit.
TEST_F(FleetFixture, FourShardsMatchOneShardWithAttributionAndAStore) {
  struct Run {
    ServeResult result;
    std::vector<std::vector<StoreSample>> sealed;  ///< [node] served region
  };
  const auto run = [](std::size_t shards) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("ns_fleet_store_" + std::to_string(shards) + "_" +
         std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    Run out;
    {
      obs::Registry registry;
      StoreWriter writer(TimeSeriesStore::create(
                             dir.string(), store_meta_from_dataset(sim_->data)),
                         StoreWriterConfig{}, &registry);
      FleetConfig config;
      config.shards = shards;
      config.engine.registry = &registry;
      config.engine.attribution = true;
      config.engine.store_writer = &writer;
      FleetEngine fleet(*sentry_, config);
      out.result = serve_replay(fleet, sim_->data, sim_->train_end).result;
      writer.drain();
      const StoreDelta delta = compare_detections_with_store(
          out.result.detections, writer.store(), sim_->train_end);
      EXPECT_GT(delta.samples_compared, 0u);
      EXPECT_EQ(delta.flag_mismatches, 0u);
      out.sealed.resize(sim_->data.num_nodes());
      for (std::size_t n = 0; n < out.sealed.size(); ++n) {
        TimeSeriesStore::Cursor cursor =
            writer.store().range(n, sim_->train_end, out.result.timeline_end);
        StoreSample sample;
        while (cursor.next(sample)) out.sealed[n].push_back(sample);
      }
    }
    std::filesystem::remove_all(dir);
    return out;
  };
  const Run one = run(1);
  const Run four = run(4);

  expect_bitwise_equal(four.result.detections, one.result.detections);
  ASSERT_TRUE(one.result.attribution.enabled());
  ASSERT_TRUE(four.result.attribution.enabled());
  ASSERT_EQ(four.result.attribution.num_metrics,
            one.result.attribution.num_metrics);
  ASSERT_EQ(four.result.attribution.contrib.size(),
            one.result.attribution.contrib.size());
  for (std::size_t n = 0; n < one.result.attribution.contrib.size(); ++n) {
    const std::vector<float>& a = four.result.attribution.contrib[n];
    const std::vector<float>& b = one.result.attribution.contrib[n];
    ASSERT_EQ(a.size(), b.size()) << "node " << n;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "node " << n;
  }
  std::size_t flagged = 0;
  for (std::size_t n = 0; n < one.sealed.size(); ++n) {
    ASSERT_EQ(four.sealed[n].size(), one.sealed[n].size()) << "node " << n;
    ASSERT_FALSE(one.sealed[n].empty()) << "node " << n;
    for (std::size_t i = 0; i < one.sealed[n].size(); ++i) {
      const StoreSample& a = four.sealed[n][i];
      const StoreSample& b = one.sealed[n][i];
      ASSERT_EQ(a.t, b.t) << "node " << n;
      ASSERT_EQ(a.anomaly, b.anomaly) << "node " << n << " t " << a.t;
      ASSERT_EQ(a.valid, b.valid) << "node " << n << " t " << a.t;
      flagged += b.anomaly ? 1 : 0;
    }
  }
  EXPECT_GT(flagged, 0u);
}

TEST_F(FleetFixture, SessionRunsAFleetAndMatchesBatchDetect) {
  ServeSessionConfig config;
  config.fleet.shards = 2;
  ServeSession session(*sentry_, sim_->data, sim_->train_end, config);
  EXPECT_EQ(session.num_shards(), 2u);
  EXPECT_EQ(session.backend().num_nodes(), sim_->data.num_nodes());
  const ReplayReport rep = session.run();
  expect_bitwise_equal(rep.result.detections, batch_->detections);

  // Generation checkpoint round trip: a second session warm-started from
  // the saved sets scores through the deserialized models, not the
  // library's, and replays to the same detections bit for bit.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ns_fleet_session_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  session.save_generations(dir.string());
  ServeSessionConfig restored_config = config;
  restored_config.generations.restore_dir = (dir / "generations").string();
  ServeSession restored(*sentry_, sim_->data, sim_->train_end,
                        restored_config);
  const auto restored_set = restored.generation_registry()->snapshot(0);
  EXPECT_NE(restored_set->generations.at(0).model,
            sentry_->library().clusters()[0].model);
  expect_bitwise_equal(restored.run().result.detections,
                       rep.result.detections);
  std::filesystem::remove_all(dir);
}

TEST(FleetSession, ValidateRejectsBrokenConfigs) {
  {
    ServeSessionConfig config;
    config.fleet.shards = 0;
    EXPECT_THROW(config.validate(), Error);
  }
  {
    ServeSessionConfig config;
    config.fleet.ring_capacity = 1;
    EXPECT_THROW(config.validate(), Error);
  }
  {
    ServeSessionConfig config;
    config.fleet.engine.generations = 9;  // lane bitmap is a byte
    EXPECT_THROW(config.validate(), Error);
  }
  {
    ServeSessionConfig config;
    config.fleet.engine.generations = 2;
    config.fleet.engine.consensus_quorum = 3;  // Q > G
    EXPECT_THROW(config.validate(), Error);
  }
  {
    ServeSessionConfig config;
    config.metrics.every = 100;  // cadence without an output prefix
    EXPECT_THROW(config.validate(), Error);
  }
  {
    ServeSessionConfig config;  // defaults are valid
    EXPECT_NO_THROW(config.validate());
  }
}

TEST_F(FleetFixture, ServedPopulationCanExceedTheFittedOne) {
  // Fleet-scale serving: 3x the fitted node population, profile-mapped
  // onto the fitted standardizers (node mod fitted). The original nodes
  // must still reproduce batch detect() bitwise.
  const std::size_t fitted = sim_->data.num_nodes();
  FleetConfig config;
  config.shards = 2;
  config.engine.num_nodes = fitted * 3;
  FleetEngine fleet(*sentry_, config);
  EXPECT_EQ(fleet.num_nodes(), fitted * 3);

  TelemetryReplaySource source(sim_->data, sim_->train_end);
  StreamSample sample;
  std::size_t streamed = 0;
  while (source.next(sample)) {
    StreamSample clone = sample;  // a twin node with the same profile
    clone.node = sample.node + fitted;
    fleet.ingest(sample);
    fleet.ingest(clone);
    streamed += 2;
  }
  const ServeResult result = fleet.finalize();
  EXPECT_EQ(result.stats.samples_ingested, streamed);
  ASSERT_EQ(result.detections.size(), fitted * 3);
  for (std::size_t n = 0; n < fitted; ++n) {
    const NodeDetection& orig = result.detections[n];
    const NodeDetection& ref = batch_->detections[n];
    ASSERT_GE(orig.scores.size(), ref.scores.size());
    for (std::size_t t = 0; t < ref.scores.size(); ++t)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(orig.scores[t]),
                std::bit_cast<std::uint32_t>(ref.scores[t]))
          << "node " << n << " t " << t;
    // The twin saw the same samples through the same profile: same bits.
    const NodeDetection& twin = result.detections[n + fitted];
    ASSERT_EQ(twin.scores.size(), orig.scores.size());
    for (std::size_t t = 0; t < twin.scores.size(); ++t)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(twin.scores[t]),
                std::bit_cast<std::uint32_t>(orig.scores[t]))
          << "twin of node " << n << " t " << t;
  }
}

}  // namespace
}  // namespace ns
