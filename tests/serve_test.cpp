// Online serving tests: replay/batch equivalence (also on a segment whose
// matching window is dead), batched-vs-sequential scoring, late-sample
// tolerance at one and four shards, gap handling, and warm-start from a
// checkpoint, all through a FleetEngine; plus the tests that pin one shard
// engine's own pump cadence or ingest accounting (backpressure, an unfed
// node, a malformed sample), which build that engine directly.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/nodesentry.hpp"
#include "obs/export.hpp"
#include "serve/engine.hpp"
#include "serve/fleet.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "sim/dataset_builder.hpp"
#include "sim/telemetry_faults.hpp"

namespace ns {
namespace fs = std::filesystem;
namespace {

// One fitted detector shared by the whole suite; every test builds its own
// fleet (or shard engine) on top (serving never mutates the fitted state:
// incremental updates are off and models are switched to eval mode).
class ServeFixture : public ::testing::Test {
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
    return config;
  }

  /// A registry seeded from the library, for a shard engine built directly
  /// the way a fleet builds one (on ThreadPool::global()).
  static std::unique_ptr<GenerationRegistry> seeded_registry() {
    auto generations =
        std::make_unique<GenerationRegistry>(sentry_->library().size(), 1);
    generations->seed_from_library(sentry_->library());
    return generations;
  }

  static SimDataset* sim_;
  static NodeSentry* sentry_;
  static NodeSentry::DetectReport* batch_;
};

SimDataset* ServeFixture::sim_ = nullptr;
NodeSentry* ServeFixture::sentry_ = nullptr;
NodeSentry::DetectReport* ServeFixture::batch_ = nullptr;

TEST_F(ServeFixture, ReplayMatchesBatchDetect) {
  FleetEngine fleet(*sentry_);
  const ReplayReport rep = serve_replay(fleet, sim_->data, sim_->train_end);

  ASSERT_EQ(rep.result.detections.size(), sim_->data.num_nodes());
  EXPECT_EQ(rep.samples_streamed,
            sim_->data.num_nodes() *
                (sim_->data.num_timestamps() - sim_->train_end));
  const DetectionDelta delta =
      compare_detections(rep.result.detections, batch_->detections);
  EXPECT_EQ(delta.max_abs_score_delta, 0.0);
  EXPECT_EQ(delta.prediction_mismatches, 0u);

  const ServeStats& stats = rep.result.stats;
  EXPECT_EQ(stats.samples_ingested, rep.samples_streamed);
  EXPECT_EQ(stats.samples_dropped_late, 0u);
  EXPECT_EQ(stats.units_dropped, 0u);
  EXPECT_EQ(stats.gap_rows_filled, 0u);
  EXPECT_EQ(stats.segments_opened, stats.segments_closed);
  EXPECT_GT(stats.points_scored, 0u);
  EXPECT_GT(stats.batches_run, 0u);
}

// Batch and serve route a segment on its matching window alone
// (route_segment). A segment whose first match_period ticks are a node
// dropout, while its whole span stays above the segment gate, is
// kInsufficientData on both paths: unscored, and counted the same.
TEST_F(ServeFixture, DeadMatchingWindowIsInsufficientInBatchAndServe) {
  SimDatasetConfig sim_config = d2_sim_config(0.3, 7);
  sim_config.missing_rate = 0.0;
  sim_config.anomaly_ratio = 0.01;
  SimDataset sim = build_sim_dataset(sim_config);
  const NodeSentryConfig config = fast_config();
  const double gate = config.quality.min_segment_valid_fraction;
  const std::vector<CoreSegment> segments =
      test_segments(sim.data, sim.train_end, config);
  const auto target = std::find_if(
      segments.begin(), segments.end(), [&](const CoreSegment& seg) {
        return (1.0 - gate) * static_cast<double>(seg.length()) >=
               static_cast<double>(config.match_period);
      });
  ASSERT_NE(target, segments.end());
  const std::vector<TelemetryFaultEvent> dropout{
      {target->node, 0, target->begin, target->begin + config.match_period,
       TelemetryFaultType::kNodeDropout, 1.0}};
  apply_telemetry_faults(sim.data, dropout);

  NodeSentry sentry(config);
  sentry.fit(sim.data, sim.train_end);
  EXPECT_GE(sentry.mask().segment_valid_fraction(target->node, target->begin,
                                                 target->end),
            gate);
  const NodeSentry::DetectReport batch = sentry.detect();
  FleetEngine fleet(sentry);
  const ReplayReport rep = serve_replay(fleet, sim.data, sim.train_end);

  const auto outcome = std::find_if(
      batch.outcomes.begin(), batch.outcomes.end(),
      [&](const SegmentOutcome& o) {
        return o.segment.node == target->node &&
               o.segment.begin == target->begin;
      });
  ASSERT_NE(outcome, batch.outcomes.end());
  EXPECT_EQ(outcome->segment.end, target->end);
  EXPECT_EQ(outcome->status, SegmentStatus::kInsufficientData);
  EXPECT_EQ(outcome->valid_fraction, 0.0);
  for (std::size_t t = target->begin; t < target->end; ++t) {
    EXPECT_EQ(batch.detections[target->node].scores[t], 0.0f) << t;
    EXPECT_EQ(rep.result.detections[target->node].scores[t], 0.0f) << t;
  }
  EXPECT_GE(batch.segments_insufficient, 1u);
  EXPECT_EQ(rep.result.stats.segments_insufficient,
            batch.segments_insufficient);
  const DetectionDelta delta =
      compare_detections(rep.result.detections, batch.detections);
  EXPECT_EQ(delta.max_abs_score_delta, 0.0);
  EXPECT_EQ(delta.prediction_mismatches, 0u);
}

TEST_F(ServeFixture, SequentialEqualsBatchedBitwise) {
  FleetConfig sequential;
  sequential.engine.max_batch_tokens = 0;  // one chunk per forward
  FleetEngine seq_fleet(*sentry_, sequential);
  const ReplayReport seq =
      serve_replay(seq_fleet, sim_->data, sim_->train_end);

  FleetEngine batched_fleet(*sentry_);  // default cross-node batching
  const ReplayReport bat =
      serve_replay(batched_fleet, sim_->data, sim_->train_end);

  ASSERT_EQ(seq.result.detections.size(), bat.result.detections.size());
  for (std::size_t n = 0; n < seq.result.detections.size(); ++n) {
    const auto& a = seq.result.detections[n].scores;
    const auto& b = bat.result.detections[n].scores;
    ASSERT_EQ(a.size(), b.size()) << "node " << n;
    for (std::size_t t = 0; t < a.size(); ++t)
      ASSERT_EQ(a[t], b[t]) << "node " << n << " t " << t;
  }
  // Sequential mode runs one forward per chunk; batching must not run more.
  EXPECT_EQ(seq.result.stats.batches_run, seq.result.stats.chunks_scored);
  EXPECT_LE(bat.result.stats.batches_run, bat.result.stats.chunks_scored);
  EXPECT_GE(bat.result.stats.mean_batch_occupancy, 1.0);
}

// Jittered delivery within the reorder slack, at one and at four shards:
// every shard reorders its own nodes' samples back into batch's bits.
TEST_F(ServeFixture, LateSamplesWithinSlackStillExact) {
  ReplayOptions options;
  options.jitter.late_probability = 0.3;
  options.jitter.max_delay = 6;  // within the reorder slack (8)
  options.jitter.seed = 123;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    FleetConfig config;
    config.shards = shards;
    FleetEngine fleet(*sentry_, config);
    const ReplayReport rep =
        serve_replay(fleet, sim_->data, sim_->train_end, options);

    EXPECT_GT(rep.result.stats.samples_out_of_order, 0u);
    EXPECT_EQ(rep.result.stats.samples_dropped_late, 0u);
    EXPECT_EQ(rep.result.stats.gap_rows_filled, 0u);
    const DetectionDelta delta =
        compare_detections(rep.result.detections, batch_->detections);
    EXPECT_EQ(delta.max_abs_score_delta, 0.0);
    EXPECT_EQ(delta.prediction_mismatches, 0u);
  }
}

// A shard engine of its own: a fleet's worker pumps it whenever its ring
// runs dry, which would drain the queue this test lets fill.
TEST_F(ServeFixture, BackpressureDropsOldestAndNeverBlocks) {
  ServeConfig config;
  config.max_pending_units = 2;
  // Disable auto-pump so the queue actually fills during ingest.
  config.pump_watermark = std::numeric_limits<std::size_t>::max();
  const auto generations = seeded_registry();
  ServeEngine engine(*sentry_, config, ThreadPool::global(), *generations);

  TelemetryReplaySource source(sim_->data, sim_->train_end);
  StreamSample sample;
  while (source.next(sample)) engine.ingest(sample);
  const ServeResult result = engine.finalize();

  EXPECT_GT(result.stats.units_dropped, 0u);
  EXPECT_LE(result.stats.max_queue_depth, config.max_pending_units);
  // Dropped chunks lose their scores but the pipeline still completes and
  // reports a full timeline.
  ASSERT_EQ(result.detections.size(), sim_->data.num_nodes());
  EXPECT_EQ(result.timeline_end, sim_->data.num_timestamps());
}

TEST_F(ServeFixture, GapRowsFilledAndMaskedBeyondInterpolationLimit) {
  FleetEngine fleet(*sentry_);
  const std::size_t gap_begin = sim_->train_end + 50;
  const std::size_t gap_end = gap_begin + 24;  // > max_interpolation_gap
  TelemetryReplaySource source(sim_->data, sim_->train_end);
  StreamSample sample;
  while (source.next(sample)) {
    if (sample.node == 0 && sample.t >= gap_begin && sample.t < gap_end)
      continue;  // node 0 goes silent for a while
    fleet.ingest(sample);
  }
  const ServeResult result = fleet.finalize();

  EXPECT_EQ(result.stats.gap_rows_filled, gap_end - gap_begin);
  EXPECT_GT(result.stats.cells_masked, 0u);
  ASSERT_EQ(result.detections.size(), sim_->data.num_nodes());
  // Nodes that never went silent keep batch-identical scores.
  const auto& clean = result.detections[1].scores;
  const auto& ref = batch_->detections[1].scores;
  ASSERT_EQ(clean.size(), ref.size());
  for (std::size_t t = 0; t < clean.size(); ++t)
    ASSERT_NEAR(clean[t], ref[t], 1e-6) << "t " << t;
}

TEST_F(ServeFixture, StaleSamplesAreDroppedNotApplied) {
  FleetEngine fleet(*sentry_);
  TelemetryReplaySource source(sim_->data, sim_->train_end);
  StreamSample sample;
  std::size_t streamed = 0;
  StreamSample first{};
  while (source.next(sample)) {
    if (streamed == 0) first = sample;
    fleet.ingest(sample);
    ++streamed;
  }
  // Re-deliver the very first sample: its row has long been committed.
  fleet.ingest(first);
  const ServeResult result = fleet.finalize();
  EXPECT_EQ(result.stats.samples_dropped_late, 1u);
  EXPECT_EQ(result.stats.samples_ingested, streamed + 1);
}

// A malformed sample (one metric short) is rejected before it counts: it
// leaves no trace in the counters or in its node's reorder frontier, so
// the stream that follows is served as if it never arrived.
TEST_F(ServeFixture, MalformedSampleLeavesNoTrace) {
  const auto generations = seeded_registry();
  ServeEngine engine(*sentry_, ServeConfig{}, ThreadPool::global(),
                     *generations);
  StreamSample bad;
  bad.node = 0;
  bad.t = sim_->train_end + 20;
  bad.job_id = -1;
  bad.values.assign(sim_->data.num_metrics() - 1, 0.0f);
  EXPECT_THROW(engine.ingest(bad), Error);
  TelemetryReplaySource source(sim_->data, sim_->train_end);
  StreamSample sample;
  std::size_t streamed = 0;
  while (source.next(sample)) {
    engine.ingest(sample);
    ++streamed;
  }
  const ServeResult result = engine.finalize();
  EXPECT_EQ(streamed, 960u);
  EXPECT_EQ(result.stats.samples_ingested, streamed);
  EXPECT_EQ(result.stats.gap_rows_filled, 0u);
  EXPECT_EQ(result.stats.samples_dropped_late, 0u);
  EXPECT_EQ(result.stats.samples_out_of_order, 0u);
  const DetectionDelta delta =
      compare_detections(result.detections, batch_->detections);
  EXPECT_EQ(delta.max_abs_score_delta, 0.0);
  EXPECT_EQ(delta.prediction_mismatches, 0u);
}

TEST_F(ServeFixture, FinalizeIsSingleShot) {
  FleetEngine fleet(*sentry_);
  serve_replay(fleet, sim_->data, sim_->train_end);
  EXPECT_THROW(fleet.finalize(), Error);
  StreamSample sample;
  sample.node = 0;
  sample.t = sim_->data.num_timestamps();
  sample.job_id = -1;
  sample.values.assign(sim_->data.num_metrics(), 0.0f);
  EXPECT_THROW(fleet.ingest(sample), Error);
}

// A node no sample reaches commits no row, so finalize() leaves its record
// and its attribution plane empty (a fleet shard's view of the nodes other
// shards own); every fed node's cover the whole timeline.
TEST_F(ServeFixture, UnfedNodeGetsAnEmptyRecord) {
  const std::size_t silent = sim_->data.num_nodes() - 1;
  const auto generations = seeded_registry();
  ServeEngine engine(*sentry_, ServeConfig{.attribution = true},
                     ThreadPool::global(), *generations);
  TelemetryReplaySource source(sim_->data, sim_->train_end);
  StreamSample sample;
  while (source.next(sample))
    if (sample.node != silent) engine.ingest(sample);
  const ServeResult result = engine.finalize();
  ASSERT_EQ(result.detections.size(), sim_->data.num_nodes());
  ASSERT_TRUE(result.attribution.enabled());
  const std::size_t M = result.attribution.num_metrics;
  for (std::size_t n = 0; n < sim_->data.num_nodes(); ++n) {
    const std::size_t len = n == silent ? 0 : result.timeline_end;
    EXPECT_EQ(result.detections[n].scores.size(), len) << "node " << n;
    EXPECT_EQ(result.detections[n].predictions.size(), len) << "node " << n;
    EXPECT_EQ(result.attribution.contrib[n].size(), len * M) << "node " << n;
  }
}

TEST_F(ServeFixture, WarmStartFromCheckpointMatchesBatch) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("ns_serve_ckpt_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  NodeSentryConfig config = fast_config();
  config.checkpoint_dir = dir;
  {
    NodeSentry fitted(config);
    fitted.fit(sim_->data, sim_->train_end);
  }
  NodeSentry restored(fast_config());
  restored.restore(sim_->data, sim_->train_end, dir);

  FleetEngine fleet(restored);
  const ReplayReport rep = serve_replay(fleet, sim_->data, sim_->train_end);
  const DetectionDelta delta =
      compare_detections(rep.result.detections, batch_->detections);
  EXPECT_EQ(delta.max_abs_score_delta, 0.0);
  EXPECT_EQ(delta.prediction_mismatches, 0u);
  fs::remove_all(dir);
}

// Regression for the stats() data race: stats() used to read
// pending_.size() while the ingest thread mutated pending_ without a
// lock. The fix publishes queue depth into the mutex-guarded stats block
// at every mutation, so a monitor thread may poll stats() freely. Run
// under tsan via the race label.
TEST_F(ServeFixture, StatsPollingDuringIngestIsRaceFree) {
  obs::Registry registry;
  FleetConfig config;
  config.engine.registry = &registry;
  FleetEngine fleet(*sentry_, config);

  std::atomic<bool> done{false};
  std::thread monitor([&fleet, &done] {
    std::uint64_t last_ingested = 0;
    while (!done.load(std::memory_order_acquire)) {
      const ServeStats snap = fleet.stats();
      // Monotone counters never run backwards across polls.
      EXPECT_GE(snap.samples_ingested, last_ingested);
      last_ingested = snap.samples_ingested;
      EXPECT_LE(snap.queue_depth, snap.max_queue_depth);
    }
  });
  TelemetryReplaySource source(sim_->data, sim_->train_end);
  StreamSample sample;
  while (source.next(sample)) fleet.ingest(sample);
  done.store(true, std::memory_order_release);
  monitor.join();

  const ServeResult result = fleet.finalize();
  EXPECT_EQ(result.stats.queue_depth, 0u);
  const DetectionDelta delta =
      compare_detections(result.detections, batch_->detections);
  EXPECT_EQ(delta.max_abs_score_delta, 0.0);
}

// Regression for LatencySummary.count: after the reservoir wrapped it
// used to report the capacity (e.g. 4096) instead of the cumulative
// number of samples observed.
TEST_F(ServeFixture, LatencyCountIsCumulativeAcrossWindowWrap) {
  obs::Registry registry;
  FleetConfig config;
  config.engine.registry = &registry;
  config.engine.latency_reservoir = 32;  // force many wraps
  FleetEngine fleet(*sentry_, config);
  const ReplayReport rep = serve_replay(fleet, sim_->data, sim_->train_end);

  const ServeStats& stats = rep.result.stats;
  ASSERT_GT(stats.samples_ingested, 32u);
  // Clean replay: every ingested sample is timed exactly once.
  EXPECT_EQ(stats.ingest_latency.count, stats.samples_ingested);
  EXPECT_GT(stats.ingest_latency.count, config.engine.latency_reservoir);
  // Quantiles still come from the bounded window, so they stay finite
  // and ordered even after thousands of wraps.
  EXPECT_LE(stats.ingest_latency.p50_ms, stats.ingest_latency.p90_ms);
  EXPECT_LE(stats.ingest_latency.p90_ms, stats.ingest_latency.p99_ms);
  EXPECT_LE(stats.ingest_latency.p99_ms, stats.ingest_latency.max_ms);
}

// ServeStats is a thin view over the shared histograms: both must agree
// exactly once the engine quiesces.
TEST_F(ServeFixture, StatsViewMatchesRegistryHistograms) {
  obs::Registry registry;
  FleetConfig config;
  config.engine.registry = &registry;
  FleetEngine fleet(*sentry_, config);
  const ReplayReport rep = serve_replay(fleet, sim_->data, sim_->train_end);
  const ServeStats& stats = rep.result.stats;

  const obs::Histogram& ingest = registry.histogram(
      "ns_serve_stage_seconds", "", obs::default_latency_buckets(),
      {{"stage", "ingest"}});
  const obs::Histogram& score = registry.histogram(
      "ns_serve_stage_seconds", "", obs::default_latency_buckets(),
      {{"stage", "score"}});
  EXPECT_EQ(stats.ingest_latency.count, ingest.count());
  EXPECT_EQ(ingest.count(), stats.samples_ingested);
  // One score span per batched forward.
  EXPECT_EQ(score.count(), stats.batches_run);
  // The exposition carries the same engine state.
  const std::string prom = obs::to_prometheus(registry);
  EXPECT_NE(prom.find("ns_serve_stage_seconds_count{stage=\"ingest\"} " +
                      std::to_string(stats.samples_ingested)),
            std::string::npos);
  EXPECT_NE(prom.find("ns_serve_units_dropped_total 0"), std::string::npos);
}

TEST(ReplaySource, EmitsEveryTestSampleInOrderWithoutJitter) {
  SimDatasetConfig sim_config = d2_sim_config(0.2, 5);
  sim_config.missing_rate = 0.0;
  const SimDataset sim = build_sim_dataset(sim_config);
  TelemetryReplaySource source(sim.data, sim.train_end);
  StreamSample sample;
  std::size_t count = 0;
  std::size_t last_t = sim.train_end;
  while (source.next(sample)) {
    EXPECT_GE(sample.t, last_t);  // tick-major order
    last_t = sample.t;
    EXPECT_LT(sample.node, sim.data.num_nodes());
    ASSERT_EQ(sample.values.size(), sim.data.num_metrics());
    ++count;
  }
  EXPECT_EQ(count, sim.data.num_nodes() *
                       (sim.data.num_timestamps() - sim.train_end));
  EXPECT_EQ(source.emitted(), count);
  EXPECT_EQ(source.total(), count);
}

}  // namespace
}  // namespace ns
