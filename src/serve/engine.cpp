#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/mathutil.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "nn/scoring.hpp"
#include "obs/timer.hpp"
#include "serve/model_registry.hpp"
#include "serve/retrainer.hpp"
#include "store/writer.hpp"
#include "tensor/kernels.hpp"

namespace ns {

namespace {

/// Per-pool-thread scratch for ScoringPlan forwards: buffers survive across
/// tasks, so steady-state scoring allocates nothing per batch.
Workspace& scoring_workspace() {
  thread_local Workspace ws;
  return ws;
}

/// Grows a score/lane timeline to `need` entries, reserving at least `hint`
/// capacity when storage must move so one reservation covers a whole stash
/// flush (or scored batch) instead of reallocating per committed row.
/// Returns whether storage actually moved — the score_reallocs stat.
template <typename T>
bool grow_timeline(std::vector<T>& v, std::size_t need, std::size_t hint,
                   T fill) {
  if (v.size() >= need) return false;
  bool realloced = false;
  if (need > v.capacity()) {
    v.reserve(std::max(std::max(need, hint), v.capacity() * 2));
    realloced = true;
  }
  v.resize(need, fill);
  return realloced;
}

/// Thin view over a shared latency histogram: cumulative count, quantiles
/// over the recent-sample window via one sort (quantiles_from_sorted)
/// instead of the historic copy+sort per percentile.
LatencySummary summarize_histogram(const obs::Histogram& histogram) {
  LatencySummary summary;
  obs::Histogram::Snapshot snap = histogram.snapshot();
  summary.count = snap.count;
  if (snap.window.empty()) return summary;
  std::sort(snap.window.begin(), snap.window.end());
  static constexpr double kQs[] = {0.50, 0.90, 0.99};
  const std::vector<double> qs = quantiles_from_sorted(snap.window, kQs);
  summary.p50_ms = 1e3 * qs[0];
  summary.p90_ms = 1e3 * qs[1];
  summary.p99_ms = 1e3 * qs[2];
  summary.max_ms = 1e3 * snap.window.back();
  return summary;
}

}  // namespace

ServeEngine::ServeEngine(NodeSentry& sentry, ServeConfig config,
                         ThreadPool* pool)
    : sentry_(&sentry),
      config_(config),
      preproc_(sentry.raw_metrics(), sentry.aggregation_sources(),
               sentry.kept_metrics(), &sentry.standardizer(),
               sentry.config().standardize_clip),
      start_t_(sentry.train_end()) {
  NS_REQUIRE(!sentry.library().empty(), "serve: library has no clusters");
  num_metrics_ = sentry.processed().num_metrics();
  fitted_nodes_ = sentry.processed().num_nodes();
  // Guards the ingest-time profile mapping (sample.node % fitted_nodes_):
  // a zero-node fitted library would divide by zero on the first sample.
  NS_REQUIRE(fitted_nodes_ > 0,
             "serve: fitted dataset has no nodes — no standardization "
             "profile to serve from");
  const std::size_t N =
      config_.num_nodes > 0 ? config_.num_nodes : fitted_nodes_;
  nodes_.resize(N);
  for (NodeState& st : nodes_) {
    st.next_t = start_t_;
    st.last_good.assign(num_metrics_, 0.0f);
  }
  if (config_.attribution) contrib_.assign(N, {});
  ranges_.assign(N, {});
  if (pool != nullptr) {
    pool_ = pool;
  } else if (config_.threads > 0) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.threads);
    pool_ = owned_pool_.get();
  } else {
    pool_ = &ThreadPool::global();
  }
  if (config_.store_writer != nullptr) {
    const TimeSeriesStore& store = config_.store_writer->store();
    NS_REQUIRE(store.num_nodes() == N,
               "serve: store has " << store.num_nodes() << " nodes, engine "
                                   << N);
    NS_REQUIRE(store.num_metrics() == sentry.raw_metrics(),
               "serve: store has " << store.num_metrics()
                                   << " metrics, raw space is "
                                   << sentry.raw_metrics());
    // finalize() hands the writer one batch per node in one burst; a
    // smaller bound would drop whole node histories.
    const std::size_t bound = config_.store_writer->queue_capacity();
    NS_REQUIRE(bound == 0 || bound >= N,
               "serve: store writer queue_capacity " << bound << " < " << N
                                                     << " nodes");
    retained_.resize(N);
  }
  registry_ = config_.registry ? config_.registry : &obs::Registry::global();
  const std::vector<double> buckets = obs::default_latency_buckets();
  const std::size_t window = std::max<std::size_t>(config_.latency_reservoir, 1);
  const char* kStageHelp = "Serve-path stage latency in seconds";
  ingest_hist_ = &registry_->histogram("ns_serve_stage_seconds", kStageHelp,
                                       buckets, {{"stage", "ingest"}}, window);
  match_hist_ = &registry_->histogram("ns_serve_stage_seconds", kStageHelp,
                                      buckets, {{"stage", "match"}}, window);
  score_hist_ = &registry_->histogram("ns_serve_stage_seconds", kStageHelp,
                                      buckets, {{"stage", "score"}}, window);
  queue_depth_gauge_ = &registry_->gauge(
      "ns_serve_queue_depth", "Scoring units pending dispatch right now");
  units_dropped_counter_ = &registry_->counter(
      "ns_serve_units_dropped_total",
      "Scoring units dropped (oldest-first) by queue backpressure");
  score_reallocs_counter_ = &registry_->counter(
      "ns_serve_score_timeline_reallocs_total",
      "Per-node lane/attribution timeline storage reallocations");
  // Which kernel tier this host's scoring dispatches to (relaxed/quantized
  // paths; strict scoring's canonical plans always use the canonical,
  // bitwise-reproducible kernels regardless of tier).
  registry_
      ->gauge("ns_serve_kernel_tier",
              "Runtime kernel dispatch tier: 0=scalar 1=neon 2=avx2_fma")
      .set(static_cast<double>(static_cast<int>(kernel_dispatch_tier())));
  const std::size_t G = config_.generations;
  NS_REQUIRE(G >= 1 && G <= 8, "serve: generations " << G << " out of [1,8]");
  NS_REQUIRE(config_.consensus_quorum >= 1 && config_.consensus_quorum <= G,
             "serve: consensus_quorum " << config_.consensus_quorum
                                        << " out of [1," << G << "]");
  if (config_.generation_registry != nullptr) {
    gen_registry_ = config_.generation_registry;
    const std::size_t clusters = gen_registry_->num_clusters();
    NS_REQUIRE(clusters == sentry.library().size(),
               "serve: registry has " << clusters << " clusters, library has "
                                      << sentry.library().size());
    NS_REQUIRE(gen_registry_->max_generations() == G,
               "serve: registry cap " << gen_registry_->max_generations()
                                      << " != generations " << G);
    NS_REQUIRE(gen_registry_->scoring_path() == config_.scoring_path,
               "serve: registry compiles plans for scoring path "
                   << static_cast<int>(gen_registry_->scoring_path())
                   << ", engine scores on path "
                   << static_cast<int>(config_.scoring_path));
    // An external registry handed over empty gets the seed generations,
    // same as the engine-owned path; one seeded only in part would leave
    // clusters with nothing to score.
    std::size_t empty = 0;
    for (std::size_t c = 0; c < clusters; ++c)
      if (gen_registry_->snapshot(c)->generations.empty()) ++empty;
    NS_REQUIRE(empty == 0 || empty == clusters,
               "serve: registry has " << empty << " of " << clusters
                                      << " clusters without generations");
    if (empty == clusters) gen_registry_->seed_from_library(sentry.library());
  } else {
    owned_gen_registry_ = std::make_unique<GenerationRegistry>(
        sentry.library().size(), G, registry_, config_.scoring_path);
    owned_gen_registry_->seed_from_library(sentry.library());
    gen_registry_ = owned_gen_registry_.get();
  }
  // A retrainer publishing anywhere else would train generations that are
  // never served.
  NS_REQUIRE(config_.retrainer == nullptr ||
                 &config_.retrainer->registry() == gen_registry_,
             "serve: the retrainer publishes into a registry this engine "
             "does not score through (pass it as generation_registry)");
  lane_scores_.assign(G, std::vector<std::vector<float>>(N));
  spans_.assign(N, {});
  consensus_points_counter_ =
      &registry_->counter("ns_serve_consensus_points_total",
                          "Points decided by the consensus vote");
  consensus_disagreements_counter_ = &registry_->counter(
      "ns_serve_consensus_disagreements_total",
      "Voted points where the active generations disagreed");
}

ServeEngine::~ServeEngine() {
  // Never let in-flight tasks outlive the engine they point into.
  for (auto& f : inflight_) {
    try {
      f.get();
    } catch (...) {
      // Destructor must not throw; finalize() is where errors surface.
    }
  }
}

void ServeEngine::ingest(const StreamSample& sample) {
  NS_REQUIRE(!flushed_, "serve: ingest after flush");
  NS_REQUIRE(sample.node < nodes_.size(),
             "serve: node " << sample.node << " out of range");
  Stopwatch sw;
  NodeState& st = nodes_[sample.node];
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.samples_ingested;
  }
  if (sample.t < st.next_t) {
    // Behind the committed frontier: its tick was already emitted (or gap
    // filled) — replaying it would rewrite scored history.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.samples_dropped_late;
    return;
  }
  if (st.any_seen && sample.t < st.max_seen) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.samples_out_of_order;
  }
  st.max_seen = st.any_seen ? std::max(st.max_seen, sample.t) : sample.t;
  st.any_seen = true;
  StashedRow stashed;
  // Fleet population: node ids past the fitted count borrow the
  // standardization profile of (id mod fitted count) — identity mapping
  // whenever the served population is the fitted one.
  stashed.row = preproc_.process(sample.node % fitted_nodes_, sample.values);
  stashed.job_id = sample.job_id;
  if (config_.store_writer != nullptr) stashed.raw = sample.values;
  st.stash.insert_or_assign(sample.t, std::move(stashed));
  advance_node(sample.node);
  // Latency excludes any piggybacked pump below (that work is accounted
  // to the score stage); atomic observe, no lock on the hot path.
  ingest_hist_->observe(sw.elapsed_s());
  if (pending_.size() >= config_.pump_watermark) pump();
}

void ServeEngine::advance_node(std::size_t node) {
  NodeState& st = nodes_[node];
  while (true) {
    if (!st.stash.empty() && st.stash.begin()->first == st.next_t) {
      commit_stashed(node);
      continue;
    }
    // The frontier tick is missing. Once the newest arrival is more than
    // reorder_slack ticks ahead, declare it lost and fill a placeholder so
    // segmentation and scoring keep moving.
    if (st.max_seen > config_.reorder_slack &&
        st.next_t < st.max_seen - config_.reorder_slack) {
      fill_gap_row(node);
      continue;
    }
    break;
  }
}

void ServeEngine::commit_stashed(std::size_t node) {
  NodeState& st = nodes_[node];
  auto it = st.stash.begin();
  const std::int64_t job = it->second.job_id;
  StreamPreprocessor::Row row = std::move(it->second.row);
  std::vector<float> raw = std::move(it->second.raw);
  st.stash.erase(it);
  st.gap_run = 0;
  if (config_.store_writer != nullptr)
    retain_sample(node, st.next_t, job, std::move(raw), row);
  commit_row(node, st.next_t, job, std::move(row));
  ++st.next_t;
}

void ServeEngine::fill_gap_row(std::size_t node) {
  NodeState& st = nodes_[node];
  ++st.gap_run;
  StreamPreprocessor::Row filler;
  filler.values = st.last_good;
  // Short gaps are trusted like the offline interpolation path; runs past
  // max_interpolation_gap are masked instead of fabricated (mirrors the
  // quality guard's policy).
  const std::uint8_t valid =
      st.gap_run <= sentry_->config().quality.max_interpolation_gap ? 1 : 0;
  filler.valid.assign(num_metrics_, valid);
  std::int64_t job = st.pending_job;
  if (st.open)
    job = st.open->job_id;
  else if (!st.stash.empty())
    job = st.stash.begin()->second.job_id;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.gap_rows_filled;
  }
  commit_row(node, st.next_t, job, std::move(filler));
  ++st.next_t;
}

void ServeEngine::retain_sample(std::size_t node, std::size_t t,
                                std::int64_t job_id, std::vector<float> raw,
                                const StreamPreprocessor::Row& row) {
  StoreSample sample;
  sample.t = t;
  sample.job_id = job_id;
  sample.values = std::move(raw);
  // Mirrors commit_row's masking: a cell loses scoring weight when it
  // arrived invalid or non-finite. The in-band bit summarizes the row.
  sample.valid = true;
  for (std::size_t m = 0; m < num_metrics_; ++m) {
    if (!row.valid[m] || !std::isfinite(row.values[m])) {
      sample.valid = false;
      break;
    }
  }
  retained_[node].push_back(std::move(sample));
}

void ServeEngine::commit_row(std::size_t node, std::size_t t,
                             std::int64_t job_id,
                             StreamPreprocessor::Row row) {
  NodeState& st = nodes_[node];
  st.pending_job = job_id;
  std::size_t masked = 0;
  for (std::size_t m = 0; m < num_metrics_; ++m) {
    if (std::isfinite(row.values[m])) {
      if (row.valid[m]) st.last_good[m] = row.values[m];
    } else {
      // The model cannot eat NaN: substitute the last finite processed
      // value (0 before any) and leave the cell masked so it carries no
      // scoring weight.
      row.values[m] = st.last_good[m];
      row.valid[m] = 0;
    }
    // Counts every cell committed without scoring weight: NaN substitutions
    // and gap-filled rows past max_interpolation_gap alike.
    if (!row.valid[m]) ++masked;
  }
  if (masked > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.cells_masked += masked;
  }
  if (!st.open) {
    open_segment(node, t, job_id);
  } else if (job_id != st.open->job_id) {
    close_segment(node, t);
    open_segment(node, t, job_id);
  }
  st.open->rows.push_back(std::move(row.values));
  st.open->valid.push_back(std::move(row.valid));
  maybe_match(node);
}

void ServeEngine::open_segment(std::size_t node, std::size_t t,
                               std::int64_t job_id) {
  auto seg = std::make_unique<OpenSegment>();
  seg->begin = t;
  seg->job_id = job_id;
  nodes_[node].open = std::move(seg);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.segments_opened;
}

void ServeEngine::maybe_match(std::size_t node) {
  OpenSegment& seg = *nodes_[node].open;
  if (seg.insufficient) return;
  if (!seg.matched) {
    if (seg.rows.size() < sentry_->config().match_period) return;
    match_segment(node);
    if (!seg.matched) return;  // gated as insufficient
  }
  emit_ready_chunks(node, /*closing=*/false, seg.rows.size());
}

void ServeEngine::match_segment(std::size_t node) {
  obs::ScopedTimer timer(match_hist_, "serve.match");
  OpenSegment& seg = *nodes_[node].open;
  const NodeSentryConfig& cfg = sentry_->config();
  const std::size_t win = std::min(seg.rows.size(), cfg.match_period);
  const std::size_t M = num_metrics_;
  // The matching window in route_segment's layout; the rest of the segment
  // is not visible yet.
  std::vector<std::vector<float>> values(M, std::vector<float>(win));
  ValidityMask valid(1, M, win);
  for (std::size_t r = 0; r < win; ++r)
    for (std::size_t m = 0; m < M; ++m) {
      values[m][r] = seg.rows[r][m];
      valid.at(0, m, r) = seg.valid[r][m];
    }
  const SegmentRoute route =
      route_segment(sentry_->library(), values, valid, 0, 0, cfg);
  if (route.status == SegmentStatus::kInsufficientData) {
    seg.insufficient = true;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.segments_insufficient;
    return;
  }
  // The engine never fine-tunes a model (drift is the Retrainer's job),
  // matching detect() with config.incremental_updates off.
  seg.cluster = route.cluster;
  seg.segment_id = route.member;
  seg.center_mu.assign(M, 0.0f);
  if (cfg.center_tokens) {
    // Same arithmetic as center_tokens_leading: double accumulation over
    // the leading window, subtracted as float.
    for (std::size_t m = 0; m < M; ++m) {
      double mu = 0.0;
      for (const float v : values[m]) mu += v;
      seg.center_mu[m] = static_cast<float>(mu / static_cast<double>(win));
    }
  }
  seg.matched = true;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (route.matched)
    ++stats_.segments_matched;
  else
    ++stats_.segments_unmatched;
}

void ServeEngine::emit_ready_chunks(std::size_t node, bool closing,
                                    std::size_t len) {
  OpenSegment& seg = *nodes_[node].open;
  if (!seg.matched || seg.insufficient) return;
  const std::size_t chunk = sentry_->config().detect_chunk;
  const std::size_t M = num_metrics_;
  while (seg.next_chunk_start < len) {
    const std::size_t start = seg.next_chunk_start;
    const std::size_t full_stop = start + chunk;
    std::size_t stop;
    if (closing) {
      stop = std::min(len, full_stop);
      if (stop - start < 2) break;  // mirrors batch detect()'s tail break
    } else {
      if (full_stop > len) break;  // wait until a full chunk has settled
      stop = full_stop;
    }
    PendingUnit unit;
    unit.cluster = seg.cluster;
    unit.node = node;
    unit.abs_begin = seg.begin + start;
    unit.offset = start;
    unit.segment_id = seg.segment_id;
    unit.tokens = Tensor(Shape{stop - start, M});
    unit.valid = ValidityMask(1, M, stop - start);
    for (std::size_t r = start; r < stop; ++r)
      for (std::size_t m = 0; m < M; ++m) {
        unit.tokens.at(r - start, m) = seg.rows[r][m] - seg.center_mu[m];
        unit.valid.at(0, m, r - start) = seg.valid[r][m];
      }
    seg.next_chunk_start = stop;
    enqueue_unit(std::move(unit));
  }
}

void ServeEngine::enqueue_unit(PendingUnit unit) {
  pending_.push_back(std::move(unit));
  std::size_t dropped = 0;
  while (config_.max_pending_units > 0 &&
         pending_.size() > config_.max_pending_units) {
    // Drop-oldest: stale scores are worth less than stalling ingest, and
    // unscored points simply keep score 0 (like insufficient-data points).
    pending_.pop_front();
    ++dropped;
  }
  if (dropped > 0) units_dropped_counter_->inc(dropped);
  queue_depth_gauge_->set(static_cast<double>(pending_.size()));
  // Publish the depth into the stats block: pending_ itself belongs to the
  // ingest thread, so a monitor polling stats() must read this copy.
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.units_dropped += dropped;
  stats_.queue_depth = pending_.size();
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, pending_.size());
}

std::size_t ServeEngine::pump() {
  if (pending_.empty()) return 0;
  std::map<std::size_t, std::vector<PendingUnit>> by_cluster;
  while (!pending_.empty()) {
    PendingUnit unit = std::move(pending_.front());
    pending_.pop_front();
    by_cluster[unit.cluster].push_back(std::move(unit));
  }
  std::size_t dispatched = 0;
  for (auto& [cluster, units] : by_cluster) {
    dispatched += units.size();
    inflight_.push_back(pool_->submit(
        [this, cluster, batch = std::move(units)]() mutable {
          score_cluster_units(cluster, std::move(batch));
        }));
  }
  // Reap finished futures so inflight_ stays bounded on long streams; a
  // task exception surfaces here (or in finalize()).
  std::erase_if(inflight_, [](std::future<void>& f) {
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
      return false;
    f.get();
    return true;
  });
  drain_scored();
  queue_depth_gauge_->set(0.0);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.queue_depth = 0;
  }
  return dispatched;
}

void ServeEngine::score_cluster_units(std::size_t cluster,
                                      std::vector<PendingUnit> units) {
  const ClusterEntry& entry = sentry_->library().clusters()[cluster];
  // One snapshot for the whole batch: every unit in it is scored by the
  // same generation set, and the snapshot keeps retired generations and
  // their plans alive through our forwards (the RCU grace period). The
  // engine only serves a registry whose every cluster has a generation.
  const std::shared_ptr<const GenerationSet> snap =
      gen_registry_->snapshot(cluster);
  const std::vector<ModelGeneration>& gens = snap->generations;
  const std::size_t G = config_.generations;
  const std::size_t M = num_metrics_;
  std::size_t i = 0;
  while (i < units.size()) {
    // Pack units into one batched forward up to max_batch_tokens rows. A
    // single oversized unit still goes alone (it cannot be split: its
    // attention window is the chunk).
    std::size_t j = i + 1;
    std::size_t rows = units[i].tokens.size(0);
    if (config_.max_batch_tokens > 0) {
      while (j < units.size() &&
             rows + units[j].tokens.size(0) <= config_.max_batch_tokens) {
        rows += units[j].tokens.size(0);
        ++j;
      }
    }
    obs::ScopedTimer batch_timer(score_hist_, "serve.score");
    Tensor x(Shape{rows, M});
    std::vector<std::size_t> offsets;
    std::vector<std::size_t> seg_ids;
    std::vector<std::size_t> block_lens;
    offsets.reserve(rows);
    seg_ids.reserve(rows);
    block_lens.reserve(j - i);
    std::size_t base = 0;
    for (std::size_t k = i; k < j; ++k) {
      const PendingUnit& unit = units[k];
      const std::size_t len = unit.tokens.size(0);
      for (std::size_t r = 0; r < len; ++r) {
        for (std::size_t m = 0; m < M; ++m)
          x.at(base + r, m) = unit.tokens.at(r, m);
        offsets.push_back(unit.offset + r);
        seg_ids.push_back(unit.segment_id);
      }
      block_lens.push_back(len);
      base += len;
    }
    std::vector<ScoredUnit> results(j - i);
    std::size_t points = 0;
    for (std::size_t gi = 0; gi < gens.size(); ++gi) {
      const ModelGeneration& gen = gens[gi];
      const bool newest = gi + 1 == gens.size();
      const Tensor rec_all = gen.plan->forward(
          x, offsets, seg_ids, block_lens, scoring_workspace(), pool_);
      base = 0;
      for (std::size_t k = i; k < j; ++k) {
        const PendingUnit& unit = units[k];
        const std::size_t len = unit.tokens.size(0);
        const Tensor rec = slice_rows(rec_all, base, base + len);
        base += len;
        ScoredUnit& scored = results[k - i];
        std::vector<float> lane(len, 0.0f);
        // The newest generation is the primary lane: its scores are the
        // reported ones (with the seed generation alone, exactly batch
        // detect()'s), and attribution takes its per-metric terms from the
        // same pass.
        const bool attribute = newest && config_.attribution;
        if (attribute) scored.contrib.resize(len * M);
        const std::size_t scored_points = chunk_point_scores(
            entry.metric_weights, gen.residual_scale, gen.baseline_error, rec,
            unit.tokens, &unit.valid, 0, 0, lane.data(),
            attribute ? scored.contrib.data() : nullptr);
        scored.lanes.push_back(static_cast<std::uint8_t>(gen.gen_id % G));
        if (newest) {
          scored.node = unit.node;
          scored.abs_begin = unit.abs_begin;
          points += scored_points;
        }
        scored.lane_scores.push_back(std::move(lane));
      }
    }
    batch_timer.stop();
    {
      std::lock_guard<std::mutex> lock(results_mutex_);
      for (ScoredUnit& scored : results)
        scored_ready_.push_back(std::move(scored));
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.batches_run;
      units_batched_total_ += j - i;
      stats_.chunks_scored += j - i;
      stats_.points_scored += points;
    }
    i = j;
  }
}

void ServeEngine::drain_scored() {
  std::vector<ScoredUnit> ready;
  {
    std::lock_guard<std::mutex> lock(results_mutex_);
    ready.swap(scored_ready_);
  }
  // Lane/attribution timelines reserve to the node's known frontier, so
  // one reservation covers many future units.
  std::size_t reallocs = 0;
  for (const ScoredUnit& unit : ready) {
    const std::size_t end = unit.abs_begin + unit.lane_scores.back().size();
    const std::size_t hint = std::max(nodes_[unit.node].max_seen + 1, end);
    // Fold every generation's scores into its lane timeline. Units cover
    // disjoint [abs_begin, end) ranges; unscored cells inside a unit are 0
    // in its buffer, matching batch detect() leaving them 0. Lanes within
    // one snapshot are distinct (gen_ids are consecutive, G apart repeats).
    ScoredSpan span{unit.abs_begin, end, 0, unit.lanes.back()};
    for (std::size_t li = 0; li < unit.lanes.size(); ++li) {
      const std::uint8_t lane = unit.lanes[li];
      std::vector<float>& lane_timeline = lane_scores_[lane][unit.node];
      reallocs += grow_timeline(lane_timeline, end, hint, 0.0f);
      std::copy(
          unit.lane_scores[li].begin(), unit.lane_scores[li].end(),
          lane_timeline.begin() + static_cast<std::ptrdiff_t>(unit.abs_begin));
      span.lanes |= static_cast<std::uint8_t>(1u << lane);
    }
    spans_[unit.node].push_back(span);
    if (!unit.contrib.empty()) {
      std::vector<float>& plane = contrib_[unit.node];
      const std::size_t M = num_metrics_;
      reallocs += grow_timeline(plane, end * M, hint * M, 0.0f);
      std::copy(unit.contrib.begin(), unit.contrib.end(),
                plane.begin() + static_cast<std::ptrdiff_t>(unit.abs_begin * M));
    }
  }
  if (reallocs > 0) {
    score_reallocs_counter_->inc(reallocs);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.score_reallocs += reallocs;
  }
}

void ServeEngine::close_segment(std::size_t node, std::size_t end) {
  NodeState& st = nodes_[node];
  OpenSegment& seg = *st.open;
  const std::size_t len = seg.rows.size();
  NS_CHECK(seg.begin + len == end, "serve: segment length mismatch");
  if (len >= 2) {
    if (!seg.matched && !seg.insufficient) match_segment(node);
    // Insufficient segments still define a reference range (their scores
    // stay 0), exactly like batch detect()'s outcome handling.
    ranges_[node].emplace_back(seg.begin, seg.begin + len);
    if (seg.matched && !seg.insufficient) {
      emit_ready_chunks(node, /*closing=*/true, len);
      if (config_.retrainer != nullptr) {
        // ORDERING (intentional, not a bug): this offer happens at segment
        // close, BEFORE detection flags exist — flags are only computed at
        // finalize(), when the k-sigma reference levels see the full
        // timeline. A live retrainer cannot wait for end-of-stream, so
        // offers are flag-agnostic by design; the guard against training on
        // anomalous data is the retrainer's own validation gate plus
        // poisoned-segment rejection, NOT a flag filter here. Sealed store
        // rows are unaffected: the store path stamps anomaly bits at
        // finalize() from the same predictions it reports, so store bits
        // and detections always agree regardless of retrain timing
        // (pinned by ServeRetrainerStoreAgreement).
        //
        // Feed the retrainer the same representation the models score:
        // centered tokens, capped to the leading max_tokens_per_segment
        // rows (mirrors the fit pipeline's per-segment cap). The ring is
        // bounded and the offer never blocks ingest.
        const std::size_t cap = sentry_->config().max_tokens_per_segment;
        const std::size_t rows = cap > 0 ? std::min(len, cap) : len;
        if (rows >= 2) {
          const std::size_t M = num_metrics_;
          Tensor tokens(Shape{rows, M});
          for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t m = 0; m < M; ++m)
              tokens.at(r, m) = seg.rows[r][m] - seg.center_mu[m];
          config_.retrainer->offer_segment(seg.cluster, std::move(tokens),
                                           seg.segment_id);
        }
      }
    }
  } else {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.segments_too_short;
  }
  st.open.reset();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.segments_closed;
}

void ServeEngine::flush() {
  if (flushed_) return;
  flushed_ = true;
  // Stream is over: everything stashed is as settled as it will ever get.
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    NodeState& st = nodes_[n];
    while (!st.stash.empty()) {
      while (st.next_t < st.stash.begin()->first) fill_gap_row(n);
      commit_stashed(n);
    }
    if (st.open) close_segment(n, st.next_t);
  }
  pump();
  for (auto& f : inflight_) f.get();
  inflight_.clear();
  drain_scored();
}

ServeResult ServeEngine::finalize() {
  NS_REQUIRE(!finalized_, "serve: finalize called twice");
  finalized_ = true;
  flush();

  // Every committed tick is on the timeline, scored or not.
  std::size_t timeline_end = start_t_;
  for (const NodeState& st : nodes_)
    timeline_end = std::max(timeline_end, st.next_t);

  ServeResult result;
  result.timeline_end = timeline_end;
  result.detections.assign(nodes_.size(), NodeDetection{});
  if (config_.attribution) {
    result.attribution.num_metrics = num_metrics_;
    result.attribution.contrib.assign(nodes_.size(), {});
  }
  // Per-node thresholding writes disjoint detection records; fan it out
  // across the engine's pool (all scoring tasks have drained by now). A
  // node that never committed a row (another fleet shard's) keeps an empty
  // record and gets no attribution plane.
  pool_->parallel_for(0, nodes_.size(), 1, [&](std::size_t n) {
    if (nodes_[n].next_t == start_t_) return;
    NodeDetection& det = result.detections[n];
    if (config_.attribution) {
      // Same alignment as the scores: one [t, M] plane per node, zero
      // wherever the point was never scored.
      std::vector<float>& plane = result.attribution.contrib[n];
      plane = std::move(contrib_[n]);
      plane.resize(timeline_end * num_metrics_, 0.0f);
    }
    std::size_t points = 0;
    std::size_t disagreements = 0;
    consensus_node_predictions(n, det, timeline_end, &points, &disagreements);
    if (points > 0) consensus_points_counter_->inc(points);
    if (disagreements > 0)
      consensus_disagreements_counter_->inc(disagreements);
    if (points > 0 || disagreements > 0) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.consensus_points += points;
      stats_.consensus_disagreements += disagreements;
    }
  });
  if (config_.store_writer != nullptr) {
    // Flag time: each retained sample gets its in-band anomaly bit from
    // the thresholded predictions — immutable "what was detectable THEN"
    // history — then the per-node batches go to the async writer. The
    // caller drains the writer when it wants the store durable.
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      if (retained_[n].empty()) continue;
      StoreWriter::Batch batch;
      batch.node = n;
      batch.samples = std::move(retained_[n]);
      const std::vector<std::uint8_t>& flags = result.detections[n].predictions;
      for (StoreSample& sample : batch.samples)
        sample.anomaly = sample.t < flags.size() && flags[sample.t] != 0;
      config_.store_writer->enqueue(std::move(batch));
    }
  }
  result.stats = stats();
  return result;
}

void ServeEngine::consensus_node_predictions(
    std::size_t node, NodeDetection& det, std::size_t timeline_end,
    std::size_t* out_points, std::size_t* out_disagreements) {
  const NodeSentryConfig& cfg = sentry_->config();
  const std::size_t G = config_.generations;
  // Per point, the bitmap of lanes that scored it (0 = never scored).
  std::vector<std::uint8_t> active(timeline_end, 0);
  std::uint8_t node_mask = 0;
  for (const ScoredSpan& span : spans_[node]) {
    std::fill(active.begin() + static_cast<std::ptrdiff_t>(span.begin),
              active.begin() + static_cast<std::ptrdiff_t>(span.end),
              span.lanes);
    node_mask |= span.lanes;
  }
  // Each lane thresholds its own full timeline with the shared k-sigma
  // machinery — batch detect()'s arithmetic, so the seed generation alone
  // reproduces it bitwise.
  std::vector<std::vector<std::uint8_t>> lane_flags(G);
  for (std::size_t lane = 0; lane < G; ++lane) {
    if ((node_mask & (1u << lane)) == 0) continue;
    std::vector<float>& lane_timeline = lane_scores_[lane][node];
    lane_timeline.resize(timeline_end, 0.0f);
    const std::vector<float> reference =
        score_reference_levels(lane_timeline, ranges_[node]);
    lane_flags[lane] =
        detection_flags(lane_timeline, reference, start_t_, cfg);
  }
  // The reported scores are each span's primary lane; after that the lane
  // timelines are spent, so free them before the next node's.
  det.scores.assign(timeline_end, 0.0f);
  for (const ScoredSpan& span : spans_[node]) {
    const std::vector<float>& primary = lane_scores_[span.primary][node];
    std::copy(primary.begin() + static_cast<std::ptrdiff_t>(span.begin),
              primary.begin() + static_cast<std::ptrdiff_t>(span.end),
              det.scores.begin() + static_cast<std::ptrdiff_t>(span.begin));
  }
  for (std::vector<std::vector<float>>& lane : lane_scores_)
    std::vector<float>().swap(lane[node]);
  det.predictions.assign(timeline_end, 0);
  const std::uint8_t all_mask =
      static_cast<std::uint8_t>(G >= 8 ? 0xFFu : (1u << G) - 1u);
  std::size_t points = 0;
  std::size_t disagreements = 0;
  for (std::size_t t = start_t_; t < timeline_end; ++t) {
    std::uint8_t mask = active[t];
    const bool voted = mask != 0;
    // Unscored points fall back to the lanes that scored this node at all
    // (their flags still cover t through smoothing), then to every lane:
    // all-absent flags vote 0 and the point stays unflagged, like batch
    // detect()'s score-0 handling.
    if (mask == 0) mask = node_mask != 0 ? node_mask : all_mask;
    std::size_t votes = 0;
    std::size_t active_lanes = 0;
    for (std::size_t lane = 0; lane < G; ++lane) {
      if ((mask & (1u << lane)) == 0) continue;
      ++active_lanes;
      if (!lane_flags[lane].empty() && lane_flags[lane][t]) ++votes;
    }
    // Bootstrap degradation: with fewer than Q live lanes, the ones that
    // exist decide.
    const std::size_t need = std::min(config_.consensus_quorum, active_lanes);
    det.predictions[t] = (active_lanes > 0 && votes >= need) ? 1 : 0;
    if (voted) {
      ++points;
      if (votes > 0 && votes < active_lanes) ++disagreements;
    }
  }
  *out_points = points;
  *out_disagreements = disagreements;
}

void ServeEngine::checkpoint(const std::string& dir) {
  gen_registry_->save(dir);
}

ServeStats ServeEngine::stats() const {
  ServeStats snapshot;
  {
    // queue_depth comes from the copy published under stats_mutex_ at
    // every pending_ mutation — stats() must never touch pending_ itself
    // (the deque is owned by the ingest thread; reading its size here was
    // a data race when a monitor thread polled during ingest).
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
    snapshot.mean_batch_occupancy =
        snapshot.batches_run > 0
            ? static_cast<double>(units_batched_total_) /
                  static_cast<double>(snapshot.batches_run)
            : 0.0;
  }
  snapshot.ingest_latency = summarize_histogram(*ingest_hist_);
  snapshot.match_latency = summarize_histogram(*match_hist_);
  snapshot.score_latency = summarize_histogram(*score_hist_);
  return snapshot;
}

}  // namespace ns
