#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/segments.hpp"
#include "features/extract.hpp"
#include "nn/scoring.hpp"
#include "obs/registry.hpp"
#include "stats.hpp"
#include "ts/stream.hpp"

namespace perfbench {

void LayerMetrics::add(const std::string& name, double value,
                       const char* unit) {
  auto& entry = samples_[name];
  entry.first.push_back(value);
  entry.second = unit;
}

void LayerMetrics::emit(RunResult& out) const {
  for (const auto& [name, entry] : samples_)
    out.set(name, median(entry.first), entry.second.c_str());
}

void add_serve_metrics(const PassResult& pass, LayerMetrics& out) {
  const ns::ServeStats& s = pass.result.stats;
  const auto count = [&](const char* name, std::size_t v) {
    out.add(name, static_cast<double>(v), "count");
  };
  out.add("serve.ingest_busy_s", pass.ingest_busy_s, "s");
  out.add("serve.ingest_call_p50_us", percentile(pass.ingest_call_us, 50.0),
          "us");
  out.add("serve.ingest_call_p99_us", percentile(pass.ingest_call_us, 99.0),
          "us");
  out.add("serve.finalize_s", pass.finalize_s, "s");
  count("serve.points_scored", s.points_scored);
  count("serve.batches_run", s.batches_run);
  out.add("serve.batch_occupancy", s.mean_batch_occupancy, "chunks");
  count("serve.max_queue_depth", s.max_queue_depth);
  count("serve.segments_opened", s.segments_opened);
  count("serve.segments_matched", s.segments_matched);
  count("serve.segments_unmatched", s.segments_unmatched);
  count("serve.samples_dropped_late", s.samples_dropped_late);
  count("serve.samples_out_of_order", s.samples_out_of_order);
  count("serve.gap_rows_filled", s.gap_rows_filled);
  count("serve.units_dropped", s.units_dropped);
  out.add("fleet.shard_skew", pass.shard_skew, "ratio");
  count("fleet.ring_stalls", s.ring_stalls);
}

std::size_t training_chunks(const ns::NodeSentry& sentry) {
  // Mirrors NodeSentry::train_cluster's chunking of each member segment.
  const ns::NodeSentryConfig& cfg = sentry.config();
  const std::size_t window = std::max<std::size_t>(cfg.train_window, 4);
  std::size_t chunks = 0;
  for (const ns::ClusterEntry& entry : sentry.library().clusters())
    for (const ns::CoreSegment& member : entry.members) {
      const std::size_t len =
          cfg.max_tokens_per_segment > 0
              ? std::min(member.length(), cfg.max_tokens_per_segment)
              : member.length();
      for (std::size_t start = 0; start < len; start += window) {
        if (std::min(len, start + window) - start < 4) break;
        ++chunks;
      }
    }
  return chunks;
}

void add_fit_metrics(const ns::NodeSentry::FitReport& fit, std::size_t chunks,
                     std::size_t epochs, LayerMetrics& out) {
  out.add("core.fit_preprocess_s", fit.preprocess_seconds, "s");
  out.add("features.fit_extract_s", fit.feature_seconds, "s");
  out.add("cluster.fit_cluster_s", fit.clustering_seconds, "s");
  out.add("core.fit_train_s", fit.training_seconds, "s");
  out.add("core.train_chunks_per_s",
          fit.training_seconds > 0.0
              ? static_cast<double>(chunks * epochs) / fit.training_seconds
              : 0.0,
          "chunks/s");
}

void add_detect_metrics(const ns::NodeSentry::DetectReport& report,
                        double detect_s, LayerMetrics& out) {
  out.add("core.detect_s", detect_s, "s");
  out.add("core.detect_match_s", report.match_seconds, "s");
}

void add_store_metrics(const ns::StoreWriter& writer, double drain_s,
                       const QueryStats& queries, LayerMetrics& out) {
  const double written = static_cast<double>(writer.samples_written());
  out.add("store.drain_s", drain_s, "s");
  out.add("store.samples_written", written, "count");
  out.add("store.batches_dropped",
          static_cast<double>(writer.batches_dropped()), "count");
  out.add("store.bytes_per_sample",
          written > 0.0
              ? static_cast<double>(writer.store().sealed_bytes()) / written
              : 0.0,
          "B/sample");
  out.add("store.query_samples_per_s",
          queries.busy_s > 0.0
              ? static_cast<double>(queries.samples) / queries.busy_s
              : 0.0,
          "samples/s");
  out.add("store.query_p50_ms", percentile(queries.latency_ms, 50.0), "ms");
  out.add("store.query_p99_ms", percentile(queries.latency_ms, 99.0), "ms");
}

namespace {

/// Multiply-adds x2 of one batched forward of `model` over blocks of the
/// given lengths (input projection, per layer the packed q|k|v, attention
/// scores and values within each block, output projection, MoE gate and the
/// top-k experts or the dense FFN, then the decoder).
double forward_flops(const ns::TransformerConfig& c,
                     std::span<const std::size_t> block_lens) {
  double rows = 0.0, attention = 0.0;
  for (const std::size_t len : block_lens) {
    rows += static_cast<double>(len);
    attention += 4.0 * static_cast<double>(len) * static_cast<double>(len) *
                 static_cast<double>(c.d_model);
  }
  const double d = static_cast<double>(c.d_model);
  const double m = static_cast<double>(c.input_dim);
  const double f = static_cast<double>(c.ffn_hidden);
  const double ffn =
      c.use_moe ? 2.0 * rows * d * static_cast<double>(c.num_experts) +
                      static_cast<double>(c.top_k) * 4.0 * rows * d * f
                : 4.0 * rows * d * f;
  const double per_layer =
      6.0 * rows * d * d + attention + 2.0 * rows * d * d + ffn;
  return 2.0 * rows * m * d + static_cast<double>(c.num_layers) * per_layer +
         2.0 * rows * d * m;
}

struct Unit {
  std::size_t cluster = 0;
  std::size_t segment_id = 0;
  std::size_t offset = 0;
  ns::Tensor tokens;
};

struct Batch {
  std::size_t cluster = 0;
  ns::Tensor x;
  std::vector<std::size_t> offsets, segment_ids, block_lens;
  std::vector<const Unit*> units;
};

}  // namespace

void replay_layers(const LayerInputs& in, Tracer& tracer, LayerMetrics& out) {
  ns::NodeSentry& sentry = *in.sentry;
  const ns::NodeSentryConfig& cfg = sentry.config();
  const ns::ClusterLibrary& library = sentry.library();
  const Population& pop = *in.population;
  Tracer::Scope pass_span(tracer, "layers", "replayed");

  // ---- ts: the fitted preprocessing over every sample of the pass
  {
    const ns::StreamPreprocessor pre(
        sentry.raw_metrics(), sentry.aggregation_sources(),
        sentry.kept_metrics(), &sentry.standardizer(), cfg.standardize_clip);
    Tracer::Scope span(tracer, "ts.preprocess", "replayed");
    const Clock::time_point t0 = Clock::now();
    for (const Population::Event& ev : pop.events) {
      const std::size_t base_node = ev.node % pop.base;
      pre.process(base_node, std::span<const float>(pop.row(base_node, ev.tick),
                                                    pop.raw_metrics));
    }
    const double dt = seconds_since(t0);
    out.add("ts.preprocess_s", dt, "s");
    out.add("ts.preprocess_samples_per_s",
            dt > 0.0 ? static_cast<double>(pop.events.size()) / dt : 0.0,
            "samples/s");
  }

  // ---- features + cluster: one copy's matching windows
  const ns::MtsDataset& processed = sentry.processed();
  const std::vector<ns::CoreSegment> segments =
      ns::test_segments(processed, sentry.train_end(), cfg);
  std::vector<std::vector<float>> features(segments.size());
  {
    Tracer::Scope span(tracer, "features.match_extract", "replayed");
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const ns::CoreSegment& seg = segments[i];
      const std::size_t win = std::min(seg.length(), cfg.match_period);
      std::vector<std::vector<float>> window(processed.num_metrics(),
                                             std::vector<float>(win));
      for (std::size_t m = 0; m < processed.num_metrics(); ++m)
        for (std::size_t r = 0; r < win; ++r)
          window[m][r] = processed.nodes[seg.node].values[m][seg.begin + r];
      features[i] = ns::extract_segment_features(window);
    }
    out.add("features.match_extract_s", seconds_since(t0), "s");
  }
  std::vector<ns::MatchResult> matches(segments.size());
  std::vector<std::size_t> members(segments.size());
  {
    Tracer::Scope span(tracer, "cluster.match", "replayed");
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const std::vector<float> scaled = library.scale(features[i]);
      matches[i] = library.match(scaled, cfg.match_threshold_factor);
      members[i] = library.nearest_member(matches[i].cluster, scaled);
    }
    out.add("cluster.match_s", seconds_since(t0), "s");
  }

  // ---- nn + core.score: the segments' detect_chunk units, packed per
  // cluster at the run's chunks-per-forward.
  std::vector<Unit> units;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const ns::Tensor tokens = sentry.model_tokens(segments[i]);
    const std::size_t len = tokens.size(0);
    for (std::size_t start = 0; start < len; start += cfg.detect_chunk) {
      const std::size_t stop = std::min(len, start + cfg.detect_chunk);
      if (stop - start < 2) break;
      units.push_back({matches[i].cluster, members[i], start,
                       ns::slice_rows(tokens, start, stop)});
    }
  }
  std::stable_sort(units.begin(), units.end(),
                   [](const Unit& a, const Unit& b) {
                     return a.cluster < b.cluster;
                   });
  const std::size_t M = processed.num_metrics();
  std::vector<Batch> batches;
  for (std::size_t i = 0; i < units.size();) {
    Batch batch;
    batch.cluster = units[i].cluster;
    std::size_t j = i, rows = 0;
    while (j < units.size() && j - i < in.blocks_per_batch &&
           units[j].cluster == batch.cluster)
      rows += units[j++].tokens.size(0);
    batch.x = ns::Tensor(ns::Shape{rows, M});
    std::size_t base = 0;
    for (std::size_t k = i; k < j; ++k) {
      const Unit& unit = units[k];
      const std::size_t len = unit.tokens.size(0);
      for (std::size_t r = 0; r < len; ++r) {
        for (std::size_t m = 0; m < M; ++m)
          batch.x.at(base + r, m) = unit.tokens.at(r, m);
        batch.offsets.push_back(unit.offset + r);
        batch.segment_ids.push_back(unit.segment_id);
      }
      batch.block_lens.push_back(len);
      batch.units.push_back(&unit);
      base += len;
    }
    batches.push_back(std::move(batch));
    i = j;
  }
  std::vector<std::unique_ptr<ns::ScoringPlan>> plans(library.size());
  std::vector<ns::QuantCalibration> calibrations(library.size());
  for (std::size_t c = 0; c < library.size(); ++c) {
    const ns::TransformerReconstructor& model = *library.clusters()[c].model;
    library.clusters()[c].model->set_training(false);
    if (in.quantized) {
      calibrations[c] = ns::calibrate_quantization(model);
      plans[c] = std::make_unique<ns::ScoringPlan>(model, &calibrations[c]);
    }
  }
  std::vector<ns::Tensor> outputs(batches.size());
  double rows = 0.0, flops = 0.0;
  {
    Tracer::Scope span(tracer, "nn.forward", "shaped");
    ns::Workspace ws;
    ns::Rng rng(0);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const Batch& batch = batches[b];
      if (in.quantized)
        outputs[b] = plans[batch.cluster]->forward(
            batch.x, batch.offsets, batch.segment_ids, batch.block_lens, ws);
      else
        outputs[b] = library.clusters()[batch.cluster]
                         .model
                         ->forward_blocked(ns::Var::constant(batch.x),
                                           batch.offsets, batch.segment_ids,
                                           rng, batch.block_lens)
                         .value();
    }
    const double dt = seconds_since(t0);
    for (const Batch& batch : batches) {
      rows += static_cast<double>(batch.x.size(0));
      flops += forward_flops(
          library.clusters()[batch.cluster].model->config(), batch.block_lens);
    }
    out.add("nn.forward_s", dt, "s");
    out.add("nn.forward_rows_per_s", dt > 0.0 ? rows / dt : 0.0, "rows/s");
    out.add("nn.forward_gflops", dt > 0.0 ? flops / dt / 1e9 : 0.0, "GFLOP/s");
  }
  {
    Tracer::Scope span(tracer, "core.score", "shaped");
    std::vector<float> scores;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const ns::ClusterEntry& entry = library.clusters()[batches[b].cluster];
      std::size_t base = 0;
      for (const Unit* unit : batches[b].units) {
        const std::size_t len = unit->tokens.size(0);
        scores.assign(len, 0.0f);
        ns::chunk_point_scores(entry,
                               ns::slice_rows(outputs[b], base, base + len),
                               unit->tokens, nullptr, 0, 0, scores.data());
        base += len;
      }
    }
    out.add("core.score_s", seconds_since(t0), "s");
  }

  // ---- core.threshold over the final timelines of one copy
  {
    const std::size_t base = in.sim->data.num_nodes();
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> ranges(base);
    for (const ns::CoreSegment& seg : segments)
      if (seg.length() >= 2) ranges[seg.node].emplace_back(seg.begin, seg.end);
    Tracer::Scope span(tracer, "core.threshold", "replayed");
    const Clock::time_point t0 = Clock::now();
    for (std::size_t n = 0; n < base; ++n) {
      const std::vector<float>& scores = (*in.detections)[n].scores;
      const std::vector<float> reference =
          ns::score_reference_levels(scores, ranges[n]);
      ns::detection_flags(scores, reference, sentry.train_end(), cfg);
    }
    out.add("core.threshold_s", seconds_since(t0), "s");
  }
}

ns::IncidentReport build_incidents(
    const ns::ServeResult& result, std::size_t start_t,
    const std::vector<std::vector<ns::JobSpan>>& jobs,
    const ns::SimDataset& sim, const ns::NodeSentry& sentry, Tracer& tracer,
    double* build_s) {
  std::unordered_map<std::int64_t, std::string> archetypes;
  for (const ns::SchedJob& job : sim.sched_jobs)
    archetypes.emplace(job.job_id, ns::workload_name(job.type));
  std::vector<std::string> metric_names;
  for (const ns::MetricMeta& meta : sentry.processed().metrics)
    metric_names.push_back(meta.name);
  ns::IncidentGroupingMeta meta;
  meta.jobs = &jobs;
  meta.job_archetypes = &archetypes;
  meta.metric_names = &metric_names;
  ns::obs::Registry registry;
  ns::IncidentConfig config;
  config.registry = &registry;
  const ns::IncidentEngine engine(config);
  Tracer::Scope span(tracer, "correlate.build");
  const Clock::time_point t0 = Clock::now();
  ns::IncidentReport report = engine.build(result, start_t, meta);
  *build_s = seconds_since(t0);
  return report;
}

void shaped_store_pass(const ns::SimDataset& sim, const Population& pop,
                       const std::vector<ns::NodeDetection>& detections,
                       const std::string& dir, std::uint64_t seed,
                       Tracer& tracer, LayerMetrics& out) {
  constexpr std::size_t kQueries = 200;
  Tracer::Scope pass_span(tracer, "layers.store", "shaped");
  ns::obs::Registry registry;
  ns::StoreWriterConfig writer_config;
  writer_config.queue_capacity = pop.base;
  double drain_s = 0.0;
  QueryStats queries;
  {
    ns::StoreWriter writer(
        ns::TimeSeriesStore::create(dir, population_store_meta(sim, 1)),
        writer_config, &registry);
    for (std::size_t b = 0; b < pop.base; ++b) {
      ns::StoreWriter::Batch batch;
      batch.node = b;
      const std::vector<std::uint8_t>& flags = detections[b].predictions;
      for (std::size_t tick = 0; tick < pop.ticks; ++tick) {
        ns::StoreSample sample;
        sample.t = pop.begin_t + tick;
        sample.job_id = pop.jobs[b * pop.ticks + tick];
        sample.anomaly = sample.t < flags.size() && flags[sample.t] != 0;
        const float* row = pop.row(b, tick);
        sample.values.assign(row, row + pop.raw_metrics);
        sample.valid = std::all_of(sample.values.begin(), sample.values.end(),
                                   [](float v) { return std::isfinite(v); });
        batch.samples.push_back(std::move(sample));
      }
      writer.enqueue(std::move(batch));
    }
    {
      Tracer::Scope span(tracer, "store.drain", "shaped");
      const Clock::time_point t0 = Clock::now();
      writer.drain();
      drain_s = seconds_since(t0);
    }
    run_query_mix(writer.store(), pop.begin_t, pop.begin_t + pop.ticks,
                  kQueries, seed, tracer, queries);
    add_store_metrics(writer, drain_s, queries, out);
  }
  std::filesystem::remove_all(dir);
}

double overhead_fraction(const std::vector<double>& traced_walls,
                         const std::vector<double>& untraced_walls) {
  const double untraced = median(untraced_walls);
  return untraced > 0.0 ? median(traced_walls) / untraced - 1.0 : 0.0;
}

}  // namespace perfbench
