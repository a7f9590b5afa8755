// The two serve workloads. Both tile the simulated nodes into a fleet
// population, fit once per set-up, and stream the population through a
// 4-shard FleetEngine from one producer thread in a closed loop at full
// speed, one fresh engine per pass, until the run's time is used.
//
//   fleet-steady: clean D1-sim with long jobs on the strict path. The
//     batched forwards behind the fleet-shared cluster locks dominate.
//   fleet-churn: the deployment-sim shape with short jobs, missing cells
//     and late delivery, on the quantized path with attribution and a
//     StoreWriter; each pass then drains the store and groups incidents,
//     and the run ends with the operator query mix over the last pass's
//     store. The store drain dominates, the collector side comes second.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "layers.hpp"
#include "obs/registry.hpp"
#include "serve/replay.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

/// The fleet benches' model (bench_fleet), small enough that a run can fit
/// it kSetups times.
ns::NodeSentryConfig serve_fit_config() {
  ns::NodeSentryConfig config;
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
  config.incremental_updates = false;  // serve never spawns clusters
  return config;
}

struct Fitted {
  ns::SimDataset sim;
  std::unique_ptr<ns::NodeSentry> sentry;
  std::vector<ns::NodeSentry::FitReport> fits;
  std::vector<double> setup_s;
  std::vector<double> fit_s;
};

/// Dataset build + fit + fleet construction, kSetups times. The fit is
/// deterministic, so the last set-up is the one the passes serve.
Fitted set_up(const Args& args, const ns::SimDatasetConfig& sim_config,
              std::size_t copies, Tracer& tracer) {
  Fitted f;
  for (std::size_t i = 0; i < kSetups; ++i) {
    Tracer::Scope span(tracer, "setup");
    const Clock::time_point t0 = i == 0 ? args.started : Clock::now();
    {
      Tracer::Scope build(tracer, "sim.build");
      f.sim = ns::build_sim_dataset(sim_config);
    }
    f.sentry = std::make_unique<ns::NodeSentry>(serve_fit_config());
    {
      Tracer::Scope fit(tracer, "core.fit");
      const Clock::time_point f0 = Clock::now();
      f.fits.push_back(f.sentry->fit(f.sim.data, f.sim.train_end));
      f.fit_s.push_back(seconds_since(f0));
    }
    {
      Tracer::Scope construct(tracer, "fleet.construct");
      ns::obs::Registry registry;
      ns::FleetConfig config;
      config.shards = kShards;
      config.engine.num_nodes = f.sim.data.num_nodes() * copies;
      config.engine.registry = &registry;
      ns::FleetEngine fleet(*f.sentry, config);
    }
    f.setup_s.push_back(seconds_since(t0));
  }
  return f;
}

/// Samples in failed operations of one pass: dropped late, or inside a
/// scoring unit the backpressure dropped (counted as a full chunk).
std::uint64_t failed_samples(const ns::ServeStats& s, std::size_t chunk) {
  return s.samples_dropped_late + s.units_dropped * chunk;
}

std::vector<std::vector<ns::JobSpan>> tiled_jobs(const ns::SimDataset& sim,
                                                 std::size_t copies) {
  std::vector<std::vector<ns::JobSpan>> jobs;
  for (std::size_t copy = 0; copy < copies; ++copy)
    jobs.insert(jobs.end(), sim.data.jobs.begin(), sim.data.jobs.end());
  return jobs;
}

void report_end_to_end(const Fitted& f, const std::vector<double>& rates,
                       const std::vector<double>& tails, double f1,
                       RunResult& out) {
  print_spread("samples_per_s", rates);
  print_spread("flag_tail_s", tails);
  out.set("setup_s", median(f.setup_s), "s");
  out.set("samples_per_s", median(rates), "samples/s");
  out.set("flag_tail_s", median(tails), "s");
  out.set("fit_s", median(f.fit_s), "s");
  out.set("f1", f1, "ratio");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_fits(const Fitted& f, LayerMetrics& layers) {
  const std::size_t chunks = training_chunks(*f.sentry);
  for (const ns::NodeSentry::FitReport& fit : f.fits)
    add_fit_metrics(fit, chunks, f.sentry->config().train_epochs, layers);
}

}  // namespace

RunResult run_fleet_steady(const Args& args, Tracer& tracer) {
  constexpr std::size_t kCopies = 8;
  constexpr std::uint64_t kCorpusSeed = 11;  // as ns::bench::make_d1
  RunResult out;
  ns::SimDatasetConfig sim_config = ns::d1_sim_config(1.0, kCorpusSeed);
  sim_config.missing_rate = 0.0;  // clean: serve is bitwise checkable
  sim_config.anomaly_ratio = 0.008;
  sim_config.scheduler.median_duration_steps *= 3.0;  // long jobs
  sim_config.scheduler.max_duration_steps *= 2;
  const Fitted f = set_up(args, sim_config, kCopies, tracer);
  const Population pop =
      make_population(f.sim, f.sim.train_end, kCopies, Jitter{}, args.seed);
  const std::size_t base = pop.base;
  const std::size_t chunk = f.sentry->config().detect_chunk;

  std::vector<double> rates, tails, traced_walls, untraced_walls;
  std::vector<ns::NodeDetection> copy0;
  ns::ServeResult traced_result;
  LayerMetrics layers;
  std::size_t copy_mismatches = 0;
  double occupancy = 1.0;
  run_passes(args, tracer, [&](std::size_t i) {
    ns::obs::Registry registry;
    ns::FleetConfig config;
    config.shards = kShards;
    config.engine.num_nodes = pop.nodes();
    config.engine.registry = &registry;
    ns::FleetEngine fleet(*f.sentry, config);
    PassResult pass = serve_pass(fleet, pop, tracer);
    const double wall = pass.stream_s + pass.finalize_s;
    out.ops += pass.samples;
    out.ops_failed += failed_samples(pass.result.stats, chunk);
    const std::vector<ns::NodeDetection>& det = pass.result.detections;
    for (std::size_t node = base; node < det.size(); ++node)
      copy_mismatches += !same_detection(det[node], det[node % base]);
    if (copy0.empty())
      copy0.assign(det.begin(),
                   det.begin() + static_cast<std::ptrdiff_t>(base));
    if (tracer.enabled()) {
      traced_walls.push_back(wall);
      add_serve_metrics(pass, layers);
      occupancy = pass.result.stats.mean_batch_occupancy;
      traced_result = std::move(pass.result);
    } else {
      untraced_walls.push_back(wall);
      rates.push_back(static_cast<double>(pass.samples) / wall);
      tails.push_back(pass.finalize_s);
    }
    std::printf("pass %zu%s: %zu samples, stream %.3f s, finalize %.3f s\n",
                i, tracer.enabled() ? " (traced)" : "", pass.samples,
                pass.stream_s, pass.finalize_s);
  });
  out.check(copy_mismatches == 0,
            std::to_string(copy_mismatches) +
                " tiled nodes differ bitwise from their copy-0 node");

  ns::NodeSentry::DetectReport reference;
  double detect_s = 0.0;
  {
    Tracer::Scope span(tracer, "core.detect");
    const Clock::time_point t0 = Clock::now();
    reference = f.sentry->detect();
    detect_s = seconds_since(t0);
  }
  std::size_t detect_mismatches = 0;
  for (std::size_t n = 0; n < base; ++n)
    detect_mismatches += !same_detection(copy0[n], reference.detections[n]);
  out.check(detect_mismatches == 0,
            std::to_string(detect_mismatches) +
                " copy-0 nodes differ bitwise from batch detect()");

  if (!args.trace) {
    report_end_to_end(f, rates, tails, f1_of(f.sim, copy0), out);
    return out;
  }
  add_fits(f, layers);
  add_detect_metrics(reference, detect_s, layers);
  LayerInputs in;
  in.sentry = f.sentry.get();
  in.sim = &f.sim;
  in.population = &pop;
  in.detections = &copy0;
  in.blocks_per_batch =
      static_cast<std::size_t>(std::max(1.0, std::round(occupancy)));
  replay_layers(in, tracer, layers);
  {
    Tracer::Scope span(tracer, "layers.correlate", "replayed");
    double build_s = 0.0;
    const ns::IncidentReport report =
        build_incidents(traced_result, f.sim.train_end,
                        tiled_jobs(f.sim, kCopies), f.sim, *f.sentry, tracer,
                        &build_s);
    layers.add("correlate.build_s", build_s, "s");
    layers.add("correlate.incidents",
               static_cast<double>(report.incidents.size()), "count");
  }
  shaped_store_pass(f.sim, pop, copy0, args.work_dir + "/store-shaped",
                    args.seed, tracer, layers);
  layers.add("trace.overhead_frac",
             overhead_fraction(traced_walls, untraced_walls), "ratio");
  layers.emit(out);
  return out;
}

RunResult run_fleet_churn(const Args& args, Tracer& tracer) {
  constexpr std::size_t kCopies = 16;
  constexpr std::uint64_t kCorpusSeed = 33;  // as bench_deployment
  // Enough queries that p99 has at least 10 beyond it.
  constexpr std::size_t kQueries = 1000;
  RunResult out;
  ns::SimDatasetConfig sim_config = ns::deployment_sim_config(kCorpusSeed);
  sim_config.scheduler.median_duration_steps = 30.0;  // short jobs
  sim_config.scheduler.max_duration_steps = 120;
  const Fitted f = set_up(args, sim_config, kCopies, tracer);
  // Late delivery stays within the engine's reorder slack (8 ticks), so no
  // sample is dropped and every copy sees its whole stream.
  const Population pop = make_population(f.sim, f.sim.train_end, kCopies,
                                         Jitter{0.2, 6}, args.seed);
  const std::size_t chunk = f.sentry->config().detect_chunk;
  const ns::StoreMeta meta = population_store_meta(f.sim, kCopies);
  const std::vector<std::vector<ns::JobSpan>> jobs = tiled_jobs(f.sim, kCopies);

  std::vector<double> rates, tails, traced_walls, untraced_walls;
  std::vector<ns::NodeDetection> copy0;
  LayerMetrics layers;
  std::size_t store_mismatches = 0;
  double occupancy = 1.0;
  std::vector<double> traced_drains;
  // Each pass seals a store of its own; the last one stays open for the
  // query phase. All are deleted after the run, so no pass pays for
  // removing another's files.
  ns::obs::Registry store_registry;
  std::unique_ptr<ns::StoreWriter> writer;
  std::size_t start_t = 0;
  run_passes(args, tracer, [&](std::size_t i) {
    writer.reset();
    ns::StoreWriterConfig writer_config;
    writer_config.queue_capacity = pop.nodes();  // one batch per node
    writer = std::make_unique<ns::StoreWriter>(
        ns::TimeSeriesStore::create(
            args.work_dir + "/store-" + std::to_string(i), meta),
        writer_config, &store_registry);
    {
      ns::obs::Registry registry;
      ns::FleetConfig config;
      config.shards = kShards;
      config.engine.num_nodes = pop.nodes();
      config.engine.registry = &registry;
      config.engine.scoring_path = ns::ScoringPath::kQuantized;
      config.engine.attribution = true;
      config.engine.store_writer = writer.get();
      ns::FleetEngine fleet(*f.sentry, config);
      start_t = fleet.start_t();
      PassResult pass = serve_pass(fleet, pop, tracer);
      double drain_s = 0.0, build_s = 0.0;
      {
        Tracer::Scope span(tracer, "store.drain");
        const Clock::time_point t0 = Clock::now();
        writer->drain();
        drain_s = seconds_since(t0);
      }
      const ns::IncidentReport report = build_incidents(
          pass.result, fleet.start_t(), jobs, f.sim, *f.sentry, tracer,
          &build_s);
      const double wall = pass.stream_s + pass.finalize_s + drain_s + build_s;
      const ns::ServeStats& s = pass.result.stats;
      out.ops += pass.samples;
      const std::uint64_t retained = pass.samples - s.samples_dropped_late;
      out.ops_failed += failed_samples(s, chunk) +
                        (retained > writer->samples_written()
                             ? retained - writer->samples_written()
                             : 0);
      {
        Tracer::Scope span(tracer, "check.store");
        store_mismatches += ns::compare_detections_with_store(
                                pass.result.detections, writer->store(),
                                fleet.start_t())
                                .flag_mismatches;
      }
      if (copy0.empty())
        copy0.assign(pass.result.detections.begin(),
                     pass.result.detections.begin() +
                         static_cast<std::ptrdiff_t>(pop.base));
      if (tracer.enabled()) {
        traced_walls.push_back(wall);
        add_serve_metrics(pass, layers);
        occupancy = s.mean_batch_occupancy;
        traced_drains.push_back(drain_s);
        layers.add("correlate.build_s", build_s, "s");
        layers.add("correlate.incidents",
                   static_cast<double>(report.incidents.size()), "count");
      } else {
        untraced_walls.push_back(wall);
        rates.push_back(static_cast<double>(pass.samples) / wall);
        tails.push_back(pass.finalize_s + drain_s);
      }
      std::printf("pass %zu%s: %zu samples, stream %.3f s, finalize %.3f s, "
                  "drain %.3f s, incidents %.3f s\n",
                  i, tracer.enabled() ? " (traced)" : "", pass.samples,
                  pass.stream_s, pass.finalize_s, drain_s, build_s);
    }
  });
  // The operator's query mix over the last pass's sealed store.
  QueryStats queries;
  run_query_mix(writer->store(), start_t, f.sim.data.num_timestamps(),
                kQueries, args.seed, tracer, queries);
  out.queries = queries.issued;
  out.queries_failed = queries.failed;
  add_store_metrics(*writer, median(traced_drains), queries, layers);
  writer.reset();
  out.check(store_mismatches == 0,
            std::to_string(store_mismatches) +
                " sealed anomaly bits differ from the served flags");
  out.check(out.queries_failed == 0,
            std::to_string(out.queries_failed) + " store queries threw");
  const TailPercentile tail = highest_supported_percentile(queries.latency_ms);
  std::printf("queries: %zu issued, p50 %.3f ms, p%.1f %.3f ms (%zu beyond)\n",
              queries.latency_ms.size(), percentile(queries.latency_ms, 50.0),
              tail.percentile, tail.value, tail.beyond);

  if (!args.trace) {
    report_end_to_end(f, rates, tails, f1_of(f.sim, copy0), out);
    return out;
  }
  add_fits(f, layers);
  {
    Tracer::Scope span(tracer, "core.detect", "replayed");
    const Clock::time_point t0 = Clock::now();
    const ns::NodeSentry::DetectReport report = f.sentry->detect();
    add_detect_metrics(report, seconds_since(t0), layers);
  }
  LayerInputs in;
  in.sentry = f.sentry.get();
  in.sim = &f.sim;
  in.population = &pop;
  in.detections = &copy0;
  in.quantized = true;
  in.blocks_per_batch =
      static_cast<std::size_t>(std::max(1.0, std::round(occupancy)));
  replay_layers(in, tracer, layers);
  layers.add("trace.overhead_frac",
             overhead_fraction(traced_walls, untraced_walls), "ratio");
  layers.emit(out);
  return out;
}

}  // namespace perfbench
