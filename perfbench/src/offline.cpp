// The offline workload: NodeSentry::fit followed by batch detect() on
// D1-sim with the benches' configuration, repeated until the run's time is
// used. It runs preprocessing, feature extraction, HAC, the batched trainer
// and batch thresholding and no serve code, so it is the bypass workload
// for every serve change and the target for fit work.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "obs/registry.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

/// ns::bench::make_d1().
ns::SimDatasetConfig offline_sim_config() {
  ns::SimDatasetConfig config = ns::d1_sim_config(1.0, 11);
  config.anomaly_ratio = 0.008;
  return config;
}

bool all_finite(const std::vector<ns::NodeDetection>& detections) {
  for (const ns::NodeDetection& det : detections)
    for (const float s : det.scores)
      if (!std::isfinite(s)) return false;
  return true;
}

}  // namespace

RunResult run_offline(const Args& args, Tracer& tracer) {
  RunResult out;
  ns::SimDataset sim;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    Tracer::Scope span(tracer, "setup");
    const Clock::time_point t0 = i == 0 ? args.started : Clock::now();
    sim = ns::build_sim_dataset(offline_sim_config());
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> fit_s, detect_s, rates, traced_walls, untraced_walls;
  std::vector<ns::NodeDetection> first;
  std::unique_ptr<ns::NodeSentry> sentry;
  LayerMetrics layers;
  std::size_t empty_fits = 0, non_finite = 0;
  const double dataset_samples =
      static_cast<double>(sim.data.num_nodes() * sim.data.num_timestamps());
  run_passes(args, tracer, [&](std::size_t i) {
    const bool traced = tracer.enabled();
    sentry = std::make_unique<ns::NodeSentry>(
        ns::bench::bench_nodesentry_config());
    ns::NodeSentry::FitReport fit;
    double fit_wall = 0.0, detect_wall = 0.0;
    {
      Tracer::Scope call(tracer, "core.fit");
      const Clock::time_point t0 = Clock::now();
      fit = sentry->fit(sim.data, sim.train_end);
      fit_wall = seconds_since(t0);
    }
    const std::size_t chunks = training_chunks(*sentry);
    empty_fits += sentry->library().empty();
    ns::NodeSentry::DetectReport report;
    {
      Tracer::Scope call(tracer, "core.detect");
      const Clock::time_point t0 = Clock::now();
      report = sentry->detect();
      detect_wall = seconds_since(t0);
    }
    out.ops += 2;
    non_finite += !all_finite(report.detections);
    if (first.empty()) first = report.detections;
    const double wall = fit_wall + detect_wall;
    std::printf("pass %zu%s: fit %.3f s, detect %.3f s\n", i,
                traced ? " (traced)" : "", fit_wall, detect_wall);
    if (traced) {
      traced_walls.push_back(wall);
      add_fit_metrics(fit, chunks, sentry->config().train_epochs, layers);
      add_detect_metrics(report, detect_wall, layers);
    } else {
      untraced_walls.push_back(wall);
      fit_s.push_back(fit_wall);
      detect_s.push_back(detect_wall);
      rates.push_back(dataset_samples / wall);
    }
  });
  out.check(empty_fits == 0,
            std::to_string(empty_fits) + " fits produced no cluster");
  out.check(non_finite == 0,
            std::to_string(non_finite) +
                " detect() runs gave non-finite scores");

  if (!args.trace) {
    print_spread("fit_s", fit_s);
    print_spread("flag_tail_s", detect_s);
    out.set("setup_s", median(setup_s), "s");
    out.set("samples_per_s", median(rates), "samples/s");
    out.set("flag_tail_s", median(detect_s), "s");
    out.set("fit_s", median(fit_s), "s");
    out.set("f1", ns::bench::evaluate(sim, first).f1, "ratio");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Layer pass: the test region as one copy of samples, the detect()
  // timelines, and (shaped: offline serves nothing itself) a 4-shard strict
  // fleet and a store over the same samples.
  const Population pop =
      make_population(sim, sim.train_end, 1, Jitter{}, args.seed);
  LayerInputs in;
  in.sentry = sentry.get();
  in.sim = &sim;
  in.population = &pop;
  in.detections = &first;
  replay_layers(in, tracer, layers);
  ns::ServeResult served;
  {
    Tracer::Scope span(tracer, "layers.serve", "shaped");
    ns::obs::Registry registry;
    ns::FleetConfig config;
    config.shards = kShards;
    config.engine.registry = &registry;
    ns::FleetEngine fleet(*sentry, config);
    PassResult pass = serve_pass(fleet, pop, tracer);
    add_serve_metrics(pass, layers);
    served = std::move(pass.result);
  }
  {
    Tracer::Scope span(tracer, "layers.correlate", "shaped");
    double build_s = 0.0;
    const ns::IncidentReport report = build_incidents(
        served, sim.train_end, sim.data.jobs, sim, *sentry, tracer, &build_s);
    layers.add("correlate.build_s", build_s, "s");
    layers.add("correlate.incidents",
               static_cast<double>(report.incidents.size()), "count");
  }
  shaped_store_pass(sim, pop, first, args.work_dir + "/store-shaped",
                    args.seed, tracer, layers);
  layers.add("trace.overhead_frac",
             overhead_fraction(traced_walls, untraced_walls), "ratio");
  layers.emit(out);
  return out;
}

}  // namespace perfbench
