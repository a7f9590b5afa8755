// Reproduces the §5.1 deployment study: a LAMMPS-like production cluster
// monitored over a continuous period with systematically injected faults
// (ChaosBlade analogue). Reports pattern-matching latency per monitoring
// cycle, per-sample detection latency, and precision/recall on the injected
// failures. Paper reference: 5.11 s matching per hourly cycle, 36 ms per
// sampling point, precision 0.857 / recall 0.923.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "common/rng.hpp"
#include "nn/scoring.hpp"
#include "obs/export.hpp"
#include "serve/engine.hpp"
#include "serve/replay.hpp"
#include "tensor/kernels.hpp"

namespace {

// One serve replay under a given scoring path, with its own metrics
// registry so the score-stage histogram sum (cumulative scoring seconds)
// can be read back per path.
struct PathRun {
  ns::ServeResult result;
  double score_seconds = 0.0;
  double points_per_second = 0.0;  ///< points scored per score-stage second
  ns::DetectionMetrics metrics;
  double fp_rate = 0.0;
};

PathRun run_scoring_path(ns::NodeSentry& sentry, const ns::SimDataset& sim,
                         ns::ScoringPath path) {
  using namespace ns;
  obs::Registry registry;
  ServeEngine engine(sentry,
                     ServeConfig{.registry = &registry, .scoring_path = path});
  PathRun run;
  run.result = serve_replay(engine, sim.data, sim.train_end).result;
  run.score_seconds =
      registry
          .histogram("ns_serve_stage_seconds", "",
                     obs::default_latency_buckets(), {{"stage", "score"}}, 1)
          .sum();
  if (run.score_seconds > 0.0)
    run.points_per_second =
        static_cast<double>(run.result.stats.points_scored) /
        run.score_seconds;
  run.metrics = bench::evaluate(sim, run.result.detections);
  // False-positive rate over masked-in negative points (labels == 0).
  const auto masks = bench::masks_for(sim);
  std::size_t negatives = 0, false_positives = 0;
  for (std::size_t n = 0; n < run.result.detections.size(); ++n) {
    const auto& pred = run.result.detections[n].predictions;
    const auto& label = sim.data.labels[n];
    for (std::size_t t = 0; t < pred.size() && t < label.size(); ++t) {
      if (t < masks[n].size() && !masks[n][t]) continue;
      if (label[t]) continue;
      ++negatives;
      false_positives += pred[t] != 0;
    }
  }
  if (negatives > 0)
    run.fp_rate = static_cast<double>(false_positives) /
                  static_cast<double>(negatives);
  return run;
}

}  // namespace

int main() {
  using namespace ns;
  using namespace ns::bench;

  std::printf("=== Deployment study (paper section 5.1) ===\n\n");
  // The paper evaluates one continuous month; our scaled campaign holds a
  // handful of fault events per run, so we average three monitoring runs.
  DetectionMetrics metrics;
  double match_per_cycle = 0.0, per_point_ms = 0.0;
  const std::uint64_t seeds[] = {33, 44, 55};
  for (const std::uint64_t seed : seeds) {
    const SimDataset sim = build_sim_dataset(deployment_sim_config(seed));
    NodeSentry sentry(bench_nodesentry_config());
    const auto fit = sentry.fit(sim.data, sim.train_end);
    const auto det = sentry.detect();
    const auto m = evaluate(sim, det.detections);
    std::printf("run seed=%llu: %zu faults, train %s, P=%.3f R=%.3f\n",
                static_cast<unsigned long long>(seed), sim.faults.size(),
                format_seconds(fit.total_seconds).c_str(), m.precision,
                m.recall);
    metrics.precision += m.precision / 3.0;
    metrics.recall += m.recall / 3.0;
    // Pattern matching latency per monitoring cycle (one matching
    // operation per test segment; a production hourly cycle re-matches
    // each node once).
    const std::size_t matches =
        det.segments_matched + det.segments_unmatched;
    if (matches > 0)
      match_per_cycle += det.match_seconds / static_cast<double>(matches) *
                         static_cast<double>(sim.data.num_nodes()) / 3.0;
    if (det.scored_points > 0)
      per_point_ms += (det.total_seconds - det.match_seconds) /
                      static_cast<double>(det.scored_points) * 1e3 / 3.0;
  }

  TablePrinter table({"Quantity", "Measured", "Paper"});
  table.add_row({"pattern matching / monitoring cycle",
                 format_seconds(match_per_cycle), "5.11 s"});
  char ms[32];
  std::snprintf(ms, sizeof ms, "%.2f ms", per_point_ms);
  table.add_row({"detection latency / sampling point", ms, "36 ms"});
  table.add_row({"precision", format_double(metrics.precision), "0.857"});
  table.add_row({"recall", format_double(metrics.recall), "0.923"});
  std::printf("\n%s", table.render().c_str());
  std::printf("\nnote: absolute latencies depend on hardware and model size; "
              "the reproduction target is sub-second per-point latency and "
              "high precision/recall on injected faults.\n");

  // ---- Streaming phase: replay the same deployment window through the
  // online serving engine at full speed and persist machine-readable
  // metrics for trend tracking.
  std::printf("\n=== Online serving replay (full speed) ===\n\n");
  const SimDataset sim = build_sim_dataset(deployment_sim_config(33));
  NodeSentryConfig serve_fit = bench_nodesentry_config();
  serve_fit.incremental_updates = false;
  NodeSentry sentry(serve_fit);
  sentry.fit(sim.data, sim.train_end);
  ServeEngine engine(sentry);
  const ReplayReport replay = serve_replay(engine, sim.data, sim.train_end);
  const ServeStats& stats = replay.result.stats;
  std::printf("ingested %zu samples at %.0f samples/s; "
              "%zu points scored in %zu batches (%.2f chunks/batch)\n",
              replay.samples_streamed, replay.samples_per_second,
              stats.points_scored, stats.batches_run,
              stats.mean_batch_occupancy);
  std::printf("score latency p50 %.3f ms / p99 %.3f ms; "
              "match latency p50 %.3f ms / p99 %.3f ms\n",
              stats.score_latency.p50_ms, stats.score_latency.p99_ms,
              stats.match_latency.p50_ms, stats.match_latency.p99_ms);

  // ---- Registry overhead: the latency figures above come straight from
  // the shared obs histograms (ServeStats is a view over them, so bench
  // and serve cannot disagree). Price one observe() on an identically
  // shaped histogram and relate the serve phase's observation count to
  // its wall time; the instrumentation budget is <1% of serve wall time.
  obs::Registry probe_registry;
  obs::Histogram& probe = probe_registry.histogram(
      "bench_probe_seconds", "observe() cost probe",
      obs::default_latency_buckets(), {}, 4096);
  constexpr std::size_t kProbeOps = 1000000;
  Stopwatch probe_watch;
  for (std::size_t i = 0; i < kProbeOps; ++i)
    probe.observe(1e-4 * static_cast<double>(i % 7));
  const double per_observe_s =
      probe_watch.elapsed_s() / static_cast<double>(kProbeOps);
  const std::size_t observations = stats.ingest_latency.count +
                                   stats.match_latency.count +
                                   stats.score_latency.count;
  const double obs_overhead_fraction =
      replay.ingest_seconds > 0.0
          ? static_cast<double>(observations) * per_observe_s /
                replay.ingest_seconds
          : 0.0;
  std::printf("metrics overhead: %zu observations x %.0f ns = %.4f%% of "
              "serve wall time (%s budget: <1%%)\n",
              observations, per_observe_s * 1e9,
              obs_overhead_fraction * 100.0,
              obs_overhead_fraction < 0.01 ? "within" : "OVER");

  // ---- Per-core scoring throughput (DESIGN.md §16): the autograd
  // forward_blocked, the canonical plan (the strict path's evaluator, same
  // bits) and the relaxed/quantized plans on one core, one fitted cluster
  // model, identical batches. This isolates the forward-path arithmetic
  // the relaxed contract legalizes — the 4x AVX2 gate (quantized vs
  // canonical plan) applies here; the end-to-end replay comparison below
  // includes ingest/match/threshold overhead common to every path.
  std::printf("\n=== Per-core forward scoring throughput ===\n\n");
  const ClusterEntry& bench_cluster = sentry.library().clusters().front();
  TransformerReconstructor& bench_model = *bench_cluster.model;
  bench_model.set_training(false);
  const std::size_t M = bench_model.config().input_dim;
  constexpr std::size_t kBlocks = 16, kBlockRows = 64;
  constexpr std::size_t kRows = kBlocks * kBlockRows;
  Tensor fwd_x(Shape{kRows, M});
  Rng fwd_data_rng(7);
  for (std::size_t i = 0; i < fwd_x.numel(); ++i)
    fwd_x.data()[i] = static_cast<float>(fwd_data_rng.gaussian());
  std::vector<std::size_t> fwd_offsets(kRows), fwd_segs(kRows);
  const std::vector<std::size_t> fwd_blocks(kBlocks, kBlockRows);
  for (std::size_t b = 0; b < kBlocks; ++b)
    for (std::size_t r = 0; r < kBlockRows; ++r) {
      fwd_offsets[b * kBlockRows + r] = r;
      fwd_segs[b * kBlockRows + r] = b % bench_model.config().max_segments;
    }
  const auto time_forward = [&](auto&& body) {
    // Warm up once, then run until ~0.3 s of wall time has accumulated —
    // all inside one pool task, where nested parallel_for runs serially,
    // so the figure is one core's on any host.
    double points_per_s = 0.0;
    ThreadPool::global()
        .submit([&] {
          body();
          Stopwatch watch;
          std::size_t iters = 0;
          do {
            body();
            ++iters;
          } while (watch.elapsed_s() < 0.3);
          points_per_s =
              static_cast<double>(iters * kRows) / watch.elapsed_s();
        })
        .get();
    return points_per_s;
  };
  const Var fwd_input = Var::constant(fwd_x.clone());
  Rng fwd_rng(0);
  const double autograd_pps = time_forward([&] {
    (void)bench_model.forward_blocked(fwd_input, fwd_offsets, fwd_segs,
                                      fwd_rng, fwd_blocks);
  });
  const ScoringPlan canonical_plan = ScoringPlan::canonical(bench_model);
  const ScoringPlan relaxed_plan(bench_model);
  const QuantCalibration bench_calib = calibrate_quantization(bench_model);
  const ScoringPlan quantized_plan(bench_model, &bench_calib);
  Workspace fwd_ws;
  const double canonical_pps = time_forward([&] {
    (void)canonical_plan.forward(fwd_x, fwd_offsets, fwd_segs, fwd_blocks,
                                 fwd_ws);
  });
  const double relaxed_pps = time_forward([&] {
    (void)relaxed_plan.forward(fwd_x, fwd_offsets, fwd_segs, fwd_blocks,
                               fwd_ws);
  });
  const double quantized_pps = time_forward([&] {
    (void)quantized_plan.forward(fwd_x, fwd_offsets, fwd_segs, fwd_blocks,
                                 fwd_ws);
  });
  const double core_speedup =
      canonical_pps > 0.0 ? quantized_pps / canonical_pps : 0.0;
  std::printf("autograd forward_blocked: %.0f points/s/core\n", autograd_pps);
  std::printf("canonical plan (strict):  %.0f points/s/core (%.2fx autograd)\n",
              canonical_pps, canonical_pps / autograd_pps);
  std::printf("relaxed plan:   %.0f points/s/core (%.2fx canonical plan)\n",
              relaxed_pps, relaxed_pps / canonical_pps);
  std::printf("quantized plan: %.0f points/s/core (%.2fx canonical plan)\n",
              quantized_pps, core_speedup);

  // ---- Scoring-path comparison (DESIGN.md §16): the canonical strict
  // path vs the quantized relaxed path, same fitted sentry, same stream.
  // Throughput is points scored per cumulative score-stage second (read
  // from each engine's own metrics registry), so the ratio isolates the
  // batched-forward arithmetic from ingest/match overhead.
  std::printf("\n=== Scoring paths: strict vs quantized (kernel tier %s) "
              "===\n\n",
              kernel_tier_name(kernel_dispatch_tier()));
  PathRun strict = run_scoring_path(sentry, sim, ScoringPath::kStrict);
  PathRun quantized = run_scoring_path(sentry, sim, ScoringPath::kQuantized);
  const double speedup = strict.points_per_second > 0.0
                             ? quantized.points_per_second /
                                   strict.points_per_second
                             : 0.0;
  const double recall_delta = quantized.metrics.recall - strict.metrics.recall;
  const double fp_delta = quantized.fp_rate - strict.fp_rate;
  std::printf("strict:    %.0f points/s of scoring time (%.3f s total), "
              "P=%.3f R=%.3f FP=%.4f%%\n",
              strict.points_per_second, strict.score_seconds,
              strict.metrics.precision, strict.metrics.recall,
              strict.fp_rate * 100.0);
  std::printf("quantized: %.0f points/s of scoring time (%.3f s total), "
              "P=%.3f R=%.3f FP=%.4f%%\n",
              quantized.points_per_second, quantized.score_seconds,
              quantized.metrics.precision, quantized.metrics.recall,
              quantized.fp_rate * 100.0);
  // The quantized plan must not regress against the canonical plan per
  // core, on any host. Its lead over the vectorized canonical plan (about
  // 2-2.6x on AVX2, EXPERIMENTS.md §16) is reported, not gated.
  constexpr double kSpeedupFloor = 0.9;
  std::printf("end-to-end scoring-stage speedup: %.2fx; per-core forward "
              "speedup %.2fx (no-regression gate, threshold %.1fx); recall "
              "delta %+.4f, FP-rate delta %+.4f%%\n",
              speedup, core_speedup, kSpeedupFloor, recall_delta,
              fp_delta * 100.0);

  const char* json_path = "BENCH_serve.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"samples_streamed\": %zu,\n",
                 replay.samples_streamed);
    std::fprintf(f, "  \"ingest_seconds\": %.6f,\n", replay.ingest_seconds);
    std::fprintf(f, "  \"ingest_samples_per_second\": %.1f,\n",
                 replay.samples_per_second);
    std::fprintf(f, "  \"score_latency_p50_ms\": %.6f,\n",
                 stats.score_latency.p50_ms);
    std::fprintf(f, "  \"score_latency_p99_ms\": %.6f,\n",
                 stats.score_latency.p99_ms);
    std::fprintf(f, "  \"match_latency_p50_ms\": %.6f,\n",
                 stats.match_latency.p50_ms);
    std::fprintf(f, "  \"match_latency_p99_ms\": %.6f,\n",
                 stats.match_latency.p99_ms);
    std::fprintf(f, "  \"ingest_latency_p99_ms\": %.6f,\n",
                 stats.ingest_latency.p99_ms);
    std::fprintf(f, "  \"batches_run\": %zu,\n", stats.batches_run);
    std::fprintf(f, "  \"mean_batch_occupancy\": %.4f,\n",
                 stats.mean_batch_occupancy);
    std::fprintf(f, "  \"chunks_scored\": %zu,\n", stats.chunks_scored);
    std::fprintf(f, "  \"points_scored\": %zu,\n", stats.points_scored);
    std::fprintf(f, "  \"segments_matched\": %zu,\n", stats.segments_matched);
    std::fprintf(f, "  \"max_queue_depth\": %zu,\n", stats.max_queue_depth);
    std::fprintf(f, "  \"units_dropped\": %zu,\n", stats.units_dropped);
    std::fprintf(f, "  \"latency_observations\": %zu,\n", observations);
    std::fprintf(f, "  \"obs_per_observe_ns\": %.1f,\n", per_observe_s * 1e9);
    std::fprintf(f, "  \"obs_overhead_fraction\": %.6f,\n",
                 obs_overhead_fraction);
    std::fprintf(f, "  \"score_reallocs\": %zu,\n", stats.score_reallocs);
    std::fprintf(f, "  \"kernel_tier\": \"%s\",\n",
                 kernel_tier_name(kernel_dispatch_tier()));
    std::fprintf(f, "  \"autograd_forward_points_per_second_core\": %.1f,\n",
                 autograd_pps);
    std::fprintf(f,
                 "  \"canonical_plan_forward_points_per_second_core\": %.1f,\n",
                 canonical_pps);
    std::fprintf(f, "  \"relaxed_forward_points_per_second_core\": %.1f,\n",
                 relaxed_pps);
    std::fprintf(f, "  \"quantized_forward_points_per_second_core\": %.1f,\n",
                 quantized_pps);
    std::fprintf(f, "  \"quantized_core_speedup\": %.4f,\n", core_speedup);
    std::fprintf(f, "  \"strict_scoring_points_per_second\": %.1f,\n",
                 strict.points_per_second);
    std::fprintf(f, "  \"quantized_scoring_points_per_second\": %.1f,\n",
                 quantized.points_per_second);
    std::fprintf(f, "  \"quantized_scoring_speedup\": %.4f,\n", speedup);
    std::fprintf(f, "  \"scoring_speedup_gate\": \"no_regression\",\n");
    std::fprintf(f, "  \"strict_recall\": %.6f,\n", strict.metrics.recall);
    std::fprintf(f, "  \"quantized_recall\": %.6f,\n",
                 quantized.metrics.recall);
    std::fprintf(f, "  \"strict_fp_rate\": %.6f,\n", strict.fp_rate);
    std::fprintf(f, "  \"quantized_fp_rate\": %.6f,\n", quantized.fp_rate);
    std::fprintf(f, "  \"recall_delta\": %.6f,\n", recall_delta);
    std::fprintf(f, "  \"fp_rate_delta\": %.6f\n", fp_delta);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("streaming metrics written to %s\n", json_path);
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", json_path);
  }

  // Full exposition snapshot next to the JSON: the same registry the
  // serve engine and fit pipeline recorded into, in scrape format.
  obs::write_metrics_files(obs::Registry::global(), "BENCH_serve_metrics");
  std::printf("registry snapshot written to BENCH_serve_metrics.prom/.json\n");

  // ---- Gates (after the JSON so a failed run still leaves the numbers
  // on disk for diagnosis).
  if (core_speedup < kSpeedupFloor) {
    std::fprintf(stderr,
                 "FAIL: quantized per-core forward speedup %.2fx under the "
                 "no-regression gate's %.1fx threshold\n",
                 core_speedup, kSpeedupFloor);
    return 1;
  }
  // The end-to-end scoring stage carries path-independent overhead, so it
  // only gates on never being slower than the canonical path.
  if (speedup < 0.9) {
    std::fprintf(stderr,
                 "FAIL: quantized end-to-end scoring throughput regressed "
                 "to %.2fx of strict\n",
                 speedup);
    return 1;
  }
  if (std::abs(recall_delta) > 1e-9) {
    std::fprintf(stderr,
                 "FAIL: quantized path changed recall by %+.6f (must be "
                 "unchanged)\n",
                 recall_delta);
    return 1;
  }
  if (std::abs(fp_delta) > 0.005) {
    std::fprintf(stderr,
                 "FAIL: quantized path moved the FP rate by %+.4f%% "
                 "(budget: 0.5%% absolute)\n",
                 fp_delta * 100.0);
    return 1;
  }
  return 0;
}
