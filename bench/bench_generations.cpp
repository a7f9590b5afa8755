// Generation-registry bench (DESIGN.md §12): publish (hot-swap) latency
// under concurrent snapshot load, consensus scoring cost as G grows
// (G = 2, 3 as ratios to the default G = 1), and chaos-suite detection
// quality (FP rate / recall) for the default one-generation engine vs
// consensus-of-3 serving. Writes BENCH_generations.json (--json=<path>).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "core/nodesentry.hpp"
#include "nn/module.hpp"
#include "serve/model_registry.hpp"
#include "serve/engine.hpp"
#include "serve/replay.hpp"
#include "serve/retrainer.hpp"
#include "sim/dataset_builder.hpp"
#include "sim/telemetry_faults.hpp"

namespace {

using namespace ns;

NodeSentryConfig bench_config() {
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
  config.k_max = 3;
  config.seed = 99;
  config.incremental_updates = false;
  return config;
}

/// The "chaos suite": labeled sim anomalies plus a plan of telemetry
/// faults over the whole timeline — corrupted-but-unlabeled points are
/// exactly where one model generation pays false positives.
SimDataset chaos_dataset() {
  SimDatasetConfig config = d2_sim_config(0.3, 7);
  config.missing_rate = 0.0;
  config.anomaly_ratio = 0.05;
  SimDataset sim = build_sim_dataset(config);
  TelemetryFaultPlanConfig plan;
  plan.region_begin = sim.train_end;
  plan.region_end = sim.data.num_timestamps();
  plan.events_per_type = 1;
  Rng rng(3);
  apply_telemetry_faults(sim.data,
                         plan_telemetry_faults(plan, sim.data.num_nodes(),
                                               sim.data.num_metrics(), rng));
  return sim;
}

/// Clones a cluster's model through the parameter stream (the retrainer's
/// own cloning path) so G > 1 sets can be staged without training.
std::shared_ptr<TransformerReconstructor> clone_model(
    const TransformerReconstructor& base, const TransformerConfig& config) {
  Rng rng(4242);
  auto clone = std::make_shared<TransformerReconstructor>(config, rng);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_parameters(base, buffer);
  load_parameters(*clone, buffer);
  clone->set_training(false);
  return clone;
}

struct SwapLatency {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Publish latency with 4 reader threads hammering snapshot(): the RCU
/// write side must stay microseconds even under full read load.
SwapLatency measure_swap_latency(NodeSentry& sentry, std::size_t publishes) {
  obs::Registry obs;
  GenerationRegistry registry(sentry.library().size(), 3, &obs);
  registry.seed_from_library(sentry.library());
  const ClusterEntry& entry = sentry.library().clusters()[0];
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r)
    readers.emplace_back([&] {
      std::size_t alive = 0;
      while (!stop.load(std::memory_order_acquire))
        alive += registry.snapshot(0)->generations.size();
      (void)alive;
    });
  std::vector<double> micros;
  micros.reserve(publishes);
  // Untimed warm-up: the first publishes race reader-thread startup (page
  // faults, lazy TLS) and would pollute the max.
  for (std::size_t p = 0; p < 16; ++p) {
    ModelGeneration gen;
    gen.model = entry.model;
    gen.residual_scale = entry.residual_scale.clone();
    gen.baseline_error = entry.baseline_error;
    registry.publish(0, std::move(gen));
  }
  for (std::size_t p = 0; p < publishes; ++p) {
    ModelGeneration gen;
    gen.model = entry.model;
    gen.residual_scale = entry.residual_scale.clone();
    gen.baseline_error = entry.baseline_error;
    Stopwatch sw;
    registry.publish(0, std::move(gen));
    micros.push_back(sw.elapsed_s() * 1e6);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  std::sort(micros.begin(), micros.end());
  SwapLatency lat;
  lat.p50_us = micros[micros.size() / 2];
  lat.p99_us = micros[(micros.size() * 99) / 100];
  lat.max_us = micros.back();
  return lat;
}

/// Pre-publishes clone generations until every cluster holds `g` of them.
void stage_generations(GenerationRegistry& registry, NodeSentry& sentry,
                       std::size_t g) {
  const TransformerConfig model_config = sentry.model_config();
  for (std::size_t c = 0; c < registry.num_clusters(); ++c) {
    const ClusterEntry& entry = sentry.library().clusters()[c];
    while (registry.snapshot(c)->generations.size() < g) {
      ModelGeneration gen;
      gen.model = clone_model(*entry.model, model_config);
      gen.residual_scale = entry.residual_scale.clone();
      gen.baseline_error = entry.baseline_error;
      registry.publish(c, std::move(gen));
    }
  }
}

struct QualityMetrics {
  double fp_rate = 0.0;
  double recall = 0.0;
};

QualityMetrics score_quality(const SimDataset& sim,
                             const std::vector<NodeDetection>& detections) {
  QualityMetrics q;
  // Recall with the standard point-adjustment protocol (eval/metrics.hpp),
  // like every table bench; the FP rate is the raw per-point false-alarm
  // rate over clean test points — the cost metric consensus targets.
  q.recall = bench::evaluate(sim, detections).recall;
  std::size_t fp = 0, clean = 0;
  const std::size_t T = sim.data.num_timestamps();
  for (std::size_t n = 0; n < sim.data.num_nodes(); ++n)
    for (std::size_t t = sim.train_end; t < T; ++t) {
      if (sim.data.labels[n][t]) continue;
      ++clean;
      fp += t < detections[n].predictions.size() &&
            detections[n].predictions[t] != 0;
    }
  q.fp_rate = clean > 0 ? static_cast<double>(fp) / clean : 0.0;
  return q;
}

double replay_seconds(NodeSentry& sentry, const SimDataset& sim,
                      const ServeConfig& config,
                      std::vector<NodeDetection>* out = nullptr) {
  ServeEngine engine(sentry, config);
  Stopwatch sw;
  ReplayReport rep = serve_replay(engine, sim.data, sim.train_end);
  const double seconds = sw.elapsed_s();
  if (out != nullptr) *out = std::move(rep.result.detections);
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_generations.json";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;

  SimDataset sim = chaos_dataset();
  NodeSentry sentry(bench_config());
  sentry.fit(sim.data, sim.train_end);
  obs::Registry obs;

  // ---- swap latency under concurrent snapshot load
  const std::size_t kPublishes = 500;
  const SwapLatency swap = measure_swap_latency(sentry, kPublishes);
  std::printf("publish latency under 4 readers (%zu publishes): "
              "p50 %.1f us, p99 %.1f us, max %.1f us\n",
              kPublishes, swap.p50_us, swap.p99_us, swap.max_us);

  // ---- scoring cost vs G (staged clone generations, same weights)
  ServeConfig baseline;  // the default engine: G = Q = 1
  baseline.registry = &obs;
  replay_seconds(sentry, sim, baseline);  // warm-up (pools, allocator)
  std::vector<ServeConfig> consensus_configs;
  std::vector<std::unique_ptr<GenerationRegistry>> registries;
  for (std::size_t g = 1; g <= 3; ++g) {
    registries.push_back(std::make_unique<GenerationRegistry>(
        sentry.library().size(), g, &obs));
    registries.back()->seed_from_library(sentry.library());
    stage_generations(*registries.back(), sentry, g);
    ServeConfig config;
    config.registry = &obs;
    config.generations = g;
    config.consensus_quorum = std::min<std::size_t>(g, 2);
    config.generation_registry = registries.back().get();
    consensus_configs.push_back(config);
  }
  // Interleaved min-of-7: the replays are short, so back-to-back timing is
  // at the mercy of scheduler noise — alternating the arms keeps any
  // transient load from biasing one G against another.
  std::vector<double> per_g_seconds(3, 1e30);
  for (int rep = 0; rep < 7; ++rep)
    for (std::size_t g = 1; g <= 3; ++g)
      per_g_seconds[g - 1] = std::min(
          per_g_seconds[g - 1],
          replay_seconds(sentry, sim, consensus_configs[g - 1]));
  std::vector<double> ratio_vs_g1(3);
  for (std::size_t g = 1; g <= 3; ++g) {
    ratio_vs_g1[g - 1] = per_g_seconds[g - 1] / per_g_seconds[0];
    std::printf("consensus G=%zu replay: %.3f s (%.2fx G=1)\n", g,
                per_g_seconds[g - 1], ratio_vs_g1[g - 1]);
  }

  // ---- chaos-suite quality: default engine vs retrained consensus-of-3
  std::vector<NodeDetection> g1_det;
  replay_seconds(sentry, sim, baseline, &g1_det);
  const QualityMetrics g1 = score_quality(sim, g1_det);

  GenerationRegistry registry(sentry.library().size(), 3, &obs);
  RetrainerConfig retrain_config;
  retrain_config.min_segments = 1;
  retrain_config.max_segments = 4;
  retrain_config.train_window = 32;
  retrain_config.epochs = 2;
  Retrainer retrainer(registry, sentry.library(), sentry.model_config(),
                      retrain_config, &obs);
  ServeConfig consensus;
  consensus.registry = &obs;
  consensus.generations = 3;
  consensus.consensus_quorum = 3;
  consensus.generation_registry = &registry;
  consensus.retrainer = &retrainer;
  // Two feed/retrain rounds stagger the set to three live generations,
  // then the measured replay serves through it.
  replay_seconds(sentry, sim, consensus);
  retrainer.run_cycle();
  replay_seconds(sentry, sim, consensus);
  retrainer.run_cycle();
  std::vector<NodeDetection> consensus_det;
  replay_seconds(sentry, sim, consensus, &consensus_det);
  const QualityMetrics voted = score_quality(sim, consensus_det);
  std::printf("chaos suite: G=1 FP %.5f recall %.3f | "
              "consensus(%zu,%zu) FP %.5f recall %.3f\n",
              g1.fp_rate, g1.recall, consensus.generations,
              consensus.consensus_quorum, voted.fp_rate, voted.recall);

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"swap_publishes\": %zu,\n", kPublishes);
    std::fprintf(f, "  \"swap_reader_threads\": 4,\n");
    std::fprintf(f, "  \"swap_p50_us\": %.2f,\n", swap.p50_us);
    std::fprintf(f, "  \"swap_p99_us\": %.2f,\n", swap.p99_us);
    std::fprintf(f, "  \"swap_max_us\": %.2f,\n", swap.max_us);
    std::fprintf(f, "  \"consensus_replay_seconds\": [%.4f, %.4f, %.4f],\n",
                 per_g_seconds[0], per_g_seconds[1], per_g_seconds[2]);
    std::fprintf(f,
                 "  \"consensus_replay_ratio_vs_g1\": [%.3f, %.3f, %.3f],\n",
                 ratio_vs_g1[0], ratio_vs_g1[1], ratio_vs_g1[2]);
    std::fprintf(f, "  \"consensus_generations\": %zu,\n",
                 consensus.generations);
    std::fprintf(f, "  \"consensus_quorum\": %zu,\n",
                 consensus.consensus_quorum);
    std::fprintf(f, "  \"g1_fp_rate\": %.6f,\n", g1.fp_rate);
    std::fprintf(f, "  \"g1_recall\": %.4f,\n", g1.recall);
    std::fprintf(f, "  \"consensus_fp_rate\": %.6f,\n", voted.fp_rate);
    std::fprintf(f, "  \"consensus_recall\": %.4f\n", voted.recall);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
