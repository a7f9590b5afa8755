// Quickstart: simulate a small HPC cluster, train NodeSentry offline, run
// online detection, and evaluate against the injected ground truth.
//
//   ./quickstart [seed]
#include <cstdio>
#include <cstdlib>

#include "core/nodesentry.hpp"
#include "eval/metrics.hpp"
#include "io/csv.hpp"
#include "sim/dataset_builder.hpp"

int main(int argc, char** argv) {
  using namespace ns;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 22;

  // 1. Simulate a small cluster with Slurm-like scheduling and injected
  //    faults (stand-in for production telemetry + sacct job lists).
  SimDatasetConfig sim_config = d2_sim_config(/*scale=*/1.0, seed);
  sim_config.anomaly_ratio = 0.01;
  const SimDataset sim = build_sim_dataset(sim_config);
  std::printf("simulated %zu nodes, %zu jobs, %zu raw metrics, %zu steps, "
              "%zu fault events\n",
              sim.data.num_nodes(), sim.sched_jobs.size(),
              sim.data.num_metrics(), sim.data.num_timestamps(),
              sim.faults.size());

  // 2. Offline training: preprocess, cluster coarse patterns, train one
  //    shared Transformer+MoE model per cluster.
  NodeSentryConfig config;
  config.train_epochs = 10;
  config.learning_rate = 3e-3f;
  NodeSentry sentry(config);
  const auto fit = sentry.fit(sim.data, sim.train_end);
  std::printf("fit: %zu segments -> %zu clusters (silhouette %.3f), "
              "%zu metrics after reduction, %.1f s\n",
              fit.num_segments, fit.num_clusters, fit.silhouette,
              fit.metrics_after_reduction, fit.total_seconds);

  // 3. Online detection over the held-out 40% of the timeline.
  auto detect = sentry.detect();
  std::printf("detect: %zu points scored in %.2f s "
              "(%zu matched / %zu unmatched segments)\n",
              detect.scored_points, detect.total_seconds,
              detect.segments_matched, detect.segments_unmatched);

  // 4. Point-adjusted evaluation with 1-minute transition guards.
  std::vector<std::vector<std::uint8_t>> masks;
  for (std::size_t n = 0; n < sim.data.num_nodes(); ++n)
    masks.push_back(evaluation_mask(sim.data.jobs[n],
                                    sim.data.num_timestamps(), sim.train_end,
                                    /*guard_steps=*/4));
  const DetectionMetrics metrics =
      aggregate_nodes(detect.detections, sim.data.labels, masks);
  std::printf("precision %.3f  recall %.3f  F1 %.3f  AUC %.3f\n",
              metrics.precision, metrics.recall, metrics.f1, metrics.auc);

  // 5. Persist the trained cluster library for later online use.
  sentry.library().save("quickstart_library");
  std::printf("cluster library saved to ./quickstart_library\n");
  return 0;
}
