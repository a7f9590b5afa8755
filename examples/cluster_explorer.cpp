// Cluster explorer: train NodeSentry on a simulated cluster and print what
// the coarse-grained clustering learned — cluster sizes, silhouette, the
// workload archetypes each cluster captured, per-cluster WMSE weights and
// baseline reconstruction error. The text analogue of the labeling tool's
// cluster-inspection pane.
#include <algorithm>
#include <cstdio>
#include <map>

#include "core/nodesentry.hpp"
#include "io/table.hpp"
#include "sim/dataset_builder.hpp"

int main() {
  using namespace ns;

  SimDatasetConfig sim_config = d1_sim_config(0.6, /*seed=*/321);
  sim_config.anomaly_ratio = 0.01;
  const SimDataset sim = build_sim_dataset(sim_config);
  std::map<std::int64_t, WorkloadType> job_types;
  for (const SchedJob& job : sim.sched_jobs) job_types[job.job_id] = job.type;

  NodeSentryConfig config;
  config.train_epochs = 8;
  config.learning_rate = 3e-3f;
  NodeSentry sentry(config);
  const auto fit = sentry.fit(sim.data, sim.train_end);
  std::printf("%zu training segments -> %zu clusters "
              "(auto-k=%zu, silhouette %.3f)\n\n",
              fit.num_segments, fit.num_clusters, sentry.auto_k(),
              fit.silhouette);

  TablePrinter table({"Cluster", "Members(K)", "Radius", "Baseline err",
                      "Dominant archetypes", "Top-weighted metric"});
  const auto& processed = sentry.processed();
  for (std::size_t c = 0; c < sentry.library().size(); ++c) {
    const ClusterEntry& entry = sentry.library().clusters()[c];
    // Archetype composition of the member segments.
    std::map<std::string, int> archetype_counts;
    for (const CoreSegment& member : entry.members) {
      const char* name =
          member.job_id < 0 ? "idle"
                            : workload_name(job_types.count(member.job_id)
                                                ? job_types[member.job_id]
                                                : WorkloadType::kIdle);
      archetype_counts[name]++;
    }
    std::string archetypes;
    for (const auto& [name, count] : archetype_counts) {
      if (!archetypes.empty()) archetypes += ", ";
      archetypes += name;
      archetypes += 'x';
      archetypes += std::to_string(count);
    }
    // The metric the WMSE weights emphasize most.
    std::size_t top_metric = 0;
    for (std::size_t m = 1; m < entry.metric_weights.numel(); ++m)
      if (entry.metric_weights.at(m) > entry.metric_weights.at(top_metric))
        top_metric = m;
    char radius[32], baseline[32];
    std::snprintf(radius, sizeof radius, "%.2f", entry.radius);
    std::snprintf(baseline, sizeof baseline, "%.3f", entry.baseline_error);
    table.add_row({std::to_string(c), std::to_string(entry.members.size()),
                   radius, baseline, archetypes,
                   processed.metrics[top_metric].name});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nclusters with a single dominant archetype confirm that the "
              "feature-space HAC recovered the workload structure; mixed "
              "clusters are where fine-grained MoE sharing earns its keep.\n");
  return 0;
}
