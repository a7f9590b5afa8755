// incident_query — end-to-end demo of the incident correlator (DESIGN.md
// §15): simulate a fleet, inject *correlated* fault scenarios (a rack-level
// network partition, a shared-FS stall hitting every node of one job), fit
// the library on the clean training prefix, stream the test region through
// a ServeEngine with per-metric residual attribution on, and answer the
// ordered triage queries an operator asks first:
//
//   incident_query [--query incidents|metrics|nodes] [--scale F] [--seed N]
//       [--epochs N] [--top K] [--window N] [--rack-size N] [--json FILE]
//
//   --query     which ordered view to print (default: incidents)
//                 incidents  ranked incidents with node + metric breakdown
//                 metrics    fleet-wide most anomalous metrics (WMSE share)
//                 nodes      fleet-wide most anomalous nodes (score mass)
//   --json      also write the full incident report as JSON
//
// The footer compares each injected scenario's ground-truth node set with
// the best-covering incident, so the output doubles as a recall readout.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/nodesentry.hpp"
#include "correlate/incident.hpp"
#include "serve/engine.hpp"
#include "serve/replay.hpp"
#include "sim/correlated_faults.hpp"
#include "sim/dataset_builder.hpp"

namespace {

using namespace ns;

const char* arg_value(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return fallback;
}

/// Fraction of an injected event's observable nodes grouped into the
/// single best-covering incident (the bench's recall definition).
double best_coverage(const CorrelatedFaultEvent& event,
                     const IncidentReport& report, const Incident** best) {
  double best_frac = 0.0;
  for (const Incident& incident : report.incidents) {
    std::size_t hit = 0;
    for (const std::size_t node : event.nodes)
      for (const IncidentNodeRank& rank : incident.nodes)
        if (rank.node == node) {
          ++hit;
          break;
        }
    const double frac =
        static_cast<double>(hit) / static_cast<double>(event.nodes.size());
    if (frac > best_frac) {
      best_frac = frac;
      if (best != nullptr) *best = &incident;
    }
  }
  return best_frac;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string query = arg_value(argc, argv, "--query", "incidents");
  const double scale = std::atof(arg_value(argc, argv, "--scale", "0.5"));
  const std::uint64_t seed =
      std::strtoull(arg_value(argc, argv, "--seed", "11"), nullptr, 10);
  const std::size_t top = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--top", "10")));
  const char* json_path = arg_value(argc, argv, "--json", "");

  // ---- Simulate and inject the correlated scenarios into the test region.
  SimDatasetConfig sim_config = d1_sim_config(scale, seed);
  sim_config.missing_rate = 0.0;
  sim_config.anomaly_ratio = 0.0;  // only the injected correlated faults
  SimDataset sim = build_sim_dataset(sim_config);
  CorrelatedFaultConfig fault_config;
  fault_config.rack_size = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--rack-size", "8")));
  const std::vector<CorrelatedFaultEvent> injected =
      inject_correlated_faults(sim, fault_config);
  std::printf("simulated %zu nodes x %zu metrics x %zu steps; injected:\n",
              sim.data.num_nodes(), sim.data.num_metrics(),
              sim.data.num_timestamps());
  for (const CorrelatedFaultEvent& event : injected)
    std::printf("  %-22s %zu nodes  [%zu,%zu)\n",
                correlated_fault_name(event.kind), event.nodes.size(),
                event.begin, event.end);

  // ---- Fit on the clean prefix, then serve the test region with the
  // per-metric WMSE split recorded (detections are bitwise identical with
  // or without it — the terms are written after each score and never
  // feed it).
  NodeSentryConfig config;
  config.train_epochs = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--epochs", "4")));
  config.learning_rate = 3e-3f;
  config.incremental_updates = false;
  NodeSentry sentry(config);
  const auto fit = sentry.fit(sim.data, sim.train_end);
  std::printf("trained %zu segments -> %zu clusters in %.1f s\n",
              fit.num_segments, fit.num_clusters, fit.total_seconds);
  ServeEngine engine(sentry, ServeConfig{.attribution = true});
  const ReplayReport report = serve_replay(engine, sim.data, sim.train_end);

  // ---- Correlate into incidents.
  IncidentConfig inc_config;
  inc_config.rack_size = fault_config.rack_size;
  inc_config.window = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--window", "16")));
  inc_config.top_metrics = top;
  inc_config.top_nodes = top;
  std::unordered_map<std::int64_t, std::string> job_archetypes;
  for (const SchedJob& job : sim.sched_jobs)
    job_archetypes.emplace(job.job_id, workload_name(job.type));
  std::vector<std::string> metric_names;
  for (const MetricMeta& meta : sentry.processed().metrics)
    metric_names.push_back(meta.name);
  IncidentGroupingMeta meta;
  meta.jobs = &sim.data.jobs;
  meta.job_archetypes = &job_archetypes;
  meta.metric_names = &metric_names;
  const IncidentEngine incidents_engine(inc_config);
  const IncidentReport incidents =
      incidents_engine.build(report.result, sim.train_end, meta);

  std::printf("\n%zu incidents from %zu anomaly events on %zu nodes\n\n",
              incidents.incidents.size(), incidents.anomaly_events,
              incidents.nodes_flagged);
  if (query == "metrics") {
    std::printf("most anomalous metrics (by WMSE error share):\n");
    for (const IncidentMetricRank& rank : incidents.top_metrics)
      std::printf("  %5.1f%%  %-40s wmse %.4f\n", 100.0 * rank.share,
                  rank.name.c_str(), rank.wmse);
  } else if (query == "nodes") {
    std::printf("most anomalous nodes (by flagged score mass):\n");
    for (const IncidentNodeRank& rank : incidents.top_nodes)
      std::printf("  node %-4zu score %8.2f  %4zu flagged points  "
                  "peak %.2f\n",
                  rank.node, rank.total_score, rank.flagged_points,
                  rank.peak_score);
  } else {
    for (std::size_t i = 0; i < incidents.incidents.size() && i < top; ++i) {
      const Incident& incident = incidents.incidents[i];
      std::printf("#%zu  scope=%s", incident.id,
                  incident_scope_name(incident.scope));
      if (incident.scope == IncidentScope::kJob)
        std::printf(" job=%lld", static_cast<long long>(incident.job_id));
      if (incident.scope == IncidentScope::kRack)
        std::printf(" rack=%zu", incident.rack);
      if (!incident.archetype.empty())
        std::printf(" archetype=%s", incident.archetype.c_str());
      std::printf("  [%zu,%zu)  severity %.2f\n", incident.begin,
                  incident.end, incident.severity);
      std::printf("   nodes:");
      for (const IncidentNodeRank& rank : incident.nodes)
        std::printf(" %zu(%.1f)", rank.node, rank.total_score);
      std::printf("\n");
      for (std::size_t k = 0; k < incident.metrics.size() && k < 3; ++k)
        std::printf("   metric %-40s %5.1f%% of WMSE\n",
                    incident.metrics[k].name.c_str(),
                    100.0 * incident.metrics[k].share);
    }
  }

  // ---- Ground-truth readout: how well did grouping recover each
  // injected scenario?
  std::printf("\nground truth vs incidents:\n");
  for (const CorrelatedFaultEvent& event : injected) {
    const Incident* best = nullptr;
    const double frac = best_coverage(event, incidents, &best);
    std::printf("  %-22s %zu/%zu nodes in incident #%zu (%.0f%%)\n",
                correlated_fault_name(event.kind),
                static_cast<std::size_t>(
                    frac * static_cast<double>(event.nodes.size()) + 0.5),
                event.nodes.size(), best != nullptr ? best->id : 0,
                100.0 * frac);
  }

  if (json_path[0] != '\0' && write_incidents_json(incidents, json_path))
    std::printf("incident report written to %s\n", json_path);
  return 0;
}
