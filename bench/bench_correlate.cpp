// Incident-correlation bench + regression gate (DESIGN.md §15). Injects
// the two correlated fault scenarios (rack-level network partition,
// shared-FS stall across one job's nodes) into a clean D1-sim test region,
// serves the stream twice — attribution off (reference) and on — and gates:
//
//   1. Parity (unconditional): enabling per-metric residual attribution
//      must leave every score and prediction bitwise unchanged.
//   2. Recall: >= 90% of the rack partition's observable ground-truth
//      nodes must land in a single incident.
//   3. Attribution: the partition's injected root-cause metric family
//      (network rx/tx) must rank in the incident's top-3 WMSE
//      contributors.
//
// The shared-FS numbers are reported (and written to the JSON) but not
// gated: the stall rides one job's nodes, so its incident can legally
// merge with same-rack neighbours. Writes BENCH_correlate.json.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/nodesentry.hpp"
#include "correlate/incident.hpp"
#include "serve/fleet.hpp"
#include "serve/replay.hpp"
#include "sim/correlated_faults.hpp"
#include "sim/dataset_builder.hpp"

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
  config.k_max = 6;
  config.seed = 99;
  config.incremental_updates = false;
  return config;
}

bool bitwise_equal(const std::vector<NodeDetection>& a,
                   const std::vector<NodeDetection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t n = 0; n < a.size(); ++n) {
    if (a[n].scores.size() != b[n].scores.size() ||
        a[n].predictions.size() != b[n].predictions.size())
      return false;
    for (std::size_t t = 0; t < a[n].scores.size(); ++t)
      if (std::bit_cast<std::uint32_t>(a[n].scores[t]) !=
          std::bit_cast<std::uint32_t>(b[n].scores[t]))
        return false;
    for (std::size_t t = 0; t < a[n].predictions.size(); ++t)
      if (a[n].predictions[t] != b[n].predictions[t]) return false;
  }
  return true;
}

struct ScenarioResult {
  const char* name = "";
  std::size_t truth_nodes = 0;
  std::size_t grouped_nodes = 0;
  double recall = 0.0;
  std::size_t incident_id = 0;
  int root_metric_rank = -1;  ///< 0-based rank of the root metric; -1 = miss
  std::string top_metric;
};

/// The single incident covering the most ground-truth nodes is the
/// scenario's incident; recall is its coverage of the injected node set.
ScenarioResult judge(const CorrelatedFaultEvent& event,
                     const IncidentReport& report,
                     const std::vector<std::string>& root_prefixes) {
  ScenarioResult r;
  r.name = correlated_fault_name(event.kind);
  r.truth_nodes = event.nodes.size();
  const Incident* best = nullptr;
  for (const Incident& incident : report.incidents) {
    std::size_t hit = 0;
    for (const std::size_t node : event.nodes)
      for (const IncidentNodeRank& rank : incident.nodes)
        if (rank.node == node) {
          ++hit;
          break;
        }
    if (hit > r.grouped_nodes) {
      r.grouped_nodes = hit;
      best = &incident;
    }
  }
  r.recall = r.truth_nodes > 0 ? static_cast<double>(r.grouped_nodes) /
                                     static_cast<double>(r.truth_nodes)
                               : 0.0;
  if (best != nullptr) {
    r.incident_id = best->id;
    if (!best->metrics.empty()) r.top_metric = best->metrics.front().name;
    for (std::size_t k = 0; k < best->metrics.size(); ++k)
      for (const std::string& prefix : root_prefixes)
        if (best->metrics[k].name.rfind(prefix, 0) == 0) {
          r.root_metric_rank =
              r.root_metric_rank < 0
                  ? static_cast<int>(k)
                  : std::min(r.root_metric_rank, static_cast<int>(k));
          break;
        }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_correlate.json";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;

  // Clean stream (no random faults, no missing cells): every flagged
  // point traces back to an injected correlated scenario, so recall and
  // attribution are judged against exact ground truth.
  SimDatasetConfig sim_config = d1_sim_config(0.5, 11);
  sim_config.missing_rate = 0.0;
  sim_config.anomaly_ratio = 0.0;
  SimDataset sim = build_sim_dataset(sim_config);
  CorrelatedFaultConfig fault_config;
  const std::vector<CorrelatedFaultEvent> injected =
      inject_correlated_faults(sim, fault_config);
  const CorrelatedFaultEvent* rack_event = nullptr;
  const CorrelatedFaultEvent* fs_event = nullptr;
  for (const CorrelatedFaultEvent& event : injected) {
    if (event.kind == CorrelatedFaultKind::kRackNetworkPartition)
      rack_event = &event;
    else if (event.kind == CorrelatedFaultKind::kSharedFsStall)
      fs_event = &event;
    std::printf("injected %-22s %zu nodes  [%zu,%zu)\n",
                correlated_fault_name(event.kind), event.nodes.size(),
                event.begin, event.end);
  }
  if (rack_event == nullptr) {
    std::fprintf(stderr, "FAIL: no observable rack-partition placement\n");
    return 1;
  }

  NodeSentry sentry(bench_config());
  sentry.fit(sim.data, sim.train_end);

  // ---- parity gate: attribution must not perturb detections
  FleetEngine reference(sentry);
  const ReplayReport ref = serve_replay(reference, sim.data, sim.train_end);
  FleetEngine attributed(sentry,
                         FleetConfig{.engine = ServeConfig{.attribution = true}});
  Stopwatch sw;
  const ReplayReport run = serve_replay(attributed, sim.data, sim.train_end);
  const double serve_seconds = sw.elapsed_s();
  const bool parity_ok =
      bitwise_equal(ref.result.detections, run.result.detections);
  std::printf("parity: attribution on vs off: %s\n",
              parity_ok ? "bitwise identical" : "MISMATCH");

  // ---- correlate and judge against the injected ground truth
  IncidentConfig inc_config;
  inc_config.rack_size = fault_config.rack_size;
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
  const IncidentEngine engine(inc_config);
  Stopwatch build_sw;
  const IncidentReport report =
      engine.build(run.result, sim.train_end, meta);
  const double build_seconds = build_sw.elapsed_s();

  const ScenarioResult rack = judge(
      *rack_event, report, {"network_receive", "network_transmit"});
  std::printf("rack partition: %zu/%zu nodes in incident #%zu "
              "(recall %.2f), root metric rank %d (top: %s)\n",
              rack.grouped_nodes, rack.truth_nodes, rack.incident_id,
              rack.recall, rack.root_metric_rank, rack.top_metric.c_str());
  ScenarioResult fs;
  if (fs_event != nullptr) {
    fs = judge(*fs_event, report, {"disk_io"});
    std::printf("shared-fs stall: %zu/%zu nodes in incident #%zu "
                "(recall %.2f), root metric rank %d (top: %s)\n",
                fs.grouped_nodes, fs.truth_nodes, fs.incident_id, fs.recall,
                fs.root_metric_rank, fs.top_metric.c_str());
  }
  std::printf("%zu incidents from %zu events; serve %.2f s, correlate "
              "%.4f s\n",
              report.incidents.size(), report.anomaly_events, serve_seconds,
              build_seconds);

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"dataset\": \"%s\",\n", sim.config.name.c_str());
    std::fprintf(f, "  \"nodes\": %zu,\n", sim.data.num_nodes());
    std::fprintf(f, "  \"parity_ok\": %s,\n", parity_ok ? "true" : "false");
    std::fprintf(f, "  \"incidents\": %zu,\n", report.incidents.size());
    std::fprintf(f, "  \"anomaly_events\": %zu,\n", report.anomaly_events);
    std::fprintf(f, "  \"rack_truth_nodes\": %zu,\n", rack.truth_nodes);
    std::fprintf(f, "  \"rack_grouped_nodes\": %zu,\n", rack.grouped_nodes);
    std::fprintf(f, "  \"rack_recall\": %.4f,\n", rack.recall);
    std::fprintf(f, "  \"rack_root_metric_rank\": %d,\n",
                 rack.root_metric_rank);
    std::fprintf(f, "  \"rack_top_metric\": \"%s\",\n",
                 rack.top_metric.c_str());
    std::fprintf(f, "  \"fs_truth_nodes\": %zu,\n", fs.truth_nodes);
    std::fprintf(f, "  \"fs_grouped_nodes\": %zu,\n", fs.grouped_nodes);
    std::fprintf(f, "  \"fs_recall\": %.4f,\n", fs.recall);
    std::fprintf(f, "  \"fs_root_metric_rank\": %d,\n", fs.root_metric_rank);
    std::fprintf(f, "  \"serve_seconds\": %.3f,\n", serve_seconds);
    std::fprintf(f, "  \"correlate_seconds\": %.5f\n", build_seconds);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }

  if (!parity_ok) {
    std::fprintf(stderr, "FAIL: attribution perturbed the detections\n");
    return 1;
  }
  if (rack.recall < 0.9) {
    std::fprintf(stderr,
                 "FAIL: rack-partition recall %.2f below the 0.9 gate\n",
                 rack.recall);
    return 1;
  }
  if (rack.root_metric_rank < 0 || rack.root_metric_rank > 2) {
    std::fprintf(stderr,
                 "FAIL: injected root-cause metric ranked %d, not top-3\n",
                 rack.root_metric_rank);
    return 1;
  }
  return 0;
}
