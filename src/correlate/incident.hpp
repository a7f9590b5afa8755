// Cross-node incident correlation and root-cause ranking (DESIGN.md §15).
//
// The serve pipeline flags (node, tick) points; operators triage
// *incidents*: a leaf switch dying takes a rack with it, a parallel-FS
// stall takes every node of a job. IncidentEngine is a pure post-finalize
// stage over a FleetEngine's ServeResult — it never touches the scoring
// path, so detections are bitwise identical with or without it:
//
//   1. extract per-node anomaly *events* (maximal runs of flagged ticks);
//   2. link events that overlap within a sliding window AND share a
//      grouping key — same job, same simulated rack (node id / rack_size),
//      optionally same workload archetype — into connected components
//      (union-find);
//   3. emit each component as an Incident: covering window, contributing
//      nodes ranked by flagged score mass, and — when the serve run
//      recorded ResidualAttribution — the contributing metrics ranked by
//      their share of the flagged points' WMSE reconstruction error
//      (the per-metric terms w_m d_m^2 / s_m of the §3.4 score, summed
//      over the incident's flagged points).
//
// The report also answers the fleet-wide ordered queries ("most anomalous
// metrics / nodes right now") netdata's Anomaly Advisor popularized, and
// the builder instruments itself with ns_correlate_* obs metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"
#include "serve/backend.hpp"
#include "ts/mts.hpp"

namespace ns {

enum class IncidentScope : std::uint8_t {
  kNode = 0,   ///< single node — no cross-node structure
  kJob,        ///< every event belongs to one job
  kRack,       ///< every event sits in one simulated rack
  kArchetype,  ///< same workload archetype across jobs/racks
  kMixed,      ///< linked through overlapping keys, no single dominator
};

const char* incident_scope_name(IncidentScope scope);

/// One metric's share of an incident's WMSE error mass.
struct IncidentMetricRank {
  std::size_t metric = 0;
  std::string name;    ///< empty when no metric names were supplied
  double wmse = 0.0;   ///< summed per-metric error terms over flagged points
  double share = 0.0;  ///< wmse / total over all metrics
};

/// One node's contribution to an incident.
struct IncidentNodeRank {
  std::size_t node = 0;
  std::size_t begin = 0;  ///< first flagged tick of this node in the incident
  std::size_t end = 0;    ///< last flagged tick + 1
  std::size_t flagged_points = 0;
  float peak_score = 0.0f;
  double total_score = 0.0;  ///< summed scores over flagged ticks
};

struct Incident {
  std::size_t id = 0;  ///< dense, ordered by severity (rank 0 = worst)
  IncidentScope scope = IncidentScope::kNode;
  std::int64_t job_id = -1;  ///< kJob scope (also set when unambiguous)
  std::size_t rack = 0;      ///< kRack scope
  std::string archetype;     ///< dominant archetype name ("" = unknown)
  std::size_t begin = 0;     ///< covering window over all member events
  std::size_t end = 0;
  double severity = 0.0;  ///< summed flagged score mass over all members
  std::vector<IncidentNodeRank> nodes;      ///< desc by total_score
  std::vector<IncidentMetricRank> metrics;  ///< desc by wmse; needs attribution
};

struct IncidentConfig {
  /// Max tick gap between two events' windows for them to co-occur.
  std::size_t window = 16;
  /// Simulated rack width: rack id = node id / rack_size.
  std::size_t rack_size = 8;
  /// Incidents with fewer distinct nodes are dropped from the report
  /// (1 keeps single-node incidents — the fleet-wide queries still want
  /// their score mass).
  std::size_t min_nodes = 1;
  std::size_t top_metrics = 8;  ///< per-incident + global ranked-metric cap
  std::size_t top_nodes = 16;   ///< global ranked-node cap
  /// Events of one job or one rack always link. This also merges
  /// same-archetype events across jobs/racks. Off by default: archetypes
  /// are broad (half a fleet can be compute-bound) and would fuse
  /// unrelated incidents.
  bool link_archetypes = false;
  /// Registry for the ns_correlate_* instruments; null = process-global.
  obs::Registry* registry = nullptr;
};

/// Optional grouping context. Everything is borrowed — callers keep the
/// backing data alive for the duration of build().
struct IncidentGroupingMeta {
  /// Per-node job spans (e.g. MtsDataset::jobs); null disables job linking.
  const std::vector<std::vector<JobSpan>>* jobs = nullptr;
  /// job id -> workload archetype name; null leaves archetypes unknown.
  const std::unordered_map<std::int64_t, std::string>* job_archetypes =
      nullptr;
  /// Processed metric names, index-aligned with ServeResult::attribution.
  const std::vector<std::string>* metric_names = nullptr;
};

struct IncidentReport {
  std::vector<Incident> incidents;  ///< desc by severity
  std::size_t anomaly_events = 0;   ///< per-node flag runs extracted
  std::size_t nodes_flagged = 0;    ///< distinct nodes with >= 1 flagged tick
  /// Fleet-wide ordered queries, aggregated over every reported incident.
  std::vector<IncidentMetricRank> top_metrics;  ///< desc by wmse
  std::vector<IncidentNodeRank> top_nodes;      ///< desc by total_score
};

class IncidentEngine {
 public:
  explicit IncidentEngine(IncidentConfig config = {});

  /// Groups `result`'s detections into incidents. `start_t` is the
  /// backend's serving start (ticks before it are never flagged); pass
  /// backend.start_t(). Pure read — safe to call concurrently from
  /// several threads on the same result.
  IncidentReport build(const ServeResult& result, std::size_t start_t,
                       const IncidentGroupingMeta& meta = {}) const;

  const IncidentConfig& config() const { return config_; }

 private:
  IncidentConfig config_;
  obs::Counter* events_counter_ = nullptr;
  obs::Counter* incidents_counter_ = nullptr;
  obs::Counter* grouped_nodes_counter_ = nullptr;
  obs::Histogram* build_hist_ = nullptr;
  obs::Histogram* span_hist_ = nullptr;
};

/// Writes a report as pretty-printed JSON (incidents with node + metric
/// rankings, then the global queries). Returns false when the file cannot
/// be opened.
bool write_incidents_json(const IncidentReport& report,
                          const std::string& path);

}  // namespace ns
