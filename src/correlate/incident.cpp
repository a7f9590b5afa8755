#include "correlate/incident.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace ns {

namespace {

/// One maximal run of flagged ticks on one node — the unit of grouping.
struct AnomalyEvent {
  std::size_t node = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::int64_t job_id = -1;
  std::size_t rack = 0;
  const std::string* archetype = nullptr;  ///< null/empty = unknown
  double score_sum = 0.0;
  float peak = 0.0f;
};

struct UnionFind {
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
  std::vector<std::size_t> parent;
};

const std::string* archetype_of(const IncidentGroupingMeta& meta,
                                std::int64_t job_id) {
  if (meta.job_archetypes == nullptr || job_id < 0) return nullptr;
  const auto it = meta.job_archetypes->find(job_id);
  return it == meta.job_archetypes->end() ? nullptr : &it->second;
}

std::int64_t job_at(const IncidentGroupingMeta& meta, std::size_t node,
                    std::size_t t) {
  if (meta.jobs == nullptr || node >= meta.jobs->size()) return -1;
  for (const JobSpan& span : (*meta.jobs)[node])
    if (span.begin <= t && t < span.end)
      return span.is_idle() ? -1 : span.job_id;
  return -1;
}

bool same_archetype(const AnomalyEvent& a, const AnomalyEvent& b) {
  return a.archetype != nullptr && b.archetype != nullptr &&
         !a.archetype->empty() && *a.archetype == *b.archetype;
}

void json_escape(FILE* f, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

}  // namespace

const char* incident_scope_name(IncidentScope scope) {
  switch (scope) {
    case IncidentScope::kNode: return "node";
    case IncidentScope::kJob: return "job";
    case IncidentScope::kRack: return "rack";
    case IncidentScope::kArchetype: return "archetype";
    case IncidentScope::kMixed: return "mixed";
  }
  return "unknown";
}

IncidentEngine::IncidentEngine(IncidentConfig config)
    : config_(std::move(config)) {
  NS_REQUIRE(config_.rack_size >= 1, "correlate: rack_size must be >= 1");
  NS_REQUIRE(config_.min_nodes >= 1, "correlate: min_nodes must be >= 1");
  obs::Registry* registry =
      config_.registry ? config_.registry : &obs::Registry::global();
  events_counter_ =
      &registry->counter("ns_correlate_anomaly_events_total",
                         "Per-node anomaly runs consumed by the correlator");
  incidents_counter_ = &registry->counter(
      "ns_correlate_incidents_total", "Incidents emitted by the correlator");
  grouped_nodes_counter_ = &registry->counter(
      "ns_correlate_grouped_nodes_total",
      "Nodes grouped into multi-node incidents");
  build_hist_ = &registry->histogram(
      "ns_correlate_build_seconds", "Incident correlation build latency",
      obs::default_latency_buckets());
  span_hist_ = &registry->histogram(
      "ns_correlate_incident_span_ticks", "Covering window of each incident",
      {4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0});
}

IncidentReport IncidentEngine::build(const ServeResult& result,
                                     std::size_t start_t,
                                     const IncidentGroupingMeta& meta) const {
  Stopwatch sw;
  IncidentReport report;

  // ---- 1. extract per-node anomaly events (maximal flagged runs)
  std::vector<AnomalyEvent> events;
  for (std::size_t n = 0; n < result.detections.size(); ++n) {
    const NodeDetection& det = result.detections[n];
    bool node_flagged = false;
    std::size_t t = start_t;
    const std::size_t T = det.predictions.size();
    while (t < T) {
      if (det.predictions[t] == 0) {
        ++t;
        continue;
      }
      AnomalyEvent event;
      event.node = n;
      event.begin = t;
      while (t < T && det.predictions[t] != 0) {
        const float s = t < det.scores.size() ? det.scores[t] : 0.0f;
        event.score_sum += s;
        event.peak = std::max(event.peak, s);
        ++t;
      }
      event.end = t;
      event.job_id = job_at(meta, n, event.begin);
      event.rack = n / config_.rack_size;
      event.archetype = archetype_of(meta, event.job_id);
      events.push_back(std::move(event));
      node_flagged = true;
    }
    if (node_flagged) ++report.nodes_flagged;
  }
  report.anomaly_events = events.size();

  // ---- 2. link co-occurring events that share a grouping key
  std::sort(events.begin(), events.end(),
            [](const AnomalyEvent& a, const AnomalyEvent& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.node < b.node;
            });
  UnionFind uf(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      // Sorted by begin: once j starts past i's window, so does every
      // later event.
      if (events[j].begin > events[i].end + config_.window) break;
      const AnomalyEvent& a = events[i];
      const AnomalyEvent& b = events[j];
      const bool same_job = a.job_id >= 0 && a.job_id == b.job_id;
      const bool same_rack = a.rack == b.rack;
      const bool same_arch =
          config_.link_archetypes && same_archetype(a, b);
      if (same_job || same_rack || same_arch) uf.unite(i, j);
    }
  }

  // ---- 3. components -> incidents
  std::unordered_map<std::size_t, std::vector<std::size_t>> components;
  for (std::size_t i = 0; i < events.size(); ++i)
    components[uf.find(i)].push_back(i);
  const std::size_t M = result.attribution.num_metrics;
  std::vector<Incident> incidents;
  for (auto& [root, members] : components) {
    Incident incident;
    incident.begin = events[members.front()].begin;
    incident.end = events[members.front()].end;
    bool same_job = true;
    bool same_rack = true;
    bool same_arch = true;
    std::unordered_map<std::string, std::size_t> arch_votes;
    std::unordered_map<std::size_t, IncidentNodeRank> node_ranks;
    std::vector<double> metric_sums(M, 0.0);
    for (const std::size_t idx : members) {
      const AnomalyEvent& event = events[idx];
      const AnomalyEvent& first = events[members.front()];
      incident.begin = std::min(incident.begin, event.begin);
      incident.end = std::max(incident.end, event.end);
      incident.severity += event.score_sum;
      same_job = same_job && event.job_id >= 0 &&
                 event.job_id == first.job_id;
      same_rack = same_rack && event.rack == first.rack;
      same_arch = same_arch && same_archetype(event, first);
      if (event.archetype != nullptr && !event.archetype->empty())
        ++arch_votes[*event.archetype];
      IncidentNodeRank& rank = node_ranks[event.node];
      if (rank.flagged_points == 0) {
        rank.node = event.node;
        rank.begin = event.begin;
        rank.end = event.end;
      }
      rank.begin = std::min(rank.begin, event.begin);
      rank.end = std::max(rank.end, event.end);
      rank.flagged_points += event.end - event.begin;
      rank.peak_score = std::max(rank.peak_score, event.peak);
      rank.total_score += event.score_sum;
      if (M > 0 && event.node < result.attribution.contrib.size()) {
        // WMSE attribution: sum each metric's error terms over the
        // event's flagged ticks (every tick of an event is flagged by
        // construction).
        const std::vector<float>& plane =
            result.attribution.contrib[event.node];
        for (std::size_t t = event.begin; t < event.end; ++t) {
          if ((t + 1) * M > plane.size()) break;
          const float* row = plane.data() + t * M;
          for (std::size_t m = 0; m < M; ++m)
            metric_sums[m] += static_cast<double>(row[m]);
        }
      }
    }
    if (node_ranks.size() < config_.min_nodes) continue;
    // Scope: a single node is its own scope; otherwise the narrowest key
    // all members share wins (job < rack < archetype), else mixed.
    const AnomalyEvent& first = events[members.front()];
    if (node_ranks.size() == 1) {
      incident.scope = IncidentScope::kNode;
    } else if (same_job) {
      incident.scope = IncidentScope::kJob;
    } else if (same_rack) {
      incident.scope = IncidentScope::kRack;
    } else if (same_arch) {
      incident.scope = IncidentScope::kArchetype;
    } else {
      incident.scope = IncidentScope::kMixed;
    }
    if (same_job) incident.job_id = first.job_id;
    if (same_rack) incident.rack = first.rack;
    std::size_t best_votes = 0;
    for (const auto& [name, votes] : arch_votes) {
      if (votes > best_votes ||
          (votes == best_votes && name < incident.archetype)) {
        best_votes = votes;
        incident.archetype = name;
      }
    }
    incident.nodes.reserve(node_ranks.size());
    for (auto& [node, rank] : node_ranks) incident.nodes.push_back(rank);
    std::sort(incident.nodes.begin(), incident.nodes.end(),
              [](const IncidentNodeRank& a, const IncidentNodeRank& b) {
                if (a.total_score != b.total_score)
                  return a.total_score > b.total_score;
                return a.node < b.node;
              });
    if (M > 0) {
      double total = 0.0;
      for (const double s : metric_sums) total += s;
      for (std::size_t m = 0; m < M; ++m) {
        if (metric_sums[m] <= 0.0) continue;
        IncidentMetricRank rank;
        rank.metric = m;
        if (meta.metric_names != nullptr && m < meta.metric_names->size())
          rank.name = (*meta.metric_names)[m];
        rank.wmse = metric_sums[m];
        rank.share = total > 0.0 ? metric_sums[m] / total : 0.0;
        incident.metrics.push_back(std::move(rank));
      }
      std::sort(incident.metrics.begin(), incident.metrics.end(),
                [](const IncidentMetricRank& a, const IncidentMetricRank& b) {
                  if (a.wmse != b.wmse) return a.wmse > b.wmse;
                  return a.metric < b.metric;
                });
      if (config_.top_metrics > 0 &&
          incident.metrics.size() > config_.top_metrics)
        incident.metrics.resize(config_.top_metrics);
    }
    incidents.push_back(std::move(incident));
  }

  // Severity ranking; deterministic tie-break for stable output.
  std::sort(incidents.begin(), incidents.end(),
            [](const Incident& a, const Incident& b) {
              if (a.severity != b.severity) return a.severity > b.severity;
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.nodes.front().node < b.nodes.front().node;
            });
  for (std::size_t i = 0; i < incidents.size(); ++i) incidents[i].id = i;
  report.incidents = std::move(incidents);

  // ---- 4. fleet-wide ordered queries over the reported incidents
  std::unordered_map<std::size_t, IncidentMetricRank> global_metrics;
  std::unordered_map<std::size_t, IncidentNodeRank> global_nodes;
  for (const Incident& incident : report.incidents) {
    for (const IncidentMetricRank& rank : incident.metrics) {
      IncidentMetricRank& g = global_metrics[rank.metric];
      g.metric = rank.metric;
      if (g.name.empty()) g.name = rank.name;
      g.wmse += rank.wmse;
    }
    for (const IncidentNodeRank& rank : incident.nodes) {
      IncidentNodeRank& g = global_nodes[rank.node];
      if (g.flagged_points == 0) {
        g.node = rank.node;
        g.begin = rank.begin;
        g.end = rank.end;
      }
      g.begin = std::min(g.begin, rank.begin);
      g.end = std::max(g.end, rank.end);
      g.flagged_points += rank.flagged_points;
      g.peak_score = std::max(g.peak_score, rank.peak_score);
      g.total_score += rank.total_score;
    }
  }
  double global_total = 0.0;
  for (const auto& [metric, rank] : global_metrics) global_total += rank.wmse;
  report.top_metrics.reserve(global_metrics.size());
  for (auto& [metric, rank] : global_metrics) {
    rank.share = global_total > 0.0 ? rank.wmse / global_total : 0.0;
    report.top_metrics.push_back(std::move(rank));
  }
  std::sort(report.top_metrics.begin(), report.top_metrics.end(),
            [](const IncidentMetricRank& a, const IncidentMetricRank& b) {
              if (a.wmse != b.wmse) return a.wmse > b.wmse;
              return a.metric < b.metric;
            });
  if (config_.top_metrics > 0 &&
      report.top_metrics.size() > config_.top_metrics)
    report.top_metrics.resize(config_.top_metrics);
  report.top_nodes.reserve(global_nodes.size());
  for (auto& [node, rank] : global_nodes)
    report.top_nodes.push_back(std::move(rank));
  std::sort(report.top_nodes.begin(), report.top_nodes.end(),
            [](const IncidentNodeRank& a, const IncidentNodeRank& b) {
              if (a.total_score != b.total_score)
                return a.total_score > b.total_score;
              return a.node < b.node;
            });
  if (config_.top_nodes > 0 && report.top_nodes.size() > config_.top_nodes)
    report.top_nodes.resize(config_.top_nodes);

  // ---- instruments
  events_counter_->inc(report.anomaly_events);
  incidents_counter_->inc(report.incidents.size());
  std::size_t grouped = 0;
  for (const Incident& incident : report.incidents) {
    span_hist_->observe(static_cast<double>(incident.end - incident.begin));
    if (incident.nodes.size() >= 2) grouped += incident.nodes.size();
  }
  if (grouped > 0) grouped_nodes_counter_->inc(grouped);
  build_hist_->observe(sw.elapsed_s());
  return report;
}

bool write_incidents_json(const IncidentReport& report,
                          const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"anomaly_events\": %zu,\n", report.anomaly_events);
  std::fprintf(f, "  \"nodes_flagged\": %zu,\n", report.nodes_flagged);
  std::fprintf(f, "  \"incidents\": [");
  for (std::size_t i = 0; i < report.incidents.size(); ++i) {
    const Incident& incident = report.incidents[i];
    std::fprintf(f, "%s\n    {\"id\": %zu, \"scope\": \"%s\", ", i ? "," : "",
                 incident.id, incident_scope_name(incident.scope));
    std::fprintf(f, "\"job_id\": %lld, \"rack\": %zu, \"archetype\": \"",
                 static_cast<long long>(incident.job_id), incident.rack);
    json_escape(f, incident.archetype);
    std::fprintf(f, "\", \"begin\": %zu, \"end\": %zu, \"severity\": %.6f,\n",
                 incident.begin, incident.end, incident.severity);
    std::fprintf(f, "     \"nodes\": [");
    for (std::size_t k = 0; k < incident.nodes.size(); ++k) {
      const IncidentNodeRank& rank = incident.nodes[k];
      std::fprintf(f,
                   "%s{\"node\": %zu, \"begin\": %zu, \"end\": %zu, "
                   "\"flagged\": %zu, \"peak\": %.4f, \"score\": %.6f}",
                   k ? ", " : "", rank.node, rank.begin, rank.end,
                   rank.flagged_points, static_cast<double>(rank.peak_score),
                   rank.total_score);
    }
    std::fprintf(f, "],\n     \"metrics\": [");
    for (std::size_t k = 0; k < incident.metrics.size(); ++k) {
      const IncidentMetricRank& rank = incident.metrics[k];
      std::fprintf(f, "%s{\"metric\": %zu, \"name\": \"", k ? ", " : "",
                   rank.metric);
      json_escape(f, rank.name);
      std::fprintf(f, "\", \"wmse\": %.6f, \"share\": %.4f}", rank.wmse,
                   rank.share);
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"top_metrics\": [");
  for (std::size_t k = 0; k < report.top_metrics.size(); ++k) {
    const IncidentMetricRank& rank = report.top_metrics[k];
    std::fprintf(f, "%s\n    {\"metric\": %zu, \"name\": \"", k ? "," : "",
                 rank.metric);
    json_escape(f, rank.name);
    std::fprintf(f, "\", \"wmse\": %.6f, \"share\": %.4f}", rank.wmse,
                 rank.share);
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"top_nodes\": [");
  for (std::size_t k = 0; k < report.top_nodes.size(); ++k) {
    const IncidentNodeRank& rank = report.top_nodes[k];
    std::fprintf(f,
                 "%s\n    {\"node\": %zu, \"flagged\": %zu, \"score\": %.6f}",
                 k ? "," : "", rank.node, rank.flagged_points,
                 rank.total_score);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace ns
