// IncidentEngine (DESIGN.md §15): grouping semantics on hand-built serve
// results, WMSE metric ranking from recorded attribution, the end-to-end
// ground-truth recall/attribution contract on injected correlated faults,
// and the bitwise-neutrality of enabling attribution.
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/nodesentry.hpp"
#include "correlate/incident.hpp"
#include "serve/fleet.hpp"
#include "serve/replay.hpp"
#include "sim/correlated_faults.hpp"
#include "sim/dataset_builder.hpp"

namespace ns {
namespace {

ServeResult make_result(std::size_t nodes, std::size_t T) {
  ServeResult result;
  result.timeline_end = T;
  result.detections.resize(nodes);
  for (NodeDetection& det : result.detections) {
    det.scores.assign(T, 0.0f);
    det.predictions.assign(T, 0);
  }
  return result;
}

void flag(ServeResult& result, std::size_t node, std::size_t begin,
          std::size_t end, float score = 1.0f) {
  for (std::size_t t = begin; t < end; ++t) {
    result.detections[node].predictions[t] = 1;
    result.detections[node].scores[t] = score;
  }
}

// ------------------------------------------------------------ grouping

TEST(IncidentGrouping, CoOccurringSameRackEventsFormOneIncident) {
  ServeResult result = make_result(4, 100);
  flag(result, 0, 10, 20, 2.0f);
  flag(result, 1, 14, 24, 1.0f);  // overlaps node 0, same rack (rack 0)
  flag(result, 3, 70, 80, 1.0f);  // far away in time -> separate incident
  obs::Registry registry;
  IncidentConfig config;
  config.rack_size = 4;
  config.registry = &registry;
  const IncidentEngine engine(config);
  const IncidentReport report = engine.build(result, 0);
  ASSERT_EQ(report.incidents.size(), 2u);
  EXPECT_EQ(report.anomaly_events, 3u);
  EXPECT_EQ(report.nodes_flagged, 3u);
  // Severity ranks the two-node incident (score mass 2*10 + 1*10) first.
  const Incident& top = report.incidents[0];
  EXPECT_EQ(top.id, 0u);
  EXPECT_EQ(top.scope, IncidentScope::kRack);
  EXPECT_EQ(top.rack, 0u);
  ASSERT_EQ(top.nodes.size(), 2u);
  EXPECT_EQ(top.nodes[0].node, 0u);  // higher score mass first
  EXPECT_EQ(top.begin, 10u);
  EXPECT_EQ(top.end, 24u);
  EXPECT_EQ(report.incidents[1].scope, IncidentScope::kNode);
  EXPECT_EQ(report.incidents[1].nodes.front().node, 3u);
}

TEST(IncidentGrouping, WindowGapSplitsIncidents) {
  ServeResult result = make_result(2, 200);
  flag(result, 0, 10, 20);
  flag(result, 1, 20 + 17, 20 + 27);  // gap 17 > window 16 -> no link
  obs::Registry registry;
  IncidentConfig config;
  config.window = 16;
  config.rack_size = 8;  // same rack, so only the gap decides
  config.registry = &registry;
  const IncidentEngine engine(config);
  EXPECT_EQ(engine.build(result, 0).incidents.size(), 2u);

  config.window = 17;  // gap == window -> linked
  const IncidentEngine wider(config);
  EXPECT_EQ(wider.build(result, 0).incidents.size(), 1u);
}

TEST(IncidentGrouping, JobLinkCrossesRacks) {
  ServeResult result = make_result(16, 100);
  flag(result, 0, 10, 20);
  flag(result, 9, 12, 22);  // different rack (rack_size 8), same job below
  std::vector<std::vector<JobSpan>> jobs(16);
  jobs[0].push_back(JobSpan{42, 0, 100});
  jobs[9].push_back(JobSpan{42, 0, 100});
  IncidentGroupingMeta meta;
  meta.jobs = &jobs;
  obs::Registry registry;
  IncidentConfig config;
  config.registry = &registry;
  const IncidentEngine engine(config);
  const IncidentReport report = engine.build(result, 0, meta);
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].scope, IncidentScope::kJob);
  EXPECT_EQ(report.incidents[0].job_id, 42);

  // Without job metadata the same flags stay two rack-local incidents.
  EXPECT_EQ(engine.build(result, 0).incidents.size(), 2u);
}

TEST(IncidentGrouping, ArchetypeLinkIsOptIn) {
  ServeResult result = make_result(16, 100);
  flag(result, 0, 10, 20);
  flag(result, 9, 12, 22);  // different rack, different job, same archetype
  std::vector<std::vector<JobSpan>> jobs(16);
  jobs[0].push_back(JobSpan{1, 0, 100});
  jobs[9].push_back(JobSpan{2, 0, 100});
  std::unordered_map<std::int64_t, std::string> archetypes{
      {1, "compute_bound"}, {2, "compute_bound"}};
  IncidentGroupingMeta meta;
  meta.jobs = &jobs;
  meta.job_archetypes = &archetypes;
  obs::Registry registry;
  IncidentConfig config;
  config.registry = &registry;
  const IncidentEngine off(config);
  EXPECT_EQ(off.build(result, 0, meta).incidents.size(), 2u);

  config.link_archetypes = true;
  const IncidentEngine on(config);
  const IncidentReport report = on.build(result, 0, meta);
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].scope, IncidentScope::kArchetype);
  EXPECT_EQ(report.incidents[0].archetype, "compute_bound");
}

TEST(IncidentGrouping, StartTickExcludesWarmupFlags) {
  ServeResult result = make_result(1, 100);
  flag(result, 0, 5, 15);   // before the serving start -> ignored
  flag(result, 0, 60, 70);
  obs::Registry registry;
  IncidentConfig config;
  config.registry = &registry;
  const IncidentEngine engine(config);
  const IncidentReport report = engine.build(result, 50);
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].begin, 60u);
}

TEST(IncidentGrouping, MinNodesDropsSingletonsFromReportAndQueries) {
  ServeResult result = make_result(4, 100);
  flag(result, 0, 10, 20);
  flag(result, 1, 12, 22);
  flag(result, 3, 70, 80, 9.0f);  // loud but alone
  obs::Registry registry;
  IncidentConfig config;
  config.rack_size = 4;
  config.min_nodes = 2;
  config.registry = &registry;
  const IncidentEngine engine(config);
  const IncidentReport report = engine.build(result, 0);
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].nodes.size(), 2u);
  // The fleet-wide queries aggregate reported incidents only.
  for (const IncidentNodeRank& rank : report.top_nodes)
    EXPECT_NE(rank.node, 3u);
}

TEST(IncidentGrouping, EmptyDetectionsYieldEmptyReport) {
  obs::Registry registry;
  IncidentConfig config;
  config.registry = &registry;
  const IncidentEngine engine(config);
  const IncidentReport report = engine.build(make_result(4, 50), 0);
  EXPECT_TRUE(report.incidents.empty());
  EXPECT_EQ(report.anomaly_events, 0u);
  EXPECT_TRUE(report.top_metrics.empty());
  EXPECT_TRUE(report.top_nodes.empty());
}

// ------------------------------------------------------------ attribution

TEST(IncidentMetrics, RanksMetricsByWmseShareOverFlaggedTicks) {
  ServeResult result = make_result(2, 40);
  flag(result, 0, 10, 12, 1.0f);
  flag(result, 1, 11, 13, 1.0f);
  result.attribution.num_metrics = 3;
  result.attribution.contrib.assign(2, std::vector<float>(40 * 3, 0.0f));
  // Node 0: metric 2 dominates its flagged ticks; node 1: metric 0.
  for (std::size_t t = 10; t < 12; ++t) {
    result.attribution.contrib[0][t * 3 + 2] = 0.8f;
    result.attribution.contrib[0][t * 3 + 1] = 0.2f;
  }
  for (std::size_t t = 11; t < 13; ++t) {
    result.attribution.contrib[1][t * 3 + 0] = 0.5f;
    result.attribution.contrib[1][t * 3 + 2] = 0.3f;
  }
  const std::vector<std::string> names{"alpha", "beta", "gamma"};
  IncidentGroupingMeta meta;
  meta.metric_names = &names;
  obs::Registry registry;
  IncidentConfig config;
  config.rack_size = 8;
  config.registry = &registry;
  const IncidentEngine engine(config);
  const IncidentReport report = engine.build(result, 0, meta);
  ASSERT_EQ(report.incidents.size(), 1u);
  const std::vector<IncidentMetricRank>& metrics = report.incidents[0].metrics;
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].metric, 2u);  // 0.8*2 + 0.3*2 = 2.2
  EXPECT_EQ(metrics[0].name, "gamma");
  EXPECT_NEAR(metrics[0].wmse, 2.2, 1e-6);
  EXPECT_EQ(metrics[1].metric, 0u);  // 1.0
  EXPECT_EQ(metrics[2].metric, 1u);  // 0.4
  double total_share = 0.0;
  for (const IncidentMetricRank& rank : metrics) total_share += rank.share;
  EXPECT_NEAR(total_share, 1.0, 1e-9);
  // Global query mirrors the single incident.
  ASSERT_FALSE(report.top_metrics.empty());
  EXPECT_EQ(report.top_metrics[0].metric, 2u);
}

TEST(IncidentMetrics, TopMetricsCapApplies) {
  ServeResult result = make_result(1, 10);
  flag(result, 0, 2, 4);
  result.attribution.num_metrics = 6;
  result.attribution.contrib.assign(1, std::vector<float>(10 * 6, 0.0f));
  for (std::size_t m = 0; m < 6; ++m)
    result.attribution.contrib[0][2 * 6 + m] = 0.1f * static_cast<float>(m + 1);
  obs::Registry registry;
  IncidentConfig config;
  config.top_metrics = 2;
  config.registry = &registry;
  const IncidentEngine engine(config);
  const IncidentReport report = engine.build(result, 0);
  ASSERT_EQ(report.incidents.size(), 1u);
  ASSERT_EQ(report.incidents[0].metrics.size(), 2u);
  EXPECT_EQ(report.incidents[0].metrics[0].metric, 5u);
  EXPECT_EQ(report.incidents[0].metrics[1].metric, 4u);
  EXPECT_EQ(report.top_metrics.size(), 2u);
}

TEST(IncidentMetrics, JsonReportRoundTripsToDisk) {
  ServeResult result = make_result(2, 20);
  flag(result, 0, 5, 8);
  flag(result, 1, 6, 9);
  obs::Registry registry;
  IncidentConfig config;
  config.registry = &registry;
  const IncidentEngine engine(config);
  const IncidentReport report = engine.build(result, 0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ns_incidents_test.json")
          .string();
  ASSERT_TRUE(write_incidents_json(report, path));
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(std::filesystem::file_size(path), 100u);
  std::filesystem::remove(path);
}

// build() is const and pure; concurrent builds on one engine + result
// must be race-free (TSan covers this through the `race` label).
TEST(IncidentConcurrency, ParallelBuildsAgree) {
  ServeResult result = make_result(8, 300);
  for (std::size_t n = 0; n < 8; ++n)
    flag(result, n, 20 + n * 3, 40 + n * 3, 1.0f + static_cast<float>(n));
  obs::Registry registry;
  IncidentConfig config;
  config.registry = &registry;
  const IncidentEngine engine(config);
  std::vector<IncidentReport> reports(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < reports.size(); ++i)
    threads.emplace_back(
        [&, i] { reports[i] = engine.build(result, 0); });
  for (std::thread& t : threads) t.join();
  for (const IncidentReport& report : reports) {
    ASSERT_EQ(report.incidents.size(), reports[0].incidents.size());
    for (std::size_t k = 0; k < report.incidents.size(); ++k) {
      EXPECT_EQ(report.incidents[k].severity,
                reports[0].incidents[k].severity);
      EXPECT_EQ(report.incidents[k].nodes.size(),
                reports[0].incidents[k].nodes.size());
    }
  }
}

// A zero-node fitted library has no standardization profile: the fleet,
// the one serving front, must reject it at construction, not divide by
// zero on the first ingested sample.
TEST(ServeGuards, RejectsUnfittedSentryAtConstruction) {
  NodeSentry sentry{NodeSentryConfig{}};  // never fit -> zero nodes
  EXPECT_THROW(FleetEngine fleet(sentry), ns::InvalidArgument);
}

// ------------------------------------------------------ end-to-end truth

/// One fit + two serve passes shared by every ground-truth expectation —
/// the fixture is the expensive part, the assertions are cheap.
class CorrelatedFaultFixture : public ::testing::Test {
 protected:
  struct State {
    SimDataset sim;
    std::vector<CorrelatedFaultEvent> injected;
    NodeSentry sentry{NodeSentryConfig{}};
    ServeResult reference;  // attribution off
    ServeResult attributed;
    std::vector<std::string> metric_names;
  };

  static State& state() {
    static State* s = [] {
      State* st = new State;
      SimDatasetConfig sim_config = d1_sim_config(0.5, 11);
      sim_config.missing_rate = 0.0;
      sim_config.anomaly_ratio = 0.0;
      st->sim = build_sim_dataset(sim_config);
      st->injected = inject_correlated_faults(st->sim, {});
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
      st->sentry = NodeSentry(config);
      st->sentry.fit(st->sim.data, st->sim.train_end);
      FleetEngine off(st->sentry);
      st->reference =
          serve_replay(off, st->sim.data, st->sim.train_end).result;
      FleetEngine on(st->sentry,
                     FleetConfig{.engine = ServeConfig{.attribution = true}});
      st->attributed =
          serve_replay(on, st->sim.data, st->sim.train_end).result;
      for (const MetricMeta& meta : st->sentry.processed().metrics)
        st->metric_names.push_back(meta.name);
      return st;
    }();
    return *s;
  }

  static IncidentReport correlate(const ServeResult& result,
                                  obs::Registry& registry) {
    State& s = state();
    static std::unordered_map<std::int64_t, std::string> archetypes = [] {
      std::unordered_map<std::int64_t, std::string> m;
      for (const SchedJob& job : state().sim.sched_jobs)
        m.emplace(job.job_id, workload_name(job.type));
      return m;
    }();
    IncidentGroupingMeta meta;
    meta.jobs = &s.sim.data.jobs;
    meta.job_archetypes = &archetypes;
    meta.metric_names = &s.metric_names;
    IncidentConfig config;
    config.registry = &registry;
    const IncidentEngine engine(config);
    return engine.build(result, s.sim.train_end, meta);
  }
};

TEST_F(CorrelatedFaultFixture, AttributionLeavesDetectionsBitwiseUnchanged) {
  State& s = state();
  ASSERT_EQ(s.reference.detections.size(), s.attributed.detections.size());
  for (std::size_t n = 0; n < s.reference.detections.size(); ++n) {
    const NodeDetection& a = s.reference.detections[n];
    const NodeDetection& b = s.attributed.detections[n];
    ASSERT_EQ(a.scores.size(), b.scores.size());
    for (std::size_t t = 0; t < a.scores.size(); ++t)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a.scores[t]),
                std::bit_cast<std::uint32_t>(b.scores[t]))
          << "node " << n << " t " << t;
    ASSERT_EQ(a.predictions, b.predictions);
  }
  EXPECT_FALSE(s.reference.attribution.enabled());
  ASSERT_TRUE(s.attributed.attribution.enabled());
  // Attribution rows sum back to the score (one pass writes both).
  const std::size_t M = s.attributed.attribution.num_metrics;
  std::size_t checked = 0;
  for (std::size_t n = 0; n < s.attributed.detections.size(); ++n) {
    const std::vector<float>& plane = s.attributed.attribution.contrib[n];
    const std::vector<float>& scores = s.attributed.detections[n].scores;
    for (std::size_t t = s.sim.train_end;
         t < scores.size() && (t + 1) * M <= plane.size(); ++t) {
      if (scores[t] == 0.0f) continue;
      double sum = 0.0;
      for (std::size_t m = 0; m < M; ++m)
        sum += static_cast<double>(plane[t * M + m]);
      ASSERT_NEAR(sum, static_cast<double>(scores[t]),
                  1e-3 * (1.0 + std::abs(static_cast<double>(scores[t]))))
          << "node " << n << " t " << t;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(CorrelatedFaultFixture, GroupsInjectedScenarioIntoOneIncident) {
  State& s = state();
  const CorrelatedFaultEvent* rack = nullptr;
  for (const CorrelatedFaultEvent& event : s.injected)
    if (event.kind == CorrelatedFaultKind::kRackNetworkPartition)
      rack = &event;
  ASSERT_NE(rack, nullptr) << "no observable rack partition placement";
  ASSERT_GE(rack->nodes.size(), 2u);
  obs::Registry registry;
  const IncidentReport report = correlate(s.attributed, registry);
  std::size_t best_hit = 0;
  const Incident* best = nullptr;
  for (const Incident& incident : report.incidents) {
    std::size_t hit = 0;
    for (const std::size_t node : rack->nodes)
      for (const IncidentNodeRank& rank : incident.nodes)
        if (rank.node == node) {
          ++hit;
          break;
        }
    if (hit > best_hit) {
      best_hit = hit;
      best = &incident;
    }
  }
  ASSERT_NE(best, nullptr);
  EXPECT_GE(static_cast<double>(best_hit) /
                static_cast<double>(rack->nodes.size()),
            0.9)
      << "only " << best_hit << "/" << rack->nodes.size()
      << " partitioned nodes grouped together";
  // The injected root cause (network collapse) must rank in the top-3
  // WMSE contributors of that incident.
  ASSERT_FALSE(best->metrics.empty());
  bool root_in_top3 = false;
  for (std::size_t k = 0; k < best->metrics.size() && k < 3; ++k) {
    const std::string& name = best->metrics[k].name;
    if (name.rfind("network_receive", 0) == 0 ||
        name.rfind("network_transmit", 0) == 0)
      root_in_top3 = true;
  }
  EXPECT_TRUE(root_in_top3)
      << "top metric was " << best->metrics.front().name;
  // Obs instruments fired.
  EXPECT_GT(registry.counter("ns_correlate_incidents_total", "").value(), 0u);
}

// Four shards give the one-shard run's attribution planes, bit for bit.
TEST_F(CorrelatedFaultFixture, FleetAttributionMatchesLoneEngineBitwise) {
  State& s = state();
  FleetConfig config;
  config.shards = 4;
  config.engine.attribution = true;
  FleetEngine fleet(s.sentry, config);
  const ServeResult result =
      serve_replay(fleet, s.sim.data, s.sim.train_end).result;
  ASSERT_TRUE(result.attribution.enabled());
  ASSERT_EQ(result.attribution.num_metrics,
            s.attributed.attribution.num_metrics);
  ASSERT_EQ(result.attribution.contrib.size(),
            s.attributed.attribution.contrib.size());
  for (std::size_t n = 0; n < result.attribution.contrib.size(); ++n) {
    const std::vector<float>& a = result.attribution.contrib[n];
    const std::vector<float>& b = s.attributed.attribution.contrib[n];
    ASSERT_EQ(a.size(), b.size()) << "node " << n;
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
                std::bit_cast<std::uint32_t>(b[i]))
          << "node " << n << " idx " << i;
  }
}

}  // namespace
}  // namespace ns
