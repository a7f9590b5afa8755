// Shared types of the benchmark: command-line arguments, the per-run result
// (metrics by name and unit, operation counts, correctness findings), the
// generated serve load and the public-API calls every workload makes.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/fleet.hpp"
#include "sim/dataset_builder.hpp"
#include "store/writer.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the stores a run writes (inside the checkout); created
  /// before the run and removed after it.
  std::string work_dir;
  /// Process start: the first set-up is timed from here.
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;
  /// Operations attempted / failed (see README.md, "Operation accounting").
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t queries = 0;
  std::uint64_t queries_failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    failures.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Engine shards of every fleet: the bench host's hardware threads, fixed
/// so that a workload is the same on any host.
inline constexpr std::size_t kShards = 4;
/// Set-ups per run; setup_s and fit_s report their median.
inline constexpr std::size_t kSetups = 5;

/// Runs `pass(i)` until --seconds have passed and at least 3 passes ran
/// (medians need 3). Traced runs alternate untraced and traced passes,
/// starting untraced, so that the tracing overhead can be measured.
template <class Pass>
void run_passes(const Args& args, Tracer& tracer, Pass&& pass) {
  constexpr std::size_t kMinPasses = 3;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (std::size_t i = 0; i < kMinPasses || Clock::now() < deadline; ++i) {
    tracer.set_enabled(args.trace && i % 2 == 1);
    Tracer::Scope span(tracer, "pass");
    pass(i);
  }
  tracer.set_enabled(args.trace);
}

/// Prints the quartiles of one metric over a run's passes.
void print_spread(const char* name, const std::vector<double>& per_pass);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Bitwise equality of two nodes' scores and predictions (a shorter
/// timeline counts as zero-padded, like ns::compare_detections).
bool same_detection(const ns::NodeDetection& x, const ns::NodeDetection& y);

/// Point-adjusted F1 of the first sim.data.num_nodes() detections against
/// the simulator's labels, with the benches' transition guards.
double f1_of(const ns::SimDataset& sim,
             const std::vector<ns::NodeDetection>& detections);

// ---------------------------------------------------------------- serve load

/// A served fleet: `copies` tiles of the simulated nodes (population node
/// = copy * base + base_node; a node past the fitted population borrows the
/// standardization profile of node mod base), delivered tick by tick from
/// begin_t. Samples are materialized row-major up front so the producer
/// loop only copies floats.
struct Population {
  std::size_t base = 0;
  std::size_t copies = 0;
  std::size_t begin_t = 0;
  std::size_t ticks = 0;
  std::size_t raw_metrics = 0;
  std::vector<float> rows;          ///< [base][tick][metric]
  std::vector<std::int64_t> jobs;   ///< [base][tick]
  struct Event {
    std::uint32_t node;  ///< population node id
    std::uint32_t tick;  ///< offset from begin_t
  };
  std::vector<Event> events;        ///< delivery order
  /// events[tick_end[i-1] .. tick_end[i]) are delivered during tick i.
  std::vector<std::size_t> tick_end;

  std::size_t nodes() const { return base * copies; }
  const float* row(std::size_t base_node, std::size_t tick) const {
    return rows.data() + (base_node * ticks + tick) * raw_metrics;
  }
};

struct Jitter {
  double late_probability = 0.0;
  std::size_t max_delay = 0;  ///< ticks; must stay below reorder_slack
};

Population make_population(const ns::SimDataset& sim, std::size_t begin_t,
                           std::size_t copies, const Jitter& jitter,
                           std::uint64_t seed);

/// One closed-loop pass of the whole population through a FleetEngine.
struct PassResult {
  ns::ServeResult result;
  std::size_t samples = 0;
  double stream_s = 0.0;    ///< first ingest() to last ingest() returning
  double finalize_s = 0.0;  ///< finalize()
  /// traced passes only: per-call ingest() latency and their sum
  std::vector<double> ingest_call_us;
  double ingest_busy_s = 0.0;
  double shard_skew = 0.0;  ///< max / mean samples per shard
};

/// Streams every event of `pop` into a fresh `fleet`, then finalizes it.
/// Traced passes time each ingest() and record one span per delivered tick.
PassResult serve_pass(ns::FleetEngine& fleet, const Population& pop,
                      Tracer& tracer);

// --------------------------------------------------------------- store reads

struct QueryStats {
  std::vector<double> latency_ms;
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;
  std::uint64_t samples = 0;  ///< summed AnomalyRateResult::samples
  double busy_s = 0.0;
};

/// The fixed, seeded operator query mix over a sealed store: per-node and
/// fleet-wide anomaly rates and top-k anomalous nodes over sliding windows
/// of [begin_t, end_t).
void run_query_mix(const ns::TimeSeriesStore& store, std::size_t begin_t,
                   std::size_t end_t, std::size_t count, std::uint64_t seed,
                   Tracer& tracer, QueryStats& stats);

/// Store schema for a tiled population of `sim`'s nodes.
ns::StoreMeta population_store_meta(const ns::SimDataset& sim,
                                    std::size_t copies);

// ----------------------------------------------------------------- workloads

RunResult run_fleet_steady(const Args& args, Tracer& tracer);
RunResult run_fleet_churn(const Args& args, Tracer& tracer);
RunResult run_offline(const Args& args, Tracer& tracer);

}  // namespace perfbench
