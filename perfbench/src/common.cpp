#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <exception>
#include <numeric>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "stats.hpp"
#include "store/query.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_spread(const char* name, const std::vector<double>& per_pass) {
  const Quartiles q = quartiles(per_pass);
  std::printf("%s over %zu passes: q1 %.6g, median %.6g, q3 %.6g\n", name,
              per_pass.size(), q.q1, q.q2, q.q3);
}

bool same_detection(const ns::NodeDetection& x, const ns::NodeDetection& y) {
  const std::size_t ts = std::max(x.scores.size(), y.scores.size());
  for (std::size_t t = 0; t < ts; ++t) {
    const float a = t < x.scores.size() ? x.scores[t] : 0.0f;
    const float b = t < y.scores.size() ? y.scores[t] : 0.0f;
    if (std::bit_cast<std::uint32_t>(a) != std::bit_cast<std::uint32_t>(b))
      return false;
  }
  const std::size_t ps = std::max(x.predictions.size(), y.predictions.size());
  for (std::size_t t = 0; t < ps; ++t) {
    const std::uint8_t a = t < x.predictions.size() ? x.predictions[t] : 0;
    const std::uint8_t b = t < y.predictions.size() ? y.predictions[t] : 0;
    if (a != b) return false;
  }
  return true;
}

double f1_of(const ns::SimDataset& sim,
             const std::vector<ns::NodeDetection>& detections) {
  const std::vector<ns::NodeDetection> base(
      detections.begin(),
      detections.begin() + static_cast<std::ptrdiff_t>(sim.data.num_nodes()));
  return ns::bench::evaluate(sim, base).f1;
}

Population make_population(const ns::SimDataset& sim, std::size_t begin_t,
                           std::size_t copies, const Jitter& jitter,
                           std::uint64_t seed) {
  const ns::MtsDataset& data = sim.data;
  Population pop;
  pop.base = data.num_nodes();
  pop.copies = copies;
  pop.begin_t = begin_t;
  pop.ticks = data.num_timestamps() - begin_t;
  pop.raw_metrics = data.num_metrics();
  pop.rows.resize(pop.base * pop.ticks * pop.raw_metrics);
  pop.jobs.assign(pop.base * pop.ticks, 0);
  for (std::size_t b = 0; b < pop.base; ++b) {
    for (std::size_t tick = 0; tick < pop.ticks; ++tick) {
      float* dst = pop.rows.data() + (b * pop.ticks + tick) * pop.raw_metrics;
      for (std::size_t m = 0; m < pop.raw_metrics; ++m)
        dst[m] = data.nodes[b].values[m][begin_t + tick];
    }
    for (const ns::JobSpan& span : data.jobs[b])
      for (std::size_t t = std::max(span.begin, begin_t); t < span.end; ++t)
        pop.jobs[b * pop.ticks + (t - begin_t)] = span.job_id;
  }

  // Delivery order: tick-major, nodes in a seeded order within each tick
  // (collectors report in no fixed order); a late sample is released
  // `delay` ticks after its own tick (stable, so an on-time sample never
  // overtakes an earlier one of the same node).
  struct Pending {
    std::size_t release;
    Population::Event event;
  };
  std::vector<Pending> order;
  order.reserve(pop.nodes() * pop.ticks);
  ns::Rng rng(seed ^ 0x6A177E5ull);
  std::vector<std::size_t> nodes(pop.nodes());
  std::iota(nodes.begin(), nodes.end(), std::size_t{0});
  for (std::size_t tick = 0; tick < pop.ticks; ++tick) {
    for (std::size_t i = nodes.size(); i > 1; --i)
      std::swap(nodes[i - 1], nodes[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    for (const std::size_t node : nodes) {
      std::size_t delay = 0;
      if (jitter.max_delay > 0 && rng.uniform() < jitter.late_probability)
        delay = static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(jitter.max_delay)));
      order.push_back({tick + delay,
                       {static_cast<std::uint32_t>(node),
                        static_cast<std::uint32_t>(tick)}});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.release < b.release;
                   });
  pop.events.reserve(order.size());
  for (const Pending& p : order) {
    while (pop.tick_end.size() < p.release)
      pop.tick_end.push_back(pop.events.size());
    pop.events.push_back(p.event);
  }
  pop.tick_end.push_back(pop.events.size());
  return pop;
}

PassResult serve_pass(ns::FleetEngine& fleet, const Population& pop,
                      Tracer& tracer) {
  constexpr std::size_t kPumpEvery = 256;  // as ns::serve_replay
  PassResult out;
  const bool traced = tracer.enabled();
  if (traced) out.ingest_call_us.reserve(pop.events.size());
  ns::StreamSample sample;
  sample.values.resize(pop.raw_metrics);
  std::size_t e = 0;
  const Clock::time_point start = Clock::now();
  for (const std::size_t stop : pop.tick_end) {
    const std::size_t first = e;
    const double tick_start = traced ? tracer.now() : 0.0;
    for (; e < stop; ++e) {
      const Population::Event ev = pop.events[e];
      const std::size_t b = ev.node % pop.base;
      sample.node = ev.node;
      sample.t = pop.begin_t + ev.tick;
      sample.job_id = pop.jobs[b * pop.ticks + ev.tick];
      const float* src = pop.row(b, ev.tick);
      std::copy(src, src + pop.raw_metrics, sample.values.begin());
      if (traced) {
        const Clock::time_point c0 = Clock::now();
        fleet.ingest(sample);
        const double dt =
            std::chrono::duration<double>(Clock::now() - c0).count();
        out.ingest_call_us.push_back(dt * 1e6);
        out.ingest_busy_s += dt;
      } else {
        fleet.ingest(sample);
      }
      if ((e + 1) % kPumpEvery == 0) fleet.pump();
    }
    if (traced && e > first)
      tracer.record("serve.ingest", tick_start, tracer.now(), e - first);
  }
  out.stream_s = seconds_since(start);
  {
    Tracer::Scope span(tracer, "serve.finalize");
    const Clock::time_point f0 = Clock::now();
    out.result = fleet.finalize();
    out.finalize_s = seconds_since(f0);
  }
  out.samples = pop.events.size();

  std::vector<double> per_shard(fleet.num_shards(), 0.0);
  for (std::size_t node = 0; node < pop.nodes(); ++node)
    per_shard[fleet.placement().shard_for(node)] +=
        static_cast<double>(pop.ticks);
  double mean = 0.0, max = 0.0;
  for (const double s : per_shard) {
    mean += s / static_cast<double>(per_shard.size());
    max = std::max(max, s);
  }
  out.shard_skew = mean > 0.0 ? max / mean : 0.0;
  return out;
}

void run_query_mix(const ns::TimeSeriesStore& store, std::size_t begin_t,
                   std::size_t end_t, std::size_t count, std::uint64_t seed,
                   Tracer& tracer, QueryStats& stats) {
  // 15-minute windows at the 15 s cadence, sliding by 7 ticks per query;
  // 48 in 50 queries ask about one node, 1 about the fleet's rate, 1 for
  // the top-10 anomalous nodes (a fleet-wide query decodes every node's
  // pages, a few hundred times the cost of a node query).
  constexpr std::size_t kWindow = 60;
  constexpr std::size_t kStride = 7;
  constexpr std::size_t kTopK = 10;
  ns::Rng rng(seed ^ 0x9E37ull);
  const std::size_t span =
      end_t > begin_t + kWindow ? end_t - begin_t - kWindow : 1;
  const std::int64_t last_node =
      static_cast<std::int64_t>(store.num_nodes()) - 1;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t first = begin_t + (i * kStride) % span;
    const std::size_t last = std::min(end_t, first + kWindow);
    const std::size_t kind = i % 50;
    const std::size_t node =
        static_cast<std::size_t>(rng.uniform_int(0, last_node));
    const char* name = kind < 48    ? "store.query.node_rate"
                       : kind == 48 ? "store.query.fleet_rate"
                                    : "store.query.top_k";
    Tracer::Scope traced(tracer, name);
    ++stats.issued;
    const Clock::time_point q0 = Clock::now();
    std::size_t samples = 0;
    try {
      if (kind < 48)
        samples = ns::store_anomaly_rate(store, node, first, last).samples;
      else if (kind == 48)
        samples = ns::store_anomaly_rate(store, first, last).samples;
      else
        ns::store_top_anomalous_nodes(store, kTopK, first, last);
    } catch (const std::exception&) {
      ++stats.failed;
    }
    const double dt = seconds_since(q0);
    stats.latency_ms.push_back(dt * 1e3);
    if (kind < 49) {
      stats.samples += samples;
      stats.busy_s += dt;
    }
  }
}

ns::StoreMeta population_store_meta(const ns::SimDataset& sim,
                                    std::size_t copies) {
  ns::StoreMeta meta;
  meta.metrics = sim.data.metrics;
  meta.interval_seconds = sim.data.interval_seconds;
  for (std::size_t copy = 0; copy < copies; ++copy)
    for (std::size_t b = 0; b < sim.data.num_nodes(); ++b) {
      std::string name = std::to_string(copy);
      name.append("-").append(sim.data.nodes[b].node_name);
      meta.node_names.push_back(std::move(name));
    }
  return meta;
}

}  // namespace perfbench
