// Fleet-serving bench (DESIGN.md §14): sustained ingest throughput and
// p99 ingest->flag latency versus shard count, on a telemetry stream tiled
// to many copies of the D1-sim node population (node = copy * N_base +
// base_node, interleaved per tick like a real fleet's arrival order).
// Writes BENCH_fleet.json (--json=<path>).
//
// Doubles as a regression gate, twice over:
//   1. Parity (unconditional): a 1-shard FleetEngine and a 4-shard
//      FleetEngine must both reproduce the lone ServeEngine's detections
//      bitwise on clean data.
//   2. Scaling: with >= 8 hardware threads, 8 shards must sustain >= 3x
//      the 1-shard throughput. On smaller machines (this includes 1-core
//      CI boxes, where no thread layout can beat sequential) the gate
//      relaxes to a no-regression floor: 8 shards must keep >= 0.8x of
//      the 1-shard rate, i.e. the fleet machinery itself stays cheap. The
//      JSON records which mode judged the run.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/nodesentry.hpp"
#include "serve/engine.hpp"
#include "serve/fleet.hpp"
#include "serve/replay.hpp"
#include "sim/dataset_builder.hpp"
#include "sim/stream.hpp"

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

/// Clean D1-sim stream: no missing cells, so the fleet arms are exactly
/// comparable (gap-fill paths would add data-dependent noise) and parity
/// can demand bit equality.
SimDataset fleet_dataset() {
  SimDatasetConfig config = d1_sim_config(0.25, 11);
  config.missing_rate = 0.0;
  config.anomaly_ratio = 0.02;
  return build_sim_dataset(config);
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

struct FleetArm {
  std::size_t shards = 0;
  double seconds = 0.0;
  double samples_per_sec = 0.0;
  double p99_ingest_ms = 0.0;
  std::size_t ring_stalls = 0;
  std::size_t samples = 0;
};

/// Streams `tile` interleaved copies of the serve slice through a fleet of
/// `shards` shards at full speed (no pacing) and times ingest+finalize.
FleetArm run_fleet_arm(NodeSentry& sentry, const SimDataset& sim,
                       std::size_t shards, std::size_t tile) {
  const std::size_t base = sim.data.num_nodes();
  FleetConfig config;
  config.shards = shards;
  config.engine.num_nodes = base * tile;
  FleetEngine fleet(sentry, config);

  TelemetryReplaySource source(sim.data, sim.train_end);
  StreamSample sample;
  FleetArm arm;
  arm.shards = shards;
  Stopwatch sw;
  while (source.next(sample)) {
    StreamSample clone = sample;
    for (std::size_t copy = 0; copy < tile; ++copy) {
      clone.node = copy * base + sample.node;
      fleet.ingest(clone);
      ++arm.samples;
    }
  }
  const ServeResult result = fleet.finalize();
  arm.seconds = sw.elapsed_s();
  arm.samples_per_sec =
      arm.seconds > 0.0 ? static_cast<double>(arm.samples) / arm.seconds : 0.0;
  arm.p99_ingest_ms = result.stats.ingest_latency.p99_ms;
  arm.ring_stalls = result.stats.ring_stalls;
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;

  SimDataset sim = fleet_dataset();
  NodeSentry sentry(bench_config());
  sentry.fit(sim.data, sim.train_end);
  const std::size_t base_nodes = sim.data.num_nodes();

  // ---- parity gate (unconditional): fleet bits == lone-engine bits
  ServeEngine lone(sentry);
  const ReplayReport reference = serve_replay(lone, sim.data, sim.train_end);
  bool parity_ok = true;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    FleetConfig config;
    config.shards = shards;
    FleetEngine fleet(sentry, config);
    const ReplayReport rep = serve_replay(fleet, sim.data, sim.train_end);
    const bool same =
        bitwise_equal(rep.result.detections, reference.result.detections);
    std::printf("parity: %zu-shard fleet vs ServeEngine: %s\n", shards,
                same ? "bitwise identical" : "MISMATCH");
    parity_ok = parity_ok && same;
  }

  // ---- throughput vs shard count on a tiled fleet population
  const std::size_t kTile = 10;  // 10x D1-sim nodes in the timed arms
  run_fleet_arm(sentry, sim, 1, 1);  // warm-up (pools, allocator)
  std::vector<FleetArm> arms;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    arms.push_back(run_fleet_arm(sentry, sim, shards, kTile));
    const FleetArm& arm = arms.back();
    std::printf("shards=%zu: %zu samples in %.3f s -> %.0f samples/s, "
                "p99 ingest %.3f ms, ring stalls %zu\n",
                arm.shards, arm.samples, arm.seconds, arm.samples_per_sec,
                arm.p99_ingest_ms, arm.ring_stalls);
  }
  const double speedup = arms.front().samples_per_sec > 0.0
                             ? arms.back().samples_per_sec /
                                   arms.front().samples_per_sec
                             : 0.0;

  // ---- scaling gate: full 3x on real multicore, no-regression floor on
  // boxes that cannot physically show parallel speedup.
  const unsigned cores = std::thread::hardware_concurrency();
  const bool full_gate = cores >= 8;
  const double threshold = full_gate ? 3.0 : 0.8;
  std::printf("scaling: 8 shards at %.2fx of 1 shard (%u hardware threads, "
              "%s gate, threshold %.1fx)\n",
              speedup, cores, full_gate ? "full" : "relaxed", threshold);

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"dataset\": \"%s\",\n", sim.config.name.c_str());
    std::fprintf(f, "  \"base_nodes\": %zu,\n", base_nodes);
    std::fprintf(f, "  \"tile_factor\": %zu,\n", kTile);
    std::fprintf(f, "  \"fleet_nodes\": %zu,\n", base_nodes * kTile);
    std::fprintf(f, "  \"parity_ok\": %s,\n", parity_ok ? "true" : "false");
    std::fprintf(f, "  \"shards\": [");
    for (std::size_t i = 0; i < arms.size(); ++i)
      std::fprintf(f, "%s%zu", i ? ", " : "", arms[i].shards);
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"samples_per_sec\": [");
    for (std::size_t i = 0; i < arms.size(); ++i)
      std::fprintf(f, "%s%.1f", i ? ", " : "", arms[i].samples_per_sec);
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"p99_ingest_ms\": [");
    for (std::size_t i = 0; i < arms.size(); ++i)
      std::fprintf(f, "%s%.3f", i ? ", " : "", arms[i].p99_ingest_ms);
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"ring_stalls\": [");
    for (std::size_t i = 0; i < arms.size(); ++i)
      std::fprintf(f, "%s%zu", i ? ", " : "", arms[i].ring_stalls);
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"speedup_8_shards_vs_1\": %.3f,\n", speedup);
    std::fprintf(f, "  \"hardware_threads\": %u,\n", cores);
    std::fprintf(f, "  \"scaling_gate\": \"%s\",\n",
                 full_gate ? "full" : "relaxed");
    std::fprintf(f, "  \"scaling_threshold\": %.1f\n", threshold);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }

  if (!parity_ok) {
    std::fprintf(stderr, "FAIL: fleet detections diverge from the "
                         "single-engine reference\n");
    return 1;
  }
  if (speedup < threshold) {
    std::fprintf(stderr,
                 "FAIL: 8-shard fleet at %.2fx of 1 shard, below the %s "
                 "gate's %.1fx threshold\n",
                 speedup, full_gate ? "full" : "relaxed", threshold);
    return 1;
  }
  return 0;
}
