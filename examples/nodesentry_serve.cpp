// nodesentry_serve — online serving front end: fit (or warm-start from a
// checkpoint), then replay the test region through a FleetEngine (one
// shard unless --shards says more) the way a live collector would deliver
// it, and report streaming statistics. All serving
// flags funnel into one ServeSessionConfig (serve/session.hpp) — the CLI
// only parses, the session wires.
//
//   nodesentry_serve [--data-dir <dir>] [--preset d1|d2|deploy] [--seed N]
//       [--scale F] [--train-fraction F] [--train-end N] [--epochs N]
//       [--checkpoint <dir>] [--restore]
//       [--store-dir <dir>] [--from-store]
//       [--shards N] [--ring-capacity N]
//       [--speedup F] [--threads N] [--batch-tokens N] [--slack N]
//       [--late-prob P] [--max-delay N]
//       [--generations G] [--consensus Q] [--retrain-every MS]
//       [--out-dir <dir>] [--verify] [--incidents-out <file>]
//       [--metrics-out <prefix>] [--metrics-every N] [--trace-out <file>]
//
//   --data-dir      load a CSV dataset instead of simulating one
//   --restore       warm-start from --checkpoint instead of fitting (and
//                   from its generation sets, when the checkpointed run
//                   saved them)
//   --store-dir     seal every served sample (with its in-band anomaly and
//                   validity bits) into an embedded time-series store at
//                   this directory; the train region is bulk-imported so a
//                   later --from-store run has the full timeline
//   --from-store    rebuild the replay dataset from --store-dir segments
//                   instead of CSV re-reads / simulation (read-only: the
//                   store is not rewritten); pair with --restore for a
//                   fully warm restart
//   --train-end     explicit train/test split tick for --data-dir or
//                   --from-store runs (0 = use --train-fraction)
//   --shards        serve through N consistent-hashed engine shards (1 =
//                   bitwise the classic single engine)
//   --ring-capacity per-shard SPSC ingest ring capacity (samples)
//   --speedup       pace replay at F x real time (0 = as fast as possible)
//   --strict-replay score through the canonical model forwards (bitwise
//                   identical to batch detect) instead of the default
//                   quantized fast path (DESIGN.md §16). Implied by
//                   --verify, whose equivalence check is a bitwise
//                   contract; detection quality is equivalent either way
//                   (flags can only differ for scores already within
//                   rounding distance of the k-sigma threshold)
//   --verify        also run batch detect() and report the max score delta
//   --metrics-out   write <prefix>.prom (Prometheus text) + <prefix>.json
//                   snapshots of the shared metrics registry (fit stages +
//                   serve ingest/match/score histograms)
//   --metrics-every also refresh the snapshots every N streamed samples
//   --trace-out     JSONL span trace (one line per match/score span)
//   --generations   serve G rolling model generations per cluster through
//                   the generation registry (1..8; default 1)
//   --consensus     flag a point when >= Q of the live generations agree
//                   (1..G; default 1)
//   --retrain-every run the background retrainer every MS milliseconds
//                   while the replay streams (0 = no retraining); fresh
//                   matched segments feed it, and each publish hot-swaps
//                   in. It trains with the fit's recipe (learning rate,
//                   train window, batch, denoising, seed) for the fit's
//                   finetune_epochs (4)
//   --incidents-out correlate the run's detections into cross-node
//                   incidents (DESIGN.md §15) and write them as JSON;
//                   turns on per-metric residual attribution so each
//                   incident ranks its metrics by WMSE error share
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/nodesentry.hpp"
#include "correlate/incident.hpp"
#include "eval/metrics.hpp"
#include "io/csv.hpp"
#include "io/dataset_io.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "serve/model_registry.hpp"
#include "serve/session.hpp"
#include "sim/dataset_builder.hpp"
#include "store/query.hpp"
#include "store/writer.hpp"
#include "tensor/kernels.hpp"

namespace {

using namespace ns;

const char* arg_value(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return fallback;
}

bool arg_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

void print_latency(const char* stage, const LatencySummary& lat) {
  std::printf("  %-8s p50 %7.3f ms   p90 %7.3f ms   p99 %7.3f ms   "
              "max %7.3f ms   (%zu samples)\n",
              stage, lat.p50_ms, lat.p90_ms, lat.p99_ms, lat.max_ms,
              lat.count);
}

}  // namespace

int main(int argc, char** argv) {
  if (arg_flag(argc, argv, "--help") || arg_flag(argc, argv, "-h")) {
    std::fprintf(stderr,
                 "usage: nodesentry_serve [--data-dir DIR] [--preset "
                 "d1|d2|deploy] [--seed N]\n"
                 "  [--scale F] [--train-fraction F] [--train-end N] "
                 "[--epochs N]\n"
                 "  [--checkpoint DIR] [--restore] [--store-dir DIR] "
                 "[--from-store]\n"
                 "  [--shards N] [--ring-capacity N] [--speedup F] "
                 "[--threads N]\n"
                 "  [--batch-tokens N] [--slack N] [--late-prob P] "
                 "[--max-delay N]\n"
                 "  [--generations G] [--consensus Q] [--retrain-every MS]\n"
                 "  [--out-dir DIR] [--strict-replay] [--verify] "
                 "[--incidents-out FILE]\n"
                 "  [--metrics-out PREFIX] [--metrics-every N] "
                 "[--trace-out FILE]\n");
    return 2;
  }

  const char* trace_out = arg_value(argc, argv, "--trace-out", "");
  if (trace_out[0] != '\0') {
    obs::TraceLog::global().open(trace_out);
    std::printf("tracing spans to %s\n", trace_out);
  }

  // ---- Data: rebuild from store segments, load a CSV tree, or simulate
  // one of the paper's datasets.
  MtsDataset dataset;
  std::size_t train_end = 0;
  // job id -> workload archetype, for incident grouping (sim runs only —
  // CSV/store datasets don't carry archetypes).
  std::unordered_map<std::int64_t, std::string> job_archetypes;
  const char* data_dir = arg_value(argc, argv, "--data-dir", "");
  const char* store_dir = arg_value(argc, argv, "--store-dir", "");
  const bool from_store = arg_flag(argc, argv, "--from-store");
  const std::uint64_t seed =
      std::strtoull(arg_value(argc, argv, "--seed", "33"), nullptr, 10);
  const std::size_t train_end_arg = static_cast<std::size_t>(
      std::strtoull(arg_value(argc, argv, "--train-end", "0"), nullptr, 10));
  const double train_fraction =
      std::atof(arg_value(argc, argv, "--train-fraction", "0.6"));
  if (from_store) {
    if (store_dir[0] == '\0') {
      std::fprintf(stderr, "--from-store needs --store-dir <dir>\n");
      return 2;
    }
    // Warm restart path: the segment files are the replay source — no CSV
    // re-read. The rebuilt values are the stored bit patterns, so a
    // subsequent restore + replay reproduces the CSV run's detections.
    const TimeSeriesStore store = TimeSeriesStore::open(store_dir);
    dataset = store_to_dataset(store, 0, store.end_tick());
    train_end = train_end_arg > 0
                    ? train_end_arg
                    : static_cast<std::size_t>(
                          train_fraction *
                          static_cast<double>(dataset.num_timestamps()));
    std::printf("rebuilt dataset from store %s: %zu nodes x %zu metrics x "
                "%zu steps (%.1f KiB sealed; train/test split at %zu)\n",
                store_dir, dataset.num_nodes(), dataset.num_metrics(),
                dataset.num_timestamps(),
                static_cast<double>(store.sealed_bytes()) / 1024.0,
                train_end);
  } else if (data_dir[0] != '\0') {
    dataset = load_dataset(data_dir);
    train_end = train_end_arg > 0
                    ? train_end_arg
                    : static_cast<std::size_t>(
                          train_fraction *
                          static_cast<double>(dataset.num_timestamps()));
  } else {
    const std::string preset = arg_value(argc, argv, "--preset", "deploy");
    const double scale = std::atof(arg_value(argc, argv, "--scale", "1.0"));
    SimDatasetConfig sim_config =
        preset == "d1"   ? d1_sim_config(scale, seed)
        : preset == "d2" ? d2_sim_config(scale, seed)
                         : deployment_sim_config(seed);
    const SimDataset sim = build_sim_dataset(sim_config);
    dataset = sim.data;
    train_end = sim.train_end;
    for (const SchedJob& job : sim.sched_jobs)
      job_archetypes.emplace(job.job_id, workload_name(job.type));
    std::printf("simulated %s: %zu nodes x %zu metrics x %zu steps "
                "(train/test split at %zu)\n",
                preset.c_str(), dataset.num_nodes(), dataset.num_metrics(),
                dataset.num_timestamps(), train_end);
  }

  // ---- Model: fit, or warm-start from a checkpoint written earlier.
  NodeSentryConfig config;
  config.train_epochs = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--epochs", "10")));
  config.learning_rate = 3e-3f;
  config.incremental_updates = false;  // serving never mutates the library
  const char* checkpoint = arg_value(argc, argv, "--checkpoint", "");
  NodeSentry sentry(config);
  if (arg_flag(argc, argv, "--restore")) {
    if (checkpoint[0] == '\0') {
      std::fprintf(stderr, "--restore needs --checkpoint <dir>\n");
      return 2;
    }
    sentry.restore(dataset, train_end, checkpoint);
    std::printf("warm-started %zu clusters from %s\n",
                sentry.library().size(), checkpoint);
  } else {
    NodeSentryConfig fit_config = config;
    fit_config.checkpoint_dir = checkpoint;
    sentry = NodeSentry(fit_config);
    const auto fit = sentry.fit(dataset, train_end);
    std::printf("trained %zu segments -> %zu clusters in %.1f s\n",
                fit.num_segments, fit.num_clusters, fit.total_seconds);
    if (checkpoint[0] != '\0')
      std::printf("checkpointed to %s (restart with --restore)\n",
                  checkpoint);
  }

  // ---- Serve: every serving flag folds into one ServeSessionConfig; the
  // session owns the wiring (backend, generations, retrainer, store).
  ServeSessionConfig session_config;
  ServeConfig& engine = session_config.fleet.engine;
  engine.threads = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--threads", "0")));
  engine.max_batch_tokens = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--batch-tokens", "384")));
  engine.reorder_slack = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--slack", "8")));
  session_config.fleet.shards = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--shards", "1")));
  session_config.fleet.ring_capacity = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--ring-capacity", "4096")));
  // The deployment default is the quantized fast path; --strict-replay
  // opts back into canonical (bitwise-replayable) forwards, and --verify
  // implies it because its batch-equivalence check is a bitwise contract.
  const bool strict_replay = arg_flag(argc, argv, "--strict-replay") ||
                             arg_flag(argc, argv, "--verify");
  engine.scoring_path =
      strict_replay ? ScoringPath::kStrict : ScoringPath::kQuantized;
  std::printf("scoring path: %s (kernel tier %s)\n",
              strict_replay ? "strict (canonical kernels)"
                            : "quantized int8 + relaxed kernels",
              kernel_tier_name(kernel_dispatch_tier()));

  engine.generations = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--generations", "1")));
  engine.consensus_quorum = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--consensus", "1")));
  session_config.generations.retrain_every_ms = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--retrain-every", "0")));
  // Generations ride the serve checkpoint flow (DESIGN.md §12): a warm
  // start restores the rolling generation sets saved by the previous run
  // instead of re-seeding every lane from the library.
  const std::filesystem::path generations_dir =
      std::filesystem::path(checkpoint) / "generations";
  if (arg_flag(argc, argv, "--restore") &&
      std::filesystem::exists(generations_dir))
    session_config.generations.restore_dir = generations_dir.string();
  std::printf("consensus scoring: G=%zu Q=%zu%s%s\n",
              engine.generations,
              engine.consensus_quorum,
              session_config.generations.restore_dir.empty()
                  ? ""
                  : ", generations restored",
              session_config.generations.retrain_every_ms > 0
                  ? ", background retrainer on"
                  : "");
  // Embedded store (DESIGN.md §13): seal every served sample with its
  // in-band anomaly/validity bits. --from-store replays read-only.
  if (store_dir[0] != '\0' && !from_store) {
    session_config.store.dir = store_dir;
    std::printf("sealing served samples into %s\n", store_dir);
  }
  session_config.replay.speedup =
      std::atof(arg_value(argc, argv, "--speedup", "0"));
  session_config.replay.jitter.late_probability =
      std::atof(arg_value(argc, argv, "--late-prob", "0"));
  session_config.replay.jitter.max_delay = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--max-delay", "0")));
  session_config.replay.jitter.seed = seed;
  session_config.metrics.out_prefix = arg_value(argc, argv, "--metrics-out", "");
  session_config.metrics.every = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--metrics-every", "0")));
  const char* incidents_out = arg_value(argc, argv, "--incidents-out", "");
  // Incident metric ranking needs the per-metric WMSE split recorded
  // during scoring; the terms never feed the scores, so detections stay
  // bitwise identical.
  if (incidents_out[0] != '\0') engine.attribution = true;

  ServeSession session(sentry, dataset, train_end, session_config);
  if (session.num_shards() > 1)
    std::printf("fleet serving: %zu shards, ring capacity %zu\n",
                session.num_shards(), session_config.fleet.ring_capacity);
  const ReplayReport report = session.run();
  const ServeStats& stats = report.result.stats;

  std::printf("\nstreamed %zu samples in %.2f s (%.0f samples/s)\n",
              report.samples_streamed, report.ingest_seconds,
              report.samples_per_second);
  std::printf("segments: %zu opened, %zu matched, %zu fell back, "
              "%zu insufficient, %zu too short\n",
              stats.segments_opened, stats.segments_matched,
              stats.segments_unmatched, stats.segments_insufficient,
              stats.segments_too_short);
  std::printf("scoring: %zu points in %zu chunks over %zu batched forwards "
              "(%.2f chunks/batch), %zu dropped units, max queue %zu\n",
              stats.points_scored, stats.chunks_scored, stats.batches_run,
              stats.mean_batch_occupancy, stats.units_dropped,
              stats.max_queue_depth);
  if (stats.samples_out_of_order + stats.samples_dropped_late +
          stats.gap_rows_filled >
      0)
    std::printf("stream faults: %zu out-of-order, %zu dropped late, "
                "%zu gap rows filled, %zu cells masked\n",
                stats.samples_out_of_order, stats.samples_dropped_late,
                stats.gap_rows_filled, stats.cells_masked);
  if (stats.ring_stalls > 0)
    std::printf("fleet: %zu producer stalls on full ingest rings\n",
                stats.ring_stalls);
  print_latency("ingest", stats.ingest_latency);
  print_latency("match", stats.match_latency);
  print_latency("score", stats.score_latency);
  std::printf("consensus: %zu points voted, %zu disagreements "
              "(%.2f%% of voted points)\n",
              stats.consensus_points, stats.consensus_disagreements,
              stats.consensus_points > 0
                  ? 100.0 * static_cast<double>(stats.consensus_disagreements) /
                        static_cast<double>(stats.consensus_points)
                  : 0.0);
  if (session.retrainer())
    std::printf("retrainer: %llu cycles run during the replay "
                "(%llu segments offered)\n",
                static_cast<unsigned long long>(session.retrainer()->cycles()),
                static_cast<unsigned long long>(
                    session.retrainer()->segments_offered()));
  if (checkpoint[0] != '\0') {
    session.save_generations(checkpoint);
    std::printf("generation sets checkpointed to %s\n",
                generations_dir.c_str());
  }

  // ---- Seal the store and audit it with the in-band-bit queries.
  if (session.store_writer() != nullptr) {
    StoreWriter* store_writer = session.store_writer();
    store_writer->drain();
    const TimeSeriesStore& store = store_writer->store();
    const AnomalyRateResult rate =
        store_anomaly_rate(store, train_end, store.end_tick());
    std::printf("store: %llu samples sealed (%.1f KiB on disk), serve-region "
                "anomaly rate %.4f, invalid fraction %.4f\n",
                static_cast<unsigned long long>(
                    store.stats().samples_appended),
                static_cast<double>(store.sealed_bytes()) / 1024.0,
                rate.rate(), rate.invalid_fraction());
    for (const NodeAnomalyRate& top : store_top_anomalous_nodes(
             store, 3, train_end, store.end_tick()))
      std::printf("  top: %-12s rate %.4f (%zu/%zu samples)\n",
                  top.node_name.c_str(), top.rate.rate(), top.rate.anomalous,
                  top.rate.samples);
    const StoreDelta store_delta = compare_detections_with_store(
        report.result.detections, store, train_end);
    std::printf("store vs detections: %zu samples compared, %zu flag "
                "mismatches\n",
                store_delta.samples_compared, store_delta.flag_mismatches);
  }

  // The session already refreshed the exposition files after the replay.
  if (!session_config.metrics.out_prefix.empty())
    std::printf("metrics written to %s.prom / %s.json\n",
                session_config.metrics.out_prefix.c_str(),
                session_config.metrics.out_prefix.c_str());

  // ---- Export flagged intervals under the output directory.
  const std::string out_dir =
      arg_value(argc, argv, "--out-dir", "nodesentry_out");
  std::filesystem::create_directories(out_dir);
  const std::string out_csv =
      (std::filesystem::path(out_dir) / "serve_detections.csv").string();
  std::vector<std::vector<std::string>> rows;
  for (std::size_t n = 0; n < report.result.detections.size(); ++n) {
    const auto& pred = report.result.detections[n].predictions;
    std::size_t t = train_end;
    while (t < pred.size()) {
      if (!pred[t]) {
        ++t;
        continue;
      }
      std::size_t end = t;
      while (end < pred.size() && pred[end]) ++end;
      rows.push_back({dataset.nodes[n].node_name, std::to_string(t),
                      std::to_string(end)});
      t = end;
    }
  }
  write_csv(out_csv, {"node", "begin", "end"}, rows);
  std::printf("%zu anomaly intervals written to %s\n", rows.size(),
              out_csv.c_str());

  // ---- Incident correlation (DESIGN.md §15): group co-occurring node
  // anomalies by job/rack into ranked incidents and write them as JSON.
  if (incidents_out[0] != '\0') {
    std::vector<std::string> metric_names;
    metric_names.reserve(sentry.processed().metrics.size());
    for (const MetricMeta& meta : sentry.processed().metrics)
      metric_names.push_back(meta.name);
    IncidentGroupingMeta meta;
    meta.jobs = &dataset.jobs;
    if (!job_archetypes.empty()) meta.job_archetypes = &job_archetypes;
    meta.metric_names = &metric_names;
    const IncidentEngine incidents_engine;
    const IncidentReport incidents =
        incidents_engine.build(report.result, train_end, meta);
    std::printf("\nincidents: %zu from %zu anomaly events on %zu nodes\n",
                incidents.incidents.size(), incidents.anomaly_events,
                incidents.nodes_flagged);
    for (std::size_t i = 0; i < incidents.incidents.size() && i < 5; ++i) {
      const Incident& incident = incidents.incidents[i];
      std::printf("  #%zu %-9s %zu nodes  [%zu,%zu)  severity %.2f%s%s\n",
                  incident.id, incident_scope_name(incident.scope),
                  incident.nodes.size(), incident.begin, incident.end,
                  incident.severity,
                  incident.metrics.empty() ? "" : "  top metric ",
                  incident.metrics.empty()
                      ? ""
                      : incident.metrics.front().name.c_str());
    }
    if (write_incidents_json(incidents, incidents_out))
      std::printf("incident report written to %s\n", incidents_out);
    else
      std::fprintf(stderr, "failed to write %s\n", incidents_out);
  }

  // ---- Optional equivalence check against the batch path.
  if (arg_flag(argc, argv, "--verify")) {
    const auto batch = sentry.detect();
    const DetectionDelta delta =
        compare_detections(report.result.detections, batch.detections);
    std::printf("vs batch detect(): max |score delta| %.3g, "
                "%zu prediction mismatches\n",
                delta.max_abs_score_delta, delta.prediction_mismatches);
  }
  return 0;
}
