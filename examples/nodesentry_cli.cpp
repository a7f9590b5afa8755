// nodesentry_cli — command-line front end over the public API.
//
//   nodesentry_cli simulate <dir> [--preset d1|d2] [--seed N] [--scale F]
//       [--anomaly-ratio R]
//       Generates a synthetic cluster dataset in the CSV directory layout
//       (see io/dataset_io.hpp). Real deployments assemble the same layout
//       from Prometheus exports + `sacct` job lists.
//
//   nodesentry_cli run <data-dir> [--train-fraction F] [--epochs N]
//       [--save-model <dir>] [--out <results.csv>] [--metrics-out <prefix>]
//       Trains NodeSentry on the first F of the timeline, detects anomalies
//       on the rest, writes per-node anomaly intervals, and — when the
//       dataset ships ground-truth labels — prints point-adjusted metrics.
//       --metrics-out dumps the pipeline-stage metrics registry as
//       <prefix>.prom (Prometheus text) + <prefix>.json.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/nodesentry.hpp"
#include "eval/metrics.hpp"
#include "io/csv.hpp"
#include "io/dataset_io.hpp"
#include "obs/export.hpp"
#include "sim/dataset_builder.hpp"

namespace {

using namespace ns;

const char* arg_value(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return fallback;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: nodesentry_cli simulate <dir> [options]\n");
    return 2;
  }
  const std::string dir = argv[2];
  const std::string preset = arg_value(argc, argv, "--preset", "d2");
  const std::uint64_t seed =
      std::strtoull(arg_value(argc, argv, "--seed", "1"), nullptr, 10);
  const double scale = std::atof(arg_value(argc, argv, "--scale", "1.0"));
  SimDatasetConfig config =
      preset == "d1" ? d1_sim_config(scale, seed) : d2_sim_config(scale, seed);
  config.anomaly_ratio =
      std::atof(arg_value(argc, argv, "--anomaly-ratio", "0.008"));
  const SimDataset sim = build_sim_dataset(config);
  save_dataset(sim.data, dir);
  std::printf("wrote %s: %zu nodes x %zu metrics x %zu steps, %zu jobs, "
              "%zu fault events (train/test split at step %zu)\n",
              dir.c_str(), sim.data.num_nodes(), sim.data.num_metrics(),
              sim.data.num_timestamps(), sim.sched_jobs.size(),
              sim.faults.size(), sim.train_end);
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: nodesentry_cli run <data-dir> [options]\n");
    return 2;
  }
  const MtsDataset dataset = load_dataset(argv[2]);
  const double train_fraction =
      std::atof(arg_value(argc, argv, "--train-fraction", "0.6"));
  const std::size_t train_end = static_cast<std::size_t>(
      train_fraction * static_cast<double>(dataset.num_timestamps()));

  NodeSentryConfig config;
  config.train_epochs = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--epochs", "10")));
  config.learning_rate = 3e-3f;
  NodeSentry sentry(config);
  const auto fit = sentry.fit(dataset, train_end);
  std::printf("trained: %zu segments -> %zu clusters (silhouette %.3f) in "
              "%.1f s\n",
              fit.num_segments, fit.num_clusters, fit.silhouette,
              fit.total_seconds);

  const auto det = sentry.detect();
  std::printf("detected: %zu points scored, %zu matched / %zu unmatched "
              "segments, %.2f s\n",
              det.scored_points, det.segments_matched,
              det.segments_unmatched, det.total_seconds);

  // Export flagged intervals per node (under an output directory by
  // default, so runs do not litter the working tree).
  const std::string out =
      arg_value(argc, argv, "--out", "nodesentry_out/detections.csv");
  const std::filesystem::path out_parent =
      std::filesystem::path(out).parent_path();
  if (!out_parent.empty()) std::filesystem::create_directories(out_parent);
  std::vector<std::vector<std::string>> rows;
  for (std::size_t n = 0; n < dataset.num_nodes(); ++n) {
    const auto& pred = det.detections[n].predictions;
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
  write_csv(out, {"node", "begin", "end"}, rows);
  std::printf("%zu anomaly intervals written to %s\n", rows.size(),
              out.c_str());

  const char* model_dir = arg_value(argc, argv, "--save-model", "");
  if (model_dir[0] != '\0') {
    sentry.library().save(model_dir);
    std::printf("cluster library saved to %s\n", model_dir);
  }

  const char* metrics_out = arg_value(argc, argv, "--metrics-out", "");
  if (metrics_out[0] != '\0') {
    obs::write_metrics_files(obs::Registry::global(), metrics_out);
    std::printf("metrics written to %s.prom / %s.json\n", metrics_out,
                metrics_out);
  }

  // Evaluate against shipped labels when present.
  bool has_labels = false;
  for (const auto& labels : dataset.labels)
    for (auto l : labels) has_labels = has_labels || l;
  if (has_labels) {
    std::vector<std::vector<std::uint8_t>> masks;
    for (std::size_t n = 0; n < dataset.num_nodes(); ++n)
      masks.push_back(evaluation_mask(dataset.jobs[n],
                                      dataset.num_timestamps(), train_end, 4));
    const auto m = aggregate_nodes(det.detections, dataset.labels, masks);
    std::printf("vs ground truth: precision %.3f recall %.3f F1 %.3f "
                "AUC %.3f\n",
                m.precision, m.recall, m.f1, m.auc);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: nodesentry_cli <simulate|run> ...\n"
                 "  simulate <dir> [--preset d1|d2] [--seed N] [--scale F] "
                 "[--anomaly-ratio R]\n"
                 "  run <data-dir> [--train-fraction F] [--epochs N] "
                 "[--save-model <dir>] [--out <csv>] "
                 "[--metrics-out <prefix>]\n");
    return 2;
  }
  if (std::strcmp(argv[1], "simulate") == 0) return cmd_simulate(argc, argv);
  if (std::strcmp(argv[1], "run") == 0) return cmd_run(argc, argv);
  std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
  return 2;
}
