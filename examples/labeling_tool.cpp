// Headless counterpart of the paper's labeling & cluster-adjustment tool
// (artifact A2): generates synthetic node CSVs, runs a reference clusterer,
// produces detector-assisted label suggestions, applies operator-style
// adjustments, and persists every output file the GUI tool would write
// (cluster_result.txt, cluster_adjust.txt, labels/, annotation_history.txt).
#include <cstdio>
#include <filesystem>
#include <utility>

#include "cluster/hac.hpp"
#include "features/extract.hpp"
#include "io/csv.hpp"
#include "labeling/cluster_adjust.hpp"
#include "labeling/label_store.hpp"
#include "core/segments.hpp"
#include "labeling/suggest.hpp"
#include "sim/dataset_builder.hpp"
#include "ts/preprocess.hpp"

int main() {
  using namespace ns;
  namespace fs = std::filesystem;
  const std::string out_dir = "labeling_tool_output";
  fs::create_directories(fs::path(out_dir) / "node_data");

  // 1. Synthetic node CSVs (the artifact ships node_data/ mimicking HPC
  //    node behaviour: timestamp, metric1..metricK).
  SimDatasetConfig sim_config = d2_sim_config(0.5, /*seed=*/5150);
  sim_config.anomaly_ratio = 0.02;
  const SimDataset sim = build_sim_dataset(sim_config);
  const auto pre = preprocess(sim.data, sim.train_end);
  const MtsDataset& data = pre.dataset;
  for (std::size_t n = 0; n < data.num_nodes(); ++n) {
    std::vector<std::string> header{"timestamp"};
    for (std::size_t m = 0; m < data.num_metrics(); ++m)
      header.push_back(data.metrics[m].name);
    std::vector<std::vector<std::string>> rows;
    for (std::size_t t = 0; t < data.num_timestamps(); ++t) {
      std::vector<std::string> row{std::to_string(t)};
      for (std::size_t m = 0; m < data.num_metrics(); ++m)
        row.push_back(format_double(data.nodes[n].values[m][t], 4));
      rows.push_back(std::move(row));
    }
    write_csv((fs::path(out_dir) / "node_data" /
               (data.nodes[n].node_name + ".csv"))
                  .string(),
              header, rows);
  }
  std::printf("wrote %zu node CSVs to %s/node_data\n", data.num_nodes(),
              out_dir.c_str());

  // 2. Built-in reference clustering over job segments (tool module T1).
  NodeSentryConfig core_config;
  const auto segments = training_segments(data, sim.train_end, core_config);
  std::vector<std::vector<float>> features(segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i)
    features[i] =
        extract_segment_features(core_segment_values(data, segments[i]));
  FeatureScaler scaler;
  scaler.fit(features);
  scaler.transform_in_place(features);
  // One distance build, as in fit(): Ward merges on the squared distances
  // and the silhouette reads their square roots.
  DistanceMatrix squared = DistanceMatrix::build(features, true);
  const DistanceMatrix distances = squared.square_roots();
  Hac hac(std::move(squared), Linkage::kWard);
  const auto auto_k = choose_k_by_silhouette(hac, distances, 2,
                                             std::min<std::size_t>(10,
                                                                   segments.size()));
  std::printf("reference clustering: %zu segments -> k=%zu (silhouette %.3f)\n",
              segments.size(), auto_k.k, auto_k.silhouette);

  // 3. Operator adjustments (tool module T3): move a segment, merge two
  //    clusters, persist both the raw and adjusted groupings.
  ClusterAdjustment adjust(features, auto_k.labels);
  if (adjust.num_segments() > 1) adjust.move_segment(0, adjust.labels()[1]);
  if (adjust.num_clusters() > 2) adjust.merge_clusters(1, 0);
  adjust.save((fs::path(out_dir) / "config_files").string());
  std::printf("applied %zu adjustments -> %zu clusters; saved "
              "config_files/cluster_result.txt + cluster_adjust.txt\n",
              adjust.adjustment_count(), adjust.num_clusters());

  // 4. Detector-assisted anomaly suggestions + operator labeling (T2).
  LabelStore store;
  SuggestConfig suggest_config;
  suggest_config.k_sigma = 2.5;
  suggest_config.min_interval = 2;
  std::size_t suggestions = 0;
  for (std::size_t n = 0; n < data.num_nodes(); ++n) {
    const auto intervals =
        suggest_statistical(data, n, sim.train_end, suggest_config);
    for (const auto& iv : intervals) {
      store.add_label(data.nodes[n].node_name, iv.begin, iv.end, "suggested");
      ++suggestions;
    }
  }
  // Operator review: confirm the first suggestion, cancel part of another.
  const auto nodes = store.nodes();
  if (!nodes.empty()) {
    const auto labels = store.labels(nodes.front());
    if (!labels.empty()) {
      store.cancel(nodes.front(), labels.front().begin,
                   labels.front().begin + 1);
    }
  }
  store.save(out_dir);
  std::printf("%zu suggested intervals across %zu nodes; labels + history "
              "saved under %s\n",
              suggestions, store.nodes().size(), out_dir.c_str());
  return 0;
}
