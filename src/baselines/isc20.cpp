#include "baselines/isc20.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "features/extract.hpp"
#include "features/pca.hpp"

namespace ns {
namespace {

std::vector<float> window_features(const MtsDataset& dataset, std::size_t node,
                                   std::size_t begin, std::size_t end) {
  std::vector<std::vector<float>> values(dataset.num_metrics());
  for (std::size_t m = 0; m < dataset.num_metrics(); ++m)
    values[m].assign(
        dataset.nodes[node].values[m].begin() + static_cast<std::ptrdiff_t>(begin),
        dataset.nodes[node].values[m].begin() + static_cast<std::ptrdiff_t>(end));
  return extract_segment_features(values);
}

}  // namespace

DetectorReport Isc20::run(const MtsDataset& processed, std::size_t train_end) {
  DetectorReport report;
  const std::size_t N = processed.num_nodes();
  const std::size_t T = processed.num_timestamps();
  const std::size_t W = config_.window;
  Stopwatch train_sw;

  // Training features: fixed windows over every node's training region.
  std::vector<std::vector<float>> train_features;
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t begin = 0; begin + W <= train_end;
         begin += config_.stride)
      train_features.push_back(window_features(processed, n, begin, begin + W));

  FeatureScaler scaler;
  scaler.fit(train_features);
  scaler.transform_in_place(train_features);
  Pca pca;
  pca.fit(train_features, 16);
  pca.transform_in_place(train_features);

  Rng rng(config_.seed);
  BayesianGmm gmm(config_.max_components);
  gmm.fit(train_features, rng, config_.em_iterations);
  report.train_seconds = train_sw.elapsed_s();

  // Detection: window Mahalanobis score smeared over the window's points.
  Stopwatch detect_sw;
  report.detections.assign(N, NodeDetection{});
  parallel_for(0, N, [&](std::size_t n) {
    NodeDetection& det = report.detections[n];
    det.scores.assign(T, 0.0f);
    std::vector<float> counts(T, 0.0f);
    for (std::size_t begin = train_end; begin < T;
         begin += config_.stride) {
      const std::size_t end = std::min(T, begin + W);
      if (end - begin < 8) break;
      std::vector<float> f = window_features(processed, n, begin, end);
      f = scaler.transform(f);
      f = pca.transform(f);
      const float score = static_cast<float>(gmm.mahalanobis_score(f));
      for (std::size_t t = begin; t < end; ++t) {
        det.scores[t] += score;
        counts[t] += 1.0f;
      }
    }
    for (std::size_t t = train_end; t < T; ++t)
      if (counts[t] > 0.0f) det.scores[t] /= counts[t];
    det.predictions = baseline_threshold(det.scores, train_end);
  });
  report.detect_seconds = detect_sw.elapsed_s();
  return report;
}

}  // namespace ns
