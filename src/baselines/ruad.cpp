#include "baselines/ruad.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "nn/lstm.hpp"
#include "nn/optim.hpp"

namespace ns {
namespace {

Tensor window_tokens(const MtsDataset& dataset, std::size_t node,
                     std::size_t begin, std::size_t end) {
  const std::size_t M = dataset.num_metrics();
  Tensor x(Shape{end - begin, M});
  for (std::size_t t = begin; t < end; ++t)
    for (std::size_t m = 0; m < M; ++m)
      x.at(t - begin, m) = dataset.nodes[node].values[m][t];
  return x;
}

}  // namespace

DetectorReport Ruad::run(const MtsDataset& processed, std::size_t train_end) {
  DetectorReport report;
  const std::size_t N = processed.num_nodes();
  const std::size_t T = processed.num_timestamps();
  const std::size_t M = processed.num_metrics();
  const std::size_t W = config_.window;
  report.detections.assign(N, NodeDetection{});

  std::vector<double> train_seconds(N, 0.0), detect_seconds(N, 0.0);
  parallel_for(0, N, [&](std::size_t n) {
    Stopwatch train_sw;
    Rng rng(config_.seed ^ (n * 0x9E3779B97F4A7C15ull + 23));
    LstmAutoencoder ae(M, config_.hidden, rng);
    Adam optimizer(ae.parameters(), config_.learning_rate);

    // Sliding training windows, subsampled to the per-node cap.
    std::vector<std::size_t> starts;
    for (std::size_t begin = 0; begin + W <= train_end;
         begin += config_.train_stride)
      starts.push_back(begin);
    if (starts.size() > config_.max_windows_per_node) {
      std::vector<std::size_t> kept;
      const double step = static_cast<double>(starts.size()) /
                          static_cast<double>(config_.max_windows_per_node);
      for (std::size_t i = 0; i < config_.max_windows_per_node; ++i)
        kept.push_back(starts[static_cast<std::size_t>(i * step)]);
      starts = std::move(kept);
    }
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
      for (std::size_t begin : starts) {
        const Tensor x = window_tokens(processed, n, begin, begin + W);
        optimizer.zero_grad();
        Var loss = vmse_loss(ae.forward(Var::constant(x)), x);
        loss.backward();
        optimizer.step();
      }
    }
    train_seconds[n] = train_sw.elapsed_s();

    Stopwatch detect_sw;
    NodeDetection& det = report.detections[n];
    det.scores.assign(T, 0.0f);
    for (std::size_t begin = train_end; begin < T; begin += W) {
      const std::size_t end = std::min(T, begin + W);
      if (end - begin < 4) break;
      const Tensor x = window_tokens(processed, n, begin, end);
      const Var out = ae.forward(Var::constant(x));
      for (std::size_t t = begin; t < end; ++t) {
        double err = 0.0;
        for (std::size_t m = 0; m < M; ++m) {
          const double d = out.value().at(t - begin, m) - x.at(t - begin, m);
          err += d * d;
        }
        det.scores[t] = static_cast<float>(err / static_cast<double>(M));
      }
    }
    det.predictions = baseline_threshold(det.scores, train_end);
    detect_seconds[n] = detect_sw.elapsed_s();
  });
  for (std::size_t n = 0; n < N; ++n) {
    report.train_seconds += train_seconds[n];
    report.detect_seconds += detect_seconds[n];
  }
  return report;
}

}  // namespace ns
