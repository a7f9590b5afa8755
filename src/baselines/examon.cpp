#include "baselines/examon.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "nn/autoencoder.hpp"
#include "nn/optim.hpp"

namespace ns {

DetectorReport Examon::run(const MtsDataset& processed,
                           std::size_t train_end) {
  DetectorReport report;
  const std::size_t N = processed.num_nodes();
  const std::size_t T = processed.num_timestamps();
  const std::size_t M = processed.num_metrics();
  report.detections.assign(N, NodeDetection{});

  // One autoencoder per node (this per-node cost is what NodeSentry's
  // cluster-shared models amortize away).
  std::vector<double> train_seconds(N, 0.0), detect_seconds(N, 0.0);
  parallel_for(0, N, [&](std::size_t n) {
    Stopwatch train_sw;
    Rng rng(config_.seed ^ (n * 0x9E3779B97F4A7C15ull + 11));
    DenseAutoencoder ae(M, config_.hidden, config_.bottleneck, rng);
    Adam optimizer(ae.parameters(), config_.learning_rate);
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
      for (std::size_t begin = 0; begin < train_end;
           begin += config_.batch_rows) {
        const std::size_t end = std::min(train_end, begin + config_.batch_rows);
        if (end - begin < 2) continue;
        Tensor x(Shape{end - begin, M});
        for (std::size_t t = begin; t < end; ++t)
          for (std::size_t m = 0; m < M; ++m)
            x.at(t - begin, m) = processed.nodes[n].values[m][t];
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
    const std::size_t chunk = 256;
    for (std::size_t begin = train_end; begin < T; begin += chunk) {
      const std::size_t end = std::min(T, begin + chunk);
      Tensor x(Shape{end - begin, M});
      for (std::size_t t = begin; t < end; ++t)
        for (std::size_t m = 0; m < M; ++m)
          x.at(t - begin, m) = processed.nodes[n].values[m][t];
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
