#include "baselines/prodigy.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "nn/autoencoder.hpp"
#include "nn/optim.hpp"

namespace ns {

DetectorReport Prodigy::run(const MtsDataset& processed,
                            std::size_t train_end) {
  DetectorReport report;
  const std::size_t N = processed.num_nodes();
  const std::size_t T = processed.num_timestamps();
  const std::size_t M = processed.num_metrics();
  Stopwatch train_sw;
  Rng rng(config_.seed);

  // Collect a subsampled global pool of training token vectors.
  const std::size_t total_rows = N * train_end;
  const std::size_t stride =
      std::max<std::size_t>(1, total_rows / config_.max_train_rows);
  std::vector<float> pool;
  std::size_t pool_rows = 0;
  for (std::size_t r = 0; r < total_rows; r += stride) {
    const std::size_t n = r / train_end;
    const std::size_t t = r % train_end;
    for (std::size_t m = 0; m < M; ++m)
      pool.push_back(processed.nodes[n].values[m][t]);
    ++pool_rows;
  }

  VariationalAutoencoder vae(M, config_.hidden, config_.latent, rng);
  Adam optimizer(vae.parameters(), config_.learning_rate);
  std::vector<std::size_t> order(
      (pool_rows + config_.batch_rows - 1) / config_.batch_rows);
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (std::size_t batch = 0; batch < order.size(); ++batch) {
      const std::size_t lo = batch * config_.batch_rows;
      const std::size_t hi = std::min(pool_rows, lo + config_.batch_rows);
      if (hi - lo < 2) continue;
      Tensor x(Shape{hi - lo, M},
               std::vector<float>(pool.begin() + static_cast<std::ptrdiff_t>(lo * M),
                                  pool.begin() + static_cast<std::ptrdiff_t>(hi * M)));
      optimizer.zero_grad();
      auto out = vae.forward(Var::constant(x), rng);
      Var loss = VariationalAutoencoder::loss(out, x, config_.kl_beta);
      loss.backward();
      optimizer.step();
    }
  }
  report.train_seconds = train_sw.elapsed_s();

  // Detection: reconstruction error per timestep (mean over stochastic
  // decoder output with a single sample, as in practice).
  Stopwatch detect_sw;
  report.detections.assign(N, NodeDetection{});
  parallel_for(0, N, [&](std::size_t n) {
    Rng node_rng(config_.seed ^ (n * 0x9E3779B97F4A7C15ull + 3));
    NodeDetection& det = report.detections[n];
    det.scores.assign(T, 0.0f);
    const std::size_t chunk = 256;
    for (std::size_t begin = train_end; begin < T; begin += chunk) {
      const std::size_t end = std::min(T, begin + chunk);
      Tensor x(Shape{end - begin, M});
      for (std::size_t t = begin; t < end; ++t)
        for (std::size_t m = 0; m < M; ++m)
          x.at(t - begin, m) = processed.nodes[n].values[m][t];
      const auto out = vae.forward(Var::constant(x), node_rng);
      for (std::size_t t = begin; t < end; ++t) {
        double err = 0.0;
        for (std::size_t m = 0; m < M; ++m) {
          const double d =
              out.reconstruction.value().at(t - begin, m) - x.at(t - begin, m);
          err += d * d;
        }
        det.scores[t] = static_cast<float>(err / static_cast<double>(M));
      }
    }
    det.predictions = baseline_threshold(det.scores, train_end);
  });
  report.detect_seconds = detect_sw.elapsed_s();
  return report;
}

}  // namespace ns
