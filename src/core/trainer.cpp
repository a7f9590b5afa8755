#include "core/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/optim.hpp"
#include "tensor/autograd.hpp"
#include "tensor/kernels.hpp"

namespace ns {

std::vector<TrainChunk> train_chunks(const Tensor& tokens,
                                     std::size_t train_window,
                                     std::size_t segment_id) {
  constexpr std::size_t kMinRows = 4;
  const std::size_t W = std::max(train_window, kMinRows);
  const std::size_t rows = tokens.size(0);
  std::vector<TrainChunk> chunks;
  for (std::size_t start = 0; start + kMinRows <= rows; start += W) {
    const std::size_t stop = std::min(rows, start + W);
    TrainChunk chunk;
    chunk.tokens = slice_rows(tokens, start, stop);
    chunk.offsets.resize(stop - start);
    std::iota(chunk.offsets.begin(), chunk.offsets.end(), start);
    chunk.segment_id = segment_id;
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

TrainStats train_reconstructor(TransformerReconstructor& model,
                               std::span<const TrainChunk> chunks,
                               const Tensor& metric_weights,
                               const TrainOptions& options,
                               std::uint64_t seed) {
  const std::size_t M = metric_weights.numel();
  TrainStats stats;
  if (chunks.empty()) {
    // Degenerate members (too short to chunk): neutral scoring statistics.
    stats.residual_scale = Tensor::ones(Shape{M});
    stats.baseline_error = 1.0;
    return stats;
  }
  for (const TrainChunk& chunk : chunks)
    NS_REQUIRE(chunk.tokens.size(1) == M,
               "train chunk has " << chunk.tokens.size(1) << " metrics, "
                                  << "weights have " << M);

  Rng rng(seed);
  Adam optimizer(model.parameters(), options.learning_rate);

  // ---- Batched mini-batch training: B chunks per Adam step, packed into
  // one block-diagonal forward (attention never crosses a chunk boundary,
  // every other stage is per-token). The loss is the WMSE over the whole
  // batch, so the step follows the batch-mean gradient; at B == 1 the RNG
  // stream, the forward graph and the loss reduce exactly to the classic
  // one-step-per-chunk trainer, bit for bit. At B > 1 the optimizer
  // trajectory intentionally differs (B stochastic steps collapse into one
  // averaged step) — Adam's per-parameter normalization keeps the step
  // scale comparable; detection quality is validated end-to-end in tests.
  const std::size_t B = std::max<std::size_t>(options.batch, 1);
  // The batched trainer also opts into the fast kernel variants: training at
  // B > 1 already follows a different (equally valid) optimizer trajectory,
  // so it owes no bitwise reproduction of the classic kernel — while B == 1
  // keeps the canonical kernel and stays bit-identical to the classic
  // trainer. The scope ends before the residual-statistics pass, which is
  // batch-size-invariant and must stay on the canonical kernel.
  std::optional<FastKernelScope> fast_kernels;
  if (B > 1) fast_kernels.emplace();
  std::vector<std::size_t> order(chunks.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> seg_ids;
  std::vector<std::size_t> block_lens;
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    // Fisher–Yates shuffle for stochastic chunk order.
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    for (std::size_t base = 0; base < order.size(); base += B) {
      const std::size_t stop = std::min(order.size(), base + B);
      std::size_t rows = 0;
      for (std::size_t i = base; i < stop; ++i)
        rows += chunks[order[i]].tokens.size(0);
      // Assemble the batch: clean targets and corrupted inputs stacked
      // row-wise. Denoising corruption (additive Gaussian noise plus
      // whole-token drops) draws in chunk order, so B == 1 consumes the
      // RNG exactly like the per-chunk trainer did; the loss targets the
      // clean tokens.
      Tensor clean(Shape{rows, M});
      Tensor corrupted(Shape{rows, M});
      offsets.clear();
      seg_ids.clear();
      block_lens.clear();
      std::size_t r0 = 0;
      for (std::size_t i = base; i < stop; ++i) {
        const TrainChunk& chunk = chunks[order[i]];
        const std::size_t len = chunk.tokens.size(0);
        std::copy_n(chunk.tokens.data(), len * M, clean.data() + r0 * M);
        float* cor = corrupted.data() + r0 * M;
        std::copy_n(chunk.tokens.data(), len * M, cor);
        for (std::size_t t = 0; t < len; ++t) {
          if (options.denoise_token_drop > 0.0f &&
              rng.bernoulli(options.denoise_token_drop)) {
            for (std::size_t m = 0; m < M; ++m) cor[t * M + m] = 0.0f;
            continue;
          }
          if (options.denoise_noise > 0.0f)
            for (std::size_t m = 0; m < M; ++m)
              cor[t * M + m] += static_cast<float>(
                  rng.gaussian(0.0, options.denoise_noise));
        }
        offsets.insert(offsets.end(), chunk.offsets.begin(),
                       chunk.offsets.end());
        seg_ids.insert(seg_ids.end(), len, chunk.segment_id);
        block_lens.push_back(len);
        r0 += len;
      }
      optimizer.zero_grad();
      Var out = model.forward_blocked(Var::constant(std::move(corrupted)),
                                      offsets, seg_ids, rng, block_lens);
      Var loss = vwmse_loss(out, clean, metric_weights);
      Var aux = model.aux_loss();
      if (aux.defined()) loss = vadd(loss, aux);
      loss.backward();
      optimizer.step();
    }
  }
  fast_kernels.reset();

  // ---- Residual statistics on the clean member chunks: per-metric mean
  // squared residual (for whitening) and the resulting whitened baseline
  // error. Eval forwards reuse the block-diagonal batching; each chunk's
  // reconstruction is bitwise independent of its batch-mates, so the
  // statistics are batch-size-invariant. The residual grid is filled by
  // the pool — one chunk per shard, boundaries a pure function of the
  // chunk list (the same fixed-block contract as the kernel layer) — and
  // folded sequentially in chunk order, so the statistics are identical
  // at any thread count.
  std::vector<Tensor> outputs(chunks.size());
  for (std::size_t bbase = 0; bbase < chunks.size(); bbase += B) {
    const std::size_t bstop = std::min(chunks.size(), bbase + B);
    std::size_t rows = 0;
    for (std::size_t i = bbase; i < bstop; ++i)
      rows += chunks[i].tokens.size(0);
    Tensor x(Shape{rows, M});
    offsets.clear();
    seg_ids.clear();
    block_lens.clear();
    std::size_t r0 = 0;
    for (std::size_t i = bbase; i < bstop; ++i) {
      const TrainChunk& chunk = chunks[i];
      const std::size_t len = chunk.tokens.size(0);
      std::copy_n(chunk.tokens.data(), len * M, x.data() + r0 * M);
      offsets.insert(offsets.end(), chunk.offsets.begin(),
                     chunk.offsets.end());
      seg_ids.insert(seg_ids.end(), len, chunk.segment_id);
      block_lens.push_back(len);
      r0 += len;
    }
    const Var out = model.forward_blocked(Var::constant(std::move(x)),
                                          offsets, seg_ids, rng, block_lens);
    r0 = 0;
    for (std::size_t i = bbase; i < bstop; ++i) {
      const std::size_t len = chunks[i].tokens.size(0);
      outputs[i] = bstop - bbase == 1 ? out.value()
                                      : slice_rows(out.value(), r0, r0 + len);
      r0 += len;
    }
  }
  // Per-chunk signed residuals, computed in parallel (on a worker thread of
  // the same pool this degrades serially — same values either way, each
  // cell is written by exactly one task).
  std::vector<std::vector<double>> diffs(chunks.size());
  parallel_for(
      0, chunks.size(),
      [&](std::size_t c) {
        const TrainChunk& chunk = chunks[c];
        const std::size_t len = chunk.tokens.size(0);
        diffs[c].resize(len * M);
        // The subtraction happens in float, exactly as the classic sweep's
        // `double d = out - chunk` (float arithmetic widened on assignment).
        for (std::size_t t = 0; t < len; ++t)
          for (std::size_t m = 0; m < M; ++m)
            diffs[c][t * M + m] = outputs[c].at(t, m) - chunk.tokens.at(t, m);
      },
      options.pool, /*grain=*/1);
  std::vector<double> resid(M, 0.0);
  std::size_t err_count = 0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::size_t len = chunks[c].tokens.size(0);
    for (std::size_t t = 0; t < len; ++t) {
      for (std::size_t m = 0; m < M; ++m) {
        const double d = diffs[c][t * M + m];
        resid[m] += d * d;
      }
      ++err_count;
    }
  }
  stats.residual_scale = Tensor(Shape{M});
  for (std::size_t m = 0; m < M; ++m)
    stats.residual_scale.at(m) = static_cast<float>(std::max(
        1e-6, err_count > 0 ? resid[m] / static_cast<double>(err_count)
                            : 1.0));
  // Whitened baseline (mean over member tokens of the online score form).
  double err_sum = 0.0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::size_t len = chunks[c].tokens.size(0);
    for (std::size_t t = 0; t < len; ++t) {
      double err = 0.0;
      for (std::size_t m = 0; m < M; ++m) {
        const double d = diffs[c][t * M + m];
        err += metric_weights.at(m) * d * d / stats.residual_scale.at(m);
      }
      err_sum += err / static_cast<double>(M);
    }
  }
  stats.baseline_error =
      err_count > 0 ? std::max(1e-6, err_sum / err_count) : 1.0;
  return stats;
}

}  // namespace ns
