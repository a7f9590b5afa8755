// Batched mini-batch trainer for the shared reconstruction models
// (DESIGN.md §11). Extracted from NodeSentry::train_cluster so the trainer
// can be driven (and its equivalence contracts tested) without standing up
// the full pipeline.
//
// Contracts:
//  - batch == 1 reproduces the classic one-step-per-chunk denoising trainer
//    bit for bit: same RNG stream, same forward graph, same loss, same Adam
//    updates, same residual statistics.
//  - batch > 1 packs B chunks into one block-diagonal forward (attention
//    never crosses a chunk boundary) and takes one Adam step on the
//    batch-mean gradient; the optimizer trajectory intentionally differs.
//  - The post-training residual statistics are batch-size-invariant and
//    thread-count-invariant (fixed sharding, sequential fold in chunk
//    order).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/transformer.hpp"

namespace ns {

/// One training chunk: `tokens` is [len, M], `offsets` the per-token
/// positions inside the source segment (for positional encoding) and
/// `segment_id` the member index (for segment-aware encoding).
struct TrainChunk {
  Tensor tokens;
  std::vector<std::size_t> offsets;
  std::size_t segment_id = 0;
};

/// Splits one segment's tokens [rows, M] into training chunks of
/// max(train_window, 4) consecutive rows: offsets count rows from the
/// segment start, and every chunk carries `segment_id`. A trailing
/// remainder shorter than 4 rows is dropped. The fit path, detect()'s
/// fine-tune and the serve-side retrainer all chunk through this.
std::vector<TrainChunk> train_chunks(const Tensor& tokens,
                                     std::size_t train_window,
                                     std::size_t segment_id);

struct TrainOptions {
  std::size_t epochs = 1;
  float learning_rate = 1e-3f;
  /// Chunks per Adam step (clamped to >= 1). 1 == classic trainer.
  std::size_t batch = 1;
  /// Denoising corruption of the inputs; the loss targets the clean tokens.
  float denoise_noise = 0.0f;
  float denoise_token_drop = 0.0f;
  /// Pool for the residual-statistics grid (global pool when null). The
  /// statistics are bitwise identical for any pool/thread count.
  ThreadPool* pool = nullptr;
};

/// Scoring statistics of the trained model on its clean training chunks.
struct TrainStats {
  /// [M] per-metric mean squared residual (whitening divisor), floored at
  /// 1e-6; all-ones when `chunks` is empty.
  Tensor residual_scale;
  /// Mean whitened weighted reconstruction error per token (~1 by
  /// construction); 1.0 when `chunks` is empty.
  double baseline_error = 1.0;
};

/// Trains `model` in place on `chunks` with WMSE weights `metric_weights`
/// ([M], matching every chunk's column count), then computes the residual
/// statistics.
TrainStats train_reconstructor(TransformerReconstructor& model,
                               std::span<const TrainChunk> chunks,
                               const Tensor& metric_weights,
                               const TrainOptions& options,
                               std::uint64_t seed);

}  // namespace ns
