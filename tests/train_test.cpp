// Contracts of the batched mini-batch trainer (core/trainer.hpp,
// DESIGN.md §11) and the satellite fixes that ride along with it:
//  - batch == 1 reproduces the classic one-step-per-chunk trainer bit for
//    bit (parameters, residual scale, baseline error);
//  - the residual-statistics pass is batch-size- and thread-count-invariant;
//  - train_chunks drops a segment's trailing remainder below 4 rows;
//  - block-diagonal forwards match per-chunk forwards bitwise in training
//    mode (MoE routing and segment-aware positions intact);
//  - ksigma_flags warms up after min(window, 8) samples, so small-window
//    configs actually threshold;
//  - forced-k fits report the forced cut's own silhouette without running
//    the sweep;
//  - detect() adapts clusters concurrently (per-cluster fine-tunes and
//    scoring) yet gives the same bits at any thread count.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/nodesentry.hpp"
#include "core/trainer.hpp"
#include "nn/optim.hpp"
#include "sim/dataset_builder.hpp"
#include "sim/telemetry_faults.hpp"
#include "tensor/autograd.hpp"

namespace ns {
namespace {

TransformerConfig tiny_model_config(std::size_t input_dim) {
  TransformerConfig cfg;
  cfg.input_dim = input_dim;
  cfg.d_model = 12;
  cfg.num_layers = 2;
  cfg.num_heads = 3;
  cfg.ffn_hidden = 16;
  cfg.num_experts = 3;
  cfg.top_k = 1;
  cfg.max_position = 64;
  cfg.max_segments = 8;
  return cfg;
}

// Synthetic chunk set: three chunks over two segments with distinct lengths
// and non-trivial offsets, as the cluster chunker would produce.
std::vector<TrainChunk> make_chunks(std::size_t M) {
  Rng data_rng(77);
  const std::size_t lens[3] = {12, 9, 7};
  const std::size_t seg[3] = {0, 1, 1};
  const std::size_t first[3] = {0, 0, 9};
  std::vector<TrainChunk> chunks(3);
  for (std::size_t c = 0; c < 3; ++c) {
    chunks[c].tokens = Tensor::randn(Shape{lens[c], M}, data_rng);
    chunks[c].offsets.resize(lens[c]);
    std::iota(chunks[c].offsets.begin(), chunks[c].offsets.end(), first[c]);
    chunks[c].segment_id = seg[c];
  }
  return chunks;
}

Tensor make_weights(std::size_t M) {
  Tensor w(Shape{M});
  for (std::size_t m = 0; m < M; ++m)
    w.at(m) = 0.8f + 0.1f * static_cast<float>(m);
  return w;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)))
      << what << " differs bitwise";
}

void expect_params_bitwise_equal(const TransformerReconstructor& a,
                                 const TransformerReconstructor& b) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    expect_bitwise_equal(pa[i].value(), pb[i].value(), "parameter");
}

// The pre-batching trainer, verbatim: one Adam step per chunk, per-chunk
// forwards, running-sum residual statistics. The batched trainer at
// batch == 1 must reproduce it bit for bit.
TrainStats classic_train(TransformerReconstructor& model,
                         const std::vector<TrainChunk>& chunks,
                         const Tensor& weights, const TrainOptions& options,
                         std::uint64_t seed) {
  Rng rng(seed);
  model.set_training(true);
  Adam optimizer(model.parameters(), options.learning_rate);
  std::vector<std::size_t> order(chunks.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    for (std::size_t idx : order) {
      const TrainChunk& chunk = chunks[idx];
      optimizer.zero_grad();
      const std::vector<std::size_t> seg_ids(chunk.tokens.size(0),
                                             chunk.segment_id);
      Tensor corrupted = chunk.tokens.clone();
      const std::size_t rows = corrupted.size(0), cols = corrupted.size(1);
      for (std::size_t t = 0; t < rows; ++t) {
        if (options.denoise_token_drop > 0.0f &&
            rng.bernoulli(options.denoise_token_drop)) {
          for (std::size_t m = 0; m < cols; ++m) corrupted.at(t, m) = 0.0f;
          continue;
        }
        if (options.denoise_noise > 0.0f)
          for (std::size_t m = 0; m < cols; ++m)
            corrupted.at(t, m) += static_cast<float>(
                rng.gaussian(0.0, options.denoise_noise));
      }
      Var out = model.forward(Var::constant(corrupted), chunk.offsets,
                              seg_ids, rng);
      Var loss = vwmse_loss(out, chunk.tokens, weights);
      Var aux = model.aux_loss();
      if (aux.defined()) loss = vadd(loss, aux);
      loss.backward();
      optimizer.step();
    }
  }
  model.set_training(false);

  const std::size_t M = weights.numel();
  std::vector<double> resid(M, 0.0);
  std::size_t err_count = 0;
  std::vector<Tensor> outputs;
  outputs.reserve(chunks.size());
  for (const TrainChunk& chunk : chunks) {
    const std::vector<std::size_t> seg_ids(chunk.tokens.size(0),
                                           chunk.segment_id);
    const Var out = model.forward(Var::constant(chunk.tokens), chunk.offsets,
                                  seg_ids, rng);
    outputs.push_back(out.value());
    for (std::size_t t = 0; t < chunk.tokens.size(0); ++t) {
      for (std::size_t m = 0; m < M; ++m) {
        const double d = out.value().at(t, m) - chunk.tokens.at(t, m);
        resid[m] += d * d;
      }
      ++err_count;
    }
  }
  TrainStats stats;
  stats.residual_scale = Tensor(Shape{M});
  for (std::size_t m = 0; m < M; ++m)
    stats.residual_scale.at(m) = static_cast<float>(std::max(
        1e-6, err_count > 0 ? resid[m] / static_cast<double>(err_count)
                            : 1.0));
  double err_sum = 0.0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const TrainChunk& chunk = chunks[c];
    for (std::size_t t = 0; t < chunk.tokens.size(0); ++t) {
      double err = 0.0;
      for (std::size_t m = 0; m < M; ++m) {
        const double d = outputs[c].at(t, m) - chunk.tokens.at(t, m);
        err += weights.at(m) * d * d / stats.residual_scale.at(m);
      }
      err_sum += err / static_cast<double>(M);
    }
  }
  stats.baseline_error =
      err_count > 0 ? std::max(1e-6, err_sum / err_count) : 1.0;
  return stats;
}

TrainOptions default_options() {
  TrainOptions options;
  options.epochs = 3;
  options.learning_rate = 2e-3f;
  options.denoise_noise = 0.4f;
  options.denoise_token_drop = 0.15f;
  return options;
}

TEST(Trainer, BatchOneMatchesClassicTrainerBitwise) {
  const std::size_t M = 4;
  const auto chunks = make_chunks(M);
  const Tensor weights = make_weights(M);
  TrainOptions options = default_options();
  options.batch = 1;

  Rng init_a(42), init_b(42);
  TransformerReconstructor classic(tiny_model_config(M), init_a);
  TransformerReconstructor batched(tiny_model_config(M), init_b);

  const TrainStats ref = classic_train(classic, chunks, weights, options, 9);
  const TrainStats got =
      train_reconstructor(batched, chunks, weights, options, 9);

  expect_params_bitwise_equal(classic, batched);
  expect_bitwise_equal(ref.residual_scale, got.residual_scale,
                       "residual_scale");
  EXPECT_EQ(ref.baseline_error, got.baseline_error);
}

TEST(Trainer, BatchedTrainingStaysFiniteAndClose) {
  // At batch > 1 the optimizer trajectory legitimately differs from the
  // classic trainer; the result must still be a usable model with sane
  // statistics (the end-to-end quality gate lives in core_test on the sim
  // dataset, which runs with the batched default).
  const std::size_t M = 4;
  const auto chunks = make_chunks(M);
  const Tensor weights = make_weights(M);
  TrainOptions options = default_options();
  options.batch = 8;

  Rng init(42);
  TransformerReconstructor model(tiny_model_config(M), init);
  const TrainStats stats =
      train_reconstructor(model, chunks, weights, options, 9);

  ASSERT_EQ(stats.residual_scale.numel(), M);
  for (std::size_t m = 0; m < M; ++m) {
    EXPECT_TRUE(std::isfinite(stats.residual_scale.at(m)));
    EXPECT_GE(stats.residual_scale.at(m), 1e-6f);
  }
  EXPECT_TRUE(std::isfinite(stats.baseline_error));
  EXPECT_GT(stats.baseline_error, 0.0);
}

TEST(Trainer, ResidualStatsBatchSizeInvariant) {
  // epochs == 0 keeps the parameters at their (shared) initialization, so
  // any difference between batch sizes could only come from the eval-side
  // batching of the residual pass — which must be bitwise invisible.
  const std::size_t M = 4;
  const auto chunks = make_chunks(M);
  const Tensor weights = make_weights(M);
  TrainOptions options = default_options();
  options.epochs = 0;

  TrainStats by_batch[3];
  const std::size_t batches[3] = {1, 2, 8};
  for (std::size_t i = 0; i < 3; ++i) {
    Rng init(42);
    TransformerReconstructor model(tiny_model_config(M), init);
    options.batch = batches[i];
    by_batch[i] = train_reconstructor(model, chunks, weights, options, 9);
  }
  for (std::size_t i = 1; i < 3; ++i) {
    expect_bitwise_equal(by_batch[0].residual_scale,
                         by_batch[i].residual_scale, "residual_scale");
    EXPECT_EQ(by_batch[0].baseline_error, by_batch[i].baseline_error);
  }
}

TEST(Trainer, ResidualStatsThreadCountInvariant) {
  const std::size_t M = 4;
  const auto chunks = make_chunks(M);
  const Tensor weights = make_weights(M);
  TrainOptions options = default_options();
  options.batch = 4;

  ThreadPool one(1);
  ThreadPool many(5);
  Rng init_a(42), init_b(42);
  TransformerReconstructor model_a(tiny_model_config(M), init_a);
  TransformerReconstructor model_b(tiny_model_config(M), init_b);
  options.pool = &one;
  const TrainStats serial =
      train_reconstructor(model_a, chunks, weights, options, 9);
  options.pool = &many;
  const TrainStats parallel =
      train_reconstructor(model_b, chunks, weights, options, 9);

  expect_params_bitwise_equal(model_a, model_b);
  expect_bitwise_equal(serial.residual_scale, parallel.residual_scale,
                       "residual_scale");
  EXPECT_EQ(serial.baseline_error, parallel.baseline_error);
}

TEST(Trainer, EmptyChunkListYieldsNeutralStats) {
  const std::size_t M = 3;
  Rng init(42);
  TransformerReconstructor model(tiny_model_config(M), init);
  const TrainStats stats = train_reconstructor(
      model, {}, make_weights(M), default_options(), 9);
  ASSERT_EQ(stats.residual_scale.numel(), M);
  for (std::size_t m = 0; m < M; ++m)
    EXPECT_EQ(stats.residual_scale.at(m), 1.0f);
  EXPECT_EQ(stats.baseline_error, 1.0);
}

// One chunking rule for fit, fine-tune and retrain: windows of W rows, and
// a trailing remainder shorter than 4 rows is dropped.
TEST(Trainer, TrainChunksDropTailsShorterThanFourRows) {
  const std::size_t W = 16, M = 3;
  const Tensor short_tail(Shape{W + 3, M});
  const std::vector<TrainChunk> one = train_chunks(short_tail, W, 7);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].tokens.size(0), W);
  EXPECT_EQ(one[0].segment_id, 7u);

  const Tensor long_tail(Shape{W + 4, M});
  const std::vector<TrainChunk> two = train_chunks(long_tail, W, 7);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[1].tokens.size(0), 4u);
  const std::vector<std::size_t> tail_offsets = {W, W + 1, W + 2, W + 3};
  EXPECT_EQ(two[1].offsets, tail_offsets);
  // A window below 4 rows is widened to 4.
  EXPECT_EQ(train_chunks(long_tail, 2, 0).size(), 5u);
}

TEST(Trainer, BlockedForwardMatchesPerChunkInTrainingMode) {
  // The block-diagonal training forward must equal the per-chunk forwards
  // bitwise: block-local attention, per-chunk positional offsets and
  // segment ids, and MoE routing all see identical inputs. dropout is 0 so
  // neither path consumes RNG.
  const std::size_t M = 4;
  const auto chunks = make_chunks(M);
  Rng init(42);
  TransformerReconstructor model(tiny_model_config(M), init);
  model.set_training(true);

  std::size_t rows = 0;
  for (const TrainChunk& c : chunks) rows += c.tokens.size(0);
  Tensor x(Shape{rows, M});
  std::vector<std::size_t> offsets, seg_ids, block_lens;
  std::size_t r0 = 0;
  for (const TrainChunk& c : chunks) {
    const std::size_t len = c.tokens.size(0);
    std::copy_n(c.tokens.data(), len * M, x.data() + r0 * M);
    offsets.insert(offsets.end(), c.offsets.begin(), c.offsets.end());
    seg_ids.insert(seg_ids.end(), len, c.segment_id);
    block_lens.push_back(len);
    r0 += len;
  }
  Rng fwd_rng(5);
  const Var blocked = model.forward_blocked(Var::constant(x), offsets,
                                            seg_ids, fwd_rng, block_lens);
  r0 = 0;
  for (const TrainChunk& c : chunks) {
    const std::size_t len = c.tokens.size(0);
    Rng chunk_rng(5);
    const std::vector<std::size_t> ids(len, c.segment_id);
    const Var single =
        model.forward(Var::constant(c.tokens), c.offsets, ids, chunk_rng);
    const Tensor got = slice_rows(blocked.value(), r0, r0 + len);
    expect_bitwise_equal(single.value(), got, "blocked forward rows");
    r0 += len;
  }
}

TEST(Trainer, BlockAttentionMatchesComposedOpsBitwise) {
  // The fused block-attention node must reproduce the composed op chain
  // (slice / matmul / transpose / scale / softmax / matmul / concat) bit
  // for bit in both directions: same kernels in the same order forward,
  // and a backward that sums the same factor pairs in the same order.
  // dh = 6 with short blocks stays in the gemm's narrow column tails;
  // dh = 12 with long blocks also reaches its 16- and 8-column panels,
  // 4-row tiles and remainder rows.
  struct Case {
    std::size_t dh;
    std::vector<std::size_t> block_lens;
  };
  for (const Case& tc : {Case{6, {5, 3, 4}}, Case{12, {96, 83, 70}}}) {
    SCOPED_TRACE("dh=" + std::to_string(tc.dh));
    std::size_t T = 0;
    for (std::size_t len : tc.block_lens) T += len;
    const float scale = 0.5f;
    Rng rng(21);
    const Tensor qv = Tensor::randn(Shape{T, tc.dh}, rng);
    const Tensor kv = Tensor::randn(Shape{T, tc.dh}, rng);
    const Tensor vv = Tensor::randn(Shape{T, tc.dh}, rng);
    const Tensor target = Tensor::randn(Shape{T, tc.dh}, rng);

    Var q1 = Var::leaf(qv.clone(), true);
    Var k1 = Var::leaf(kv.clone(), true);
    Var v1 = Var::leaf(vv.clone(), true);
    Var fused = vblock_attention(q1, k1, v1, tc.block_lens, scale);
    vmse_loss(fused, target).backward();

    Var q2 = Var::leaf(qv.clone(), true);
    Var k2 = Var::leaf(kv.clone(), true);
    Var v2 = Var::leaf(vv.clone(), true);
    std::vector<Var> blocks;
    std::size_t base = 0;
    for (std::size_t len : tc.block_lens) {
      Var qb = vslice_rows(q2, base, base + len);
      Var kb = vslice_rows(k2, base, base + len);
      Var vb = vslice_rows(v2, base, base + len);
      Var scores = vscale(vmatmul(qb, vtranspose(kb)), scale);
      blocks.push_back(vmatmul(vsoftmax_rows(scores), vb));
      base += len;
    }
    Var composed = vconcat_rows(blocks);
    vmse_loss(composed, target).backward();

    expect_bitwise_equal(fused.value(), composed.value(), "fused forward");
    expect_bitwise_equal(q1.grad(), q2.grad(), "dq");
    expect_bitwise_equal(k1.grad(), k2.grad(), "dk");
    expect_bitwise_equal(v1.grad(), v2.grad(), "dv");
  }
}

TEST(Trainer, GatherScatterRowsForwardAndGradients) {
  // vgather_rows / vscatter_rows back the sparse MoE routing: forward
  // placement and the scatter-add gradient must be exact.
  Rng rng(22);
  const Tensor xv = Tensor::randn(Shape{5, 3}, rng);
  const std::vector<std::size_t> idx{4, 0, 2};

  Var x = Var::leaf(xv.clone(), true);
  Var gathered = vgather_rows(x, idx);
  ASSERT_EQ(gathered.shape(), (Shape{3, 3}));
  for (std::size_t r = 0; r < idx.size(); ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(gathered.value().at(r, c), xv.at(idx[r], c));

  Var scattered = vscatter_rows(gathered, idx, 5);
  ASSERT_EQ(scattered.shape(), (Shape{5, 3}));
  for (std::size_t r = 0; r < 5; ++r) {
    const bool routed = r == 0 || r == 2 || r == 4;
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(scattered.value().at(r, c), routed ? xv.at(r, c) : 0.0f);
  }

  vsum(scattered).backward();
  for (std::size_t r = 0; r < 5; ++r) {
    const bool routed = r == 0 || r == 2 || r == 4;
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(x.grad().at(r, c), routed ? 1.0f : 0.0f)
          << "row " << r << " col " << c;
  }
}

TEST(KSigma, SmallWindowWarmsUpAndFlags) {
  // Regression: the warm-up gate used to require 8 samples of history even
  // when the window held fewer, so window < 8 could never flag anything.
  std::vector<float> scores;
  for (int i = 0; i < 12; ++i)
    scores.push_back(1.0f + 0.01f * static_cast<float>(i % 3));
  scores.push_back(25.0f);  // unmistakable spike at index 12
  scores.push_back(1.0f);
  const auto flags =
      ksigma_flags(scores, 0, scores.size(), /*window=*/4, /*k_sigma=*/3.0);
  ASSERT_EQ(flags.size(), scores.size());
  EXPECT_EQ(flags[12], 1) << "window-4 threshold never warmed up";
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(flags[i], 0) << "flagged during warm-up at " << i;
}

TEST(KSigma, WideWindowStillWarmsUpAtEight) {
  // With window >= 8 the warm-up stays at 8 samples: a spike at index 5
  // is inside the warm-up and must not flag, one after 8+ samples must.
  std::vector<float> scores(5, 1.0f);
  scores.push_back(25.0f);  // index 5: inside warm-up
  scores.resize(14, 1.0f);
  scores.push_back(100.0f);  // index 14: past warm-up
  const auto flags =
      ksigma_flags(scores, 0, scores.size(), /*window=*/32, /*k_sigma=*/3.0);
  EXPECT_EQ(flags[5], 0);
  EXPECT_EQ(flags[14], 1);
}

class ForcedKTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim_ = new SimDataset(build_sim_dataset(d2_sim_config(0.4, 9)));
  }
  static void TearDownTestSuite() {
    delete sim_;
    sim_ = nullptr;
  }

  static NodeSentryConfig small_config() {
    NodeSentryConfig config;
    config.model.d_model = 12;
    config.model.num_layers = 1;
    config.model.num_heads = 2;
    config.model.ffn_hidden = 16;
    config.train_epochs = 1;
    config.max_tokens_per_segment = 64;
    config.train_window = 32;
    config.match_period = 60;
    config.incremental_updates = false;
    config.seed = 5;
    return config;
  }

  static SimDataset* sim_;
};

SimDataset* ForcedKTest::sim_ = nullptr;

TEST_F(ForcedKTest, ForcedKReportsOwnSilhouetteWithoutSweep) {
  NodeSentry auto_sentry(small_config());
  const auto auto_fit = auto_sentry.fit(sim_->data, sim_->train_end);
  const std::size_t k_auto = auto_sentry.auto_k();
  ASSERT_GE(k_auto, 2u);

  // Forcing the silhouette-optimal k reproduces the same cut, so the
  // reported silhouette must be the same number — but found without the
  // O(n^2 * k_max) sweep, and auto_k() reports 0 (no sweep ran).
  NodeSentryConfig forced = small_config();
  forced.forced_k = k_auto;
  NodeSentry forced_sentry(forced);
  const auto forced_fit = forced_sentry.fit(sim_->data, sim_->train_end);
  EXPECT_EQ(forced_sentry.auto_k(), 0u);
  EXPECT_EQ(forced_fit.num_clusters, k_auto);
  EXPECT_DOUBLE_EQ(forced_fit.silhouette, auto_fit.silhouette);

  // A deliberately suboptimal k reports that cut's own (lower or equal)
  // silhouette instead of echoing the sweep optimum.
  NodeSentryConfig off = small_config();
  off.forced_k = k_auto + 1;
  NodeSentry off_sentry(off);
  const auto off_fit = off_sentry.fit(sim_->data, sim_->train_end);
  EXPECT_EQ(off_sentry.auto_k(), 0u);
  EXPECT_LE(off_fit.silhouette, auto_fit.silhouette + 1e-12);
}

// Run from a pool worker, every nested parallel_for inside detect() is a
// serial loop; run from the test thread, segments match and clusters adapt
// and score concurrently on the whole pool. Both must give the same bits:
// scores, flags, counters and every fine-tuned model of the library.
TEST(ParallelDetect, WorkerThreadMatchesTestThreadBitwise) {
  const SimDataset sim = build_sim_dataset(d2_sim_config(0.25, 5));
  NodeSentryConfig config;
  config.model.d_model = 12;
  config.model.num_layers = 1;
  config.model.num_heads = 2;
  config.model.ffn_hidden = 16;
  config.train_epochs = 2;
  config.max_tokens_per_segment = 64;
  config.train_window = 32;
  config.match_period = 60;
  // Many unmatched segments and fine-tunes.
  config.match_threshold_factor = 1.0;
  config.finetune_trigger = 1.5;
  config.finetune_epochs = 1;
  config.seed = 5;
  NodeSentry here(config), there(config);
  here.fit(sim.data, sim.train_end);
  there.fit(sim.data, sim.train_end);

  const NodeSentry::DetectReport a = here.detect();
  NodeSentry::DetectReport b;
  ThreadPool::global().submit([&] { b = there.detect(); }).get();

  ASSERT_GT(a.incremental_finetunes, 0u);
  EXPECT_EQ(a.incremental_finetunes, b.incremental_finetunes);
  EXPECT_EQ(a.segments_matched, b.segments_matched);
  EXPECT_EQ(a.segments_unmatched, b.segments_unmatched);
  EXPECT_EQ(a.scored_points, b.scored_points);
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t n = 0; n < a.detections.size(); ++n) {
    const std::vector<float>& sa = a.detections[n].scores;
    const std::vector<float>& sb = b.detections[n].scores;
    ASSERT_EQ(sa.size(), sb.size());
    EXPECT_EQ(0, std::memcmp(sa.data(), sb.data(), sa.size() * sizeof(float)))
        << "node " << n << " scores differ bitwise";
    EXPECT_EQ(a.detections[n].predictions, b.detections[n].predictions)
        << "node " << n;
  }
  const auto& ca = here.library().clusters();
  const auto& cb = there.library().clusters();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t c = 0; c < ca.size(); ++c) {
    expect_params_bitwise_equal(*ca[c].model, *cb[c].model);
    expect_bitwise_equal(ca[c].residual_scale, cb[c].residual_scale,
                         "residual_scale");
  }
}

void expect_floats_bitwise_equal(const std::vector<float>& a,
                                 const std::vector<float>& b,
                                 const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << " differs bitwise";
}

// Run from a pool worker, every nested parallel_for inside fit() is a
// serial loop: the quality guard, mask aggregation and selection,
// correlation pruning, feature extraction, the PCA Gram build and
// per-cluster training. Run from the test thread, they use the whole pool.
// Both must give the same bits: processed data, mask, feature pipeline and
// every cluster with its model.
TEST(ParallelFit, WorkerThreadMatchesTestThreadBitwise) {
  SimDataset sim = build_sim_dataset(d2_sim_config(0.25, 5));
  TelemetryFaultPlanConfig plan;
  plan.region_begin = 0;
  plan.region_end = sim.data.num_timestamps();
  plan.events_per_type = 2;
  Rng fault_rng(6);
  apply_telemetry_faults(
      sim.data, plan_telemetry_faults(plan, sim.data.num_nodes(),
                                      sim.data.num_metrics(), fault_rng));
  NodeSentryConfig config;
  config.model.d_model = 12;
  config.model.num_layers = 1;
  config.model.num_heads = 2;
  config.model.ffn_hidden = 16;
  config.train_epochs = 2;
  config.max_tokens_per_segment = 64;
  config.train_window = 32;
  config.seed = 5;
  NodeSentry here(config), there(config);
  const NodeSentry::FitReport a = here.fit(sim.data, sim.train_end);
  NodeSentry::FitReport b;
  ThreadPool::global()
      .submit([&] { b = there.fit(sim.data, sim.train_end); })
      .get();

  ASSERT_GT(a.quality.points_invalid, 0u);
  EXPECT_EQ(a.quality.points_invalid, b.quality.points_invalid);
  EXPECT_EQ(a.quality.events.size(), b.quality.events.size());
  EXPECT_EQ(a.num_segments, b.num_segments);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.silhouette, b.silhouette);
  EXPECT_EQ(here.kept_metrics(), there.kept_metrics());
  const MtsDataset& pa = here.processed();
  const MtsDataset& pb = there.processed();
  ASSERT_EQ(pa.num_nodes(), pb.num_nodes());
  ASSERT_EQ(pa.num_metrics(), pb.num_metrics());
  for (std::size_t n = 0; n < pa.num_nodes(); ++n)
    for (std::size_t m = 0; m < pa.num_metrics(); ++m) {
      expect_floats_bitwise_equal(pa.nodes[n].values[m],
                                  pb.nodes[n].values[m], "processed series");
      for (std::size_t t = 0; t < pa.num_timestamps(); ++t)
        ASSERT_EQ(here.mask().at(n, m, t), there.mask().at(n, m, t));
    }

  const ClusterLibrary& la = here.library();
  const ClusterLibrary& lb = there.library();
  ASSERT_TRUE(la.pca().fitted());
  expect_floats_bitwise_equal(la.pca().mean(), lb.pca().mean(), "pca mean");
  ASSERT_EQ(la.pca().components().size(), lb.pca().components().size());
  for (std::size_t c = 0; c < la.pca().components().size(); ++c)
    expect_floats_bitwise_equal(la.pca().components()[c],
                                lb.pca().components()[c], "pca component");
  const auto& ca = la.clusters();
  const auto& cb = lb.clusters();
  ASSERT_GE(ca.size(), 2u);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t c = 0; c < ca.size(); ++c) {
    expect_floats_bitwise_equal(ca[c].centroid, cb[c].centroid, "centroid");
    EXPECT_EQ(ca[c].radius, cb[c].radius);
    EXPECT_EQ(ca[c].baseline_error, cb[c].baseline_error);
    ASSERT_EQ(ca[c].members.size(), cb[c].members.size());
    for (std::size_t i = 0; i < ca[c].members.size(); ++i) {
      EXPECT_EQ(ca[c].members[i].node, cb[c].members[i].node);
      EXPECT_EQ(ca[c].members[i].begin, cb[c].members[i].begin);
      EXPECT_EQ(ca[c].members[i].end, cb[c].members[i].end);
      expect_floats_bitwise_equal(ca[c].member_features[i],
                                  cb[c].member_features[i], "member features");
    }
    expect_bitwise_equal(ca[c].metric_weights, cb[c].metric_weights,
                         "MAC weights");
    expect_bitwise_equal(ca[c].residual_scale, cb[c].residual_scale,
                         "residual_scale");
    expect_params_bitwise_equal(*ca[c].model, *cb[c].model);
  }
}

}  // namespace
}  // namespace ns
