// Serve scoring-path tests (DESIGN.md §16): runtime kernel dispatch,
// FastKernelScope nesting semantics, int8 quantization round-trips, the
// canonical ScoringPlan's bitwise pin against the model, relaxed/quantized
// plan vs model equivalence (the ULP harness), the strict-replay bitwise
// regression pin, the epsilon-band property on flag disagreements, and the
// score-timeline reallocation bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/nodesentry.hpp"
#include "nn/scoring.hpp"
#include "nn/transformer.hpp"
#include "obs/registry.hpp"
#include "serve/engine.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "sim/dataset_builder.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quant.hpp"

namespace ns {
namespace fs = std::filesystem;
namespace {

Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     float scale = 1.0f) {
  Tensor t(Shape{rows, cols});
  for (std::size_t i = 0; i < t.numel(); ++i)
    t.data()[i] = scale * static_cast<float>(rng.gaussian());
  return t;
}

// ---------------------------------------------------------------------------
// Runtime dispatch + FastKernelScope semantics

TEST(Dispatch, TierIsStableAndNamed) {
  const KernelTier tier = kernel_dispatch_tier();
  EXPECT_EQ(tier, kernel_dispatch_tier());  // pure CPU probe, never changes
  const std::string name = kernel_tier_name(tier);
  EXPECT_TRUE(name == "scalar" || name == "neon" || name == "avx2_fma");
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_NE(tier, KernelTier::kNeon);
#endif
}

TEST(Dispatch, FastKernelsRequireScopeOptIn) {
  EXPECT_FALSE(fast_kernels_enabled());
  {
    FastKernelScope fast;
    // Inside a scope the fast tier is legal exactly when the host has one.
    EXPECT_EQ(fast_kernels_enabled(),
              kernel_dispatch_tier() != KernelTier::kScalar);
    {
      FastKernelScope nested;  // nesting is counted, not flag-toggled
      EXPECT_EQ(fast_kernels_enabled(),
                kernel_dispatch_tier() != KernelTier::kScalar);
    }
    EXPECT_EQ(fast_kernels_enabled(),
              kernel_dispatch_tier() != KernelTier::kScalar);
  }
  EXPECT_FALSE(fast_kernels_enabled());
}

TEST(Dispatch, ScopeIsThreadLocal) {
  FastKernelScope fast;
  bool other_thread_enabled = true;
  std::thread([&] { other_thread_enabled = fast_kernels_enabled(); }).join();
  EXPECT_FALSE(other_thread_enabled);
}

#if !defined(__SANITIZE_THREAD__)
TEST(DispatchDeathTest, CrossThreadDestructionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Destroying a scope on a thread that never constructed one underflows
  // the thread-local depth — documented as a usage bug that aborts loudly
  // instead of silently enabling fast kernels for unrelated code.
  EXPECT_DEATH(
      {
        FastKernelScope* leaked = nullptr;
        std::thread([&] { leaked = new FastKernelScope(); }).join();
        delete leaked;  // this thread's depth goes to -1
      },
      "underflow");
}
#endif

// ---------------------------------------------------------------------------
// int8 per-channel quantization round-trips

TEST(Quantization, DequantizationErrorWithinHalfStep) {
  Rng rng(17);
  const Tensor w = random_matrix(37, 23, rng, 2.0f);
  const QuantizedMatrix qw = quantize_per_channel(w);
  ASSERT_EQ(qw.scales.size(), 23u);
  Tensor back(Shape{37, 23});
  dequantize_into(back, qw);
  for (std::size_t r = 0; r < 37; ++r)
    for (std::size_t c = 0; c < 23; ++c) {
      const float err = std::abs(back.at(r, c) - w.at(r, c));
      // Symmetric rounding quantization: at most half a step per channel.
      EXPECT_LE(err, 0.5f * qw.scales[c] + 1e-7f)
          << "cell (" << r << "," << c << ")";
    }
}

TEST(Quantization, ScalesAreMaxAbsOver127) {
  Rng rng(5);
  const Tensor w = random_matrix(8, 4, rng);
  const std::vector<float> scales = per_channel_scales(w);
  ASSERT_EQ(scales.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    float maxabs = 0.0f;
    for (std::size_t r = 0; r < 8; ++r)
      maxabs = std::max(maxabs, std::abs(w.at(r, c)));
    EXPECT_FLOAT_EQ(scales[c], maxabs / 127.0f);
  }
}

TEST(Quantization, MatmulMatchesExactIntegerReference) {
  Rng rng(29);
  const Tensor a = random_matrix(13, 31, rng);
  const Tensor w = random_matrix(31, 9, rng);
  const QuantizedMatrix qw = quantize_per_channel(w);
  Tensor out(Shape{13, 9});
  quantized_matmul_into(out, a, qw);
  // Reference: re-derive the exact integer arithmetic the kernel promises
  // (dynamic symmetric per-row activation quant, int32 accumulation).
  for (std::size_t r = 0; r < 13; ++r) {
    float maxabs = 0.0f;
    for (std::size_t k = 0; k < 31; ++k)
      maxabs = std::max(maxabs, std::abs(a.at(r, k)));
    ASSERT_GT(maxabs, 0.0f);
    const float inv_scale = 127.0f / maxabs;
    const float a_scale = maxabs / 127.0f;
    std::vector<std::int32_t> qa(31);
    for (std::size_t k = 0; k < 31; ++k)
      qa[k] = static_cast<std::int32_t>(std::clamp(
          std::nearbyintf(a.at(r, k) * inv_scale), -127.0f, 127.0f));
    for (std::size_t c = 0; c < 9; ++c) {
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < 31; ++k)
        acc += qa[k] * static_cast<std::int32_t>(qw.data[c * 31 + k]);
      const float expected =
          static_cast<float>(acc) * (a_scale * qw.scales[c]);
      // Integer accumulation is exact at every dispatch tier, so the
      // result is bitwise, not approximately, equal.
      EXPECT_EQ(out.at(r, c), expected) << "cell (" << r << "," << c << ")";
    }
  }
}

TEST(Quantization, ParallelMatmulBitwiseEqualsSequential) {
  Rng rng(41);
  // Big enough to clear the parallel-dispatch thresholds.
  const Tensor a = random_matrix(512, 96, rng);
  const Tensor w = random_matrix(96, 96, rng);
  const QuantizedMatrix qw = quantize_per_channel(w);
  Tensor serial(Shape{512, 96});
  quantized_matmul_into(serial, a, qw, nullptr);
  Tensor parallel(Shape{512, 96});
  quantized_matmul_into(parallel, a, qw, &ThreadPool::global());
  for (std::size_t i = 0; i < serial.numel(); ++i)
    ASSERT_EQ(serial.data()[i], parallel.data()[i]) << "element " << i;
}

TEST(Quantization, MatmulCloseToFp32) {
  Rng rng(53);
  const Tensor a = random_matrix(24, 48, rng);
  const Tensor w = random_matrix(48, 16, rng);
  const QuantizedMatrix qw = quantize_per_channel(w);
  Tensor exact(Shape{24, 16});
  matmul_into(exact, a, w);
  Tensor quant(Shape{24, 16});
  quantized_matmul_into(quant, a, qw);
  // |error| per output ~ K * (step_a * |w| + step_w * |a|); with unit
  // normal inputs and K=48 these bands are comfortably loose.
  double max_err = 0.0;
  for (std::size_t i = 0; i < exact.numel(); ++i)
    max_err = std::max(max_err, static_cast<double>(std::abs(
                                    exact.data()[i] - quant.data()[i])));
  EXPECT_LE(max_err, 0.35);
  double sum_sq = 0.0, ref_sq = 0.0;
  for (std::size_t i = 0; i < exact.numel(); ++i) {
    const double d = exact.data()[i] - quant.data()[i];
    sum_sq += d * d;
    ref_sq += static_cast<double>(exact.data()[i]) * exact.data()[i];
  }
  EXPECT_LE(std::sqrt(sum_sq / ref_sq), 0.02);  // 2% relative RMS
}

// ---------------------------------------------------------------------------
// ScoringPlan vs the canonical model (the ULP harness, model-level)

class ScoringPlanTest : public ::testing::Test {
 protected:
  static TransformerConfig small_config() {
    TransformerConfig config;
    config.input_dim = 10;
    config.d_model = 24;
    config.num_layers = 2;
    config.num_heads = 2;
    config.ffn_hidden = 32;
    config.num_experts = 3;
    config.top_k = 1;
    config.max_position = 128;
    config.max_segments = 8;
    return config;
  }

  /// Compares plan and model outputs on a 3-block batch; returns the max
  /// |delta| relative to the output magnitude.
  static double max_relative_delta(const TransformerConfig& config,
                                   const QuantCalibration* calibration) {
    Rng rng(71);
    TransformerReconstructor model(config, rng);
    model.set_training(false);
    const std::size_t T = 48;
    Rng data_rng(72);
    const Tensor x = random_matrix(T, config.input_dim, data_rng);
    std::vector<std::size_t> offsets(T), seg_ids(T);
    const std::vector<std::size_t> blocks = {20, 12, 16};
    std::size_t t = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b)
      for (std::size_t r = 0; r < blocks[b]; ++r, ++t) {
        offsets[t] = r;
        seg_ids[t] = b;
      }
    Rng fwd_rng(0);
    const Var canonical = model.forward_blocked(
        Var::constant(x.clone()), offsets, seg_ids, fwd_rng, blocks);
    const ScoringPlan plan(model, calibration);
    Workspace ws;
    const Tensor fast = plan.forward(x, offsets, seg_ids, blocks, ws);
    double max_abs = 1e-12, max_delta = 0.0;
    for (std::size_t i = 0; i < fast.numel(); ++i) {
      max_abs = std::max(max_abs, static_cast<double>(std::abs(
                                      canonical.value().data()[i])));
      max_delta = std::max(
          max_delta, static_cast<double>(std::abs(
                         canonical.value().data()[i] - fast.data()[i])));
    }
    return max_delta / max_abs;
  }
};

// The strict serve path's contract: a canonical plan reproduces eval-mode
// forward_blocked byte for byte — across MoE top-1/top-2 and the dense
// FFN, with the segment term on and off, for one dense block and for a
// block-diagonal batch, on a shape big enough to take matmul_into's
// parallel row-block path, and whether the plan runs on the calling thread
// or inside a pool task (where nested parallel_for degrades serially).
TEST_F(ScoringPlanTest, CanonicalPlanIsBitwiseForwardBlocked) {
  struct Case {
    const char* name;
    TransformerConfig config;
    std::vector<std::size_t> blocks;
  };
  const auto with = [](auto edit) {
    TransformerConfig config = small_config();
    edit(config);
    return config;
  };
  const std::vector<std::size_t> three_blocks = {20, 12, 16};
  const std::vector<Case> cases = {
      {"moe top-1, one block", small_config(), {96}},
      {"moe top-1", small_config(), three_blocks},
      {"moe top-2", with([](TransformerConfig& c) { c.top_k = 2; }),
       three_blocks},
      {"dense ffn", with([](TransformerConfig& c) { c.use_moe = false; }),
       three_blocks},
      {"no segment term, one block",
       with([](TransformerConfig& c) { c.use_segment_encoding = false; }),
       {96}},
      {"no segment term",
       with([](TransformerConfig& c) { c.use_segment_encoding = false; }),
       three_blocks},
      {"d_model 64, 8x96 rows",
       with([](TransformerConfig& c) {
         c.d_model = 64;
         c.ffn_hidden = 64;
       }),
       std::vector<std::size_t>(8, 96)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(71);
    TransformerReconstructor model(c.config, rng);
    model.set_training(false);
    std::size_t T = 0;
    for (const std::size_t len : c.blocks) T += len;
    Rng data_rng(72);
    const Tensor x = random_matrix(T, c.config.input_dim, data_rng);
    std::vector<std::size_t> offsets, seg_ids;
    for (std::size_t b = 0; b < c.blocks.size(); ++b)
      for (std::size_t r = 0; r < c.blocks[b]; ++r) {
        offsets.push_back(r);
        seg_ids.push_back(b % c.config.max_segments);
      }
    Rng fwd_rng(0);
    const Tensor reference =
        model
            .forward_blocked(Var::constant(x.clone()), offsets, seg_ids,
                             fwd_rng, c.blocks)
            .value();
    const ScoringPlan plan = ScoringPlan::canonical(model);
    Workspace ws;
    const Tensor here = plan.forward(x, offsets, seg_ids, c.blocks, ws);
    Tensor in_task;
    ThreadPool::global()
        .submit([&] {
          Workspace task_ws;
          in_task = plan.forward(x, offsets, seg_ids, c.blocks, task_ws);
        })
        .get();
    const auto expect_bitwise = [&reference](const Tensor& out) {
      ASSERT_EQ(out.shape(), reference.shape());
      EXPECT_EQ(std::memcmp(out.data(), reference.data(),
                            reference.numel() * sizeof(float)),
                0);
    };
    expect_bitwise(here);
    expect_bitwise(in_task);
  }
}

// One Workspace reused across a sweep of row counts, up and down as
// variable-length forwards arrive, hands each forward recycled buffers
// larger than it asked for; every output must still be byte-identical to
// the same forward on a fresh Workspace, on every scoring path.
TEST_F(ScoringPlanTest, ReusedWorkspaceForwardsEqualFreshOnesBytewise) {
  Rng rng(71);
  TransformerConfig top2 = small_config();
  top2.top_k = 2;
  const TransformerReconstructor model(top2, rng);
  const std::vector<std::size_t> sweep = {96, 1,  37, 2,  95, 48, 3,
                                          96, 17, 64, 5,  90, 11, 33};
  for (const ScoringPath path : {ScoringPath::kStrict, ScoringPath::kRelaxed,
                                 ScoringPath::kQuantized}) {
    SCOPED_TRACE(static_cast<int>(path));
    const ScoringPlan plan = ScoringPlan::compile(model, path);
    Workspace reused;
    for (const std::size_t T : sweep) {
      SCOPED_TRACE(T);
      Rng data_rng(T);
      const Tensor x = random_matrix(T, top2.input_dim, data_rng);
      // Blocks of up to 20 rows, so the attention scratch varies too.
      std::vector<std::size_t> blocks, offsets, seg_ids;
      for (std::size_t t = 0; t < T; t += 20) {
        const std::size_t len = std::min<std::size_t>(20, T - t);
        for (std::size_t r = 0; r < len; ++r) {
          offsets.push_back(r);
          seg_ids.push_back(blocks.size() % top2.max_segments);
        }
        blocks.push_back(len);
      }
      Workspace fresh;
      const Tensor want = plan.forward(x, offsets, seg_ids, blocks, fresh);
      const Tensor got = plan.forward(x, offsets, seg_ids, blocks, reused);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.numel() * sizeof(float)),
                0);
    }
    EXPECT_GT(reused.reuse_count(), 0u);
  }
}

TEST_F(ScoringPlanTest, RelaxedPlanMatchesModelToVectorAccuracy) {
  // fp32 plan: same math, different rounding (FMA contraction, vector exp
  // approximations) — agreement to ~1e-4 of the output scale.
  EXPECT_LE(max_relative_delta(small_config(), nullptr), 1e-4);
}

TEST_F(ScoringPlanTest, QuantizedPlanMatchesModelToInt8Accuracy) {
  Rng rng(71);
  const TransformerReconstructor model(small_config(), rng);
  const QuantCalibration calib = calibrate_quantization(model);
  EXPECT_LE(max_relative_delta(small_config(), &calib), 0.08);
}

TEST_F(ScoringPlanTest, DenseFfnVariantMatches) {
  TransformerConfig config = small_config();
  config.use_moe = false;  // the C5 ablation path
  EXPECT_LE(max_relative_delta(config, nullptr), 1e-4);
}

TEST_F(ScoringPlanTest, CalibrationTraversalCountMatchesArchitecture) {
  Rng rng(3);
  const TransformerConfig config = small_config();
  const TransformerReconstructor model(config, rng);
  const QuantCalibration calib = calibrate_quantization(model);
  // input_proj + per layer (packed qkv + out_proj + experts*(fc1+fc2)).
  const std::size_t expected =
      1 + config.num_layers * (2 + config.num_experts * 2);
  EXPECT_EQ(calib.channel_scales.size(), expected);
  // A truncated calibration must be rejected, not silently misapplied.
  QuantCalibration bad = calib;
  bad.channel_scales.pop_back();
  EXPECT_THROW(ScoringPlan(model, &bad), Error);
}

// ---------------------------------------------------------------------------
// Serve-path integration on the D1 sim

class DispatchServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimDatasetConfig sim_config = d1_sim_config(0.2, 7);
    sim_config.missing_rate = 0.0;  // clean stream -> exact strict replay
    sim_config.anomaly_ratio = 0.01;
    sim_ = new SimDataset(build_sim_dataset(sim_config));
    NodeSentryConfig config;
    config.model.d_model = 24;
    config.model.num_layers = 2;
    config.model.num_heads = 2;
    config.model.ffn_hidden = 32;
    config.train_epochs = 2;
    config.learning_rate = 3e-3f;
    config.max_tokens_per_segment = 96;
    config.train_window = 32;
    config.match_period = 60;
    config.threshold_window = 40;
    config.k_max = 6;
    config.seed = 99;
    config.incremental_updates = false;
    sentry_ = new NodeSentry(config);
    sentry_->fit(sim_->data, sim_->train_end);
    batch_ = new NodeSentry::DetectReport(sentry_->detect());
  }

  static void TearDownTestSuite() {
    delete batch_;
    delete sentry_;
    delete sim_;
    batch_ = nullptr;
    sentry_ = nullptr;
    sim_ = nullptr;
  }

  static ServeResult replay(ScoringPath path) {
    ServeEngine engine(*sentry_, ServeConfig{.scoring_path = path});
    return serve_replay(engine, sim_->data, sim_->train_end).result;
  }

  static SimDataset* sim_;
  static NodeSentry* sentry_;
  static NodeSentry::DetectReport* batch_;
};

SimDataset* DispatchServeFixture::sim_ = nullptr;
NodeSentry* DispatchServeFixture::sentry_ = nullptr;
NodeSentry::DetectReport* DispatchServeFixture::batch_ = nullptr;

// Regression pin for --strict-replay: the strict path (the ServeConfig
// default, canonical plans) must reproduce batch detect() bit for bit.
TEST_F(DispatchServeFixture, StrictReplayStaysBitwise) {
  const ServeResult strict = replay(ScoringPath::kStrict);
  const DetectionDelta delta =
      compare_detections(strict.detections, batch_->detections);
  EXPECT_EQ(delta.max_abs_score_delta, 0.0);  // bitwise, not just close
  EXPECT_EQ(delta.prediction_mismatches, 0u);
}

// The ULP-tolerance harness, end to end: relaxed and quantized replays
// reproduce the strict scores to their arithmetic's accuracy.
TEST_F(DispatchServeFixture, RelaxedAndQuantizedScoresTrackStrict) {
  const ServeResult strict = replay(ScoringPath::kStrict);
  const ServeResult relaxed = replay(ScoringPath::kRelaxed);
  const ServeResult quantized = replay(ScoringPath::kQuantized);
  ASSERT_EQ(relaxed.detections.size(), strict.detections.size());
  ASSERT_EQ(quantized.detections.size(), strict.detections.size());
  double scale = 1e-12;
  for (const NodeDetection& det : strict.detections)
    for (const float s : det.scores)
      scale = std::max(scale, static_cast<double>(std::abs(s)));
  double relaxed_max = 0.0, quant_max = 0.0;
  for (std::size_t n = 0; n < strict.detections.size(); ++n) {
    const auto& s = strict.detections[n].scores;
    const auto& r = relaxed.detections[n].scores;
    const auto& q = quantized.detections[n].scores;
    ASSERT_EQ(r.size(), s.size());
    ASSERT_EQ(q.size(), s.size());
    for (std::size_t t = 0; t < s.size(); ++t) {
      relaxed_max = std::max(relaxed_max,
                             static_cast<double>(std::abs(r[t] - s[t])));
      quant_max = std::max(quant_max,
                           static_cast<double>(std::abs(q[t] - s[t])));
    }
  }
  // Bounds are relative to the peak score (scores are whitened squared
  // errors — values near zero make plain relative bounds meaningless).
  EXPECT_LE(relaxed_max, 1e-3 * scale);
  EXPECT_LE(quant_max, 0.15 * scale);
}

// Property: a strict-vs-quantized flag disagreement can only happen for
// threshold-marginal points. Running the full thresholding pipeline
// (reference levels + median filter + k-sigma + score-factor floors) on
// the STRICT scores with every threshold knob nudged ±band must itself
// disagree about any point where the quantized scores flip the flag — a
// flip at a point the band does not consider marginal would mean the
// quantized path moved a score past a threshold it was not close to.
TEST_F(DispatchServeFixture, FlagDisagreementsOnlyInThresholdEpsilonBand) {
  const ServeResult strict = replay(ScoringPath::kStrict);
  const ServeResult quantized = replay(ScoringPath::kQuantized);
  const NodeSentryConfig& nominal = sentry_->config();
  const double band = 0.25;  // generous: |Δscore|/scale stays well below
  NodeSentryConfig low_cfg = nominal;
  low_cfg.k_sigma *= 1.0 - band;
  low_cfg.min_score_factor *= 1.0 - band;
  low_cfg.hard_score_factor *= 1.0 - band;
  NodeSentryConfig high_cfg = nominal;
  high_cfg.k_sigma *= 1.0 + band;
  high_cfg.min_score_factor *= 1.0 + band;
  high_cfg.hard_score_factor *= 1.0 + band;
  const std::size_t begin = sentry_->train_end();
  std::size_t points = 0, disagreements = 0, outside_band = 0;
  for (std::size_t n = 0; n < strict.detections.size(); ++n) {
    const auto& s = strict.detections[n].scores;
    const auto& q = quantized.detections[n].scores;
    ASSERT_EQ(q.size(), s.size());
    // One whole-test-region reference keeps the pipeline self-contained
    // (the engine's per-segment ranges are private); both flag sets below
    // use the same reference, so the comparison is apples to apples.
    const std::vector<std::pair<std::size_t, std::size_t>> range = {
        {begin, s.size()}};
    const std::vector<float> reference = score_reference_levels(s, range);
    const std::vector<std::uint8_t> fs =
        detection_flags(s, reference, begin, nominal);
    const std::vector<std::uint8_t> fq =
        detection_flags(q, reference, begin, nominal);
    const std::vector<std::uint8_t> low =
        detection_flags(s, reference, begin, low_cfg);
    const std::vector<std::uint8_t> high =
        detection_flags(s, reference, begin, high_cfg);
    points += fs.size() - begin;
    for (std::size_t t = begin; t < fs.size(); ++t) {
      if (fs[t] == fq[t]) continue;
      ++disagreements;
      // Marginal: the loosened and tightened thresholds disagree about
      // this point on the strict scores.
      if (low[t] == high[t]) ++outside_band;
    }
  }
  EXPECT_EQ(outside_band, 0u)
      << disagreements << " disagreements, " << outside_band
      << " outside the ±25% threshold band";
  EXPECT_LE(static_cast<double>(disagreements),
            0.005 * static_cast<double>(points))
      << disagreements << " of " << points << " points disagree";
  // And at the engine level: quantized predictions barely move.
  std::size_t engine_mismatches = 0, engine_points = 0;
  for (std::size_t n = 0; n < strict.detections.size(); ++n) {
    const auto& sp = strict.detections[n].predictions;
    const auto& qp = quantized.detections[n].predictions;
    ASSERT_EQ(qp.size(), sp.size());
    engine_points += sp.size();
    for (std::size_t t = 0; t < sp.size(); ++t)
      engine_mismatches += sp[t] != qp[t];
  }
  EXPECT_LE(static_cast<double>(engine_mismatches),
            0.005 * static_cast<double>(engine_points))
      << engine_mismatches << " of " << engine_points
      << " engine predictions disagree";
}

// Satellite bugfix pin: committing T rows must not reallocate the score
// timeline per row — the reserve-to-extent policy keeps reallocations to
// a handful per node instead of O(T).
TEST_F(DispatchServeFixture, ScoreTimelineReallocationsBounded) {
  ServeEngine engine(*sentry_);
  const ReplayReport rep = serve_replay(engine, sim_->data, sim_->train_end);
  const ServeStats& stats = rep.result.stats;
  const std::size_t ticks = sim_->data.num_timestamps() - sim_->train_end;
  ASSERT_GT(ticks, 64u);
  EXPECT_LE(stats.score_reallocs, sim_->data.num_nodes() * 64);
  EXPECT_GT(stats.score_reallocs, 0u);  // the counter is actually wired
}

// Plans are not checkpointed: a quantized registry restored from a
// checkpoint recompiles (and recalibrates) every plan from the restored
// weights, and serves bit for bit like the registry that wrote it.
TEST_F(DispatchServeFixture,
       QuantizedRegistryRestoredFromCheckpointScoresBitwise) {
  const std::size_t clusters = sentry_->library().size();
  obs::Registry obs;
  GenerationRegistry registry(clusters, 2, &obs, ScoringPath::kQuantized);
  registry.seed_from_library(sentry_->library());
  const std::string dir =
      (fs::temp_directory_path() / "ns_dispatch_gen_ckpt").string();
  registry.save(dir);
  obs::Registry obs2;
  GenerationRegistry restored(clusters, 2, &obs2, ScoringPath::kQuantized);
  restored.load(dir, sentry_->model_config(), sentry_->config().seed);
  fs::remove_all(dir);

  const auto serve = [](GenerationRegistry& gens, obs::Registry& metrics) {
    ServeEngine engine(*sentry_, ServeConfig{.registry = &metrics,
                                             .scoring_path =
                                                 ScoringPath::kQuantized,
                                             .generations = 2,
                                             .generation_registry = &gens});
    return serve_replay(engine, sim_->data, sim_->train_end).result;
  };
  const ServeResult written = serve(registry, obs);
  const ServeResult reloaded = serve(restored, obs2);
  const DetectionDelta delta =
      compare_detections(reloaded.detections, written.detections);
  EXPECT_EQ(delta.max_abs_score_delta, 0.0);  // bitwise, not just close
  EXPECT_EQ(delta.prediction_mismatches, 0u);
  EXPECT_GT(written.stats.points_scored, 0u);
}

}  // namespace
}  // namespace ns
