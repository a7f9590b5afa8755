// Parameterized property-style tests for cross-module invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "core/nodesentry.hpp"
#include "eval/metrics.hpp"
#include "nn/moe.hpp"
#include "nn/transformer.hpp"
#include "sim/faults.hpp"
#include "sim/workload.hpp"
#include "ts/preprocess.hpp"

namespace ns {
namespace {

// ---------------------------------------------------------------- MoE

class MoeParamTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(MoeParamTest, RoutingInvariants) {
  const auto [experts, top_k] = GetParam();
  Rng rng(experts * 10 + top_k);
  MoELayer moe(6, 12, experts, top_k, rng);
  Var x = Var::constant(Tensor::randn(Shape{17, 6}, rng));
  Var y = moe.forward(x);
  // Output shape preserved; every token routed to exactly top_k experts.
  EXPECT_EQ(y.shape(), (Shape{17, 6}));
  const auto& load = moe.last_expert_load();
  EXPECT_EQ(std::accumulate(load.begin(), load.end(), 0u), 17u * top_k);
  // Aux loss is >= 1 (its minimum under perfect balance is N * (1/N) = 1
  // only when gate mass matches routing; in general it is positive).
  moe.forward(x);
  EXPECT_GT(moe.aux_load_balance_loss().value().at(0), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    ExpertTopKGrid, MoeParamTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{2, 1},
                      std::pair<std::size_t, std::size_t>{3, 1},
                      std::pair<std::size_t, std::size_t>{3, 2},
                      std::pair<std::size_t, std::size_t>{3, 3},
                      std::pair<std::size_t, std::size_t>{5, 2}));

// ------------------------------------------------------------ Transformer

class TransformerDepthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TransformerDepthTest, ForwardFiniteAtAnyDepth) {
  Rng rng(GetParam());
  TransformerConfig config;
  config.input_dim = 5;
  config.d_model = 12;
  config.num_heads = 2;
  config.num_layers = GetParam();
  config.ffn_hidden = 16;
  TransformerReconstructor model(config, rng);
  Var x = Var::constant(Tensor::randn(Shape{9, 5}, rng));
  Var y = model.forward(x, rng);
  for (float v : y.value().flat()) EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(model.expert_loads().size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Depths, TransformerDepthTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// -------------------------------------------------------------- k-sigma

class KSigmaTest : public ::testing::TestWithParam<double> {};

TEST_P(KSigmaTest, NeverFlagsConstantSeries) {
  const std::vector<float> scores(300, 2.5f);
  const auto flags = ksigma_flags(scores, 20, 300, 50, GetParam());
  for (auto f : flags) EXPECT_EQ(f, 0);
}

TEST_P(KSigmaTest, FlagCountMonotoneInK) {
  Rng rng(7);
  std::vector<float> scores(500);
  for (auto& s : scores) s = static_cast<float>(std::abs(rng.gaussian()));
  const double k = GetParam();
  const auto flags_k = ksigma_flags(scores, 20, 500, 60, k);
  const auto flags_k2 = ksigma_flags(scores, 20, 500, 60, k + 1.0);
  const auto count = [](const std::vector<std::uint8_t>& f) {
    return std::accumulate(f.begin(), f.end(), 0u);
  };
  EXPECT_GE(count(flags_k), count(flags_k2));
}

INSTANTIATE_TEST_SUITE_P(Sigmas, KSigmaTest,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0));

// ----------------------------------------------------------- point adjust

class PointAdjustPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PointAdjustPropertyTest, AdjustmentNeverRemovesPredictions) {
  Rng rng(GetParam());
  const std::size_t n = 200;
  std::vector<std::uint8_t> labels(n, 0), preds(n, 0), mask(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = rng.bernoulli(0.1);
    preds[i] = rng.bernoulli(0.1);
    mask[i] = rng.bernoulli(0.9);
  }
  const auto adjusted = point_adjust(preds, labels, mask);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_GE(adjusted[i], preds[i]) << "adjustment removed a prediction";
  // Expansion only happens on labeled points.
  for (std::size_t i = 0; i < n; ++i) {
    if (adjusted[i] && !preds[i]) {
      EXPECT_TRUE(labels[i]);
    }
  }
}

TEST_P(PointAdjustPropertyTest, MetricsBoundedAndConsistent) {
  Rng rng(GetParam() + 100);
  const std::size_t n = 150;
  std::vector<std::uint8_t> labels(n, 0), preds(n, 0), mask(n, 1);
  std::vector<float> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = rng.bernoulli(0.08);
    preds[i] = rng.bernoulli(0.15);
    scores[i] = static_cast<float>(rng.uniform());
  }
  const auto m = node_prf(preds, labels, mask);
  EXPECT_GE(m.precision, 0.0);
  EXPECT_LE(m.precision, 1.0);
  EXPECT_GE(m.recall, 0.0);
  EXPECT_LE(m.recall, 1.0);
  EXPECT_LE(m.f1, 1.0);
  const double auc = node_auc(scores, labels, mask);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointAdjustPropertyTest,
                         ::testing::Range(1, 6));

// ------------------------------------------------------------ faults

class FaultSignatureTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultSignatureTest, ImpostorDiffersFromRunningWorkload) {
  const FaultType fault = static_cast<FaultType>(GetParam());
  for (std::size_t w = 0; w < kNumWorkloadTypes; ++w) {
    const WorkloadType running = static_cast<WorkloadType>(w);
    const auto signature = fault_signature(fault, running);
    // The impostor must differ measurably from the canonical signature of
    // the running archetype itself (otherwise the fault is unobservable).
    Rng job_rng(1), node_rng(2);
    const auto plan = make_workload_plan(running, job_rng);
    const auto normal = evaluate_plan(plan, 10, 100, node_rng);
    double diff = 0.0;
    for (std::size_t s = 0; s < kNumSignals; ++s)
      diff += std::abs(signature[s] - normal[s]);
    EXPECT_GT(diff, 0.3) << fault_name(fault) << " during "
                         << workload_name(running);
    // And every signature level must be a plausible utilization value.
    for (double v : signature) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST_P(FaultSignatureTest, ApplyBlendsTowardSignature) {
  const FaultType fault = static_cast<FaultType>(GetParam());
  std::array<double, kNumSignals> s{};
  s.fill(0.5);
  const auto target = fault_signature(fault, WorkloadType::kIdle);
  apply_fault(s, fault, 0.99, 1.0, WorkloadType::kIdle);
  for (std::size_t i = 0; i < kNumSignals; ++i)
    EXPECT_NEAR(s[i], target[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllFaults, FaultSignatureTest,
                         ::testing::Range<std::size_t>(0, kNumFaultTypes));

// ------------------------------------------------------- standardization

class TrimSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(TrimSweepTest, OutliersNeverSkewTrimmedMean) {
  std::vector<float> xs(200, 10.0f);
  xs.push_back(1e6f);
  xs.push_back(-1e6f);
  const auto m = trimmed_moments(xs, GetParam());
  EXPECT_NEAR(m.mean, 10.0, 0.5);
}

INSTANTIATE_TEST_SUITE_P(TrimLevels, TrimSweepTest,
                         ::testing::Values(0.01, 0.05, 0.1, 0.25));

// ---------------------------------------------------------- median filter

TEST(CausalMedianFilter, RemovesSingletonSpikePreservesPlateau) {
  std::vector<float> scores(50, 1.0f);
  scores[20] = 100.0f;                          // singleton spike
  for (std::size_t i = 30; i < 40; ++i) scores[i] = 50.0f;  // real plateau
  const auto smoothed = causal_median_filter(scores, 3);
  EXPECT_LT(smoothed[20], 2.0f);
  EXPECT_LT(smoothed[21], 2.0f);
  // The plateau survives (from its second point on, the median is 50).
  EXPECT_GT(smoothed[32], 40.0f);
}

TEST(CausalMedianFilter, WidthOneIsIdentity) {
  Rng rng(3);
  std::vector<float> scores(30);
  for (auto& s : scores) s = static_cast<float>(rng.uniform());
  EXPECT_EQ(causal_median_filter(scores, 1), scores);
}

}  // namespace
}  // namespace ns
