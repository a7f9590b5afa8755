#include <gtest/gtest.h>

#include <memory>

#include "baselines/detector.hpp"
#include "baselines/examon.hpp"
#include "baselines/isc20.hpp"
#include "baselines/prodigy.hpp"
#include "baselines/ruad.hpp"
#include "eval/metrics.hpp"
#include "sim/dataset_builder.hpp"
#include "ts/preprocess.hpp"

namespace ns {
namespace {

// Shared tiny preprocessed dataset (baselines are slow to run repeatedly).
class BaselineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimDatasetConfig sim_config = d2_sim_config(0.5, 13);
    sim_config.anomaly_ratio = 0.02;
    sim_ = new SimDataset(build_sim_dataset(sim_config));
    auto pre = preprocess(sim_->data, sim_->train_end);
    processed_ = new MtsDataset(std::move(pre.dataset));
  }
  static void TearDownTestSuite() {
    delete processed_;
    delete sim_;
    processed_ = nullptr;
    sim_ = nullptr;
  }

  static void check_report(const DetectorReport& report) {
    ASSERT_EQ(report.detections.size(), processed_->num_nodes());
    const std::size_t T = processed_->num_timestamps();
    bool any_score = false;
    for (const auto& det : report.detections) {
      ASSERT_EQ(det.scores.size(), T);
      ASSERT_EQ(det.predictions.size(), T);
      for (std::size_t t = 0; t < sim_->train_end; ++t) {
        EXPECT_EQ(det.predictions[t], 0);
      }
      for (std::size_t t = sim_->train_end; t < T; ++t) {
        EXPECT_TRUE(std::isfinite(det.scores[t]));
        any_score = any_score || det.scores[t] != 0.0f;
      }
    }
    EXPECT_TRUE(any_score);
    EXPECT_GE(report.train_seconds, 0.0);
  }

  static double auc_of(const DetectorReport& report) {
    std::vector<std::vector<std::uint8_t>> masks;
    for (std::size_t n = 0; n < sim_->data.num_nodes(); ++n)
      masks.push_back(evaluation_mask(sim_->data.jobs[n],
                                      sim_->data.num_timestamps(),
                                      sim_->train_end, 4));
    return aggregate_nodes(report.detections, sim_->data.labels, masks).auc;
  }

  static SimDataset* sim_;
  static MtsDataset* processed_;
};

SimDataset* BaselineFixture::sim_ = nullptr;
MtsDataset* BaselineFixture::processed_ = nullptr;

TEST_F(BaselineFixture, Isc20RunsAndScores) {
  Isc20Config config;
  config.window = 40;
  config.stride = 20;
  Isc20 detector(config);
  EXPECT_EQ(detector.name(), "ISC 20");
  const auto report = detector.run(*processed_, sim_->train_end);
  check_report(report);
}

TEST_F(BaselineFixture, ProdigyRunsAndScores) {
  ProdigyConfig config;
  config.epochs = 2;
  config.max_train_rows = 2048;
  Prodigy detector(config);
  const auto report = detector.run(*processed_, sim_->train_end);
  check_report(report);
  // Contextless detectors are close to blind on the simulator's contextual
  // faults (that is Table 4's point); only sanity-check the AUC range.
  const double auc = auc_of(report);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);
}

TEST_F(BaselineFixture, ExamonRunsAndScores) {
  ExamonConfig config;
  config.epochs = 2;
  Examon detector(config);
  const auto report = detector.run(*processed_, sim_->train_end);
  check_report(report);
  const double auc = auc_of(report);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);
}

TEST_F(BaselineFixture, RuadRunsAndScores) {
  RuadConfig config;
  config.epochs = 1;
  config.max_windows_per_node = 20;
  Ruad detector(config);
  const auto report = detector.run(*processed_, sim_->train_end);
  check_report(report);
}

TEST(BaselineThreshold, FlagsObviousSpike) {
  std::vector<float> scores(200, 1.0f);
  for (std::size_t i = 0; i < scores.size(); ++i)
    scores[i] += 0.05f * static_cast<float>(i % 7);
  for (std::size_t i = 120; i < 132; ++i) scores[i] = 25.0f;
  const auto flags = baseline_threshold(scores, 50);
  bool hit = false;
  for (std::size_t i = 120; i < 132; ++i) hit = hit || flags[i];
  EXPECT_TRUE(hit);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(flags[i], 0);
}

TEST(BaselineThreshold, QuietSeriesStaysQuiet) {
  std::vector<float> scores(200, 0.5f);
  const auto flags = baseline_threshold(scores, 50);
  for (auto f : flags) EXPECT_EQ(f, 0);
}

}  // namespace
}  // namespace ns
