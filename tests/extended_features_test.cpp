#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "features/extract.hpp"

namespace ns {
namespace {

std::size_t idx_of(const std::string& name) {
  const auto& names = feature_names(true);
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return i;
  ADD_FAILURE() << "missing extended feature " << name;
  return 0;
}

TEST(ExtendedFeatures, CountAndNamesAligned) {
  EXPECT_EQ(feature_names(true).size(), features_per_metric(true));
  EXPECT_GT(features_per_metric(true), features_per_metric(false));
  EXPECT_EQ(features_per_metric(true), 72u);
}

TEST(ExtendedFeatures, BasePrefixIdentical) {
  Rng rng(1);
  std::vector<float> xs(100);
  for (float& x : xs) x = static_cast<float>(rng.gaussian());
  const auto base = extract_series_features(xs, false);
  const auto extended = extract_series_features(xs, true);
  ASSERT_EQ(extended.size(), features_per_metric(true));
  for (std::size_t i = 0; i < base.size(); ++i)
    EXPECT_EQ(extended[i], base[i]) << "base feature " << i << " changed";
}

TEST(ExtendedFeatures, AllFiniteOnEdgeCases) {
  for (const std::vector<float>& xs :
       {std::vector<float>{}, std::vector<float>{1.0f},
        std::vector<float>(30, 5.0f), std::vector<float>{1e12f, -1e12f, 0.0f}}) {
    for (float v : extract_series_features(xs, true))
      EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ExtendedFeatures, QuantilesOrdered) {
  Rng rng(2);
  std::vector<float> xs(500);
  for (float& x : xs) x = static_cast<float>(rng.gaussian());
  const auto f = extract_series_features(xs, true);
  EXPECT_LE(f[idx_of("p10")], f[idx_of("p90")]);
}

TEST(ExtendedFeatures, TrendR2HighForRamp) {
  std::vector<float> ramp(100);
  for (std::size_t i = 0; i < ramp.size(); ++i)
    ramp[i] = static_cast<float>(i);
  const auto f = extract_series_features(ramp, true);
  EXPECT_GT(f[idx_of("trend_r2")], 0.95f);

  Rng rng(3);
  std::vector<float> noise(100);
  for (float& x : noise) x = static_cast<float>(rng.gaussian());
  const auto g = extract_series_features(noise, true);
  EXPECT_LT(g[idx_of("trend_r2")], 0.3f);
}

TEST(ExtendedFeatures, AutocorrPeakFindsPeriod) {
  // Period-16 sinusoid: the dominant autocorrelation lag should be ~16.
  std::vector<float> xs(256);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = std::sin(2.0 * std::numbers::pi * i / 16.0);
  const auto f = extract_series_features(xs, true);
  EXPECT_GT(f[idx_of("autocorr_peak")], 0.9f);
  EXPECT_NEAR(f[idx_of("autocorr_peak_lag")], 16.0f / 32.0f, 0.08f);
}

TEST(ExtendedFeatures, QuarterEnergiesSumToOne) {
  Rng rng(4);
  std::vector<float> xs(200);
  for (float& x : xs) x = static_cast<float>(rng.gaussian());
  const auto f = extract_series_features(xs, true);
  const double sum = f[idx_of("quarter_energy_1")] +
                     f[idx_of("quarter_energy_2")] +
                     f[idx_of("quarter_energy_3")] +
                     f[idx_of("quarter_energy_4")];
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(ExtendedFeatures, QuarterEnergyLocatesBurst) {
  // Activity concentrated in the last quarter.
  std::vector<float> xs(200, 0.0f);
  for (std::size_t i = 150; i < 200; ++i)
    xs[i] = std::sin(0.5f * static_cast<float>(i)) * 5.0f;
  const auto f = extract_series_features(xs, true);
  EXPECT_GT(f[idx_of("quarter_energy_4")], 0.8f);
}

TEST(ExtendedFeatures, RatiosBeyondSigmaOrdered) {
  Rng rng(5);
  std::vector<float> xs(1000);
  for (float& x : xs) x = static_cast<float>(rng.gaussian());
  const auto f = extract_series_features(xs, true);
  EXPECT_GT(f[idx_of("ratio_beyond_1sigma")],
            f[idx_of("ratio_beyond_2sigma")]);
  // Roughly the Gaussian tail masses.
  EXPECT_NEAR(f[idx_of("ratio_beyond_1sigma")], 0.317f, 0.06f);
  EXPECT_NEAR(f[idx_of("ratio_beyond_2sigma")], 0.046f, 0.03f);
}

TEST(ExtendedFeatures, HaarEnergyReflectsScale) {
  // High-frequency alternation: all Haar detail energy at level 1.
  std::vector<float> alternating(128);
  for (std::size_t i = 0; i < alternating.size(); ++i)
    alternating[i] = (i % 2 == 0) ? 1.0f : -1.0f;
  const auto f = extract_series_features(alternating, true);
  EXPECT_GT(f[idx_of("haar_energy_1")], 0.9f);
  EXPECT_LT(f[idx_of("haar_energy_2")], 0.05f);

  // Slow square wave (period 8): energy moves to deeper levels.
  std::vector<float> slow(128);
  for (std::size_t i = 0; i < slow.size(); ++i)
    slow[i] = ((i / 4) % 2 == 0) ? 1.0f : -1.0f;
  const auto g = extract_series_features(slow, true);
  EXPECT_GT(g[idx_of("haar_energy_3")], g[idx_of("haar_energy_1")]);
}

TEST(ExtendedFeatures, FftCoefficientsPickSignalBin) {
  // 4 cycles over 128 samples -> padded FFT length 128, bin 4 dominates.
  std::vector<float> xs(128);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = std::sin(2.0 * std::numbers::pi * 4.0 * i / 128.0);
  const auto f = extract_series_features(xs, true);
  const float c4 = f[idx_of("fft_coef_4")];
  for (int k : {1, 2, 3, 5, 6, 7, 8}) {
    if (k == 4) continue;
    EXPECT_GT(c4, f[idx_of("fft_coef_" + std::to_string(k))]);
  }
}

}  // namespace
}  // namespace ns
