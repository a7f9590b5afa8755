#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "features/extract.hpp"
#include "features/fft.hpp"
#include "ts/mts.hpp"

namespace ns {
namespace {

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(Fft, MatchesNaiveDft) {
  Rng rng(1);
  const std::size_t n = 64;
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) x = {rng.gaussian(), rng.gaussian()};
  std::vector<std::complex<double>> expected(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * t) / static_cast<double>(n);
      acc += data[t] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    expected[k] = acc;
  }
  fft_inplace(data);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(data[k].real(), expected[k].real(), 1e-8);
    EXPECT_NEAR(data[k].imag(), expected[k].imag(), 1e-8);
  }
}

TEST(Fft, ForwardInverseRoundTrip) {
  Rng rng(2);
  std::vector<std::complex<double>> data(32);
  for (auto& x : data) x = {rng.gaussian(), 0.0};
  const auto original = data;
  fft_inplace(data);
  fft_inplace(data, /*inverse=*/true);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(data[i].real() / 32.0, original[i].real(), 1e-10);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(6);
  EXPECT_THROW(fft_inplace(data), InvalidArgument);
}

TEST(Fft, PowerSpectrumPeaksAtSignalFrequency) {
  // Pure sinusoid with 8 cycles over 128 samples -> peak at bin 8.
  std::vector<float> xs(128);
  for (std::size_t t = 0; t < xs.size(); ++t)
    xs[t] = std::sin(2.0 * std::numbers::pi * 8.0 * t / 128.0);
  const auto power = power_spectrum(xs);
  std::size_t argmax = 0;
  for (std::size_t k = 1; k < power.size(); ++k)
    if (power[k] > power[argmax]) argmax = k;
  EXPECT_EQ(argmax, 8u);
}

TEST(Fft, PowerSpectrumOfShortSeries) {
  const std::vector<float> xs{1.0f};
  EXPECT_EQ(power_spectrum(xs).size(), 1u);
}

TEST(Features, CountAndNamesAligned) {
  EXPECT_EQ(feature_names().size(), features_per_metric());
  EXPECT_EQ(features_per_metric(), 40u);
}

TEST(Features, ConstantSeriesWellDefined) {
  const std::vector<float> xs(50, 3.0f);
  const auto f = extract_series_features(xs);
  ASSERT_EQ(f.size(), features_per_metric());
  for (float v : f) EXPECT_TRUE(std::isfinite(v));
  // mean == median == min == max == 3; std == 0.
  EXPECT_FLOAT_EQ(f[0], 3.0f);
  EXPECT_FLOAT_EQ(f[1], 0.0f);
  EXPECT_FLOAT_EQ(f[3], 3.0f);
}

TEST(Features, ShortSeriesAllZero) {
  const std::vector<float> one{5.0f};
  for (float v : extract_series_features(one)) EXPECT_EQ(v, 0.0f);
  const std::vector<float> empty;
  for (float v : extract_series_features(empty)) EXPECT_EQ(v, 0.0f);
}

TEST(Features, KnownStatisticsOfRamp) {
  // 0,1,...,9: mean 4.5, min 0, max 9, range 9, slope 1.
  std::vector<float> xs(10);
  for (std::size_t i = 0; i < 10; ++i) xs[i] = static_cast<float>(i);
  const auto f = extract_series_features(xs);
  const auto& names = feature_names();
  auto idx = [&](const std::string& name) {
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == name) return i;
    ADD_FAILURE() << "missing feature " << name;
    return std::size_t{0};
  };
  EXPECT_FLOAT_EQ(f[idx("mean")], 4.5f);
  EXPECT_FLOAT_EQ(f[idx("min")], 0.0f);
  EXPECT_FLOAT_EQ(f[idx("max")], 9.0f);
  EXPECT_FLOAT_EQ(f[idx("range")], 9.0f);
  EXPECT_NEAR(f[idx("slope")], 1.0f, 1e-5);
  EXPECT_NEAR(f[idx("mac")], 1.0f, 1e-6);
  EXPECT_NEAR(f[idx("sum_abs_change")], 9.0f, 1e-5);
  EXPECT_FLOAT_EQ(f[idx("max_abs_diff")], 1.0f);
}

TEST(Features, DistinguishesSmoothFromNoisy) {
  Rng rng(3);
  std::vector<float> smooth(128), noisy(128);
  for (std::size_t t = 0; t < 128; ++t) {
    smooth[t] = std::sin(0.1 * t);
    noisy[t] = static_cast<float>(rng.gaussian());
  }
  const auto fs = extract_series_features(smooth);
  const auto fn = extract_series_features(noisy);
  // Noisy signal has much higher zero-crossing & turning-point rates.
  const auto& names = feature_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "zero_cross_rate" || names[i] == "turning_point_rate") {
      EXPECT_GT(fn[i], fs[i] * 2.0f) << names[i];
    }
  }
}

TEST(Features, SegmentVectorIsConcatOverMetrics) {
  std::vector<std::vector<float>> segment{{1, 2, 3, 4}, {4, 3, 2, 1}};
  const auto v = extract_segment_features(segment);
  EXPECT_EQ(v.size(), 2 * features_per_metric());
  const auto f0 = extract_series_features(segment[0]);
  for (std::size_t i = 0; i < f0.size(); ++i) EXPECT_EQ(v[i], f0[i]);
}

TEST(Features, MatrixOverDatasetSegments) {
  MtsDataset ds;
  MetricMeta meta;
  meta.name = "m";
  ds.metrics.push_back(meta);
  NodeSeries node;
  node.node_name = "n";
  node.values.push_back(std::vector<float>(30, 1.0f));
  for (std::size_t i = 0; i < 30; ++i)
    node.values[0][i] = std::sin(0.3f * static_cast<float>(i));
  ds.nodes.push_back(node);
  ds.jobs.push_back({JobSpan{1, 0, 15}, JobSpan{2, 15, 30}});
  const auto segments = collect_segments(ds);
  const auto matrix = extract_feature_matrix(ds, segments);
  ASSERT_EQ(matrix.size(), 2u);
  EXPECT_EQ(matrix[0].size(), features_per_metric());
  // Different sub-ranges of a sinusoid -> differing features.
  double diff = 0.0;
  for (std::size_t i = 0; i < matrix[0].size(); ++i)
    diff += std::abs(matrix[0][i] - matrix[1][i]);
  EXPECT_GT(diff, 1e-3);
}

TEST(Features, FixedWidthRegardlessOfSegmentLength) {
  std::vector<std::vector<float>> short_seg{{1, 2, 3, 4, 5}};
  std::vector<std::vector<float>> long_seg{std::vector<float>(500, 1.0f)};
  EXPECT_EQ(extract_segment_features(short_seg).size(),
            extract_segment_features(long_seg).size());
}

}  // namespace
}  // namespace ns
