#include "features/extract.hpp"

#include <algorithm>
#include <cmath>

#include "common/mathutil.hpp"
#include "common/thread_pool.hpp"
#include "features/fft.hpp"

namespace ns {
namespace {

// Feature order must match kFeatureNames below.
enum FeatureIndex : std::size_t {
  // --- statistical (20)
  kMean = 0,
  kStd,
  kVariance,
  kMedian,
  kMin,
  kMax,
  kRange,
  kRms,
  kAbsEnergy,
  kSkewness,
  kKurtosis,
  kP05,
  kP25,
  kP75,
  kP95,
  kIqr,
  kMeanAbsDeviation,
  kZeroCrossRate,
  kAboveMeanFraction,
  kHistEntropy,
  // --- temporal (11)
  kMac,
  kMeanDiff,
  kMaxAbsDiff,
  kSumAbsChange,
  kAutocorrLag1,
  kAutocorrLag4,
  kSlope,
  kPeakFraction,
  kLongestStrikeAboveMean,
  kCidCe,
  kTurningPointRate,
  // --- spectral (9)
  kMaxPower,
  kArgmaxFreq,
  kSpectralCentroid,
  kSpectralSpread,
  kSpectralEntropy,
  kSpectralRolloff,
  kBandRatioLow,
  kBandRatioMid,
  kBandRatioHigh,
  kNumFeatures
};

const std::vector<std::string> kFeatureNames = {
    "mean", "std", "variance", "median", "min", "max", "range", "rms",
    "abs_energy", "skewness", "kurtosis", "p05", "p25", "p75", "p95", "iqr",
    "mean_abs_deviation", "zero_cross_rate", "above_mean_fraction",
    "hist_entropy", "mac", "mean_diff", "max_abs_diff", "sum_abs_change",
    "autocorr_lag1", "autocorr_lag4", "slope", "peak_fraction",
    "longest_strike_above_mean", "cid_ce", "turning_point_rate", "max_power",
    "argmax_freq", "spectral_centroid", "spectral_spread", "spectral_entropy",
    "spectral_rolloff", "band_ratio_low", "band_ratio_mid", "band_ratio_high"};

static_assert(kNumFeatures == 40);

double autocorrelation(std::span<const float> xs, std::size_t lag, double mu,
                       double var) {
  if (xs.size() <= lag || var <= 0.0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i + lag < xs.size(); ++i)
    acc += (xs[i] - mu) * (xs[i + lag] - mu);
  return acc / (static_cast<double>(xs.size() - lag) * var);
}

float sanitize(double x) {
  if (!std::isfinite(x)) return 0.0f;
  return static_cast<float>(std::clamp(x, -1e12, 1e12));
}

}  // namespace

const std::vector<std::string>& feature_names() { return kFeatureNames; }

std::size_t features_per_metric() { return kNumFeatures; }

std::vector<float> extract_series_features(std::span<const float> series) {
  std::vector<float> f(kNumFeatures, 0.0f);
  const std::size_t n = series.size();
  if (n < 2) return f;
  const double inv_n = 1.0 / static_cast<double>(n);

  // ---- statistical
  const double mu = mean(series);
  const double var = variance(series, mu);
  const double sd = std::sqrt(var);
  std::vector<float> sorted(series.begin(), series.end());
  std::sort(sorted.begin(), sorted.end());
  const auto order_stat = [&](double q) {
    const double pos = q * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    return (1.0 - frac) * sorted[lo] + frac * sorted[hi];
  };
  f[kMean] = sanitize(mu);
  f[kStd] = sanitize(sd);
  f[kVariance] = sanitize(var);
  f[kMedian] = sanitize(order_stat(0.5));
  f[kMin] = sanitize(sorted.front());
  f[kMax] = sanitize(sorted.back());
  f[kRange] = sanitize(sorted.back() - sorted.front());
  double energy = 0.0;
  for (float x : series) energy += static_cast<double>(x) * x;
  f[kAbsEnergy] = sanitize(energy);
  f[kRms] = sanitize(std::sqrt(energy * inv_n));
  if (sd > 1e-12) {
    double m3 = 0.0, m4 = 0.0;
    for (float x : series) {
      const double d = (x - mu) / sd;
      m3 += d * d * d;
      m4 += d * d * d * d;
    }
    f[kSkewness] = sanitize(m3 * inv_n);
    f[kKurtosis] = sanitize(m4 * inv_n - 3.0);
  }
  f[kP05] = sanitize(order_stat(0.05));
  f[kP25] = sanitize(order_stat(0.25));
  f[kP75] = sanitize(order_stat(0.75));
  f[kP95] = sanitize(order_stat(0.95));
  f[kIqr] = sanitize(order_stat(0.75) - order_stat(0.25));
  double mad = 0.0;
  for (float x : series) mad += std::abs(x - mu);
  f[kMeanAbsDeviation] = sanitize(mad * inv_n);
  std::size_t zero_cross = 0, above = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (series[i] > mu) ++above;
    if (i > 0 && ((series[i - 1] - mu) * (series[i] - mu) < 0.0)) ++zero_cross;
  }
  f[kZeroCrossRate] = sanitize(static_cast<double>(zero_cross) / (n - 1));
  f[kAboveMeanFraction] = sanitize(static_cast<double>(above) * inv_n);
  // Histogram entropy over 10 equal-width bins.
  if (sorted.back() > sorted.front()) {
    constexpr std::size_t kBins = 10;
    std::vector<std::size_t> bins(kBins, 0);
    const double width = (sorted.back() - sorted.front()) / kBins;
    for (float x : series) {
      std::size_t b = static_cast<std::size_t>((x - sorted.front()) / width);
      bins[std::min(b, kBins - 1)]++;
    }
    double entropy = 0.0;
    for (std::size_t c : bins) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) * inv_n;
      entropy -= p * std::log2(p);
    }
    f[kHistEntropy] = sanitize(entropy);
  }

  // ---- temporal
  f[kMac] = sanitize(mean_absolute_change(series));
  double sum_diff = 0.0, sum_abs_diff = 0.0, max_abs_diff = 0.0,
         sum_sq_diff = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double d = static_cast<double>(series[i + 1]) - series[i];
    sum_diff += d;
    sum_abs_diff += std::abs(d);
    max_abs_diff = std::max(max_abs_diff, std::abs(d));
    sum_sq_diff += d * d;
  }
  f[kMeanDiff] = sanitize(sum_diff / (n - 1));
  f[kMaxAbsDiff] = sanitize(max_abs_diff);
  f[kSumAbsChange] = sanitize(sum_abs_diff);
  f[kAutocorrLag1] = sanitize(autocorrelation(series, 1, mu, var));
  f[kAutocorrLag4] = sanitize(autocorrelation(series, 4, mu, var));
  // Least-squares slope against t = 0..n-1.
  {
    const double t_mean = (n - 1) / 2.0;
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dt = static_cast<double>(i) - t_mean;
      num += dt * (series[i] - mu);
      den += dt * dt;
    }
    f[kSlope] = sanitize(den > 0.0 ? num / den : 0.0);
  }
  std::size_t peaks = 0, turning = 0;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const bool up = series[i] > series[i - 1];
    const bool down = series[i] > series[i + 1];
    if (up && down) ++peaks;
    if ((series[i] - series[i - 1]) * (series[i + 1] - series[i]) < 0.0)
      ++turning;
  }
  f[kPeakFraction] = sanitize(static_cast<double>(peaks) * inv_n);
  f[kTurningPointRate] = sanitize(static_cast<double>(turning) * inv_n);
  std::size_t strike = 0, best_strike = 0;
  for (std::size_t i = 0; i < n; ++i) {
    strike = series[i] > mu ? strike + 1 : 0;
    best_strike = std::max(best_strike, strike);
  }
  f[kLongestStrikeAboveMean] =
      sanitize(static_cast<double>(best_strike) * inv_n);
  f[kCidCe] = sanitize(std::sqrt(sum_sq_diff));

  // ---- spectral
  const std::vector<double> power = power_spectrum(series);
  double total_power = 0.0;
  for (double p : power) total_power += p;
  std::size_t argmax = 0;
  for (std::size_t k = 1; k < power.size(); ++k)
    if (power[k] > power[argmax]) argmax = k;
  f[kMaxPower] = sanitize(power[argmax]);
  f[kArgmaxFreq] =
      sanitize(static_cast<double>(argmax) / static_cast<double>(power.size()));
  if (total_power > 1e-12) {
    double centroid = 0.0;
    for (std::size_t k = 0; k < power.size(); ++k)
      centroid += static_cast<double>(k) * power[k];
    centroid /= total_power * static_cast<double>(power.size());
    f[kSpectralCentroid] = sanitize(centroid);
    double spread = 0.0;
    for (std::size_t k = 0; k < power.size(); ++k) {
      const double rel = static_cast<double>(k) / power.size() - centroid;
      spread += rel * rel * power[k];
    }
    f[kSpectralSpread] = sanitize(std::sqrt(spread / total_power));
    double sentropy = 0.0;
    for (double p : power) {
      if (p <= 0.0) continue;
      const double q = p / total_power;
      sentropy -= q * std::log2(q);
    }
    f[kSpectralEntropy] = sanitize(sentropy);
    // Rolloff: smallest k with cumulative power >= 85%.
    double cum = 0.0;
    for (std::size_t k = 0; k < power.size(); ++k) {
      cum += power[k];
      if (cum >= 0.85 * total_power) {
        f[kSpectralRolloff] =
            sanitize(static_cast<double>(k) / power.size());
        break;
      }
    }
    // Thirds of the spectrum.
    const std::size_t third = std::max<std::size_t>(1, power.size() / 3);
    double low = 0.0, mid = 0.0, high = 0.0;
    for (std::size_t k = 0; k < power.size(); ++k) {
      if (k < third) low += power[k];
      else if (k < 2 * third) mid += power[k];
      else high += power[k];
    }
    f[kBandRatioLow] = sanitize(low / total_power);
    f[kBandRatioMid] = sanitize(mid / total_power);
    f[kBandRatioHigh] = sanitize(high / total_power);
  }
  return f;
}

std::vector<float> extract_segment_features(
    const std::vector<std::vector<float>>& segment) {
  std::vector<float> out;
  out.reserve(segment.size() * kNumFeatures);
  for (const auto& series : segment) {
    const std::vector<float> f = extract_series_features(series);
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

std::vector<std::vector<float>> extract_feature_matrix(
    const MtsDataset& dataset, std::span<const SegmentRef> segments) {
  std::vector<std::vector<float>> matrix(segments.size());
  parallel_for(0, segments.size(), [&](std::size_t i) {
    matrix[i] = extract_segment_features(segment_values(dataset, segments[i]));
  });
  return matrix;
}

void FeatureScaler::fit(const std::vector<std::vector<float>>& matrix) {
  NS_REQUIRE(!matrix.empty(), "FeatureScaler::fit on empty matrix");
  const std::size_t dim = matrix.front().size();
  mean_.assign(dim, 0.0f);
  stddev_.assign(dim, 1.0f);
  const double inv_rows = 1.0 / static_cast<double>(matrix.size());
  for (std::size_t d = 0; d < dim; ++d) {
    double mu = 0.0;
    for (const auto& row : matrix) {
      NS_REQUIRE(row.size() == dim, "FeatureScaler: ragged matrix");
      mu += row[d];
    }
    mu *= inv_rows;
    double var = 0.0;
    for (const auto& row : matrix) {
      const double diff = row[d] - mu;
      var += diff * diff;
    }
    var *= inv_rows;
    mean_[d] = static_cast<float>(mu);
    stddev_[d] = var > 1e-12 ? static_cast<float>(std::sqrt(var)) : 1.0f;
  }
}

std::vector<float> FeatureScaler::transform(
    const std::vector<float>& features) const {
  NS_REQUIRE(fitted(), "FeatureScaler::transform before fit");
  NS_REQUIRE(features.size() == mean_.size(),
             "FeatureScaler: dimension mismatch");
  std::vector<float> out(features.size());
  for (std::size_t d = 0; d < features.size(); ++d)
    out[d] = (features[d] - mean_[d]) / stddev_[d];
  return out;
}

void FeatureScaler::transform_in_place(
    std::vector<std::vector<float>>& matrix) const {
  for (auto& row : matrix) row = transform(row);
}

void FeatureScaler::restore(std::vector<float> means,
                            std::vector<float> stddevs) {
  NS_REQUIRE(means.size() == stddevs.size(),
             "FeatureScaler::restore: size mismatch");
  mean_ = std::move(means);
  stddev_ = std::move(stddevs);
}

}  // namespace ns
