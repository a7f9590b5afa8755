// Order statistics the benchmark reports: medians, quartiles (the same
// definition as Python's statistics.quantiles(values, n=4), so the numbers
// printed here and the ones recomputed from raw runs agree), and
// "the highest percentile with at least 10 samples beyond it" for latency
// tails — a p99 over 50 samples is one sample, not a tail.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// statistics.quantiles(values, n=4) with the default 'exclusive' method.
/// One value yields that value for all three cut points.
inline Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  if (ld == 1) {
    q.q1 = q.q2 = q.q3 = values[0];
    return q;
  }
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = cut[0];
  q.q2 = cut[1];
  q.q3 = cut[2];
  return q;
}

/// Nearest-rank percentile: the smallest sample with at least p % of the
/// samples at or below it.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))),
      1, n == 0 ? 1 : n);
  return n >= rank ? n - rank : 0;
}

struct TailPercentile {
  double percentile = 0.0;  ///< 0 when even the median lacks 10 beyond it
  double value = 0.0;
  std::size_t beyond = 0;
};

/// The highest of p99.9 / p99.5 / p99 / p95 / p90 / p75 / p50 that has at
/// least 10 samples beyond it.
inline TailPercentile highest_supported_percentile(
    const std::vector<double>& values) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 95.0,
                                       90.0, 75.0, 50.0};
  TailPercentile tail;
  for (const double p : kLadder) {
    const std::size_t beyond = samples_beyond(values.size(), p);
    if (beyond >= 10) {
      tail.percentile = p;
      tail.value = percentile(values, p);
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

}  // namespace perfbench
