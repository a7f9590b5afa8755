#include "labeling/suggest.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace ns {

std::vector<LabelInterval> flags_to_intervals(
    const std::vector<std::uint8_t>& flags, const SuggestConfig& config) {
  std::vector<LabelInterval> out;
  std::size_t t = 0;
  while (t < flags.size()) {
    if (!flags[t]) {
      ++t;
      continue;
    }
    std::size_t end = t;
    while (end < flags.size() && flags[end]) ++end;
    if (!out.empty() && t <= out.back().end + config.merge_gap) {
      out.back().end = end;
    } else {
      out.push_back(LabelInterval{t, end, "suggested"});
    }
    t = end;
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const LabelInterval& iv) {
                             return iv.end - iv.begin < config.min_interval;
                           }),
            out.end());
  return out;
}

std::vector<LabelInterval> suggest_statistical(const MtsDataset& dataset,
                                               std::size_t node,
                                               std::size_t eval_begin,
                                               const SuggestConfig& config) {
  NS_REQUIRE(node < dataset.num_nodes(), "suggest: node out of range");
  const std::size_t T = dataset.num_timestamps();
  const std::size_t M = dataset.num_metrics();
  NS_REQUIRE(eval_begin < T, "suggest: eval_begin out of range");

  // Per-timestep aggregate: mean of the top quartile of per-metric |z|.
  // Faults typically perturb a handful of metrics; a plain cross-metric
  // mean would dilute them below detectability.
  std::vector<double> mus(M), sds(M);
  for (std::size_t m = 0; m < M; ++m) {
    const auto& series = dataset.nodes[node].values[m];
    mus[m] = mean(std::span<const float>(series.data(), eval_begin));
    sds[m] = std::max(
        1e-6, stddev(std::span<const float>(series.data(), eval_begin)));
  }
  const std::size_t top = std::max<std::size_t>(1, M / 4);
  std::vector<float> agg(T, 0.0f);
  std::vector<float> zs(M);
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t m = 0; m < M; ++m)
      zs[m] = static_cast<float>(
          std::abs((dataset.nodes[node].values[m][t] - mus[m]) / sds[m]));
    std::nth_element(zs.begin(), zs.begin() + static_cast<std::ptrdiff_t>(top),
                     zs.end(), std::greater<float>());
    double acc = 0.0;
    for (std::size_t i = 0; i < top; ++i) acc += zs[i];
    agg[t] = static_cast<float>(acc / static_cast<double>(top));
  }

  const double mu = mean(std::span<const float>(agg.data(), eval_begin));
  const double sd = std::max(
      1e-6, stddev(std::span<const float>(agg.data(), eval_begin)));
  std::vector<std::uint8_t> flags(T, 0);
  for (std::size_t t = eval_begin; t < T; ++t)
    if (agg[t] > mu + config.k_sigma * sd) flags[t] = 1;
  return flags_to_intervals(flags, config);
}

}  // namespace ns
