// Detector-assisted pre-labeling (§4.2: "we integrate multiple anomaly
// detection methods (e.g., statistical methods and deep learning methods)
// to aid in labeling"). Suggestions are intervals an operator confirms or
// cancels in the LabelStore.
#pragma once

#include <cstddef>
#include <vector>

#include "labeling/label_store.hpp"
#include "ts/mts.hpp"

namespace ns {

struct SuggestConfig {
  double k_sigma = 4.0;           ///< statistical sensitivity
  std::size_t min_interval = 3;   ///< drop shorter suggestions
  std::size_t merge_gap = 4;      ///< merge suggestions this close together
};

/// Statistical suggestions: points where the mean of the top quartile of
/// per-metric |z| exceeds k-sigma of its own training distribution, grouped
/// into intervals. Works best on preprocessed (standardized) data, where
/// deviations are comparable across metrics.
std::vector<LabelInterval> suggest_statistical(const MtsDataset& dataset,
                                               std::size_t node,
                                               std::size_t eval_begin,
                                               const SuggestConfig& config = {});

/// Groups a 0/1 flag vector into intervals with gap merging and minimum
/// length filtering.
std::vector<LabelInterval> flags_to_intervals(
    const std::vector<std::uint8_t>& flags, const SuggestConfig& config);

}  // namespace ns
