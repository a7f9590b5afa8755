#include "baselines/detector.hpp"

#include <algorithm>

#include "common/mathutil.hpp"
#include "core/nodesentry.hpp"

namespace ns {

std::vector<std::uint8_t> baseline_threshold(const std::vector<float>& scores,
                                             std::size_t train_end) {
  const NodeSentryConfig defaults;  // same thresholding knobs as NodeSentry
  // A baseline has no segments, so one reference level covers the whole
  // test region: the median of its smoothed scores.
  float reference = 1.0f;
  if (scores.size() > train_end) {
    const std::vector<float> smoothed = smooth_scores(scores, defaults);
    reference = static_cast<float>(std::max(
        1e-9, median(std::vector<float>(
                  smoothed.begin() + static_cast<std::ptrdiff_t>(train_end),
                  smoothed.end()))));
  }
  return detection_flags(scores, std::vector<float>(scores.size(), reference),
                         train_end, defaults);
}

}  // namespace ns
