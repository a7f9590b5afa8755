#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ns {

std::vector<std::uint8_t> evaluation_mask(std::span<const JobSpan> spans,
                                          std::size_t total_timestamps,
                                          std::size_t eval_begin,
                                          std::size_t guard_steps) {
  std::vector<std::uint8_t> mask(total_timestamps, 1);
  for (std::size_t t = 0; t < std::min(eval_begin, total_timestamps); ++t)
    mask[t] = 0;
  for (const JobSpan& span : spans) {
    for (std::size_t g = 0; g < guard_steps; ++g) {
      if (span.begin + g < total_timestamps) mask[span.begin + g] = 0;
      if (span.end >= g + 1) {
        const std::size_t t = span.end - 1 - g;
        if (t < total_timestamps && t >= span.begin) mask[t] = 0;
      }
    }
  }
  return mask;
}

std::vector<std::uint8_t> point_adjust(
    std::span<const std::uint8_t> predictions,
    std::span<const std::uint8_t> labels,
    std::span<const std::uint8_t> mask) {
  NS_REQUIRE(predictions.size() == labels.size() &&
                 labels.size() == mask.size(),
             "point_adjust: length mismatch");
  std::vector<std::uint8_t> adjusted(predictions.begin(), predictions.end());
  const std::size_t n = labels.size();
  std::size_t t = 0;
  while (t < n) {
    if (!labels[t]) {
      ++t;
      continue;
    }
    // Ground-truth segment [t, seg_end).
    std::size_t seg_end = t;
    while (seg_end < n && labels[seg_end]) ++seg_end;
    bool hit = false;
    for (std::size_t i = t; i < seg_end && !hit; ++i)
      hit = mask[i] && predictions[i];
    if (hit)
      for (std::size_t i = t; i < seg_end; ++i) adjusted[i] = 1;
    t = seg_end;
  }
  return adjusted;
}

DetectionMetrics node_prf(std::span<const std::uint8_t> predictions,
                          std::span<const std::uint8_t> labels,
                          std::span<const std::uint8_t> mask) {
  const std::vector<std::uint8_t> adjusted =
      point_adjust(predictions, labels, mask);
  std::size_t tp = 0, fp = 0, fn = 0;
  for (std::size_t t = 0; t < labels.size(); ++t) {
    if (!mask[t]) continue;
    if (adjusted[t] && labels[t]) ++tp;
    else if (adjusted[t] && !labels[t]) ++fp;
    else if (!adjusted[t] && labels[t]) ++fn;
  }
  DetectionMetrics m;
  m.precision = tp + fp > 0 ? static_cast<double>(tp) / (tp + fp) : 0.0;
  m.recall = tp + fn > 0 ? static_cast<double>(tp) / (tp + fn) : 0.0;
  m.f1 = (m.precision + m.recall) > 0.0
             ? 2.0 * m.precision * m.recall / (m.precision + m.recall)
             : 0.0;
  return m;
}

double node_auc(std::span<const float> scores,
                std::span<const std::uint8_t> labels,
                std::span<const std::uint8_t> mask) {
  NS_REQUIRE(scores.size() == labels.size() && labels.size() == mask.size(),
             "node_auc: length mismatch");
  // Point-adjust the scores: each true segment gets its max score.
  std::vector<float> adjusted(scores.begin(), scores.end());
  std::size_t t = 0;
  const std::size_t n = labels.size();
  while (t < n) {
    if (!labels[t]) {
      ++t;
      continue;
    }
    std::size_t seg_end = t;
    float seg_max = scores[t];
    while (seg_end < n && labels[seg_end]) {
      seg_max = std::max(seg_max, scores[seg_end]);
      ++seg_end;
    }
    for (std::size_t i = t; i < seg_end; ++i) adjusted[i] = seg_max;
    t = seg_end;
  }
  // Mann–Whitney U with tie correction via average ranks.
  std::vector<std::pair<float, std::uint8_t>> pool;
  for (std::size_t i = 0; i < n; ++i)
    if (mask[i]) pool.emplace_back(adjusted[i], labels[i]);
  std::size_t pos = 0, neg = 0;
  for (const auto& [s, l] : pool) (l ? pos : neg)++;
  if (pos == 0 || neg == 0) return 0.5;
  std::sort(pool.begin(), pool.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double rank_sum_pos = 0.0;
  std::size_t i = 0;
  while (i < pool.size()) {
    std::size_t j = i;
    while (j < pool.size() && pool[j].first == pool[i].first) ++j;
    const double avg_rank = 0.5 * static_cast<double>(i + j - 1) + 1.0;
    for (std::size_t k = i; k < j; ++k)
      if (pool[k].second) rank_sum_pos += avg_rank;
    i = j;
  }
  const double u = rank_sum_pos -
                   static_cast<double>(pos) * (pos + 1) / 2.0;
  return u / (static_cast<double>(pos) * static_cast<double>(neg));
}

DetectionMetrics aggregate_nodes(
    const std::vector<NodeDetection>& detections,
    const std::vector<std::vector<std::uint8_t>>& labels,
    const std::vector<std::vector<std::uint8_t>>& masks) {
  NS_REQUIRE(detections.size() == labels.size() &&
                 labels.size() == masks.size(),
             "aggregate_nodes: node count mismatch");
  double sum_p = 0.0, sum_r = 0.0, sum_auc = 0.0;
  std::size_t counted = 0;
  for (std::size_t n = 0; n < detections.size(); ++n) {
    bool has_anomaly = false;
    for (std::size_t t = 0; t < labels[n].size(); ++t)
      if (masks[n][t] && labels[n][t]) {
        has_anomaly = true;
        break;
      }
    if (!has_anomaly) continue;
    const DetectionMetrics prf =
        node_prf(detections[n].predictions, labels[n], masks[n]);
    sum_p += prf.precision;
    sum_r += prf.recall;
    sum_auc += node_auc(detections[n].scores, labels[n], masks[n]);
    ++counted;
  }
  DetectionMetrics out;
  if (counted == 0) return out;
  out.precision = sum_p / static_cast<double>(counted);
  out.recall = sum_r / static_cast<double>(counted);
  out.auc = sum_auc / static_cast<double>(counted);
  out.f1 = (out.precision + out.recall) > 0.0
               ? 2.0 * out.precision * out.recall /
                     (out.precision + out.recall)
               : 0.0;
  return out;
}

EventRecall event_recall(
    const std::vector<NodeDetection>& detections,
    const std::vector<std::vector<std::uint8_t>>& labels,
    const std::vector<std::vector<std::uint8_t>>& masks) {
  NS_REQUIRE(detections.size() == labels.size() &&
                 labels.size() == masks.size(),
             "event_recall: node count mismatch");
  EventRecall out;
  for (std::size_t n = 0; n < labels.size(); ++n) {
    const std::vector<std::uint8_t>& label = labels[n];
    const std::vector<std::uint8_t>& mask = masks[n];
    const std::vector<std::uint8_t>& flag = detections[n].predictions;
    NS_REQUIRE(flag.size() == label.size() && label.size() == mask.size(),
               "event_recall: length mismatch");
    std::size_t t = 0;
    while (t < label.size()) {
      if (!label[t]) {
        ++t;
        continue;
      }
      bool scored = false, hit = false;
      for (; t < label.size() && label[t]; ++t) {
        scored = scored || mask[t];
        hit = hit || (mask[t] && flag[t]);
      }
      out.events += scored;
      out.hit += hit;
    }
  }
  return out;
}

CleanNodeAlarms clean_node_alarms(
    const std::vector<NodeDetection>& detections,
    const std::vector<std::vector<std::uint8_t>>& labels,
    const std::vector<std::vector<std::uint8_t>>& masks,
    double interval_seconds) {
  NS_REQUIRE(detections.size() == labels.size() &&
                 labels.size() == masks.size(),
             "clean_node_alarms: node count mismatch");
  std::size_t points = 0, flagged = 0, runs = 0;
  for (std::size_t n = 0; n < labels.size(); ++n) {
    const std::vector<std::uint8_t>& label = labels[n];
    const std::vector<std::uint8_t>& mask = masks[n];
    const std::vector<std::uint8_t>& flag = detections[n].predictions;
    NS_REQUIRE(flag.size() == label.size() && label.size() == mask.size(),
               "clean_node_alarms: length mismatch");
    bool clean = true;
    for (std::size_t t = 0; t < label.size() && clean; ++t)
      clean = !(mask[t] && label[t]);
    if (!clean) continue;
    bool in_run = false;
    for (std::size_t t = 0; t < label.size(); ++t) {
      const bool alarm = mask[t] && flag[t];
      points += mask[t];
      flagged += alarm;
      runs += alarm && !in_run;
      in_run = alarm;
    }
  }
  CleanNodeAlarms out;
  if (points == 0) return out;
  out.flagged_share = static_cast<double>(flagged) / points;
  out.runs_per_node_hour =
      static_cast<double>(runs) / (points * interval_seconds / 3600.0);
  return out;
}

}  // namespace ns
