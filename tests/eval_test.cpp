#include <gtest/gtest.h>

#include <vector>

#include "eval/metrics.hpp"
#include "ts/mts.hpp"

namespace ns {
namespace {

using U8 = std::vector<std::uint8_t>;

TEST(Mask, ExcludesTrainRegionAndGuards) {
  const std::vector<JobSpan> spans{{1, 0, 10}, {2, 10, 20}};
  const auto mask = evaluation_mask(spans, 20, /*eval_begin=*/8,
                                    /*guard_steps=*/2);
  // Train region [0, 8) masked out.
  for (std::size_t t = 0; t < 8; ++t) EXPECT_EQ(mask[t], 0) << t;
  // Guards: end of job 1 (8, 9), start of job 2 (10, 11), end of job 2
  // (18, 19).
  EXPECT_EQ(mask[8], 0);
  EXPECT_EQ(mask[9], 0);
  EXPECT_EQ(mask[10], 0);
  EXPECT_EQ(mask[11], 0);
  EXPECT_EQ(mask[12], 1);
  EXPECT_EQ(mask[17], 1);
  EXPECT_EQ(mask[18], 0);
  EXPECT_EQ(mask[19], 0);
}

TEST(Mask, NoGuardKeepsEverythingAfterSplit) {
  const std::vector<JobSpan> spans{{1, 0, 10}};
  const auto mask = evaluation_mask(spans, 10, 4, 0);
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(mask[t], 0);
  for (std::size_t t = 4; t < 10; ++t) EXPECT_EQ(mask[t], 1);
}

TEST(PointAdjust, ExpandsHitSegments) {
  const U8 labels{0, 1, 1, 1, 0, 1, 1, 0};
  const U8 preds{0, 0, 1, 0, 0, 0, 0, 0};
  const U8 mask(8, 1);
  const auto adjusted = point_adjust(preds, labels, mask);
  // First segment fully credited; second untouched.
  EXPECT_EQ(adjusted[1], 1);
  EXPECT_EQ(adjusted[2], 1);
  EXPECT_EQ(adjusted[3], 1);
  EXPECT_EQ(adjusted[5], 0);
  EXPECT_EQ(adjusted[6], 0);
}

TEST(PointAdjust, MaskedHitsDoNotCount) {
  const U8 labels{1, 1, 1};
  const U8 preds{0, 1, 0};
  const U8 mask{1, 0, 1};  // the only hit is masked out
  const auto adjusted = point_adjust(preds, labels, mask);
  EXPECT_EQ(adjusted[0], 0);
  EXPECT_EQ(adjusted[2], 0);
}

TEST(PointAdjust, FalsePositivesKept) {
  const U8 labels{0, 0, 0};
  const U8 preds{0, 1, 0};
  const U8 mask(3, 1);
  const auto adjusted = point_adjust(preds, labels, mask);
  EXPECT_EQ(adjusted[1], 1);
}

TEST(NodePrf, PerfectDetection) {
  const U8 labels{0, 1, 1, 0, 0};
  const U8 preds{0, 1, 0, 0, 0};
  const U8 mask(5, 1);
  const auto m = node_prf(preds, labels, mask);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(NodePrf, FalsePositivesLowerPrecision) {
  const U8 labels{0, 1, 0, 0, 0};
  const U8 preds{0, 1, 0, 1, 1};
  const U8 mask(5, 1);
  const auto m = node_prf(preds, labels, mask);
  EXPECT_NEAR(m.precision, 1.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
}

TEST(NodePrf, MissLowersRecall) {
  const U8 labels{1, 1, 0, 1, 1};
  const U8 preds{1, 0, 0, 0, 0};  // hits segment 1, misses segment 2
  const U8 mask(5, 1);
  const auto m = node_prf(preds, labels, mask);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_NEAR(m.recall, 0.5, 1e-9);
}

TEST(NodeAuc, PerfectRankingIsOne) {
  const std::vector<float> scores{0.1f, 0.2f, 0.9f, 0.8f, 0.15f};
  const U8 labels{0, 0, 1, 1, 0};
  const U8 mask(5, 1);
  EXPECT_DOUBLE_EQ(node_auc(scores, labels, mask), 1.0);
}

TEST(NodeAuc, InvertedRankingIsZero) {
  const std::vector<float> scores{0.9f, 0.8f, 0.1f, 0.2f};
  const U8 labels{0, 0, 1, 1};
  const U8 mask(4, 1);
  EXPECT_DOUBLE_EQ(node_auc(scores, labels, mask), 0.0);
}

TEST(NodeAuc, SingleClassIsHalf) {
  const std::vector<float> scores{0.1f, 0.2f};
  const U8 labels{0, 0};
  const U8 mask(2, 1);
  EXPECT_DOUBLE_EQ(node_auc(scores, labels, mask), 0.5);
}

TEST(NodeAuc, SegmentMaxAdjustmentHelpsPartialHits) {
  // One anomaly segment where only one point has a high score: adjustment
  // raises the whole segment, giving a perfect AUC.
  const std::vector<float> scores{0.1f, 0.05f, 0.95f, 0.02f, 0.1f};
  const U8 labels{0, 1, 1, 1, 0};
  const U8 mask(5, 1);
  EXPECT_DOUBLE_EQ(node_auc(scores, labels, mask), 1.0);
}

TEST(Aggregate, AveragesAcrossAnomalousNodesOnly) {
  std::vector<NodeDetection> detections(3);
  std::vector<U8> labels(3), masks(3, U8(4, 1));
  // Node 0: perfect. Node 1: all wrong. Node 2: anomaly-free (skipped).
  detections[0].predictions = {0, 1, 0, 0};
  detections[0].scores = {0.0f, 1.0f, 0.0f, 0.0f};
  labels[0] = {0, 1, 0, 0};
  detections[1].predictions = {1, 0, 0, 0};
  detections[1].scores = {1.0f, 0.0f, 0.0f, 0.0f};
  labels[1] = {0, 0, 0, 1};
  detections[2].predictions = {0, 0, 0, 0};
  detections[2].scores = {0.0f, 0.0f, 0.0f, 0.0f};
  labels[2] = {0, 0, 0, 0};
  const auto m = aggregate_nodes(detections, labels, masks);
  EXPECT_NEAR(m.precision, 0.5, 1e-9);  // (1 + 0) / 2
  EXPECT_NEAR(m.recall, 0.5, 1e-9);
  EXPECT_NEAR(m.f1, 0.5, 1e-9);
}

TEST(Aggregate, EmptyInput) {
  const auto m = aggregate_nodes({}, {}, {});
  EXPECT_EQ(m.f1, 0.0);
}

// One node per label/prediction/mask triple; scores are unused here.
std::vector<NodeDetection> flags(const std::vector<U8>& predictions) {
  std::vector<NodeDetection> detections(predictions.size());
  for (std::size_t n = 0; n < predictions.size(); ++n)
    detections[n].predictions = predictions[n];
  return detections;
}

TEST(EventRecall, CountsEventsAcrossNodes) {
  // Node 0: two events, the first hit. Node 1: one event, hit at its end.
  const std::vector<U8> labels{{0, 1, 1, 0, 1, 0}, {1, 1, 1, 0}};
  const std::vector<U8> preds{{0, 0, 1, 0, 0, 1}, {0, 0, 1, 0}};
  const std::vector<U8> masks{U8(6, 1), U8(4, 1)};
  const EventRecall r = event_recall(flags(preds), labels, masks);
  EXPECT_EQ(r.events, 3u);
  EXPECT_EQ(r.hit, 2u);
  EXPECT_NEAR(r.recall(), 2.0 / 3.0, 1e-12);
}

TEST(EventRecall, HitOnlyAtMaskedOutPointIsNotRecalled) {
  const std::vector<U8> labels{{0, 1, 1, 1, 0}};
  const std::vector<U8> preds{{1, 0, 1, 0, 1}};
  const std::vector<U8> masks{{1, 1, 0, 1, 1}};
  const EventRecall r = event_recall(flags(preds), labels, masks);
  EXPECT_EQ(r.events, 1u);
  EXPECT_EQ(r.hit, 0u);
  // The same rule as point adjustment: nothing in the event is credited.
  const U8 adjusted = point_adjust(preds[0], labels[0], masks[0]);
  EXPECT_EQ(adjusted[1], 0);
  EXPECT_EQ(adjusted[3], 0);
}

TEST(EventRecall, FullyMaskedEventIsNotCounted) {
  const std::vector<U8> labels{{1, 1, 0, 0, 1, 0}};
  const std::vector<U8> preds{{1, 1, 0, 0, 1, 0}};
  const std::vector<U8> masks{{0, 0, 1, 1, 1, 1}};
  const EventRecall r = event_recall(flags(preds), labels, masks);
  EXPECT_EQ(r.events, 1u);
  EXPECT_EQ(r.hit, 1u);
  EXPECT_EQ(event_recall({}, {}, {}).recall(), 0.0);
}

TEST(CleanNodeAlarms, FlagRunSplitByMaskedOutPointCountsTwice) {
  // 8 masked-in points at 15 s = 2 node-minutes; flags at 1, 2 | 4, 5.
  const std::vector<U8> labels{U8(9, 0)};
  const std::vector<U8> preds{{0, 1, 1, 1, 1, 1, 0, 0, 0}};
  const std::vector<U8> masks{{1, 1, 1, 0, 1, 1, 1, 1, 1}};
  const CleanNodeAlarms a =
      clean_node_alarms(flags(preds), labels, masks, 15.0);
  EXPECT_NEAR(a.flagged_share, 4.0 / 8.0, 1e-12);
  EXPECT_NEAR(a.runs_per_node_hour, 2.0 / (8.0 * 15.0 / 3600.0), 1e-9);
}

TEST(CleanNodeAlarms, NodeWithLabelledPointIsExcluded) {
  // Node 0 holds a masked-in label and flags everything, so only node 1
  // counts; its only label is masked out, so it is clean.
  const std::vector<U8> labels{{0, 1, 0, 0}, {1, 0, 0, 0}};
  const std::vector<U8> preds{{1, 1, 1, 1}, {0, 1, 0, 0}};
  const std::vector<U8> masks{U8(4, 1), {0, 1, 1, 1}};
  const CleanNodeAlarms a =
      clean_node_alarms(flags(preds), labels, masks, 3600.0);
  EXPECT_NEAR(a.flagged_share, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(a.runs_per_node_hour, 1.0 / 3.0, 1e-12);
  const CleanNodeAlarms none =
      clean_node_alarms(flags({preds[0]}), {labels[0]}, {masks[0]}, 15.0);
  EXPECT_EQ(none.flagged_share, 0.0);
  EXPECT_EQ(none.runs_per_node_hour, 0.0);
}

}  // namespace
}  // namespace ns
