#include "stream/virtual_streams.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "core/estimate_plan.h"
#include "reference_estimator.h"

namespace sketchtree {
namespace {

VirtualStreamsOptions SmallOptions() {
  VirtualStreamsOptions options;
  options.num_streams = 7;
  options.s1 = 200;
  options.s2 = 7;
  options.independence = 8;
  options.seed = 42;
  return options;
}

TEST(IsPrimeTest, KnownValues) {
  EXPECT_FALSE(IsPrime(0));
  EXPECT_FALSE(IsPrime(1));
  EXPECT_TRUE(IsPrime(2));
  EXPECT_TRUE(IsPrime(3));
  EXPECT_FALSE(IsPrime(4));
  EXPECT_TRUE(IsPrime(229));  // The paper's virtual stream count.
  EXPECT_FALSE(IsPrime(230));
  EXPECT_TRUE(IsPrime(1000003));
}

TEST(VirtualStreamsTest, CreateValidatesOptions) {
  VirtualStreamsOptions options = SmallOptions();
  options.num_streams = 6;  // Not prime.
  EXPECT_FALSE(VirtualStreams::Create(options).ok());

  options = SmallOptions();
  options.num_streams = 0;
  EXPECT_FALSE(VirtualStreams::Create(options).ok());

  options = SmallOptions();
  options.s1 = 0;
  EXPECT_FALSE(VirtualStreams::Create(options).ok());

  options = SmallOptions();
  options.independence = 2;
  EXPECT_FALSE(VirtualStreams::Create(options).ok());

  options = SmallOptions();
  options.topk_probability = 1.5;
  EXPECT_FALSE(VirtualStreams::Create(options).ok());

  EXPECT_TRUE(VirtualStreams::Create(SmallOptions()).ok());
}

TEST(VirtualStreamsTest, SingleStreamAllowed) {
  VirtualStreamsOptions options = SmallOptions();
  options.num_streams = 1;
  Result<VirtualStreams> streams = VirtualStreams::Create(options);
  ASSERT_TRUE(streams.ok());
  streams->Insert(12345);
  EXPECT_EQ(streams->ResidueOf(12345), 0u);
}

TEST(VirtualStreamsTest, RoutingByResidue) {
  VirtualStreams streams = *VirtualStreams::Create(SmallOptions());
  EXPECT_EQ(streams.ResidueOf(0), 0u);
  EXPECT_EQ(streams.ResidueOf(8), 1u);
  EXPECT_EQ(streams.ResidueOf(13), 6u);
}

TEST(VirtualStreamsTest, PointEstimatesAcrossStreams) {
  VirtualStreams streams = *VirtualStreams::Create(SmallOptions());
  // Values in different residue classes.
  for (int i = 0; i < 60; ++i) streams.Insert(14);  // Residue 0.
  for (int i = 0; i < 25; ++i) streams.Insert(15);  // Residue 1.
  for (int i = 0; i < 9; ++i) streams.Insert(16);   // Residue 2.
  EXPECT_EQ(streams.values_inserted(), 94u);
  EXPECT_NEAR(reference::EstimatePoint(streams, 14), 60.0, 10.0);
  EXPECT_NEAR(reference::EstimatePoint(streams, 15), 25.0, 10.0);
  EXPECT_NEAR(reference::EstimatePoint(streams, 16), 9.0, 10.0);
  EXPECT_NEAR(reference::EstimatePoint(streams, 999999), 0.0, 10.0);
}

TEST(VirtualStreamsTest, PartitioningIsolatesHeavyValues) {
  // A very heavy value in stream 0 must not disturb the estimate of a
  // light value in stream 1 at all (disjoint sketches) — the Section 5.3
  // self-join-size reduction in its purest form.
  VirtualStreamsOptions options = SmallOptions();
  options.s1 = 30;  // Deliberately small so noise would show.
  VirtualStreams streams = *VirtualStreams::Create(options);
  for (int i = 0; i < 100000; ++i) streams.Insert(7);  // Residue 0.
  for (int i = 0; i < 10; ++i) streams.Insert(8);      // Residue 1.
  EXPECT_DOUBLE_EQ(reference::EstimatePoint(streams, 8), 10.0);
}

TEST(VirtualStreamsTest, SumEstimateSpansStreams) {
  VirtualStreams streams = *VirtualStreams::Create(SmallOptions());
  for (int i = 0; i < 40; ++i) streams.Insert(14);
  for (int i = 0; i < 22; ++i) streams.Insert(15);
  EXPECT_NEAR(reference::EstimateSum(streams, {14, 15}), 62.0, 12.0);
}

TEST(VirtualStreamsTest, SumWithinOneStreamDoesNotDoubleCount) {
  VirtualStreams streams = *VirtualStreams::Create(SmallOptions());
  // 14 and 21 share residue 0: the combined X must count stream 0 once.
  for (int i = 0; i < 40; ++i) streams.Insert(14);
  for (int i = 0; i < 20; ++i) streams.Insert(21);
  EXPECT_NEAR(reference::EstimateSum(streams, {14, 21}), 60.0, 12.0);
}

TEST(VirtualStreamsTest, ProductEstimateAcrossStreams) {
  VirtualStreamsOptions options = SmallOptions();
  options.s1 = 1500;
  VirtualStreams streams = *VirtualStreams::Create(options);
  for (int i = 0; i < 30; ++i) streams.Insert(14);
  for (int i = 0; i < 11; ++i) streams.Insert(15);
  EXPECT_NEAR(reference::EstimateProduct(streams, {14, 15}), 330.0, 180.0);
}

TEST(VirtualStreamsTest, TopKCompensationKeepsPointEstimatesExactish) {
  VirtualStreamsOptions options = SmallOptions();
  options.topk_capacity = 4;
  VirtualStreams streams = *VirtualStreams::Create(options);
  for (int i = 0; i < 500; ++i) streams.Insert(14);
  for (int i = 0; i < 30; ++i) streams.Insert(15);
  // 14 is tracked (deleted from sketches); estimation must compensate.
  const TopKTracker* tracker = streams.topk(streams.ResidueOf(14));
  ASSERT_NE(tracker, nullptr);
  EXPECT_TRUE(tracker->TrackedFrequency(14).has_value());
  EXPECT_NEAR(reference::EstimatePoint(streams, 14), 500.0, 25.0);
  EXPECT_NEAR(reference::EstimatePoint(streams, 15), 30.0, 25.0);
}

TEST(VirtualStreamsTest, TopKDisabledByDefault) {
  VirtualStreams streams = *VirtualStreams::Create(SmallOptions());
  EXPECT_EQ(streams.topk(0), nullptr);
}

TEST(VirtualStreamsTest, MemoryAccounting) {
  VirtualStreams streams = *VirtualStreams::Create(SmallOptions());
  // Honest accounting: per instance one 8-byte counter in each of the 7
  // streams, plus one stored degree-(independence-1) coefficient vector
  // (8 x 8 bytes here) in the matrix all streams share.
  EXPECT_EQ(streams.MemoryBytes(), 7u * 200u * 7u * 8u + 200u * 7u * 8u * 8u);
  // Section 7.5's accounting: counters + one 8-byte seed per instance.
  EXPECT_EQ(streams.PaperMemoryBytes(), 7u * 200u * 7u * 16u);
}

TEST(VirtualStreamsTest, TurnstileAccountingIsExactForUnitWeights) {
  VirtualStreams streams = *VirtualStreams::Create(SmallOptions());
  for (int i = 0; i < 5; ++i) streams.Insert(11);
  EXPECT_EQ(streams.values_inserted(), 5u);
  EXPECT_EQ(streams.over_deletions(), 0u);
  for (int i = 0; i < 3; ++i) streams.Insert(11, -1.0);
  EXPECT_EQ(streams.values_inserted(), 2u);
  EXPECT_EQ(streams.over_deletions(), 0u);
  // Batched deletes account identically.
  std::vector<uint64_t> batch = {11, 11};
  streams.InsertBatch(batch, -1.0);
  EXPECT_EQ(streams.values_inserted(), 0u);
  EXPECT_EQ(streams.over_deletions(), 0u);
}

TEST(VirtualStreamsTest, OverDeletionIsObservableNotClamped) {
  VirtualStreams streams = *VirtualStreams::Create(SmallOptions());
  streams.Insert(7);
  // Delete three values when only one was inserted: the surplus two must
  // land in over_deletions() instead of vanishing into a clamp.
  std::vector<uint64_t> batch = {7, 7, 7};
  streams.InsertBatch(batch, -1.0);
  EXPECT_EQ(streams.values_inserted(), 0u);
  EXPECT_EQ(streams.over_deletions(), 2u);
  // Further single over-deletes keep accumulating.
  streams.Insert(7, -1.0);
  EXPECT_EQ(streams.over_deletions(), 3u);
  // The sketches themselves absorbed the deletions (net -3 for value 7),
  // so point estimates go negative rather than corrupting.
  EXPECT_LT(reference::EstimatePoint(streams, 7), 0.0);

  // Over-deletion counts fold across MergeFrom.
  VirtualStreams other = *VirtualStreams::Create(SmallOptions());
  other.Insert(9, -1.0);
  EXPECT_EQ(other.over_deletions(), 1u);
  ASSERT_TRUE(streams.MergeFrom(other).ok());
  EXPECT_EQ(streams.over_deletions(), 4u);
}

TEST(VirtualStreamsTest, MergeFromRejectsMismatchedTopKOptions) {
  VirtualStreamsOptions with_topk = SmallOptions();
  with_topk.topk_capacity = 8;
  VirtualStreams a = *VirtualStreams::Create(with_topk);

  VirtualStreamsOptions other = with_topk;
  other.topk_capacity = 16;
  VirtualStreams b = *VirtualStreams::Create(other);
  EXPECT_TRUE(a.MergeFrom(b).IsInvalidArgument());

  other = with_topk;
  other.topk_probability = 0.25;
  VirtualStreams c = *VirtualStreams::Create(other);
  EXPECT_TRUE(a.MergeFrom(c).IsInvalidArgument());

  VirtualStreams same = *VirtualStreams::Create(with_topk);
  EXPECT_TRUE(a.MergeFrom(same).ok());
}

TEST(VirtualStreamsTest, DeterministicAcrossInstances) {
  VirtualStreams a = *VirtualStreams::Create(SmallOptions());
  VirtualStreams b = *VirtualStreams::Create(SmallOptions());
  for (uint64_t v = 0; v < 200; ++v) {
    a.Insert(v % 13);
    b.Insert(v % 13);
  }
  for (uint64_t v = 0; v < 13; ++v) {
    EXPECT_DOUBLE_EQ(reference::EstimatePoint(a, v),
                     reference::EstimatePoint(b, v));
  }
}

// The production estimator (core/estimate_plan.h) against the naive
// reference, bit for bit, with top-k on and tracked values in the query.
TEST(VirtualStreamsTest, EstimatorMatchesReferenceBitExactWithTopK) {
  VirtualStreamsOptions options = SmallOptions();
  options.s1 = 20;
  options.topk_capacity = 2;
  VirtualStreams streams = *VirtualStreams::Create(options);
  for (int i = 0; i < 300; ++i) streams.Insert(14);  // Residue 0, tracked.
  for (int i = 0; i < 120; ++i) streams.Insert(22);  // Residue 1, tracked.
  for (int i = 0; i < 40; ++i) streams.Insert(21);   // Residue 0.
  for (uint64_t v = 100; v < 160; ++v) streams.Insert(v);
  ASSERT_TRUE(streams.topk(0)->TrackedFrequency(14).has_value());
  ASSERT_TRUE(streams.topk(1)->TrackedFrequency(22).has_value());

  for (const std::vector<uint64_t>& values :
       std::vector<std::vector<uint64_t>>{
           {14}, {15}, {14, 22}, {22, 14, 21, 101}, {21, 999999}}) {
    EXPECT_EQ(ExecuteSum(BuildSumPlan(streams, values), streams),
              reference::EstimateSum(streams, values));
  }

  // P repeats across terms: the compensation counts each distinct
  // tracked value once.
  const std::map<std::string, uint64_t> kValues = {
      {"P", 14}, {"Q", 22}, {"R", 21}};
  Result<ExpressionPlan> plan = PlanExpression(
      streams,
      *CountExpression::Parse(
          "COUNT_ORD(P) * COUNT_ORD(Q) - COUNT_ORD(R) + COUNT_ORD(P)"),
      [&](const LabeledTree& pattern) -> Result<uint64_t> {
        return kValues.at(pattern.label(pattern.root()));
      });
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<reference::Term> terms;
  for (const ExprTermPlan& term : plan->terms) {
    terms.push_back({term.coeff, term.values});
  }
  EXPECT_EQ(ExecuteExpression(plan->projection, plan->terms, streams),
            reference::EstimateExpression(streams, terms));
}

}  // namespace
}  // namespace sketchtree
