// Tests for sharded ingestion via SketchTree::Merge: linearity of AMS
// sketches means merging per-shard synopses (same options) is equivalent
// to streaming everything through one synopsis.
#include <gtest/gtest.h>

#include "core/sketch_tree.h"
#include "datagen/dblp_gen.h"
#include "datagen/treebank_gen.h"
#include "tree/tree_serialization.h"

namespace sketchtree {
namespace {

SketchTreeOptions MergeOptions(size_t topk = 0) {
  SketchTreeOptions options;
  options.max_pattern_edges = 3;
  options.s1 = 40;
  options.s2 = 7;
  options.num_virtual_streams = 13;
  options.topk_size = topk;
  options.seed = 71;
  options.build_structural_summary = true;
  return options;
}

TEST(MergeTest, ShardedEqualsSequentialWithoutTopK) {
  SketchTree shard_a = *SketchTree::Create(MergeOptions());
  SketchTree shard_b = *SketchTree::Create(MergeOptions());
  SketchTree sequential = *SketchTree::Create(MergeOptions());

  TreebankGenerator gen;
  for (int i = 0; i < 200; ++i) {
    LabeledTree tree = gen.Next();
    (i % 2 == 0 ? shard_a : shard_b).Update(tree);
    sequential.Update(tree);
  }
  ASSERT_TRUE(shard_a.Merge(shard_b).ok());

  // Without top-k, the merged counters are bit-identical to sequential.
  for (const char* text : {"NP(DT,NN)", "S(NP,VP)", "VP(VBD)", "PP(IN)"}) {
    LabeledTree query = *ParseSExpr(text);
    EXPECT_DOUBLE_EQ(*shard_a.EstimateCountOrdered(query),
                     *sequential.EstimateCountOrdered(query))
        << text;
  }
  EXPECT_EQ(shard_a.Stats().patterns_processed,
            sequential.Stats().patterns_processed);
  EXPECT_EQ(shard_a.Stats().trees_processed,
            sequential.Stats().trees_processed);
  // Summaries merged too: extended queries work on the union.
  EXPECT_DOUBLE_EQ(*shard_a.EstimateExtended("NP(*)"),
                   *sequential.EstimateExtended("NP(*)"));
}

TEST(MergeTest, TopKShardsRemainAccurate) {
  // With top-k on, merged estimates are not bit-identical (the other
  // shard's tracked mass returns to the sketch untracked, raising the
  // self-join size) but must remain accurate. s1 is raised accordingly.
  SketchTreeOptions options = MergeOptions(/*topk=*/10);
  options.s1 = 200;
  SketchTree shard_a = *SketchTree::Create(options);
  SketchTree shard_b = *SketchTree::Create(options);

  LabeledTree heavy = *ParseSExpr("H(H,H)");
  LabeledTree light = *ParseSExpr("L(M)");
  for (int i = 0; i < 400; ++i) shard_a.Update(heavy);
  for (int i = 0; i < 200; ++i) shard_b.Update(heavy);
  for (int i = 0; i < 30; ++i) shard_b.Update(light);

  ASSERT_TRUE(shard_a.Merge(shard_b).ok());
  // Per-instance std after merge ~ sqrt(SJ)/sqrt(s1) ~ 200/14 ~ 14.
  EXPECT_NEAR(*shard_a.EstimateCountOrdered(*ParseSExpr("H(H,H)")), 600.0,
              70.0);
  EXPECT_NEAR(*shard_a.EstimateCountOrdered(*ParseSExpr("L(M)")), 30.0,
              50.0);
}

TEST(MergeTest, MismatchedOptionsRejected) {
  SketchTree a = *SketchTree::Create(MergeOptions());
  SketchTreeOptions different = MergeOptions();
  different.s1 = 41;
  SketchTree b = *SketchTree::Create(different);
  EXPECT_TRUE(a.Merge(b).IsInvalidArgument());

  different = MergeOptions();
  different.seed = 72;
  SketchTree c = *SketchTree::Create(different);
  EXPECT_TRUE(a.Merge(c).IsInvalidArgument());
}

TEST(MergeTest, MismatchRejectionMatrix) {
  // Every option that changes merge semantics must be pinned: a
  // summary-less shard merged into a summary-bearing one would silently
  // break extended queries, and mismatched top-k settings break the
  // tracked-mass re-add. Each mutation below must be rejected with
  // InvalidArgument in both merge directions.
  SketchTreeOptions base = MergeOptions(/*topk=*/8);
  std::vector<SketchTreeOptions> mutations;
  {
    SketchTreeOptions m = base;
    m.topk_size = 16;
    mutations.push_back(m);
  }
  {
    SketchTreeOptions m = base;
    m.topk_size = 0;
    mutations.push_back(m);
  }
  {
    SketchTreeOptions m = base;
    m.topk_probability = 0.5;
    mutations.push_back(m);
  }
  {
    SketchTreeOptions m = base;
    m.build_structural_summary = false;
    mutations.push_back(m);
  }
  {
    SketchTreeOptions m = base;
    m.summary_max_nodes = 50;
    mutations.push_back(m);
  }
  SketchTree reference = *SketchTree::Create(base);
  for (size_t i = 0; i < mutations.size(); ++i) {
    SketchTree mutated = *SketchTree::Create(mutations[i]);
    EXPECT_TRUE(reference.Merge(mutated).IsInvalidArgument())
        << "mutation " << i << " accepted forward";
    EXPECT_TRUE(mutated.Merge(reference).IsInvalidArgument())
        << "mutation " << i << " accepted backward";
  }
  // Control: an exact copy of the options still merges fine.
  SketchTree same = *SketchTree::Create(base);
  EXPECT_TRUE(reference.Merge(same).ok());
}

std::vector<double> PlaneOf(const SketchTree& sketch) {
  std::vector<double> plane(sketch.CounterPlaneDoubles());
  sketch.CopyCounterPlane(plane.data());
  return plane;
}

TEST(MergeTest, TopKMergeDependsOnlyOnTheOtherSidesContents) {
  // Merging re-adds the other side's tracked mass. A live tracker and
  // its serialized round trip hold the same entries but fill their hash
  // maps in different orders; the merged counters must not depend on
  // which of the two is merged in.
  SketchTreeOptions options = MergeOptions(/*topk=*/20);
  SketchTree shard_a = *SketchTree::Create(options);
  SketchTree shard_b = *SketchTree::Create(options);
  DblpGenOptions gen_a;
  gen_a.seed = 7;
  DblpGenOptions gen_b;
  gen_b.seed = 9;
  DblpGenerator source_a(gen_a);
  DblpGenerator source_b(gen_b);
  for (int i = 0; i < 150; ++i) {
    shard_a.Update(source_a.Next());
    shard_b.Update(source_b.Next());
  }
  SketchTree restored_b =
      *SketchTree::DeserializeFromString(shard_b.SerializeToString());

  SketchTree merged_live =
      *SketchTree::DeserializeFromString(shard_a.SerializeToString());
  SketchTree merged_restored =
      *SketchTree::DeserializeFromString(shard_a.SerializeToString());
  ASSERT_TRUE(merged_live.Merge(shard_b).ok());
  ASSERT_TRUE(merged_restored.Merge(restored_b).ok());
  std::vector<double> live = PlaneOf(merged_live);
  std::vector<double> restored = PlaneOf(merged_restored);
  size_t differing = 0;
  for (size_t i = 0; i < live.size(); ++i) differing += live[i] != restored[i];
  EXPECT_EQ(live, restored) << differing << " of " << live.size()
                            << " counters differ";
}

TEST(MergeTest, MergeOfSerializedShards) {
  // The distributed workflow: shards serialize, a combiner deserializes
  // and merges.
  SketchTree shard_a = *SketchTree::Create(MergeOptions());
  SketchTree shard_b = *SketchTree::Create(MergeOptions());
  shard_a.Update(*ParseSExpr("A(B,C)"));
  shard_b.Update(*ParseSExpr("A(B,C)"));
  shard_b.Update(*ParseSExpr("A(B)"));

  SketchTree restored_a =
      *SketchTree::DeserializeFromString(shard_a.SerializeToString());
  SketchTree restored_b =
      *SketchTree::DeserializeFromString(shard_b.SerializeToString());
  ASSERT_TRUE(restored_a.Merge(restored_b).ok());
  EXPECT_NEAR(*restored_a.EstimateCountOrdered(*ParseSExpr("A(B)")), 3.0,
              2.0);
}

TEST(MergeTest, SerializedRoundTripWithTopKAndSummaryThenMerge) {
  // Full-feature round trip: top-k tracking AND structural summary on,
  // shards serialized and restored, then merged. The restored shards
  // must carry their options (so the merge compatibility check sees
  // them), the summaries must union, and estimates stay accurate.
  SketchTreeOptions options = MergeOptions(/*topk=*/6);
  options.s1 = 120;
  SketchTree shard_a = *SketchTree::Create(options);
  SketchTree shard_b = *SketchTree::Create(options);

  LabeledTree heavy = *ParseSExpr("H(X,Y)");
  for (int i = 0; i < 100; ++i) shard_a.Update(heavy);
  for (int i = 0; i < 50; ++i) shard_b.Update(heavy);
  shard_b.Update(*ParseSExpr("Q(R)"));

  SketchTree restored_a =
      *SketchTree::DeserializeFromString(shard_a.SerializeToString());
  SketchTree restored_b =
      *SketchTree::DeserializeFromString(shard_b.SerializeToString());
  // Options survive the round trip, including the merge-pinned ones.
  EXPECT_EQ(restored_a.options().topk_size, options.topk_size);
  EXPECT_EQ(restored_a.options().build_structural_summary, true);
  EXPECT_EQ(restored_a.options().summary_max_nodes,
            options.summary_max_nodes);

  ASSERT_TRUE(restored_a.Merge(restored_b).ok());
  EXPECT_EQ(restored_a.Stats().trees_processed, 151u);
  EXPECT_NEAR(*restored_a.EstimateCountOrdered(*ParseSExpr("H(X,Y)")),
              150.0, 40.0);
  // The merged summary covers labels only shard_b saw.
  EXPECT_NEAR(*restored_a.EstimateExtended("Q(*)"), 1.0, 20.0);

  // A restored shard with different summary options still refuses to
  // merge — the check must work on deserialized state too.
  SketchTreeOptions no_summary = options;
  no_summary.build_structural_summary = false;
  SketchTree plain = *SketchTree::Create(no_summary);
  SketchTree restored_plain =
      *SketchTree::DeserializeFromString(plain.SerializeToString());
  EXPECT_TRUE(restored_a.Merge(restored_plain).IsInvalidArgument());
}

}  // namespace
}  // namespace sketchtree
