#include "core/sketch_tree.h"

#include <gtest/gtest.h>

#include <cmath>

#include "exact/exact_counter.h"
#include "query/pattern_query.h"
#include "stats/sentinel.h"
#include "tree/tree_serialization.h"

namespace sketchtree {
namespace {

SketchTreeOptions GenerousOptions() {
  SketchTreeOptions options;
  options.max_pattern_edges = 3;
  options.s1 = 150;
  options.s2 = 7;
  options.num_virtual_streams = 31;
  options.topk_size = 0;
  options.independence = 8;
  options.seed = 42;
  return options;
}

TEST(SketchTreeTest, CreateValidatesOptions) {
  SketchTreeOptions options = GenerousOptions();
  options.max_pattern_edges = 0;
  EXPECT_FALSE(SketchTree::Create(options).ok());

  options = GenerousOptions();
  options.fingerprint_degree = 8;
  EXPECT_FALSE(SketchTree::Create(options).ok());

  options = GenerousOptions();
  options.fingerprint_degree = 62;
  EXPECT_FALSE(SketchTree::Create(options).ok());

  options = GenerousOptions();
  options.num_virtual_streams = 12;  // Not prime.
  EXPECT_FALSE(SketchTree::Create(options).ok());

  EXPECT_TRUE(SketchTree::Create(GenerousOptions()).ok());
}

TEST(SketchTreeTest, UpdateReturnsPatternCount) {
  SketchTree st = *SketchTree::Create(GenerousOptions());
  // A(B,C): 3 patterns with <= 3 edges.
  EXPECT_EQ(st.Update(*ParseSExpr("A(B,C)")), 3u);
  SketchTreeStats stats = st.Stats();
  EXPECT_EQ(stats.trees_processed, 1u);
  EXPECT_EQ(stats.patterns_processed, 3u);
  EXPECT_GT(stats.memory_bytes, 0u);
}

TEST(SketchTreeTest, EstimatesMatchExactOnSmallStream) {
  SketchTreeOptions options = GenerousOptions();
  SketchTree st = *SketchTree::Create(options);
  ExactCounter exact =
      *ExactCounter::Create(options.fingerprint_degree, options.seed);
  const char* docs[] = {"A(B,C)", "A(B,C)",    "A(B(D),C)", "A(C,B)",
                        "X(Y,Z)", "A(B,C(D))", "A(B,B,C)",  "X(Y(Z))"};
  for (const char* doc : docs) {
    LabeledTree tree = *ParseSExpr(doc);
    st.Update(tree);
    exact.Update(tree, options.max_pattern_edges);
  }
  for (const char* query_text :
       {"A(B)", "A(B,C)", "X(Y)", "B(D)", "A(B,C(D))"}) {
    LabeledTree query = *ParseSExpr(query_text);
    double actual = static_cast<double>(exact.CountOrdered(query));
    Result<double> estimate = st.EstimateCountOrdered(query);
    ASSERT_TRUE(estimate.ok());
    EXPECT_NEAR(*estimate, actual, 4.0) << query_text;
  }
}

TEST(SketchTreeTest, MapPatternMatchesExactCounterMapping) {
  SketchTreeOptions options = GenerousOptions();
  SketchTree st = *SketchTree::Create(options);
  ExactCounter exact =
      *ExactCounter::Create(options.fingerprint_degree, options.seed);
  for (const char* text : {"A", "A(B)", "S(NP,VP(V))", "x(y,z)"}) {
    LabeledTree pattern = *ParseSExpr(text);
    EXPECT_EQ(st.MapPattern(pattern), exact.MapPattern(pattern)) << text;
  }
}

TEST(SketchTreeTest, OversizedQueryRejected) {
  SketchTree st = *SketchTree::Create(GenerousOptions());  // k = 3.
  st.Update(*ParseSExpr("A(B(C(D(E))))"));
  Result<double> estimate =
      st.EstimateCountOrdered(*ParseSExpr("A(B(C(D(E))))"));  // 4 edges.
  EXPECT_FALSE(estimate.ok());
  EXPECT_TRUE(estimate.status().IsInvalidArgument());
}

TEST(SketchTreeTest, EmptyQueryRejected) {
  SketchTree st = *SketchTree::Create(GenerousOptions());
  EXPECT_FALSE(st.EstimateCountOrdered(LabeledTree()).ok());
  EXPECT_FALSE(st.EstimateCountOrderedSum({}).ok());
}

TEST(SketchTreeTest, DuplicateQueriesInSumRejected) {
  SketchTree st = *SketchTree::Create(GenerousOptions());
  std::vector<LabeledTree> queries;
  queries.push_back(*ParseSExpr("A(B)"));
  queries.push_back(*ParseSExpr("A(B)"));
  Result<double> estimate = st.EstimateCountOrderedSum(queries);
  EXPECT_FALSE(estimate.ok());
  EXPECT_TRUE(estimate.status().IsInvalidArgument());
}

TEST(SketchTreeTest, UnorderedEqualsSumOverArrangements) {
  SketchTree st = *SketchTree::Create(GenerousOptions());
  for (const char* doc : {"A(B,C)", "A(C,B)", "A(C,B)", "A(B,B)"}) {
    st.Update(*ParseSExpr(doc));
  }
  LabeledTree query = *ParseSExpr("A(B,C)");
  std::vector<LabeledTree> arrangements;
  arrangements.push_back(*ParseSExpr("A(B,C)"));
  arrangements.push_back(*ParseSExpr("A(C,B)"));
  Result<double> unordered = st.EstimateCount(query);
  Result<double> manual = st.EstimateCountOrderedSum(arrangements);
  ASSERT_TRUE(unordered.ok());
  ASSERT_TRUE(manual.ok());
  EXPECT_DOUBLE_EQ(*unordered, *manual);
  // True unordered count is 3 (one per tree containing the pattern).
  EXPECT_NEAR(*unordered, 3.0, 3.0);
}

TEST(SketchTreeTest, ExpressionSumMatchesPointSums) {
  SketchTree st = *SketchTree::Create(GenerousOptions());
  for (int i = 0; i < 10; ++i) st.Update(*ParseSExpr("A(B,C)"));
  for (int i = 0; i < 4; ++i) st.Update(*ParseSExpr("X(Y)"));
  Result<double> estimate =
      st.EstimateExpression("COUNT_ORD(A(B)) + COUNT_ORD(X(Y))");
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, 14.0, 5.0);
}

TEST(SketchTreeTest, ExpressionProductDegreeLimitedByIndependence) {
  SketchTreeOptions options = GenerousOptions();
  options.independence = 4;  // Supports products of at most 2 counts.
  SketchTree st = *SketchTree::Create(options);
  EXPECT_TRUE(
      st.EstimateExpression("COUNT_ORD(A) * COUNT_ORD(B)").ok());
  Result<double> cubic = st.EstimateExpression(
      "COUNT_ORD(A) * COUNT_ORD(B) * COUNT_ORD(C)");
  EXPECT_FALSE(cubic.ok());
  EXPECT_TRUE(cubic.status().IsInvalidArgument());
}

TEST(SketchTreeTest, ExpressionWithRepeatedPatternInTermRejected) {
  SketchTree st = *SketchTree::Create(GenerousOptions());
  Result<double> squared =
      st.EstimateExpression("COUNT_ORD(A(B)) * COUNT_ORD(A(B))");
  EXPECT_FALSE(squared.ok());
  EXPECT_TRUE(squared.status().IsInvalidArgument());
}

TEST(SketchTreeTest, DeterministicForFixedSeed) {
  auto run = []() {
    SketchTree st = *SketchTree::Create(GenerousOptions());
    for (const char* doc : {"A(B,C)", "A(B)", "X(Y,Z(W))"}) {
      st.Update(*ParseSExpr(doc));
    }
    return *st.EstimateCountOrdered(*ParseSExpr("A(B)"));
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(SketchTreeTest, TopKImprovesSkewedStreamAccuracy) {
  // One dominant pattern plus rare patterns: with tiny s1 and no top-k
  // the heavy value's mass pollutes rare estimates; tracking it restores
  // accuracy. This is the core claim of Section 5.2.
  auto build = [](size_t topk) {
    SketchTreeOptions options;
    options.max_pattern_edges = 2;
    options.s1 = 6;  // Deliberately under-provisioned.
    options.s2 = 5;
    options.num_virtual_streams = 1;  // Force everything into one stream.
    options.topk_size = topk;
    options.seed = 7;
    return *SketchTree::Create(options);
  };
  auto feed = [](SketchTree& st) {
    for (int i = 0; i < 2000; ++i) st.Update(*ParseSExpr("H(H,H)"));
    for (int i = 0; i < 25; ++i) st.Update(*ParseSExpr("R(S,T)"));
  };
  SketchTree plain = build(0);
  SketchTree tracked = build(8);
  feed(plain);
  feed(tracked);
  LabeledTree rare = *ParseSExpr("R(S,T)");
  double err_plain =
      std::fabs(*plain.EstimateCountOrdered(rare) - 25.0);
  double err_tracked =
      std::fabs(*tracked.EstimateCountOrdered(rare) - 25.0);
  EXPECT_LT(err_tracked, err_plain);
  EXPECT_LT(err_tracked, 10.0);
}

TEST(SketchTreeTest, ExtendedQueryNeedsSummaryEnabled) {
  SketchTree st = *SketchTree::Create(GenerousOptions());
  st.Update(*ParseSExpr("A(B(C))"));
  Result<double> estimate = st.EstimateExtended("A(//C)");
  EXPECT_FALSE(estimate.ok());
  EXPECT_TRUE(estimate.status().IsInvalidArgument());
  EXPECT_EQ(st.summary(), nullptr);
}

TEST(SketchTreeTest, ExtendedQueriesResolveAndEstimate) {
  SketchTreeOptions options = GenerousOptions();
  options.build_structural_summary = true;
  SketchTree st = *SketchTree::Create(options);
  for (const char* doc : {"A(B(C),C)", "A(C,C)", "A(B(C))", "A(B,B(C))"}) {
    st.Update(*ParseSExpr(doc));
  }
  ASSERT_NE(st.summary(), nullptr);
  EXPECT_FALSE(st.summary()->saturated());
  // A//C = A(C) + A(B(C)) = 3 + 3 (see extended_query_test ground truth).
  Result<double> descendant = st.EstimateExtended("A(//C)");
  ASSERT_TRUE(descendant.ok()) << descendant.status().ToString();
  EXPECT_NEAR(*descendant, 6.0, 4.0);
  // A(*) = A(B) + A(C) = 4 + 3.
  EXPECT_NEAR(*st.EstimateExtended("A(*)"), 7.0, 4.0);
  // Unsatisfiable per the summary: exactly zero, no sketch noise.
  EXPECT_DOUBLE_EQ(*st.EstimateExtended("A(//Z)"), 0.0);
}

TEST(SketchTreeTest, ExtendedQueryOversizedResolutionErrors) {
  SketchTreeOptions options = GenerousOptions();
  options.max_pattern_edges = 1;
  options.build_structural_summary = true;
  SketchTree st = *SketchTree::Create(options);
  st.Update(*ParseSExpr("A(B(C))"));
  Result<double> estimate = st.EstimateExtended("A(//C)");
  EXPECT_FALSE(estimate.ok());
  EXPECT_TRUE(estimate.status().IsOutOfRange());
}

TEST(SketchTreeTest, StatsReportTrackedPatterns) {
  SketchTreeOptions options = GenerousOptions();
  options.topk_size = 4;
  SketchTree st = *SketchTree::Create(options);
  for (int i = 0; i < 50; ++i) st.Update(*ParseSExpr("A(B)"));
  EXPECT_GT(st.Stats().tracked_patterns, 0u);
}

TEST(SketchTreeTest, CopySerializesLikeItsSourceAndStaysIndependent) {
  SketchTreeOptions options = GenerousOptions();
  options.topk_size = 4;
  options.build_structural_summary = true;
  const char* docs[] = {"A(B,C)", "A(B(D),C)", "X(Y,Z)", "A(B)", "A(B)"};
  SketchTree source = *SketchTree::Create(options);
  AccuracySentinel sentinel{SentinelOptions{}};
  source.AttachSentinel(&sentinel);
  for (int i = 0; i < 40; ++i) source.Update(*ParseSExpr(docs[i % 5]));
  ASSERT_GT(source.Stats().tracked_patterns, 0u);

  SketchTree copy = source;
  const std::string bytes = source.SerializeToString();
  EXPECT_EQ(copy.SerializeToString(), bytes);
  EXPECT_EQ(copy.sentinel(), nullptr);

  // Updates to the source leave the copy's bytes alone.
  for (int i = 0; i < 20; ++i) source.Update(*ParseSExpr(docs[i % 5]));
  EXPECT_EQ(copy.SerializeToString(), bytes);

  // The same updates applied to the copy catch it up exactly: its top-k
  // trackers delete from its own sketches, not the source's.
  for (int i = 0; i < 20; ++i) copy.Update(*ParseSExpr(docs[i % 5]));
  EXPECT_EQ(copy.SerializeToString(), source.SerializeToString());
}

}  // namespace
}  // namespace sketchtree
