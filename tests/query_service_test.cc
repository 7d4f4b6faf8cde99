#include "server/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "core/sketch_tree.h"
#include "metrics/metrics.h"
#include "query/pattern_query.h"
#include "query/unordered.h"
#include "reference_estimator.h"
#include "server/snapshot.h"
#include "tree/tree_serialization.h"

namespace sketchtree {
namespace {

SketchTreeOptions SmallOptions() {
  SketchTreeOptions options;
  options.max_pattern_edges = 3;
  options.s1 = 20;
  options.s2 = 5;
  options.num_virtual_streams = 31;
  options.topk_size = 8;
  options.seed = 7;
  options.build_structural_summary = true;
  return options;
}

SketchTree BuildSketch() {
  SketchTree sketch = *SketchTree::Create(SmallOptions());
  for (int i = 0; i < 9; ++i) sketch.Update(*ParseSExpr("A(B,C)"));
  for (int i = 0; i < 4; ++i) sketch.Update(*ParseSExpr("A(C,B)"));
  for (int i = 0; i < 6; ++i) sketch.Update(*ParseSExpr("R(S(T),U)"));
  for (int i = 0; i < 2; ++i) sketch.Update(*ParseSExpr("X(Y(Z))"));
  return sketch;
}

Result<QueryAnswer> Ask(QueryService& service, QueryKind kind,
                        const std::string& text) {
  QueryRequest request;
  request.kind = kind;
  request.text = text;
  return service.Execute(request);
}

TEST(QueryServiceTest, OrderedMatchesSketchTreeBitExact) {
  SketchTree direct = BuildSketch();
  Result<QueryService> service =
      QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  for (const char* text : {"A(B,C)", "A(C,B)", "R(S(T),U)", "X", "Q(W)"}) {
    Result<double> expected =
        direct.EstimateCountOrdered(*ParseSExpr(text));
    ASSERT_TRUE(expected.ok());
    Result<QueryAnswer> answer = Ask(*service, QueryKind::kOrdered, text);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->estimate, *expected) << text;  // Bit-exact.
    EXPECT_EQ(answer->estimate,
              reference::EstimatePatternSum(direct, {*ParseSExpr(text)}))
        << text;
    EXPECT_EQ(answer->num_arrangements, 1u);
  }
}

TEST(QueryServiceTest, UnorderedMatchesSketchTreeBitExact) {
  SketchTree direct = BuildSketch();
  Result<QueryService> service =
      QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  for (const char* text : {"A(B,C)", "R(U,S(T))", "A(B,B)"}) {
    Result<double> expected = direct.EstimateCount(*ParseSExpr(text));
    ASSERT_TRUE(expected.ok());
    Result<QueryAnswer> answer = Ask(*service, QueryKind::kUnordered, text);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->estimate, *expected) << text;  // Bit-exact.
    EXPECT_EQ(answer->estimate,
              reference::EstimatePatternSum(
                  direct, *OrderedArrangements(*ParseSExpr(text))))
        << text;
  }
  // A(B,B): the two orderings coincide, so only one arrangement.
  Result<QueryAnswer> degenerate =
      Ask(*service, QueryKind::kUnordered, "A(B,B)");
  ASSERT_TRUE(degenerate.ok());
  EXPECT_EQ(degenerate->num_arrangements, 1u);
}

TEST(QueryServiceTest, ExtendedMatchesSketchTreeBitExact) {
  SketchTree direct = BuildSketch();
  Result<QueryService> service =
      QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  for (const char* text : {"R(//T)", "A(*)", "R(//T,U)", "Q(//W)"}) {
    Result<double> expected = direct.EstimateExtended(text);
    ASSERT_TRUE(expected.ok()) << direct.EstimateExtended(text).status()
                                      .ToString();
    Result<QueryAnswer> answer = Ask(*service, QueryKind::kExtended, text);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->estimate, *expected) << text;  // Bit-exact.
    std::vector<LabeledTree> resolved = *ResolveExtendedQuery(
        *ExtendedQuery::Parse(text), *direct.summary(),
        direct.options().max_pattern_edges);
    EXPECT_EQ(answer->estimate,
              resolved.empty()
                  ? 0.0
                  : reference::EstimatePatternSum(direct, resolved))
        << text;
    // Second ask hits the plan cache AND the per-epoch resolution memo;
    // still bit-exact.
    Result<QueryAnswer> again = Ask(*service, QueryKind::kExtended, text);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->cache_hit);
    EXPECT_EQ(again->estimate, *expected) << text;
  }
}

TEST(QueryServiceTest, ExpressionMatchesSketchTreeBitExact) {
  SketchTree direct = BuildSketch();
  Result<QueryService> service =
      QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  for (const char* text :
       {"COUNT_ORD(A(B,C))", "COUNT_ORD(A(B,C)) + COUNT_ORD(X(Y(Z)))",
        "COUNT_ORD(A(B)) * COUNT_ORD(R(U))",
        "(COUNT(A(B,C)) - COUNT_ORD(R))"}) {
    Result<double> expected = direct.EstimateExpression(text);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    Result<QueryAnswer> answer =
        Ask(*service, QueryKind::kExpression, text);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->estimate, *expected) << text;  // Bit-exact.
    EXPECT_EQ(answer->estimate, reference::EstimateExpression(direct, text))
        << text;
    Result<QueryAnswer> warm = Ask(*service, QueryKind::kExpression, text);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->cache_hit);
    EXPECT_EQ(warm->estimate, *expected) << text;
  }
}

// The oracle cases that exercise both halves of the projection: a sum
// over several virtual streams, and an expression whose terms hit
// tracked (top-k) values, so the compensation term is live.
TEST(QueryServiceTest, MatchesReferenceEstimatorWithTrackedValues) {
  SketchTree direct = BuildSketch();
  Result<QueryService> service =
      QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const VirtualStreams& streams = direct.streams();
  auto tracked = [&](const char* text) {
    uint64_t v = direct.MapPattern(*ParseSExpr(text));
    return streams.topk(streams.ResidueOf(v))->TrackedFrequency(v)
        .has_value();
  };

  // COUNT(R(S(T),U)): two arrangements landing in distinct streams.
  std::vector<LabeledTree> arrangements =
      *OrderedArrangements(*ParseSExpr("R(S(T),U)"));
  ASSERT_EQ(arrangements.size(), 2u);
  ASSERT_NE(streams.ResidueOf(direct.MapPattern(arrangements[0])),
            streams.ResidueOf(direct.MapPattern(arrangements[1])));
  Result<QueryAnswer> sum =
      Ask(*service, QueryKind::kUnordered, "R(S(T),U)");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->estimate,
            reference::EstimatePatternSum(direct, arrangements));

  const char* expression =
      "COUNT_ORD(A(B,C)) * COUNT_ORD(R(S)) - COUNT_ORD(A(B))";
  ASSERT_TRUE(tracked("A(B,C)"));
  ASSERT_TRUE(tracked("A(B)"));
  Result<QueryAnswer> answer =
      Ask(*service, QueryKind::kExpression, expression);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->estimate,
            reference::EstimateExpression(direct, expression));
}

// A pattern repeated across expression terms is compensated once: its
// occurrences were deleted from the sketch once, into one tracked count.
TEST(QueryServiceTest, RepeatedPatternIsCompensatedOnce) {
  SketchTreeOptions options;
  options.topk_size = 8;
  SketchTree direct = *SketchTree::Create(options);
  for (int i = 0; i < 300; ++i) direct.Update(*ParseSExpr("a(b,c)"));
  for (int i = 0; i < 50; ++i) direct.Update(*ParseSExpr("x(y)"));
  Result<QueryService> service = QueryService::CreateStatic(
      *SketchTree::DeserializeFromString(direct.SerializeToString()));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const uint64_t v = direct.MapPattern(*ParseSExpr("a(b)"));
  ASSERT_TRUE(direct.streams()
                  .topk(direct.streams().ResidueOf(v))
                  ->TrackedFrequency(v)
                  .has_value());
  Result<double> single = direct.EstimateCountOrdered(*ParseSExpr("a(b)"));
  ASSERT_TRUE(single.ok());
  const char* twice = "COUNT_ORD(a(b)) + COUNT_ORD(a(b))";
  Result<double> doubled = direct.EstimateExpression(twice);
  ASSERT_TRUE(doubled.ok()) << doubled.status().ToString();
  EXPECT_EQ(*doubled, 2 * *single);
  Result<QueryAnswer> answer = Ask(*service, QueryKind::kExpression, twice);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->estimate, *doubled);
}

TEST(QueryServiceTest, ErrorsMatchSketchTreeMessages) {
  SketchTree direct = BuildSketch();
  Result<QueryService> service =
      QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok());

  // Oversized pattern: the service parses with the synopsis's k limit,
  // exactly as the CLI always did, so the error text matches
  // ParsePatternQuery's.
  {
    Result<LabeledTree> expected = ParsePatternQuery(
        "a(b,c,d,e,f)", direct.options().max_pattern_edges);
    ASSERT_FALSE(expected.ok());
    Result<QueryAnswer> answer =
        Ask(*service, QueryKind::kOrdered, "a(b,c,d,e,f)");
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().ToString(), expected.status().ToString());
  }
  // Repeated expression terminal: Section 4 precondition.
  {
    Result<double> expected =
        direct.EstimateExpression("COUNT_ORD(A) * COUNT_ORD(A)");
    Result<QueryAnswer> answer = Ask(*service, QueryKind::kExpression,
                                     "COUNT_ORD(A) * COUNT_ORD(A)");
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().ToString(), expected.status().ToString());
  }
}

TEST(QueryServiceTest, UnorderedRejectionReportsArrangementCount) {
  Counter* rejected = GlobalMetrics().GetCounter("query.unordered_rejected");
  uint64_t before = rejected->value();

  SketchTreeOptions options = SmallOptions();
  options.max_pattern_edges = 8;
  SketchTree sketch = *SketchTree::Create(options);
  sketch.Update(*ParseSExpr("A(B,C)"));
  QueryServiceOptions service_options;
  service_options.max_arrangements = 10;
  Result<QueryService> service =
      QueryService::CreateStatic(std::move(sketch), service_options);
  ASSERT_TRUE(service.ok());

  // 5 distinct children: 5! = 120 ordered arrangements > 10.
  Result<QueryAnswer> answer =
      Ask(*service, QueryKind::kUnordered, "A(B,C,D,E,F)");
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsOutOfRange());
  EXPECT_NE(answer.status().message().find("120 distinct ordered "
                                           "arrangements"),
            std::string::npos)
      << answer.status().ToString();
  EXPECT_NE(answer.status().message().find("limit of 10"),
            std::string::npos);
  EXPECT_NE(answer.status().message().find("--max-arrangements"),
            std::string::npos);
  EXPECT_EQ(rejected->value(), before + 1);

  // The exact count matches the closed form without materialization.
  EXPECT_EQ(CountOrderedArrangements(*ParseSExpr("A(B,C,D,E,F)")), 120.0);
  EXPECT_EQ(CountOrderedArrangements(*ParseSExpr("A(B,B,C)")), 3.0);
  // Two children identical as unordered trees (one class, g=2, each
  // with 2 internal arrangements): 2!/2! * 2^2 = 4.
  EXPECT_EQ(CountOrderedArrangements(*ParseSExpr("A(B(C,D),B(D,C))")), 4.0);
}

TEST(QueryServiceTest, DeadlineExceededBeforeCompilation) {
  Result<QueryService> service =
      QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok());
  QueryRequest request;
  request.kind = QueryKind::kOrdered;
  request.text = "A(B,C)";
  request.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(5);
  Result<QueryAnswer> answer = service->Execute(request);
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsDeadlineExceeded());
}

TEST(QueryServiceTest, AnswersCarrySnapshotProvenance) {
  SnapshotPublisher publisher;
  SketchTree sketch = BuildSketch();
  SketchTreeOptions options = sketch.options();
  ASSERT_TRUE(publisher.PublishCopyOf(sketch).ok());
  Result<QueryService> service =
      QueryService::Create(options, {}, &publisher);
  ASSERT_TRUE(service.ok());

  Result<QueryAnswer> first = Ask(*service, QueryKind::kOrdered, "A(B,C)");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(first->trees_processed, 21u);

  // More stream, new epoch: the same cached plan now answers from the
  // newer snapshot and reports the new position.
  for (int i = 0; i < 10; ++i) sketch.Update(*ParseSExpr("A(B,C)"));
  ASSERT_TRUE(publisher.PublishCopyOf(sketch).ok());
  Result<QueryAnswer> second = Ask(*service, QueryKind::kOrdered, "A(B,C)");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(second->trees_processed, 31u);
  Result<double> expected =
      sketch.EstimateCountOrdered(*ParseSExpr("A(B,C)"));
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(second->estimate, *expected);  // Bit-exact on the new epoch.
}

TEST(QueryServiceTest, SnapshotCopyLeavesLiveSketchUntouched) {
  SnapshotPublisher publisher;
  SketchTree live = BuildSketch();
  std::string before = live.SerializeToString();
  ASSERT_TRUE(publisher.PublishCopyOf(live).ok());
  EXPECT_EQ(live.SerializeToString(), before);
  std::shared_ptr<const SketchSnapshot> snapshot = publisher.Current();
  ASSERT_NE(snapshot, nullptr);
  // The snapshot is bit-exact: serialization round trips identically.
  EXPECT_EQ(snapshot->sketch.SerializeToString(), before);
  live.Update(*ParseSExpr("A(B)"));
  // Mutating the live sketch does not reach the published snapshot.
  EXPECT_EQ(snapshot->sketch.SerializeToString(), before);
}

}  // namespace
}  // namespace sketchtree
