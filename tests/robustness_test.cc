// Failure-injection and robustness tests: malformed input must produce
// clean Status errors — never crashes, hangs, or partial state that
// corrupts later queries.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/sketch_tree.h"
#include "query/expression.h"
#include "query/extended_query.h"
#include "tree/tree_serialization.h"
#include "xml/sax_parser.h"
#include "xml/xml_tree_reader.h"

namespace sketchtree {
namespace {

class NullHandler : public SaxHandler {
 public:
  Status StartElement(
      std::string_view,
      const std::vector<std::pair<std::string_view, std::string>>&) override {
    return Status::OK();
  }
  Status EndElement(std::string_view) override { return Status::OK(); }
  Status Characters(std::string_view) override { return Status::OK(); }
};

TEST(RobustnessTest, SaxParserSurvivesRandomMutations) {
  // Take a valid document, flip/insert/delete random bytes, and verify
  // the parser always terminates with OK or a clean error.
  const std::string base =
      "<dblp><article key=\"a&amp;b\"><author>J. Doe</author>"
      "<!-- note --><title><![CDATA[x<y]]></title></article></dblp>";
  Pcg64 rng(2024);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.NextBounded(4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.NextBounded(mutated.size());
      switch (rng.NextBounded(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBounded(256));
          break;
        case 1:
          mutated.insert(pos, 1, static_cast<char>(rng.NextBounded(256)));
          break;
        default:
          mutated.erase(pos, 1);
          break;
      }
    }
    NullHandler handler;
    Status st = ParseXml(mutated, &handler);  // Must not crash or hang.
    (void)st;
  }
}

TEST(RobustnessTest, SaxParserSurvivesPathologicalInputs) {
  NullHandler handler;
  // Deep nesting.
  std::string deep;
  for (int i = 0; i < 5000; ++i) deep += "<a>";
  for (int i = 0; i < 5000; ++i) deep += "</a>";
  EXPECT_TRUE(ParseXml(deep, &handler).ok());
  // Long runs of markup-ish garbage.
  EXPECT_FALSE(ParseXml(std::string(10000, '<'), &handler).ok());
  EXPECT_FALSE(ParseXml(std::string(10000, '&'), &handler).ok());
  EXPECT_TRUE(ParseXml("", &handler).ok());  // Empty document, no events.
}

TEST(RobustnessTest, SExprParserSurvivesRandomMutations) {
  const std::string base = "A(B(C,'we ird'),D(E),F)";
  Pcg64 rng(7);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string mutated = base;
    size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] = static_cast<char>(rng.NextBounded(128));
    Result<LabeledTree> r = ParseSExpr(mutated);
    if (r.ok()) {
      // Whatever parsed must round-trip.
      EXPECT_TRUE(*r == *ParseSExpr(TreeToSExpr(*r)));
    }
  }
}

TEST(RobustnessTest, ExpressionParserSurvivesRandomMutations) {
  const std::string base =
      "COUNT_ORD(A(B)) * COUNT(C(D,E)) - (COUNT_ORD(F) + COUNT_ORD(G))";
  Pcg64 rng(11);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = base;
    size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] = static_cast<char>(rng.NextBounded(128));
    (void)CountExpression::Parse(mutated);  // OK or clean error.
  }
}

TEST(RobustnessTest, ExtendedQueryParserSurvivesRandomMutations) {
  const std::string base = "A(*,//C(*),B(//D))";
  Pcg64 rng(13);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = base;
    size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] = static_cast<char>(rng.NextBounded(128));
    Result<ExtendedQuery> r = ExtendedQuery::Parse(mutated);
    if (r.ok()) {
      // Normalized form must re-parse to the same normalized form.
      Result<ExtendedQuery> again = ExtendedQuery::Parse(r->ToString());
      ASSERT_TRUE(again.ok()) << r->ToString();
      EXPECT_EQ(again->ToString(), r->ToString());
    }
  }
}

TEST(RobustnessTest, SketchSurvivesFailedQueriesUnscathed) {
  // Errors during estimation must leave the synopsis fully usable.
  SketchTreeOptions options;
  options.max_pattern_edges = 2;
  options.s1 = 30;
  options.s2 = 5;
  options.num_virtual_streams = 7;
  SketchTree sketch = *SketchTree::Create(options);
  sketch.Update(*ParseSExpr("A(B,C)"));

  double before = *sketch.EstimateCountOrdered(*ParseSExpr("A(B)"));
  EXPECT_FALSE(sketch.EstimateCountOrdered(*ParseSExpr("A(B(C(D)))")).ok());
  EXPECT_FALSE(sketch.EstimateExpression("COUNT_ORD(").ok());
  EXPECT_FALSE(sketch.EstimateExtended("A(//B)").ok());  // No summary.
  EXPECT_FALSE(sketch.EstimateCountOrderedSum({}).ok());
  EXPECT_DOUBLE_EQ(*sketch.EstimateCountOrdered(*ParseSExpr("A(B)")),
                   before);
}

TEST(RobustnessTest, DeserializerSurvivesRandomCorruption) {
  SketchTreeOptions options;
  options.max_pattern_edges = 2;
  options.s1 = 10;
  options.s2 = 3;
  options.num_virtual_streams = 7;
  options.topk_size = 3;
  options.build_structural_summary = true;
  SketchTree sketch = *SketchTree::Create(options);
  sketch.Update(*ParseSExpr("A(B,C)"));
  std::string bytes = sketch.SerializeToString();

  Pcg64 rng(17);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string corrupted = bytes;
    size_t pos = rng.NextBounded(corrupted.size());
    corrupted[pos] = static_cast<char>(rng.NextBounded(256));
    // Must terminate with OK (the byte was rewritten with its own
    // value) or a clean error — never crash or read out of bounds.
    (void)SketchTree::DeserializeFromString(corrupted);
  }
}

}  // namespace
}  // namespace sketchtree
