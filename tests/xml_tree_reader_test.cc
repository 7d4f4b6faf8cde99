#include "xml/xml_tree_reader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "tree/tree_serialization.h"
#include "temp_path.h"

namespace sketchtree {
namespace {

TEST(XmlTreeReaderTest, ElementsBecomeNodes) {
  Result<LabeledTree> tree = XmlToTree("<a><b/><c><d/></c></a>");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(TreeToSExpr(*tree), "a(b,c(d))");
}

TEST(XmlTreeReaderTest, TextBecomesChildLabel) {
  Result<LabeledTree> tree =
      XmlToTree("<author>Jane Doe</author>");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(TreeToSExpr(*tree), "author('Jane Doe')");
}

TEST(XmlTreeReaderTest, WhitespaceOnlyTextDropped) {
  Result<LabeledTree> tree = XmlToTree("<a>\n  <b/>\n</a>");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(TreeToSExpr(*tree), "a(b)");
}

TEST(XmlTreeReaderTest, TextIsTrimmed) {
  Result<LabeledTree> tree = XmlToTree("<a>  x y  </a>");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(TreeToSExpr(*tree), "a('x y')");
}

TEST(XmlTreeReaderTest, AttributesBecomeAtNodes) {
  Result<LabeledTree> tree = XmlToTree("<a id=\"7\" lang=\"en\"><b/></a>");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(TreeToSExpr(*tree), "a(@id(7),@lang(en),b)");
}

TEST(XmlTreeReaderTest, AttributesCanBeExcluded) {
  XmlTreeOptions options;
  options.include_attributes = false;
  Result<LabeledTree> tree = XmlToTree("<a id=\"7\"><b/></a>", options);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(TreeToSExpr(*tree), "a(b)");
}

TEST(XmlTreeReaderTest, TextCanBeExcluded) {
  XmlTreeOptions options;
  options.include_text = false;
  Result<LabeledTree> tree = XmlToTree("<a>hello<b/></a>", options);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(TreeToSExpr(*tree), "a(b)");
}

TEST(XmlTreeReaderTest, LongTextClipped) {
  XmlTreeOptions options;
  options.max_text_length = 4;
  Result<LabeledTree> tree = XmlToTree("<a>abcdefgh</a>", options);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(TreeToSExpr(*tree), "a(abcd)");
}

TEST(XmlTreeReaderTest, MixedContentPreservesDocumentOrder) {
  Result<LabeledTree> tree = XmlToTree("<p>one<b>two</b>three</p>");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(TreeToSExpr(*tree), "p(one,b(two),three)");
}

TEST(XmlTreeReaderTest, ForestSplitsRootChildren) {
  // The paper's construction: strip the root tag of a large document to
  // obtain a stream of trees.
  Result<std::vector<LabeledTree>> forest = XmlForestToTrees(
      "<dblp><article><title>t1</title></article>"
      "<book><title>t2</title></book></dblp>");
  ASSERT_TRUE(forest.ok());
  ASSERT_EQ(forest->size(), 2u);
  EXPECT_EQ(TreeToSExpr((*forest)[0]), "article(title(t1))");
  EXPECT_EQ(TreeToSExpr((*forest)[1]), "book(title(t2))");
}

TEST(XmlTreeReaderTest, ForestOfLeafChildren) {
  Result<std::vector<LabeledTree>> forest =
      XmlForestToTrees("<root><a/><b/><c/></root>");
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest->size(), 3u);
}

TEST(XmlTreeReaderTest, ParseErrorsPropagate) {
  EXPECT_FALSE(XmlToTree("<a><b></a>").ok());
  EXPECT_FALSE(XmlToTree("").ok());
  EXPECT_FALSE(XmlToTree("just text").ok());
  // Multiple roots.
  EXPECT_FALSE(XmlToTree("<a/><b/>").ok());
}

TEST(XmlTreeReaderTest, ReadsForestFromFile) {
  std::string path = TempPath("sketchtree_forest_test.xml");
  {
    std::ofstream out(path);
    out << "<stream><t1><x/></t1><t2><y>v</y></t2></stream>";
  }
  Result<std::vector<LabeledTree>> forest = ReadXmlForestFile(path);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  ASSERT_EQ(forest->size(), 2u);
  EXPECT_EQ(TreeToSExpr((*forest)[1]), "t2(y(v))");
  std::remove(path.c_str());
}

TEST(XmlForestStreamingTest, YieldsTreesOneAtATime) {
  std::vector<std::string> seen;
  Status st = StreamXmlForest(
      "<dblp><article><title>t1</title></article>"
      "<book><title>t2</title></book><note/></dblp>",
      [&](LabeledTree tree) {
        seen.push_back(TreeToSExpr(tree));
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(seen, (std::vector<std::string>{"article(title(t1))",
                                            "book(title(t2))", "note"}));
}

TEST(XmlForestStreamingTest, MatchesBatchReader) {
  const char* xml =
      "<s><a x=\"1\">hello<b/></a><c><d>v</d></c><e/></s>";
  std::vector<LabeledTree> batch = *XmlForestToTrees(xml);
  std::vector<LabeledTree> streamed;
  ASSERT_TRUE(StreamXmlForest(xml, [&](LabeledTree tree) {
                streamed.push_back(std::move(tree));
                return Status::OK();
              }).ok());
  ASSERT_EQ(streamed.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(streamed[i] == batch[i]) << i;
  }
}

TEST(XmlForestStreamingTest, CallbackErrorAbortsParse) {
  int calls = 0;
  Status st = StreamXmlForest(
      "<s><a/><b/><c/></s>",
      [&](LabeledTree) {
        ++calls;
        return calls == 2 ? Status::Internal("stop") : Status::OK();
      });
  EXPECT_TRUE(st.IsInternal());
  EXPECT_EQ(calls, 2);
}

TEST(XmlForestStreamingTest, MalformedXmlReported) {
  Status st = StreamXmlForest("<s><a></s>",
                              [&](LabeledTree) { return Status::OK(); });
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(XmlForestStreamingTest, FileVariant) {
  std::string path = TempPath("sketchtree_stream_test.xml");
  {
    std::ofstream out(path);
    out << "<s><x><y>v</y></x></s>";
  }
  int trees = 0;
  ASSERT_TRUE(StreamXmlForestFile(path, [&](LabeledTree tree) {
                ++trees;
                EXPECT_EQ(TreeToSExpr(tree), "x(y(v))");
                return Status::OK();
              }).ok());
  EXPECT_EQ(trees, 1);
  std::remove(path.c_str());
}

TEST(XmlTreeReaderTest, MissingFileIsIOError) {
  Result<std::vector<LabeledTree>> forest =
      ReadXmlForestFile("/nonexistent/path/file.xml");
  EXPECT_FALSE(forest.ok());
  EXPECT_TRUE(forest.status().IsIOError());
}

}  // namespace
}  // namespace sketchtree
