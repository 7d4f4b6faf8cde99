// The parallel parse front end and the batched/inline ingestion paths
// feeding it:
//
//  * BoundedTreeQueue::PushBatch / PopBatch semantics (capacity gulps,
//    take-what's-available, close behavior);
//  * the inline single-thread ingester (no queue, no worker — the
//    threads_1 == serial path) and batched AddBatch accounting;
//  * ParseForestFilesParallel: the synopsis it builds is bit-identical
//    to a serial SAX build of the same documents (the ±1 integer-counter
//    exactness argument, asserted at the serialized-bytes level),
//    quarantine of per-tree malformations, fail-fast, multi-file
//    concatenation, and document-level error propagation.
#include "ingest/parse_pool.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sketch_tree.h"
#include "datagen/treebank_gen.h"
#include "ingest/parallel_ingester.h"
#include "ingest/tree_queue.h"
#include "temp_path.h"
#include "tree/labeled_tree.h"
#include "xml/xml_tree_reader.h"

namespace sketchtree {
namespace {

LabeledTree MakeChain(int nodes) {
  LabeledTree tree;
  LabeledTree::NodeId parent = LabeledTree::kInvalidNode;
  for (int i = 0; i < nodes; ++i) {
    parent = tree.AddNode("n" + std::to_string(i % 3), parent);
  }
  return tree;
}

TEST(TreeQueueBatchTest, PushBatchLargerThanCapacityDrainsFully) {
  BoundedTreeQueue queue(2);
  std::vector<LabeledTree> popped;
  std::thread consumer([&] {
    while (auto tree = queue.Pop()) popped.push_back(*std::move(tree));
  });
  std::vector<LabeledTree> batch;
  for (int i = 0; i < 7; ++i) batch.push_back(MakeChain(3));
  EXPECT_EQ(queue.PushBatch(&batch), 7u);
  EXPECT_TRUE(batch.empty());  // Consumed on success.
  queue.Close();
  consumer.join();
  EXPECT_EQ(popped.size(), 7u);
}

TEST(TreeQueueBatchTest, PopBatchTakesAvailableWithoutWaitingForFull) {
  BoundedTreeQueue queue(16);
  std::vector<LabeledTree> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(MakeChain(2));
  ASSERT_EQ(queue.PushBatch(&batch), 5u);
  std::vector<LabeledTree> out;
  ASSERT_TRUE(queue.PopBatch(&out, 100));
  EXPECT_EQ(out.size(), 5u);  // All available, no wait for 100.
  EXPECT_EQ(queue.size(), 0u);
  queue.Close();
  EXPECT_FALSE(queue.PopBatch(&out, 8));
  EXPECT_TRUE(out.empty());
}

TEST(TreeQueueBatchTest, PopBatchZeroMaxStillMakesProgress) {
  BoundedTreeQueue queue(4);
  std::vector<LabeledTree> batch;
  batch.push_back(MakeChain(2));
  ASSERT_EQ(queue.PushBatch(&batch), 1u);
  std::vector<LabeledTree> out;
  ASSERT_TRUE(queue.PopBatch(&out, 0));
  EXPECT_EQ(out.size(), 1u);
  queue.Close();
}

TEST(TreeQueueBatchTest, PushBatchShortWhenClosedMidBatch) {
  BoundedTreeQueue queue(2);
  std::vector<LabeledTree> fill;
  for (int i = 0; i < 2; ++i) fill.push_back(MakeChain(2));
  ASSERT_EQ(queue.PushBatch(&fill), 2u);  // Queue now full.
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.Close();
  });
  std::vector<LabeledTree> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(MakeChain(2));
  size_t pushed = queue.PushBatch(&batch);  // Blocks full, then closed.
  closer.join();
  EXPECT_LT(pushed, 5u);
}

SketchTreeOptions SmallOptions() {
  SketchTreeOptions options;
  options.max_pattern_edges = 2;
  options.s1 = 10;
  options.s2 = 3;
  options.num_virtual_streams = 23;
  options.fingerprint_degree = 31;
  options.seed = 7;
  return options;
}

std::vector<LabeledTree> GenerateTrees(int count) {
  TreebankGenerator gen({/*seed=*/11, /*max_depth=*/8});
  std::vector<LabeledTree> trees;
  trees.reserve(count);
  for (int i = 0; i < count; ++i) trees.push_back(gen.Next());
  return trees;
}

TEST(InlineIngesterTest, MatchesSerialBuildBitExactly) {
  std::vector<LabeledTree> trees = GenerateTrees(40);

  SketchTree serial = *SketchTree::Create(SmallOptions());
  for (const LabeledTree& tree : trees) serial.Update(tree);

  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 1;
  ingest_options.inline_single_thread = true;
  ParallelIngester ingester =
      *ParallelIngester::Create(SmallOptions(), ingest_options);
  for (const LabeledTree& tree : trees) {
    ASSERT_TRUE(ingester.Add(tree).ok());
  }
  EXPECT_EQ(ingester.trees_enqueued(), 40u);
  Result<SketchTree> combined = ingester.Finish();
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  EXPECT_EQ(serial.SerializeToString(), combined->SerializeToString());
}

TEST(InlineIngesterTest, AddBatchConsumesAndCounts) {
  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 1;
  ingest_options.inline_single_thread = true;
  ParallelIngester ingester =
      *ParallelIngester::Create(SmallOptions(), ingest_options);
  std::vector<LabeledTree> batch = GenerateTrees(9);
  ASSERT_TRUE(ingester.AddBatch(&batch).ok());
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(ingester.trees_enqueued(), 9u);
  ASSERT_TRUE(ingester.Finish().ok());
}

TEST(QueueIngesterTest, AddBatchFromConcurrentProducers) {
  std::vector<LabeledTree> trees = GenerateTrees(60);

  SketchTree serial = *SketchTree::Create(SmallOptions());
  for (const LabeledTree& tree : trees) serial.Update(tree);

  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 1;  // One shard: merge-order invariant.
  ingest_options.inline_single_thread = false;
  ingest_options.worker_batch = 8;
  ParallelIngester ingester =
      *ParallelIngester::Create(SmallOptions(), ingest_options);
  auto produce = [&](size_t begin, size_t end) {
    std::vector<LabeledTree> batch;
    for (size_t i = begin; i < end; ++i) {
      batch.push_back(trees[i]);
      if (batch.size() == 7) ASSERT_TRUE(ingester.AddBatch(&batch).ok());
    }
    ASSERT_TRUE(ingester.AddBatch(&batch).ok());
  };
  std::thread first(produce, 0, 30);
  std::thread second(produce, 30, 60);
  first.join();
  second.join();
  EXPECT_EQ(ingester.trees_enqueued(), 60u);
  Result<SketchTree> combined = ingester.Finish();
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  // Unordered delivery, same multiset of ±1 updates: bit-exact synopsis.
  EXPECT_EQ(serial.SerializeToString(), combined->SerializeToString());
}

void AppendTreeXml(const LabeledTree& tree, LabeledTree::NodeId node,
                   std::string* out) {
  const std::string& label = tree.label(node);
  if (tree.is_leaf(node)) {
    *out += "<" + label + "/>";
    return;
  }
  *out += "<" + label + ">";
  for (LabeledTree::NodeId child : tree.children(node)) {
    AppendTreeXml(tree, child, out);
  }
  *out += "</" + label + ">";
}

std::string WriteForestFile(const std::string& name,
                            const std::vector<LabeledTree>& trees) {
  std::string xml = "<forest>";
  for (const LabeledTree& tree : trees) {
    AppendTreeXml(tree, tree.root(), &xml);
  }
  xml += "</forest>";
  std::string path = TempPath(name);
  FILE* file = std::fopen(path.c_str(), "w");
  EXPECT_NE(file, nullptr);
  if (file != nullptr) {
    std::fwrite(xml.data(), 1, xml.size(), file);
    std::fclose(file);
  }
  return path;
}

Result<SketchTree> BuildViaPool(const std::vector<std::string>& paths,
                                int parse_threads,
                                ParsePoolStats* stats = nullptr) {
  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 1;
  ingest_options.inline_single_thread = parse_threads == 1;
  ParallelIngester ingester =
      *ParallelIngester::Create(SmallOptions(), ingest_options);
  ParsePoolOptions pool_options;
  pool_options.num_threads = parse_threads;
  pool_options.batch_size = 5;  // Force multiple AddBatch hand-offs.
  SKETCHTREE_RETURN_NOT_OK(
      ParseForestFilesParallel(paths, pool_options, &ingester, stats));
  return ingester.Finish();
}

TEST(ParsePoolTest, BitExactWithSerialStream) {
  std::vector<LabeledTree> trees = GenerateTrees(50);
  std::string path = WriteForestFile("pool_bitexact.xml", trees);

  SketchTree serial = *SketchTree::Create(SmallOptions());
  Status streamed = StreamXmlForestFile(path, [&](LabeledTree tree) {
    serial.Update(tree);
    return Status::OK();
  });
  ASSERT_TRUE(streamed.ok()) << streamed.ToString();
  const std::string serial_bytes = serial.SerializeToString();

  for (int parse_threads : {1, 3}) {
    ParsePoolStats stats;
    Result<SketchTree> pooled =
        BuildViaPool({path}, parse_threads, &stats);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    EXPECT_EQ(stats.trees_parsed, 50u) << parse_threads;
    EXPECT_EQ(stats.documents, 1u);
    EXPECT_EQ(pooled->SerializeToString(), serial_bytes)
        << parse_threads << " parse threads";
  }
  std::remove(path.c_str());
}

TEST(ParsePoolTest, MultiFileConcatenatesInPathOrder) {
  std::vector<LabeledTree> trees = GenerateTrees(30);
  std::vector<LabeledTree> first_half(trees.begin(), trees.begin() + 12);
  std::vector<LabeledTree> second_half(trees.begin() + 12, trees.end());
  std::string first = WriteForestFile("pool_multi_a.xml", first_half);
  std::string second = WriteForestFile("pool_multi_b.xml", second_half);

  SketchTree serial = *SketchTree::Create(SmallOptions());
  for (const LabeledTree& tree : trees) serial.Update(tree);

  ParsePoolStats stats;
  Result<SketchTree> pooled = BuildViaPool({first, second}, 2, &stats);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  EXPECT_EQ(stats.documents, 2u);
  EXPECT_EQ(stats.trees_parsed, 30u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(pooled->SerializeToString(), serial.SerializeToString());
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(ParsePoolTest, QuarantinesMalformedTreesWhenNotFailFast) {
  // <a></b> passes the structural split (balanced depth) but fails the
  // per-tree SAX parse — exactly the shape quarantine exists for.
  std::string path = TempPath("pool_quarantine.xml");
  FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("<f><a><b/></a><a></b><c/></f>", file);
  std::fclose(file);

  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 1;
  ingest_options.inline_single_thread = false;
  ParallelIngester ingester =
      *ParallelIngester::Create(SmallOptions(), ingest_options);
  QuarantineSink quarantine;
  ParsePoolOptions pool_options;
  pool_options.num_threads = 2;
  pool_options.fail_fast = false;
  pool_options.quarantine = &quarantine;
  ParsePoolStats stats;
  Status status =
      ParseForestFilesParallel({path}, pool_options, &ingester, &stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stats.trees_parsed, 2u);
  EXPECT_EQ(stats.trees_quarantined, 1u);
  EXPECT_EQ(quarantine.count(), 1u);
  ASSERT_TRUE(ingester.Finish().ok());
  std::remove(path.c_str());
}

TEST(ParsePoolTest, FailFastReportsOffendingTree) {
  std::string path = TempPath("pool_failfast.xml");
  FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("<f><ok/><a></b></f>", file);
  std::fclose(file);

  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 1;
  ingest_options.inline_single_thread = false;
  ParallelIngester ingester =
      *ParallelIngester::Create(SmallOptions(), ingest_options);
  ParsePoolOptions pool_options;
  pool_options.num_threads = 2;
  Status status =
      ParseForestFilesParallel({path}, pool_options, &ingester, nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("tree 1"), std::string::npos)
      << status.ToString();
  (void)ingester.Finish();
  std::remove(path.c_str());
}

TEST(ParsePoolTest, PropagatesDocumentLevelErrors) {
  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 1;
  ingest_options.inline_single_thread = false;
  ParallelIngester missing_ingester =
      *ParallelIngester::Create(SmallOptions(), ingest_options);
  Status missing = ParseForestFilesParallel(
      {::testing::TempDir() + "does_not_exist.xml"}, {},
      &missing_ingester);
  EXPECT_FALSE(missing.ok());
  (void)missing_ingester.Finish();

  std::string path = TempPath("pool_truncated.xml");
  FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("<f><a>", file);
  std::fclose(file);
  ParallelIngester truncated_ingester =
      *ParallelIngester::Create(SmallOptions(), ingest_options);
  Status truncated =
      ParseForestFilesParallel({path}, {}, &truncated_ingester);
  EXPECT_TRUE(truncated.IsInvalidArgument()) << truncated.ToString();
  EXPECT_NE(truncated.message().find(path), std::string::npos)
      << truncated.ToString();
  (void)truncated_ingester.Finish();
  std::remove(path.c_str());
}

TEST(ParsePoolTest, RejectsInvalidThreadCount) {
  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 1;
  ParallelIngester ingester =
      *ParallelIngester::Create(SmallOptions(), ingest_options);
  ParsePoolOptions pool_options;
  pool_options.num_threads = 0;
  EXPECT_FALSE(
      ParseForestFilesParallel({"x"}, pool_options, &ingester).ok());
  EXPECT_FALSE(ParseForestFilesParallel({}, {}, &ingester).ok());
  (void)ingester.Finish();
}

}  // namespace
}  // namespace sketchtree
