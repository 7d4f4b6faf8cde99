// Determinism guarantees of the batched SoA kernel and the sharded
// ingestion pipeline:
//  * SketchArray::UpdateBatch and VirtualStreams::InsertBatch are
//    bit-identical to value-at-a-time updates (same arithmetic, only
//    the loop order over instances changes — and ±1 updates commute
//    exactly in floating point);
//  * BoundedTreeQueue delivers every pushed tree exactly once and
//    drains cleanly on Close;
//  * ParallelIngester with N seed-identical shard replicas merges to
//    the same estimates as serial ingestion, bitwise.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "datagen/treebank_gen.h"
#include "ingest/parallel_ingester.h"
#include "ingest/tree_queue.h"
#include "reference_estimator.h"
#include "sketch/sketch_array.h"
#include "stream/virtual_streams.h"

namespace sketchtree {
namespace {

std::vector<uint64_t> TestValues(size_t n) {
  std::vector<uint64_t> values;
  values.reserve(n);
  uint64_t v = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < n; ++i) {
    v ^= v >> 27;
    v *= 0x3C79AC492BA7B653ull;
    values.push_back(v);
  }
  return values;
}

TEST(UpdateBatchTest, MatchesSingleUpdatesBitExact) {
  SketchArray single(5, 3, 8, 99);
  SketchArray batched(5, 3, 8, 99);
  std::vector<uint64_t> values = TestValues(257);

  for (uint64_t v : values) single.Update(v);
  batched.UpdateBatch(values);

  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(single.value(i, j), batched.value(i, j))
          << "instance (" << i << ", " << j << ")";
    }
  }
}

TEST(UpdateBatchTest, NegativeWeightsMatchBitExact) {
  SketchArray single(4, 3, 8, 7);
  SketchArray batched(4, 3, 8, 7);
  std::vector<uint64_t> values = TestValues(64);

  for (uint64_t v : values) single.Update(v, 1.0);
  for (size_t i = 0; i < 32; ++i) single.Update(values[i], -1.0);
  batched.UpdateBatch(values, 1.0);
  batched.UpdateBatch(std::span<const uint64_t>(values.data(), 32), -1.0);

  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(single.value(i, j), batched.value(i, j));
    }
  }
}

TEST(UpdateBatchTest, FractionalWeightMatchesBitExact) {
  SketchArray single(3, 3, 8, 11);
  SketchArray batched(3, 3, 8, 11);
  std::vector<uint64_t> values = TestValues(100);

  for (uint64_t v : values) single.Update(v, 0.25);
  batched.UpdateBatch(values, 0.25);

  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(single.value(i, j), batched.value(i, j));
    }
  }
}

TEST(InsertBatchTest, MatchesInsertBitExact) {
  VirtualStreamsOptions options;
  options.num_streams = 23;
  options.s1 = 10;
  options.s2 = 5;
  options.seed = 42;
  VirtualStreams serial = *VirtualStreams::Create(options);
  VirtualStreams batched = *VirtualStreams::Create(options);
  std::vector<uint64_t> values = TestValues(999);

  for (uint64_t v : values) serial.Insert(v);
  batched.InsertBatch(values);

  EXPECT_EQ(serial.values_inserted(), batched.values_inserted());
  for (uint64_t q : TestValues(50)) {
    EXPECT_EQ(reference::EstimatePoint(serial, q),
              reference::EstimatePoint(batched, q));
  }
  EXPECT_EQ(serial.EstimateSelfJoinSize(), batched.EstimateSelfJoinSize());
}

TEST(InsertBatchTest, TopkFallbackMatchesInsert) {
  VirtualStreamsOptions options;
  options.num_streams = 23;
  options.s1 = 10;
  options.s2 = 5;
  options.seed = 42;
  options.topk_capacity = 8;
  VirtualStreams serial = *VirtualStreams::Create(options);
  VirtualStreams batched = *VirtualStreams::Create(options);
  // Skewed stream so the trackers actually admit values.
  std::vector<uint64_t> values;
  for (int rep = 0; rep < 30; ++rep) {
    for (uint64_t hot = 1; hot <= 5; ++hot) values.push_back(hot * 1000);
  }
  for (uint64_t v : TestValues(200)) values.push_back(v);

  for (uint64_t v : values) serial.Insert(v);
  batched.InsertBatch(values);

  for (uint64_t q : values) {
    EXPECT_EQ(reference::EstimatePoint(serial, q),
              reference::EstimatePoint(batched, q));
  }
}

TEST(BoundedTreeQueueTest, DeliversAllTreesAcrossThreads) {
  BoundedTreeQueue queue(/*capacity=*/4);
  constexpr int kTrees = 200;
  std::vector<size_t> consumed_sizes;
  std::thread consumer([&] {
    while (std::optional<LabeledTree> tree = queue.Pop()) {
      consumed_sizes.push_back(tree->size());
    }
  });

  TreebankGenerator gen;
  std::vector<size_t> produced_sizes;
  for (int i = 0; i < kTrees; ++i) {
    LabeledTree tree = gen.Next();
    produced_sizes.push_back(tree.size());
    ASSERT_TRUE(queue.Push(std::move(tree)));
  }
  queue.Close();
  consumer.join();

  // Single consumer: FIFO order and exactly-once delivery.
  EXPECT_EQ(consumed_sizes, produced_sizes);
}

TEST(BoundedTreeQueueTest, PushAfterCloseFailsAndPopDrains) {
  BoundedTreeQueue queue(/*capacity=*/8);
  TreebankGenerator gen;
  ASSERT_TRUE(queue.Push(gen.Next()));
  ASSERT_TRUE(queue.Push(gen.Next()));
  queue.Close();
  EXPECT_FALSE(queue.Push(gen.Next()));
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value());
}

/// Small query patterns (at most 3 edges, matching the test k) — full
/// stream trees are far larger than k and MapQuery would reject them.
std::vector<LabeledTree> QueryPatterns() {
  const char* labels[] = {"S", "NP", "VP", "PP", "DT", "NN", "VB", "IN"};
  std::vector<LabeledTree> queries;
  for (const char* a : labels) {
    for (const char* b : labels) {
      LabeledTree chain;
      LabeledTree::NodeId root = chain.AddNode(a, LabeledTree::kInvalidNode);
      chain.AddNode(b, root);
      queries.push_back(std::move(chain));

      LabeledTree star;
      root = star.AddNode(a, LabeledTree::kInvalidNode);
      star.AddNode(b, root);
      star.AddNode(a, root);
      star.AddNode(b, root);
      queries.push_back(std::move(star));
    }
  }
  return queries;
}

SketchTreeOptions IngestTestOptions() {
  SketchTreeOptions options;
  options.max_pattern_edges = 3;
  options.s1 = 10;
  options.s2 = 5;
  options.num_virtual_streams = 23;
  options.seed = 42;
  return options;
}

TEST(ParallelIngesterTest, ParallelMatchesSerialBitExact) {
  SketchTreeOptions options = IngestTestOptions();
  constexpr int kTrees = 120;

  SketchTree serial = *SketchTree::Create(options);
  TreebankGenerator serial_gen;
  std::vector<LabeledTree> trees;
  for (int i = 0; i < kTrees; ++i) {
    LabeledTree tree = serial_gen.Next();
    serial.Update(tree);
    trees.push_back(std::move(tree));
  }

  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 4;
  ingest_options.queue_capacity = 8;
  ParallelIngester ingester =
      *ParallelIngester::Create(options, ingest_options);
  EXPECT_EQ(ingester.num_threads(), 4);
  for (const LabeledTree& tree : trees) {
    ASSERT_TRUE(ingester.Add(tree).ok());
  }
  EXPECT_EQ(ingester.trees_enqueued(), static_cast<uint64_t>(kTrees));
  SketchTree parallel = *ingester.Finish();

  EXPECT_EQ(serial.Stats().trees_processed, parallel.Stats().trees_processed);
  EXPECT_EQ(serial.Stats().patterns_processed,
            parallel.Stats().patterns_processed);

  // Estimates must agree bitwise: ±1 updates keep counters exact
  // integers, so shard-partitioned addition equals interleaved addition.
  for (const LabeledTree& query : QueryPatterns()) {
    Result<double> lhs = serial.EstimateCountOrdered(query);
    Result<double> rhs = parallel.EstimateCountOrdered(query);
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    EXPECT_EQ(*lhs, *rhs);
  }
  EXPECT_EQ(serial.EstimateSelfJoinSize(), parallel.EstimateSelfJoinSize());
}

TEST(ParallelIngesterTest, SingleThreadMatchesSerialBitExact) {
  SketchTreeOptions options = IngestTestOptions();
  SketchTree serial = *SketchTree::Create(options);
  TreebankGenerator gen;
  std::vector<LabeledTree> trees;
  for (int i = 0; i < 40; ++i) trees.push_back(gen.Next());
  for (const LabeledTree& tree : trees) serial.Update(tree);

  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 1;
  ParallelIngester ingester =
      *ParallelIngester::Create(options, ingest_options);
  for (const LabeledTree& tree : trees) {
    ASSERT_TRUE(ingester.Add(tree).ok());
  }
  SketchTree parallel = *ingester.Finish();

  for (const LabeledTree& query : QueryPatterns()) {
    Result<double> lhs = serial.EstimateCountOrdered(query);
    Result<double> rhs = parallel.EstimateCountOrdered(query);
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    EXPECT_EQ(*lhs, *rhs);
  }
}

TEST(ParallelIngesterTest, ReconcilesEnqueuedAgainstIngested) {
  SketchTreeOptions options = IngestTestOptions();
  constexpr int kTrees = 60;
  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 3;
  ingest_options.queue_capacity = 4;
  ParallelIngester ingester =
      *ParallelIngester::Create(options, ingest_options);

  TreebankGenerator gen;
  uint64_t patterns_expected = 0;
  {
    SketchTree reference = *SketchTree::Create(options);
    TreebankGenerator reference_gen;
    for (int i = 0; i < kTrees; ++i) {
      patterns_expected += reference.Update(reference_gen.Next());
    }
  }
  for (int i = 0; i < kTrees; ++i) {
    ASSERT_TRUE(ingester.Add(gen.Next()).ok());
    // Mid-stream, the worker-side count may trail the producer but can
    // never exceed it.
    EXPECT_LE(ingester.trees_ingested(), ingester.trees_enqueued());
  }
  SketchTree combined = *ingester.Finish();

  // After Finish the books must balance exactly: every enqueued tree was
  // ingested by exactly one shard, and the shard counts sum to the
  // totals (trees and patterns alike).
  EXPECT_EQ(ingester.trees_enqueued(), static_cast<uint64_t>(kTrees));
  EXPECT_EQ(ingester.trees_ingested(), ingester.trees_enqueued());
  std::vector<ShardIngestStats> shards = ingester.ShardStats();
  ASSERT_EQ(shards.size(), 3u);
  uint64_t shard_trees = 0;
  uint64_t shard_patterns = 0;
  for (const ShardIngestStats& shard : shards) {
    shard_trees += shard.trees_ingested;
    shard_patterns += shard.patterns_ingested;
  }
  EXPECT_EQ(shard_trees, static_cast<uint64_t>(kTrees));
  EXPECT_EQ(shard_patterns, patterns_expected);
  EXPECT_EQ(combined.Stats().trees_processed,
            static_cast<uint64_t>(kTrees));
  EXPECT_EQ(combined.Stats().patterns_processed, patterns_expected);
}

TEST(ParallelIngesterTest, AddAfterFinishFails) {
  ParallelIngestOptions ingest_options;
  ingest_options.num_threads = 2;
  ParallelIngester ingester =
      *ParallelIngester::Create(IngestTestOptions(), ingest_options);
  TreebankGenerator gen;
  ASSERT_TRUE(ingester.Add(gen.Next()).ok());
  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_FALSE(ingester.Add(gen.Next()).ok());
}

TEST(ParallelIngesterTest, DoubleFinishFails) {
  ParallelIngester ingester = *ParallelIngester::Create(
      IngestTestOptions(), ParallelIngestOptions{.num_threads = 2});
  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_FALSE(ingester.Finish().ok());
}

TEST(ParallelIngesterTest, RejectsBadThreadCount) {
  EXPECT_FALSE(ParallelIngester::Create(IngestTestOptions(),
                                        ParallelIngestOptions{.num_threads = 0})
                   .ok());
  EXPECT_FALSE(
      ParallelIngester::Create(IngestTestOptions(),
                               ParallelIngestOptions{.num_threads = 300})
          .ok());
}

TEST(ParallelIngesterTest, DestructorJoinsWithoutFinish) {
  TreebankGenerator gen;
  {
    ParallelIngester ingester = *ParallelIngester::Create(
        IngestTestOptions(), ParallelIngestOptions{.num_threads = 2});
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(ingester.Add(gen.Next()).ok());
    }
    // Dropped without Finish: destructor must close the queue and join.
  }
  SUCCEED();
}

}  // namespace
}  // namespace sketchtree
