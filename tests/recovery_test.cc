// Kill-and-restart recovery: a build interrupted at an arbitrary point
// and resumed from the newest intact synopsis-store epoch must serialize
// bit-identically to the uninterrupted run, and every injected fault
// must surface as a typed Status (or be absorbed), never a crash.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/sketch_tree.h"
#include "datagen/treebank_gen.h"
#include "faultinject/fault_injector.h"
#include "ingest/parallel_ingester.h"
#include "ingest/quarantine.h"
#include "store/synopsis_store.h"
#include "tree/tree_serialization.h"
#include "xml/xml_tree_reader.h"
#include "temp_path.h"

namespace sketchtree {
namespace {

namespace fs = std::filesystem;

/// Deterministic forest document: `count` stream trees whose shape
/// varies with the index.
std::string MakeForestXml(int count) {
  std::string xml = "<forest>";
  for (int i = 0; i < count; ++i) {
    switch (i % 4) {
      case 0:
        xml += "<a><b/><c/></a>";
        break;
      case 1:
        xml += "<a><b><d/></b></a>";
        break;
      case 2:
        xml += "<c><d/><b><a/></b></c>";
        break;
      default:
        xml += "<d/>";
        break;
    }
  }
  xml += "</forest>";
  return xml;
}

SketchTreeOptions RecoveryOptions() {
  SketchTreeOptions options;
  options.max_pattern_edges = 3;
  options.s1 = 20;
  options.s2 = 5;
  options.num_virtual_streams = 13;
  options.topk_size = 4;  // Exercise canonical top-k serialization.
  options.seed = 21;
  options.build_structural_summary = true;
  return options;
}

/// A store that loads into owned memory, as a resuming build does.
SynopsisStore OpenCheckpoints(const fs::path& dir) {
  SynopsisStoreOptions options;
  options.use_mmap = false;
  return std::move(SynopsisStore::Open(dir.string(), options)).value();
}

/// The checkpoint cursor of these tests: trees streamed, as a decimal.
uint64_t TreesStreamed(const LoadedSynopsis& loaded) {
  return std::stoull(loaded.cursor);
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestTempPath("recovery_");
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

TEST(StreamExTest, SkipCursorReplaysExactSuffix) {
  const std::string xml = MakeForestXml(10);
  std::vector<std::string> full;
  ASSERT_TRUE(StreamXmlForestEx(xml,
                                [&](LabeledTree tree, uint64_t, uint64_t) {
                                  full.push_back(TreeToSExpr(tree));
                                  return Status::OK();
                                })
                  .ok());
  ASSERT_EQ(full.size(), 10u);

  ForestStreamOptions options;
  options.skip_trees = 4;
  std::vector<std::string> tail;
  std::vector<uint64_t> indices;
  ForestStreamStats stats;
  ASSERT_TRUE(StreamXmlForestEx(
                  xml,
                  [&](LabeledTree tree, uint64_t index, uint64_t) {
                    tail.push_back(TreeToSExpr(tree));
                    indices.push_back(index);
                    return Status::OK();
                  },
                  options, &stats)
                  .ok());
  EXPECT_EQ(stats.trees_skipped, 4u);
  EXPECT_EQ(stats.trees_emitted, 6u);
  ASSERT_EQ(tail.size(), 6u);
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i], full[i + 4]);
    EXPECT_EQ(indices[i], i + 4);
  }
}

TEST(StreamExTest, ByteOffsetsAreMonotoneAndEndAtClosingTags) {
  const std::string xml = MakeForestXml(8);
  uint64_t previous = 0;
  ForestStreamStats stats;
  ASSERT_TRUE(StreamXmlForestEx(
                  xml,
                  [&](LabeledTree, uint64_t, uint64_t end_offset) {
                    EXPECT_GT(end_offset, previous);
                    EXPECT_LE(end_offset, xml.size());
                    // Every tree ends at a '>' (closing or self-closing
                    // tag terminator).
                    EXPECT_EQ(xml[end_offset - 1], '>');
                    previous = end_offset;
                    return Status::OK();
                  },
                  {}, &stats)
                  .ok());
  EXPECT_EQ(stats.last_tree_end_offset, previous);
}

TEST(StreamExTest, MalformedTreeIsQuarantinedAndStreamContinues) {
  const std::string xml = MakeForestXml(10);
  FaultInjector::Global().Arm(FaultSite::kMalformedTree,
                              {.skip_first = 2, .fire_count = 1});
  QuarantineSink sink;
  ForestStreamOptions options;
  options.fail_fast = false;
  options.quarantine = &sink;
  std::vector<uint64_t> indices;
  ForestStreamStats stats;
  Status status = StreamXmlForestEx(
      xml,
      [&](LabeledTree, uint64_t index, uint64_t) {
        indices.push_back(index);
        return Status::OK();
      },
      options, &stats);
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stats.trees_emitted, 9u);
  EXPECT_EQ(stats.trees_quarantined, 1u);
  EXPECT_EQ(sink.count(), 1u);
  // Tree ordinal 2 was quarantined; everything else arrived, ordinals
  // intact (the quarantined tree still consumes its slot).
  ASSERT_EQ(indices.size(), 9u);
  for (uint64_t index : indices) EXPECT_NE(index, 2u);
}

TEST(StreamExTest, FailFastSurfacesTheMalformedTree) {
  const std::string xml = MakeForestXml(10);
  FaultInjector::Global().Arm(FaultSite::kMalformedTree,
                              {.skip_first = 2, .fire_count = 1});
  Status status = StreamXmlForestEx(
      xml, [](LabeledTree, uint64_t, uint64_t) { return Status::OK(); });
  FaultInjector::Global().DisarmAll();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST(StreamExTest, DocumentLevelErrorAbortsEvenWithQuarantine) {
  // Mismatched wrapper tag: there is no resynchronization point, so
  // quarantine must NOT swallow this.
  const std::string xml = "<forest><a><b/></a><c></forest>";
  QuarantineSink sink;
  ForestStreamOptions options;
  options.fail_fast = false;
  options.quarantine = &sink;
  Status status = StreamXmlForestEx(
      xml, [](LabeledTree, uint64_t, uint64_t) { return Status::OK(); },
      options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(sink.count(), 0u);
}

TEST_F(RecoveryTest, ResumedSerialBuildIsBitIdentical) {
  const std::string xml = MakeForestXml(60);
  const int kCheckpointEvery = 20;

  // Reference: uninterrupted single-pass build.
  SketchTree reference = *SketchTree::Create(RecoveryOptions());
  ASSERT_TRUE(StreamXmlForestEx(xml,
                                [&](LabeledTree tree, uint64_t, uint64_t) {
                                  reference.Update(tree);
                                  return Status::OK();
                                })
                  .ok());
  const std::string reference_bytes = reference.SerializeToString();

  // Interrupted run: checkpoint every 20 trees, then "crash" (abort the
  // stream and throw the in-memory synopsis away) mid-way through the
  // third window, at tree 50.
  {
    SynopsisStore checkpoints = OpenCheckpoints(dir_);
    SketchTree doomed = *SketchTree::Create(RecoveryOptions());
    Status aborted = StreamXmlForestEx(
        xml, [&](LabeledTree tree, uint64_t index, uint64_t) {
          doomed.Update(tree);
          if ((index + 1) % kCheckpointEvery == 0) {
            SKETCHTREE_RETURN_NOT_OK(
                checkpoints.Persist(doomed, checkpoints.newest_epoch() + 1,
                                    std::to_string(index + 1)));
          }
          if (index + 1 == 50) {
            return Status::Internal("simulated crash");
          }
          return Status::OK();
        });
    ASSERT_TRUE(aborted.IsInternal());
  }

  // Restart: a new process loads the newest intact epoch (tree 40) and
  // replays the suffix.
  Result<LoadedSynopsis> restored = OpenCheckpoints(dir_).LoadNewest();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(TreesStreamed(*restored), 40u);
  SketchTree resumed = std::move(restored->sketch);

  ForestStreamOptions stream_options;
  stream_options.skip_trees = TreesStreamed(*restored);
  ForestStreamStats stats;
  ASSERT_TRUE(StreamXmlForestEx(
                  xml,
                  [&](LabeledTree tree, uint64_t, uint64_t) {
                    resumed.Update(tree);
                    return Status::OK();
                  },
                  stream_options, &stats)
                  .ok());
  EXPECT_EQ(stats.trees_skipped, 40u);
  EXPECT_EQ(stats.trees_emitted, 20u);

  // The acceptance criterion: bit-identical serialization, top-k and
  // structural summary included.
  EXPECT_EQ(resumed.SerializeToString(), reference_bytes);
}

TEST_F(RecoveryTest, ResumedParallelBuildMatchesSerialBitExactly) {
  // Bit-exact parallel equivalence requires no top-k (per-shard
  // tracking) and no summary; see ParallelIngester's contract.
  SketchTreeOptions options = RecoveryOptions();
  options.topk_size = 0;
  options.build_structural_summary = false;

  TreebankGenerator reference_gen(TreebankGenOptions{.seed = 3});
  SketchTree serial = *SketchTree::Create(options);
  std::vector<LabeledTree> stream;
  for (int i = 0; i < 60; ++i) stream.push_back(reference_gen.Next());
  for (const LabeledTree& tree : stream) serial.Update(tree);

  // First incarnation: ingest 30 trees, checkpoint the merged cut,
  // crash (abandon).
  {
    Result<ParallelIngester> ingester =
        ParallelIngester::Create(options, {.num_threads = 3});
    ASSERT_TRUE(ingester.ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(ingester->Add(stream[i]).ok());
    }
    Result<SketchTree> cut = ingester->SnapshotShards();
    ASSERT_TRUE(cut.ok()) << cut.status().ToString();
    EXPECT_EQ(cut->Stats().trees_processed, 30u);
    ASSERT_TRUE(OpenCheckpoints(dir_).Persist(*cut, 1, "30").ok());
    // Ingester destroyed without Finish: the crash.
  }

  // Second incarnation: the epoch is the base, fresh shards replay the
  // suffix, and Finish's merge folds them into it.
  Result<LoadedSynopsis> restored = OpenCheckpoints(dir_).LoadNewest();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(TreesStreamed(*restored), 30u);
  Result<ParallelIngester> resumed =
      ParallelIngester::Create(options, {.num_threads = 3});
  ASSERT_TRUE(resumed.ok());
  for (int i = 30; i < 60; ++i) {
    ASSERT_TRUE(resumed->Add(stream[i]).ok());
  }
  Result<SketchTree> suffix = resumed->Finish();
  ASSERT_TRUE(suffix.ok()) << suffix.status().ToString();
  SketchTree combined = std::move(restored->sketch);
  ASSERT_TRUE(combined.Merge(*suffix).ok());
  EXPECT_EQ(combined.SerializeToString(), serial.SerializeToString());
}

TEST_F(RecoveryTest, ResumeIntoDifferentShardCountStaysExact) {
  SketchTreeOptions options = RecoveryOptions();
  options.topk_size = 0;
  options.build_structural_summary = false;

  TreebankGenerator gen(TreebankGenOptions{.seed = 8});
  std::vector<LabeledTree> stream;
  for (int i = 0; i < 40; ++i) stream.push_back(gen.Next());
  SketchTree serial = *SketchTree::Create(options);
  for (const LabeledTree& tree : stream) serial.Update(tree);

  // Parallel (4 shards) -> parallel (2 shards) -> serial: each run
  // checkpoints one merged cut, and the next resumes it with a
  // different thread count — exact by linearity.
  {
    Result<ParallelIngester> ingester =
        ParallelIngester::Create(options, {.num_threads = 4});
    ASSERT_TRUE(ingester.ok());
    for (int i = 0; i < 15; ++i) ASSERT_TRUE(ingester->Add(stream[i]).ok());
    Result<SketchTree> cut = ingester->SnapshotShards();
    ASSERT_TRUE(cut.ok());
    ASSERT_TRUE(OpenCheckpoints(dir_).Persist(*cut, 1, "15").ok());
  }
  {
    Result<LoadedSynopsis> restored = OpenCheckpoints(dir_).LoadNewest();
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_EQ(TreesStreamed(*restored), 15u);
    Result<ParallelIngester> ingester =
        ParallelIngester::Create(options, {.num_threads = 2});
    ASSERT_TRUE(ingester.ok());
    for (int i = 15; i < 30; ++i) ASSERT_TRUE(ingester->Add(stream[i]).ok());
    Result<SketchTree> shards = ingester->SnapshotShards();
    ASSERT_TRUE(shards.ok());
    SketchTree cut = std::move(restored->sketch);
    ASSERT_TRUE(cut.Merge(*shards).ok());
    SynopsisStore checkpoints = OpenCheckpoints(dir_);
    ASSERT_TRUE(checkpoints.Persist(cut, 2, "30").ok());
  }

  // Serial finish: the epoch is the synopsis, updated in place.
  Result<LoadedSynopsis> restored = OpenCheckpoints(dir_).LoadNewest();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->epoch, 2u);
  ASSERT_EQ(TreesStreamed(*restored), 30u);
  SketchTree resumed = std::move(restored->sketch);
  for (int i = 30; i < 40; ++i) resumed.Update(stream[i]);
  EXPECT_EQ(resumed.SerializeToString(), serial.SerializeToString());
}

TEST_F(RecoveryTest, IngestAllRetriesTransientReaderErrors) {
  SketchTreeOptions options = RecoveryOptions();
  options.topk_size = 0;
  Result<ParallelIngester> ingester =
      ParallelIngester::Create(options, {.num_threads = 2});
  ASSERT_TRUE(ingester.ok());

  TreebankGenerator gen(TreebankGenOptions{.seed = 4});
  int remaining = 5;
  TreeSource source = [&]() -> Result<std::optional<LabeledTree>> {
    if (remaining == 0) return std::optional<LabeledTree>();
    --remaining;
    return std::optional<LabeledTree>(gen.Next());
  };

  // Pulls 2 and 3 fail transiently; backoff-retry must deliver all 5.
  FaultInjector::Global().Arm(FaultSite::kReaderError,
                              {.skip_first = 2, .fire_count = 2});
  ReaderRetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff = std::chrono::milliseconds(1);
  Status status = ingester->IngestAll(source, retry);
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ingester->trees_enqueued(), 5u);
  ASSERT_TRUE(ingester->Finish().ok());
}

TEST_F(RecoveryTest, IngestAllGivesUpAfterRetryBudget) {
  SketchTreeOptions options = RecoveryOptions();
  options.topk_size = 0;
  Result<ParallelIngester> ingester =
      ParallelIngester::Create(options, {.num_threads = 1});
  ASSERT_TRUE(ingester.ok());

  TreebankGenerator gen;
  TreeSource source = [&]() -> Result<std::optional<LabeledTree>> {
    return std::optional<LabeledTree>(gen.Next());
  };
  // Every pull fails, forever: the retry budget must bound the loop.
  FaultInjector::Global().Arm(FaultSite::kReaderError, {.fire_count = 0});
  ReaderRetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::milliseconds(1);
  Status status = ingester->IngestAll(source, retry);
  FaultInjector::Global().DisarmAll();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_EQ(ingester->trees_enqueued(), 0u);
}

TEST_F(RecoveryTest, IngestAllDoesNotRetryPermanentErrors) {
  SketchTreeOptions options = RecoveryOptions();
  options.topk_size = 0;
  Result<ParallelIngester> ingester =
      ParallelIngester::Create(options, {.num_threads = 1});
  ASSERT_TRUE(ingester.ok());
  int pulls = 0;
  TreeSource source = [&]() -> Result<std::optional<LabeledTree>> {
    ++pulls;
    return Status::InvalidArgument("unparseable source");
  };
  Status status = ingester->IngestAll(source);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(pulls, 1);
}

TEST_F(RecoveryTest, QueueStallOnlyDelaysNeverDropsTrees) {
  SketchTreeOptions options = RecoveryOptions();
  options.topk_size = 0;
  Result<ParallelIngester> ingester =
      ParallelIngester::Create(options, {.num_threads = 2});
  ASSERT_TRUE(ingester.ok());
  FaultInjector::Global().Arm(
      FaultSite::kQueueStall,
      {.skip_first = 0, .fire_count = 3, .param = 2});
  TreebankGenerator gen;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ingester->Add(gen.Next()).ok());
  }
  FaultInjector::Global().DisarmAll();
  Result<SketchTree> combined = ingester->Finish();
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  EXPECT_EQ(combined->Stats().trees_processed, 10u);
}

}  // namespace
}  // namespace sketchtree
