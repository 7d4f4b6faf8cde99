#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/atomic_file.h"
#include "common/binary_io.h"
#include "core/sketch_tree.h"
#include "datagen/treebank_gen.h"
#include "faultinject/fault_injector.h"
#include "query/pattern_query.h"
#include "store/page_format.h"
#include "temp_path.h"
#include "tree/tree_serialization.h"

namespace sketchtree {
namespace {

TEST(BinaryIoTest, RoundTripsAllTypes) {
  BinaryWriter writer;
  writer.WriteU8(0xAB);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(~uint64_t{0});
  writer.WriteDouble(-3.25);
  writer.WriteString("hello\0world");
  writer.WriteString("");

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(*reader.ReadU8(), 0xAB);
  EXPECT_EQ(*reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*reader.ReadU64(), ~uint64_t{0});
  EXPECT_DOUBLE_EQ(*reader.ReadDouble(), -3.25);
  EXPECT_EQ(*reader.ReadString(), "hello");  // C-string literal stops at \0.
  EXPECT_EQ(*reader.ReadString(), "");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIoTest, TruncationDetected) {
  BinaryWriter writer;
  writer.WriteU64(42);
  std::string data = writer.buffer().substr(0, 5);
  BinaryReader reader(data);
  Result<uint64_t> r = reader.ReadU64();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange());
}

TEST(BinaryIoTest, StringLengthLiesDetected) {
  BinaryWriter writer;
  writer.WriteU64(1000);  // Claims 1000 bytes; none follow.
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(reader.ReadString().ok());
}

SketchTreeOptions RoundTripOptions() {
  SketchTreeOptions options;
  options.max_pattern_edges = 3;
  options.s1 = 30;
  options.s2 = 5;
  options.num_virtual_streams = 13;
  options.topk_size = 6;
  options.seed = 77;
  options.build_structural_summary = true;
  return options;
}

SketchTree BuildPopulatedSketch() {
  SketchTree sketch = *SketchTree::Create(RoundTripOptions());
  TreebankGenerator gen;
  for (int i = 0; i < 120; ++i) sketch.Update(gen.Next());
  return sketch;
}

TEST(SerializationTest, RoundTripPreservesEstimatesExactly) {
  SketchTree original = BuildPopulatedSketch();
  std::string bytes = original.SerializeToString();
  Result<SketchTree> restored = SketchTree::DeserializeFromString(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->Stats().trees_processed,
            original.Stats().trees_processed);
  EXPECT_EQ(restored->Stats().patterns_processed,
            original.Stats().patterns_processed);
  EXPECT_EQ(restored->Stats().tracked_patterns,
            original.Stats().tracked_patterns);

  for (const char* text : {"NP(DT,NN)", "VP(VBD)", "S(NP,VP)", "PP(IN)"}) {
    LabeledTree query = *ParseSExpr(text);
    EXPECT_DOUBLE_EQ(*restored->EstimateCountOrdered(query),
                     *original.EstimateCountOrdered(query))
        << text;
  }
  // Extended queries via the restored summary.
  EXPECT_DOUBLE_EQ(*restored->EstimateExtended("NP(*)"),
                   *original.EstimateExtended("NP(*)"));
}

TEST(SerializationTest, RestoredSketchKeepsLearning) {
  SketchTree original = BuildPopulatedSketch();
  SketchTree restored =
      *SketchTree::DeserializeFromString(original.SerializeToString());
  // Continue the stream on both; they must stay in lockstep.
  TreebankGenerator more(TreebankGenOptions{.seed = 99, .max_depth = 10});
  for (int i = 0; i < 50; ++i) {
    LabeledTree tree = more.Next();
    original.Update(tree);
    restored.Update(tree);
  }
  LabeledTree query = *ParseSExpr("NP(DT,NN)");
  EXPECT_DOUBLE_EQ(*restored.EstimateCountOrdered(query),
                   *original.EstimateCountOrdered(query));
}

TEST(SerializationTest, RejectsGarbage) {
  EXPECT_FALSE(SketchTree::DeserializeFromString("").ok());
  EXPECT_FALSE(SketchTree::DeserializeFromString("not a synopsis").ok());
  std::string bytes = BuildPopulatedSketch().SerializeToString();
  // Bad magic.
  std::string corrupted = bytes;
  corrupted[0] = 'X';
  EXPECT_FALSE(SketchTree::DeserializeFromString(corrupted).ok());
  // Truncation at every eighth byte must fail cleanly, never crash.
  for (size_t cut = 0; cut < bytes.size(); cut += 8) {
    Result<SketchTree> r =
        SketchTree::DeserializeFromString(bytes.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
  }
  // Trailing garbage.
  EXPECT_FALSE(SketchTree::DeserializeFromString(bytes + "x").ok());
}

TEST(SerializationTest, FileRoundTrip) {
  SketchTree original = BuildPopulatedSketch();
  std::string path = TempPath("sketchtree_synopsis_test.bin");
  ASSERT_TRUE(original.SaveToFile(path).ok());
  Result<SketchTree> restored = SketchTree::LoadFromFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  LabeledTree query = *ParseSExpr("S(NP,VP)");
  EXPECT_DOUBLE_EQ(*restored->EstimateCountOrdered(query),
                   *original.EstimateCountOrdered(query));
  std::remove(path.c_str());
}

// Small synopsis so exhaustive corruption sweeps stay fast (Create
// rebuilds every xi family per attempt).
SketchTreeOptions TinyOptions() {
  SketchTreeOptions options;
  options.max_pattern_edges = 2;
  options.s1 = 4;
  options.s2 = 3;
  options.num_virtual_streams = 5;
  options.topk_size = 2;
  options.seed = 7;
  options.build_structural_summary = true;
  return options;
}

std::string TinySerializedSketch() {
  SketchTree sketch = *SketchTree::Create(TinyOptions());
  TreebankGenerator gen;
  for (int i = 0; i < 25; ++i) sketch.Update(gen.Next());
  return sketch.SerializeToString();
}

// The image's section boundaries are its page boundaries: header,
// directory, meta pages, counter pages. Truncating at each, one byte
// either side, plus a sweep of interior cuts, must yield a typed error —
// never a crash, never success.
TEST(SerializationTest, TruncationAtEverySectionBoundaryIsRejected) {
  std::string bytes = TinySerializedSketch();
  ASSERT_EQ(bytes.size() % kPagedPageSize, 0u);
  std::vector<size_t> cuts = {0, 1, 4, 7, 8, 9, kPagedHeaderBytes - 1,
                              kPagedHeaderBytes, kPagedHeaderBytes + 1};
  for (size_t page = kPagedPageSize; page < bytes.size();
       page += kPagedPageSize) {
    cuts.insert(cuts.end(), {page - 1, page, page + 1});
  }
  for (size_t cut = 0; cut < bytes.size(); cut += 97) cuts.push_back(cut);
  cuts.push_back(bytes.size() - 1);
  for (size_t cut : cuts) {
    Result<SketchTree> r =
        SketchTree::DeserializeFromString(bytes.substr(0, cut));
    ASSERT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_TRUE(r.status().IsOutOfRange() || r.status().IsCorruption() ||
                r.status().IsInvalidArgument())
        << "cut=" << cut << ": " << r.status().ToString();
  }
}

// A single flipped bit anywhere in the synopsis must be caught: every
// byte of the image is under the header CRC, the directory CRC, a page
// CRC, or the rule that padding is zero. Without this, a bit flip in a
// counter plane would silently skew every estimate.
TEST(SerializationTest, BitFlipAtEveryByteIsRejected) {
  std::string bytes = TinySerializedSketch();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x10);
    Result<SketchTree> r = SketchTree::DeserializeFromString(corrupted);
    ASSERT_FALSE(r.ok()) << "flip at byte " << pos << " silently accepted";
  }
}

TEST(SerializationTest, TruncatedFileOnDiskIsCorruption) {
  std::string path = TempPath("sketchtree_truncated_test.bin");
  SketchTree sketch = *SketchTree::Create(TinyOptions());
  ASSERT_TRUE(sketch.SaveToFile(path).ok());
  Result<std::string> full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  {
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(full->data(), static_cast<std::streamsize>(full->size() / 2));
  }
  Result<SketchTree> r = SketchTree::LoadFromFile(path);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  std::remove(path.c_str());
}

TEST(SerializationTest, SaveToFileIsAtomicUnderTornRename) {
  std::string path = TempPath("sketchtree_atomic_test.bin");
  SketchTree original = BuildPopulatedSketch();
  ASSERT_TRUE(original.SaveToFile(path).ok());

  // A save that "crashes" before the rename must leave the previous
  // synopsis untouched and loadable.
  SketchTree updated = BuildPopulatedSketch();
  TreebankGenerator gen(TreebankGenOptions{.seed = 5});
  updated.Update(gen.Next());
  FaultInjector::Global().Arm(FaultSite::kFileTornRename, FaultPlan{});
  Status save = updated.SaveToFile(path);
  FaultInjector::Global().DisarmAll();
  EXPECT_FALSE(save.ok());
  Result<SketchTree> survivor = SketchTree::LoadFromFile(path);
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  EXPECT_EQ(survivor->Stats().trees_processed,
            original.Stats().trees_processed);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(SerializationTest, RoundTripPreservesRemovalCounters) {
  SketchTree sketch = *SketchTree::Create(RoundTripOptions());
  TreebankGenerator gen;
  LabeledTree first = gen.Next();
  sketch.Update(first);
  for (int i = 0; i < 10; ++i) sketch.Update(gen.Next());
  sketch.Remove(first);
  SketchTree restored =
      *SketchTree::DeserializeFromString(sketch.SerializeToString());
  EXPECT_EQ(restored.Stats().trees_removed, sketch.Stats().trees_removed);
  EXPECT_EQ(restored.Stats().patterns_removed,
            sketch.Stats().patterns_removed);
}

// A synopsis file of the retired v2 format ("SKTR" magic, version 2,
// one CRC-guarded blob) is refused with a message that says to rebuild.
TEST(SerializationTest, V2SynopsisIsRefusedAsInvalidArgument) {
  BinaryWriter writer;
  writer.WriteU32(0x53'4B'54'52);  // "SKTR".
  writer.WriteU32(2);
  for (uint64_t i = 0; i < 64; ++i) writer.WriteU64(i);
  const std::string v2 = writer.Release();
  std::string path = TempPath("sketchtree_v2_test.bin");
  ASSERT_TRUE(WriteFileAtomic(path, v2).ok());
  for (const Result<SketchTree>& r : {SketchTree::DeserializeFromString(v2),
                                      SketchTree::LoadFromFile(path)}) {
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    EXPECT_NE(r.status().ToString().find("rebuild"), std::string::npos)
        << r.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileIsNotFound) {
  Result<SketchTree> r = SketchTree::LoadFromFile("/no/such/synopsis.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

}  // namespace
}  // namespace sketchtree
