#include "checkpoint/checkpointer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "faultinject/fault_injector.h"
#include "temp_path.h"

namespace sketchtree {
namespace {

namespace fs = std::filesystem;

StreamCheckpoint SampleCheckpoint() {
  StreamCheckpoint checkpoint;
  checkpoint.source = "forest.xml";
  checkpoint.trees_streamed = 1234;
  checkpoint.byte_offset = 987654;
  checkpoint.quarantined_trees = 3;
  checkpoint.shard_sketches = {"shard zero bytes \x01\x02",
                               std::string(4096, '\x7f'), "tail shard"};
  return checkpoint;
}

void ExpectEqualCheckpoints(const StreamCheckpoint& a,
                            const StreamCheckpoint& b) {
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.trees_streamed, b.trees_streamed);
  EXPECT_EQ(a.byte_offset, b.byte_offset);
  EXPECT_EQ(a.quarantined_trees, b.quarantined_trees);
  EXPECT_EQ(a.shard_sketches, b.shard_sketches);
}

class CheckpointerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestTempPath("ckpt_");
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    fs::remove_all(dir_);
  }
  std::string DirString() const { return dir_.string(); }
  fs::path dir_;
};

TEST_F(CheckpointerTest, WriteLoadRoundTrip) {
  Result<Checkpointer> checkpointer = Checkpointer::Create(DirString());
  ASSERT_TRUE(checkpointer.ok()) << checkpointer.status().ToString();
  StreamCheckpoint written = SampleCheckpoint();
  ASSERT_TRUE(checkpointer->Write(&written).ok());
  EXPECT_EQ(written.sequence, 1u);

  Result<StreamCheckpoint> loaded = checkpointer->LoadNewestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEqualCheckpoints(*loaded, written);
}

TEST_F(CheckpointerTest, EmptyDirectoryIsNotFound) {
  Result<Checkpointer> checkpointer = Checkpointer::Create(DirString());
  ASSERT_TRUE(checkpointer.ok());
  Result<StreamCheckpoint> loaded = checkpointer->LoadNewestValid();
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status().ToString();
}

TEST_F(CheckpointerTest, RetentionPrunesOldCheckpoints) {
  Result<Checkpointer> checkpointer =
      Checkpointer::Create(DirString(), {.retain = 2});
  ASSERT_TRUE(checkpointer.ok());
  for (uint64_t i = 1; i <= 5; ++i) {
    StreamCheckpoint checkpoint = SampleCheckpoint();
    checkpoint.trees_streamed = i * 100;
    ASSERT_TRUE(checkpointer->Write(&checkpoint).ok());
    EXPECT_EQ(checkpoint.sequence, i);
  }
  std::vector<std::string> files = checkpointer->ListCheckpointFiles();
  ASSERT_EQ(files.size(), 2u);
  Result<StreamCheckpoint> newest = checkpointer->LoadNewestValid();
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->sequence, 5u);
  EXPECT_EQ(newest->trees_streamed, 500u);
}

TEST_F(CheckpointerTest, SequenceResumesAfterReopen) {
  {
    Result<Checkpointer> checkpointer = Checkpointer::Create(DirString());
    ASSERT_TRUE(checkpointer.ok());
    StreamCheckpoint checkpoint = SampleCheckpoint();
    ASSERT_TRUE(checkpointer->Write(&checkpoint).ok());
    ASSERT_TRUE(checkpointer->Write(&checkpoint).ok());
  }
  Result<Checkpointer> reopened = Checkpointer::Create(DirString());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->last_sequence(), 2u);
  StreamCheckpoint checkpoint = SampleCheckpoint();
  ASSERT_TRUE(reopened->Write(&checkpoint).ok());
  EXPECT_EQ(checkpoint.sequence, 3u);
}

TEST_F(CheckpointerTest, TruncationAtEveryLengthIsRejectedTyped) {
  std::string encoded = Checkpointer::Encode(SampleCheckpoint());
  fs::create_directories(dir_);
  const std::string path = (dir_ / "truncated.ckpt").string();
  for (size_t cut = 0; cut < encoded.size(); cut += 7) {
    ASSERT_TRUE(WriteFileAtomic(path, encoded.substr(0, cut)).ok());
    Result<StreamCheckpoint> loaded = Checkpointer::ReadCheckpointFile(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut << " parsed";
    EXPECT_TRUE(loaded.status().IsCorruption() ||
                loaded.status().IsInvalidArgument())
        << "cut at " << cut << ": " << loaded.status().ToString();
  }
}

TEST_F(CheckpointerTest, BitFlipAtEveryByteIsRejected) {
  // A small checkpoint so flipping every byte stays fast; step 1 covers
  // every header, section-header, and payload byte.
  StreamCheckpoint small;
  small.source = "s.xml";
  small.trees_streamed = 7;
  small.byte_offset = 99;
  small.shard_sketches = {"0123456789"};
  std::string encoded = Checkpointer::Encode(small);
  fs::create_directories(dir_);
  const std::string path = (dir_ / "bitflip.ckpt").string();
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string corrupt = encoded;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    ASSERT_TRUE(WriteFileAtomic(path, corrupt).ok());
    Result<StreamCheckpoint> loaded = Checkpointer::ReadCheckpointFile(path);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << i << " went unnoticed";
  }
}

TEST_F(CheckpointerTest, LoadFallsBackToNewestValidCheckpoint) {
  Result<Checkpointer> checkpointer = Checkpointer::Create(DirString());
  ASSERT_TRUE(checkpointer.ok());
  StreamCheckpoint first = SampleCheckpoint();
  first.trees_streamed = 100;
  ASSERT_TRUE(checkpointer->Write(&first).ok());
  StreamCheckpoint second = SampleCheckpoint();
  second.trees_streamed = 200;
  ASSERT_TRUE(checkpointer->Write(&second).ok());

  // Maul the newest file: flip a byte in the middle.
  std::vector<std::string> files = checkpointer->ListCheckpointFiles();
  ASSERT_EQ(files.size(), 2u);
  Result<std::string> bytes = ReadFileToString(files[0]);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(files[0], corrupt).ok());

  Result<StreamCheckpoint> loaded = checkpointer->LoadNewestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_streamed, 100u);  // Fell back to sequence 1.
}

TEST_F(CheckpointerTest, AllCandidatesCorruptIsCorruption) {
  Result<Checkpointer> checkpointer = Checkpointer::Create(DirString());
  ASSERT_TRUE(checkpointer.ok());
  StreamCheckpoint checkpoint = SampleCheckpoint();
  ASSERT_TRUE(checkpointer->Write(&checkpoint).ok());
  std::vector<std::string> files = checkpointer->ListCheckpointFiles();
  ASSERT_EQ(files.size(), 1u);
  ASSERT_TRUE(WriteFileAtomic(files[0], "not a checkpoint").ok());
  Result<StreamCheckpoint> loaded = checkpointer->LoadNewestValid();
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST_F(CheckpointerTest, TornRenameDuringWriteKeepsPriorCheckpoint) {
  Result<Checkpointer> checkpointer = Checkpointer::Create(DirString());
  ASSERT_TRUE(checkpointer.ok());
  StreamCheckpoint first = SampleCheckpoint();
  first.trees_streamed = 100;
  ASSERT_TRUE(checkpointer->Write(&first).ok());

  FaultInjector::Global().Arm(FaultSite::kFileTornRename, {});
  StreamCheckpoint second = SampleCheckpoint();
  second.trees_streamed = 200;
  Status status = checkpointer->Write(&second);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  FaultInjector::Global().DisarmAll();

  // The failed write is invisible to recovery: newest valid is still
  // the first checkpoint, and a fresh Create sweeps the tmp debris.
  Result<StreamCheckpoint> loaded = checkpointer->LoadNewestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_streamed, 100u);

  bool saw_tmp = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".tmp") saw_tmp = true;
  }
  EXPECT_TRUE(saw_tmp);
  Result<Checkpointer> reopened = Checkpointer::Create(DirString());
  ASSERT_TRUE(reopened.ok());
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "tmp debris survived reopen: " << entry.path();
  }
}

TEST_F(CheckpointerTest, ZeroShardCheckpointRoundTrips) {
  Result<Checkpointer> checkpointer = Checkpointer::Create(DirString());
  ASSERT_TRUE(checkpointer.ok());
  StreamCheckpoint empty;
  empty.source = "empty.xml";
  ASSERT_TRUE(checkpointer->Write(&empty).ok());
  Result<StreamCheckpoint> loaded = checkpointer->LoadNewestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->shard_sketches.empty());
}

}  // namespace
}  // namespace sketchtree
