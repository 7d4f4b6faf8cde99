#include "faultinject/fault_injector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/atomic_file.h"
#include "temp_path.h"

namespace sketchtree {
namespace {

TEST(FaultInjectorTest, UnarmedSiteNeverFires) {
  FaultInjector injector;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.ShouldFire(FaultSite::kFileWriteError));
  }
  // The unarmed fast path is count-free by design.
  EXPECT_EQ(injector.hits(FaultSite::kFileWriteError), 0u);
  EXPECT_EQ(injector.fires(FaultSite::kFileWriteError), 0u);
}

TEST(FaultInjectorTest, SkipThenFireWindowThenClean) {
  FaultInjector injector;
  injector.Arm(FaultSite::kReaderError,
               {.skip_first = 2, .fire_count = 3});
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (injector.ShouldFire(FaultSite::kReaderError)) ++fired;
  }
  // Hits 0,1 pass; 2,3,4 fire; 5.. pass again.
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(injector.fires(FaultSite::kReaderError), 3u);
}

TEST(FaultInjectorTest, FireCountZeroMeansForever) {
  FaultInjector injector;
  injector.Arm(FaultSite::kQueueStall, {.skip_first = 1, .fire_count = 0});
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    if (injector.ShouldFire(FaultSite::kQueueStall)) ++fired;
  }
  EXPECT_EQ(fired, 49);
}

TEST(FaultInjectorTest, ParamIsDeliveredToTheSite) {
  FaultInjector injector;
  injector.Arm(FaultSite::kFileShortWrite,
               {.skip_first = 0, .fire_count = 1, .param = 17});
  uint64_t param = 0;
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kFileShortWrite, &param));
  EXPECT_EQ(param, 17u);
}

TEST(FaultInjectorTest, DisarmStopsFiring) {
  FaultInjector injector;
  injector.Arm(FaultSite::kMalformedTree, {.fire_count = 0});
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kMalformedTree));
  injector.Disarm(FaultSite::kMalformedTree);
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kMalformedTree));
}

TEST(FaultInjectorTest, SpecGrammarRoundTrips) {
  FaultInjector injector;
  ASSERT_TRUE(injector
                  .ArmFromSpec("file.torn_rename@2,reader.error@0x3,"
                               "queue.stall@1x2:5")
                  .ok());
  // file.torn_rename: skip 2, fire once.
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kFileTornRename));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kFileTornRename));
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kFileTornRename));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kFileTornRename));
  // reader.error: first three fire.
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kReaderError));
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kReaderError));
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kReaderError));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kReaderError));
  // queue.stall: skip 1, fire 2 with param 5.
  uint64_t param = 0;
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kQueueStall, &param));
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kQueueStall, &param));
  EXPECT_EQ(param, 5u);
}

TEST(FaultInjectorTest, NetworkSitesParseFromSpec) {
  FaultInjector injector;
  ASSERT_TRUE(injector
                  .ArmFromSpec("net.connect_refused@0x2,net.disconnect@1,"
                               "net.slow_write@0x1:250,"
                               "net.garbled_reply@0")
                  .ok());
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kNetConnectRefused));
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kNetConnectRefused));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kNetConnectRefused));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kNetDisconnect));
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kNetDisconnect));
  uint64_t stall_ms = 0;
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kNetSlowWrite, &stall_ms));
  EXPECT_EQ(stall_ms, 250u);  // The write-stall duration rides in param.
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kNetGarbledReply));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kNetGarbledReply));
}

TEST(FaultInjectorTest, SpecRejectsUnknownSiteAndBadSyntax) {
  FaultInjector injector;
  EXPECT_FALSE(injector.ArmFromSpec("disk.on_fire@0").ok());
  EXPECT_FALSE(injector.ArmFromSpec("file.short_write").ok());
  EXPECT_FALSE(injector.ArmFromSpec("file.short_write@abc").ok());
  EXPECT_FALSE(injector.ArmFromSpec("").ok());
}

class AtomicFileFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestTempPath("atomic_fault_", ".bin");
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
};

TEST_F(AtomicFileFaultTest, InjectedWriteErrorLeavesNoFile) {
  FaultInjector::Global().Arm(FaultSite::kFileWriteError, {});
  Status status = WriteFileAtomic(path_, "payload");
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_FALSE(ReadFileToString(path_).ok());
  EXPECT_FALSE(ReadFileToString(path_ + ".tmp").ok());
}

TEST_F(AtomicFileFaultTest, TornRenamePreservesPreviousContents) {
  ASSERT_TRUE(WriteFileAtomic(path_, "generation 1").ok());
  FaultInjector::Global().Arm(FaultSite::kFileTornRename, {});
  Status status = WriteFileAtomic(path_, "generation 2");
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  // The destination still holds the previous generation; the tmp debris
  // holds the new bytes that never landed.
  Result<std::string> kept = ReadFileToString(path_);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(*kept, "generation 1");
  Result<std::string> debris = ReadFileToString(path_ + ".tmp");
  ASSERT_TRUE(debris.ok());
  EXPECT_EQ(*debris, "generation 2");
}

TEST_F(AtomicFileFaultTest, ShortWriteTruncatesToParam) {
  FaultInjector::Global().Arm(FaultSite::kFileShortWrite, {.param = 4});
  ASSERT_TRUE(WriteFileAtomic(path_, "full payload").ok());
  Result<std::string> contents = ReadFileToString(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "full");
}

TEST_F(AtomicFileFaultTest, InjectedReadErrorIsIOError) {
  ASSERT_TRUE(WriteFileAtomic(path_, "readable").ok());
  FaultInjector::Global().Arm(FaultSite::kFileReadError, {});
  Result<std::string> contents = ReadFileToString(path_);
  EXPECT_TRUE(contents.status().IsIOError());
  // Transient: the next read (past the fire window) succeeds.
  Result<std::string> retry = ReadFileToString(path_);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, "readable");
}

TEST(AtomicFileTest, MissingFileIsNotFound) {
  Result<std::string> contents =
      ReadFileToString(::testing::TempDir() + "/definitely_absent.bin");
  EXPECT_TRUE(contents.status().IsNotFound());
}

}  // namespace
}  // namespace sketchtree
