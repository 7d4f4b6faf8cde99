#include "store/synopsis_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "faultinject/fault_injector.h"
#include "metrics/metrics.h"
#include "query/pattern_query.h"
#include "server/plan_store.h"
#include "server/query_service.h"
#include "server/snapshot.h"
#include "server/wire.h"
#include "store/mmap_file.h"
#include "store/page_format.h"
#include "tree/tree_serialization.h"
#include "temp_path.h"

namespace sketchtree {
namespace {

namespace fs = std::filesystem;

SketchTreeOptions SmallOptions() {
  SketchTreeOptions options;
  options.max_pattern_edges = 3;
  options.s1 = 40;
  options.s2 = 5;
  options.num_virtual_streams = 31;
  // No top-k tracking: tracked values are deleted from the sketch
  // (Section 5.2), and this tiny corpus would be tracked in full,
  // leaving an all-zero counter plane that passes CRC checks vacuously.
  options.topk_size = 0;
  options.independence = 8;
  options.seed = 42;
  return options;
}

/// A sketch with `docs` small trees streamed in, deterministic.
SketchTree BuildSketch(int docs, const SketchTreeOptions& options) {
  SketchTree sketch = *SketchTree::Create(options);
  const char* shapes[] = {"A(B,C)", "A(B(D),C)", "X(Y,Z)", "A(C,B)",
                          "S(NP,VP(V))"};
  for (int i = 0; i < docs; ++i) {
    sketch.Update(*ParseSExpr(shapes[i % 5]));
  }
  return sketch;
}

std::vector<double> PlaneOf(const SketchTree& sketch) {
  std::vector<double> plane(sketch.CounterPlaneDoubles());
  sketch.CopyCounterPlane(plane.data());
  return plane;
}

/// Estimates that must agree bit-for-bit across load paths.
std::vector<double> Probe(SketchTree& sketch) {
  std::vector<double> estimates;
  for (const char* q : {"A(B)", "A(B,C)", "X(Y)", "S(NP)"}) {
    Result<double> estimate = sketch.EstimateCountOrdered(*ParseSExpr(q));
    EXPECT_TRUE(estimate.ok()) << q << ": " << estimate.status().ToString();
    estimates.push_back(estimate.ok() ? *estimate : -1.0);
  }
  return estimates;
}

/// What an older store's delta epoch looks like to today's reader: the
/// image with the delta flag, a base epoch and a chain depth set in its
/// header (and the header CRC fixed up, so only those fields differ).
std::string MarkAsDelta(std::string image, uint64_t base_epoch) {
  auto put = [&image](size_t offset, uint64_t value, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) {
      image[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
  };
  put(12, 1, 4);           // flags: bit 0 = delta.
  put(32, base_epoch, 8);  // base_epoch.
  put(56, 1, 4);           // chain_depth.
  put(kPagedHeaderBytes - 4,
      Crc32(std::string_view(image).substr(0, kPagedHeaderBytes - 4)), 4);
  return image;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestTempPath("store_");
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    fs::remove_all(dir_);
  }
  std::string DirString() const { return dir_.string(); }
  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Page format.

TEST_F(StoreTest, FullImageParsesAndExtracts) {
  SketchTree sketch = BuildSketch(20, SmallOptions());
  std::vector<double> plane = PlaneOf(sketch);
  std::string meta = sketch.SerializeMetaToString();
  std::string image = EncodeFullSnapshotImage(meta, plane.data(),
                                              plane.size(), /*epoch=*/7,
                                              /*trees=*/20);
  ASSERT_EQ(image.size() % kPagedPageSize, 0u);
  uint32_t magic = 0;
  std::memcpy(&magic, image.data(), sizeof magic);
  ASSERT_EQ(magic, kPagedMagic);

  Result<ParsedSnapshot> parsed = ParsePagedSnapshot(image, PageVerify::kAll);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->header.epoch, 7u);
  EXPECT_EQ(parsed->header.trees_processed, 20u);
  EXPECT_EQ(parsed->header.counter_doubles, plane.size());
  EXPECT_TRUE(parsed->counters_contiguous);
  EXPECT_EQ(parsed->meta, meta);

  std::vector<double> extracted;
  ASSERT_TRUE(ExtractFullPlane(*parsed, &extracted).ok());
  ASSERT_EQ(extracted.size(), plane.size());
  EXPECT_EQ(std::memcmp(extracted.data(), plane.data(),
                        plane.size() * sizeof(double)),
            0);
}

TEST_F(StoreTest, TruncationAtPageBoundariesIsTyped) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  std::vector<double> plane = PlaneOf(sketch);
  std::string image = EncodeFullSnapshotImage(
      sketch.SerializeMetaToString(), plane.data(), plane.size(), 1, 10);
  for (size_t cut = 0; cut < image.size();
       cut += kPagedPageSize / 2) {
    Result<ParsedSnapshot> parsed =
        ParsePagedSnapshot(std::string_view(image).substr(0, cut),
                           PageVerify::kAll);
    ASSERT_FALSE(parsed.ok()) << "cut at " << cut << " parsed";
    EXPECT_TRUE(parsed.status().IsCorruption() ||
                parsed.status().IsInvalidArgument() ||
                parsed.status().IsOutOfRange())
        << "cut at " << cut << ": " << parsed.status().ToString();
  }
}

TEST_F(StoreTest, CounterPageBitFlipNamesThePage) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  std::vector<double> plane = PlaneOf(sketch);
  std::string image = EncodeFullSnapshotImage(
      sketch.SerializeMetaToString(), plane.data(), plane.size(), 1, 10);
  Result<ParsedSnapshot> clean = ParsePagedSnapshot(image, PageVerify::kAll);
  ASSERT_TRUE(clean.ok());
  ASSERT_GE(clean->counter_pages.size(), 3u);
  // Flip one bit inside the third counter page's payload.
  size_t offset = clean->counters_offset + 2 * kPagedPageSize + 17;
  image[offset] = static_cast<char>(image[offset] ^ 0x40);

  Result<ParsedSnapshot> corrupt = ParsePagedSnapshot(image, PageVerify::kAll);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_TRUE(corrupt.status().IsCorruption());
  EXPECT_NE(corrupt.status().ToString().find("counter page 2"),
            std::string::npos)
      << corrupt.status().ToString();

  // Meta-only parsing defers the sweep, and the sweep then names it.
  Result<ParsedSnapshot> deferred =
      ParsePagedSnapshot(image, PageVerify::kMetaOnly);
  ASSERT_TRUE(deferred.ok()) << deferred.status().ToString();
  Status verdict = VerifyCounterPages(*deferred);
  EXPECT_TRUE(verdict.IsCorruption());
  EXPECT_NE(verdict.ToString().find("counter page 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Store: persist / load / prune.

TEST_F(StoreTest, MmapAndMaterializedLoadsAreBitIdentical) {
  SketchTree sketch = BuildSketch(25, SmallOptions());
  std::vector<double> live_probe = Probe(sketch);
  {
    Result<SynopsisStore> store = SynopsisStore::Open(DirString());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Persist(sketch, 1).ok());
  }

  SynopsisStoreOptions mapped_options;
  mapped_options.use_mmap = true;
  Result<SynopsisStore> mapped_store =
      SynopsisStore::Open(DirString(), mapped_options);
  ASSERT_TRUE(mapped_store.ok());
  Result<LoadedSynopsis> mapped = mapped_store->LoadNewest();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->mapped);
  EXPECT_EQ(mapped->epoch, 1u);

  SynopsisStoreOptions owned_options;
  owned_options.use_mmap = false;
  Result<SynopsisStore> owned_store =
      SynopsisStore::Open(DirString(), owned_options);
  ASSERT_TRUE(owned_store.ok());
  Result<LoadedSynopsis> owned = owned_store->LoadNewest();
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  EXPECT_FALSE(owned->mapped);

  std::vector<double> mapped_probe = Probe(mapped->sketch);
  std::vector<double> owned_probe = Probe(owned->sketch);
  ASSERT_EQ(mapped_probe.size(), live_probe.size());
  for (size_t i = 0; i < live_probe.size(); ++i) {
    EXPECT_EQ(mapped_probe[i], live_probe[i]) << "query " << i;
    EXPECT_EQ(owned_probe[i], live_probe[i]) << "query " << i;
  }
  EXPECT_EQ(mapped->sketch.Stats().trees_processed, 25u);
}

TEST_F(StoreTest, WritingToACopyOfAMappedSynopsisLeavesTheMappingAlone) {
  SketchTree sketch = BuildSketch(25, SmallOptions());
  {
    Result<SynopsisStore> store = SynopsisStore::Open(DirString());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Persist(sketch, 1).ok());
  }
  const std::string path =
      DirString() + "/" + SynopsisStore::EpochFileName(1);
  Result<std::string> file_before = ReadFileToString(path);
  ASSERT_TRUE(file_before.ok());

  SynopsisStoreOptions mapped_options;
  mapped_options.use_mmap = true;
  Result<SynopsisStore> store = SynopsisStore::Open(DirString(),
                                                    mapped_options);
  ASSERT_TRUE(store.ok());
  Result<LoadedSynopsis> mapped = store->LoadNewest();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->mapped);
  const std::vector<double> mapped_plane = PlaneOf(mapped->sketch);

  // The copy reads the mapping until its first write, then copies.
  SketchTree copy = mapped->sketch;
  EXPECT_EQ(copy.streams().array(0).counter_data(),
            mapped->sketch.streams().array(0).counter_data());
  const char* docs[] = {"A(B,C)", "X(Y,Z)", "S(NP,VP(V))"};
  for (const char* doc : docs) {
    copy.Update(*ParseSExpr(doc));
    sketch.Update(*ParseSExpr(doc));
  }
  EXPECT_EQ(copy.SerializeToString(), sketch.SerializeToString());
  EXPECT_NE(PlaneOf(copy), mapped_plane);

  EXPECT_EQ(PlaneOf(mapped->sketch), mapped_plane);
  for (uint32_t r = 0; r < SmallOptions().num_virtual_streams; ++r) {
    EXPECT_TRUE(mapped->sketch.streams().array(r).counters_external()) << r;
  }
  Result<std::string> file_after = ReadFileToString(path);
  ASSERT_TRUE(file_after.ok());
  EXPECT_TRUE(*file_after == *file_before);
}

TEST_F(StoreTest, PersistKeepsNewestEpochAndItsPredecessor) {
  SketchTree sketch = BuildSketch(5, SmallOptions());
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  sketch.Update(*ParseSExpr("A(B,C)"));
  ASSERT_TRUE(store->Persist(sketch, 1).ok());
  EXPECT_EQ(store->ListEpochs(), (std::vector<uint64_t>{1}));
  for (uint64_t epoch = 2; epoch <= 7; ++epoch) {
    sketch.Update(*ParseSExpr("A(B,C)"));
    ASSERT_TRUE(store->Persist(sketch, epoch).ok());
    // The new epoch plus its predecessor, the fallback for a torn write.
    EXPECT_EQ(store->ListEpochs(),
              (std::vector<uint64_t>{epoch - 1, epoch}));
    Result<StoreEpochInfo> info = store->InspectEpoch(epoch);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(info->page_verdict.ok());
    EXPECT_EQ(info->counter_doubles, sketch.CounterPlaneDoubles());
    EXPECT_EQ(info->counter_pages,
              (info->counter_doubles * sizeof(double) + kPagedPageSize - 1) /
                  kPagedPageSize);
  }
  // Every epoch is a full image: the newest materializes byte-identical
  // to the live synopsis.
  Result<SketchTree> newest = store->MaterializeEpoch(7);
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  EXPECT_EQ(newest->SerializeToString(), sketch.SerializeToString());
}

TEST_F(StoreTest, LoadNewestDegradesPastCorruptEpoch) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Persist(sketch, 1).ok());
  sketch.Update(*ParseSExpr("A(B,C)"));
  ASSERT_TRUE(store->Persist(sketch, 2).ok());

  // Flip a byte in epoch 2's counter payload on disk, where the page's
  // CRC (not the zero-padding check) must catch it.
  std::string path = DirString() + "/" + SynopsisStore::EpochFileName(2);
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  Result<ParsedSnapshot> intact =
      ParsePagedSnapshot(*bytes, PageVerify::kMetaOnly);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  ASSERT_FALSE(intact->counter_pages.empty());
  const ParsedPage& victim = intact->counter_pages.back();
  std::string damaged = *bytes;
  damaged[victim.entry.file_offset] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(path, damaged).ok());

  // The default (mapped) load checks every counter page before it
  // attaches, so it degrades to the intact epoch, which it maps.
  Result<LoadedSynopsis> loaded = store->LoadNewest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 1u);  // Degraded to the intact epoch.
  EXPECT_TRUE(loaded->mapped);
  EXPECT_EQ(loaded->sketch.Stats().trees_processed, 10u);

  // The materializing load degrades the same way.
  SynopsisStoreOptions owned;
  owned.use_mmap = false;
  Result<SynopsisStore> owned_store = SynopsisStore::Open(DirString(), owned);
  ASSERT_TRUE(owned_store.ok());
  Result<LoadedSynopsis> owned_loaded = owned_store->LoadNewest();
  ASSERT_TRUE(owned_loaded.ok()) << owned_loaded.status().ToString();
  EXPECT_EQ(owned_loaded->epoch, 1u);
  EXPECT_FALSE(owned_loaded->mapped);

  Result<SketchTree> direct = store->MaterializeEpoch(2);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsCorruption()) << direct.status().ToString();
  Result<StoreEpochInfo> info = store->InspectEpoch(2);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->page_verdict.IsCorruption());
  EXPECT_NE(info->page_verdict.ToString().find(
                "counter page " + std::to_string(victim.entry.page_id)),
            std::string::npos)
      << info->page_verdict.ToString();
}

TEST_F(StoreTest, PaddingFlipInNewestEpochDegradesToPredecessor) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Persist(sketch, 1, "cursor").ok());
  sketch.Update(*ParseSExpr("A(B,C)"));
  ASSERT_TRUE(store->Persist(sketch, 2, "cursor").ok());
  const std::string path =
      DirString() + "/" + SynopsisStore::EpochFileName(2);
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  Result<ParsedSnapshot> intact = ParsePagedSnapshot(*bytes, PageVerify::kAll);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  const PagedHeader& header = intact->header;
  const ParsedPage& last_counters = intact->counter_pages.back();
  ASSERT_LT(last_counters.entry.payload_length, kPagedPageSize);
  ASSERT_LT(header.meta_length, kPagedPageSize);
  // One byte past the used part of each kind of padded page: the header
  // page, the directory, the (single) meta and cursor pages just before
  // the counter pages, and the last counter page.
  const uint64_t meta_page = intact->counters_offset - 2 * kPagedPageSize;
  const uint64_t padding[] = {
      kPagedHeaderBytes + 100,
      header.dir_offset + header.dir_length + 1,
      meta_page + header.meta_length + 1,
      meta_page + kPagedPageSize + header.cursor_length + 1,
      last_counters.entry.file_offset + last_counters.entry.payload_length +
          1};
  SynopsisStoreOptions owned;
  owned.use_mmap = false;
  for (uint64_t offset : padding) {
    SCOPED_TRACE("padding byte " + std::to_string(offset));
    ASSERT_EQ((*bytes)[offset], '\0');
    std::string damaged = *bytes;
    damaged[offset] = 0x20;
    ASSERT_TRUE(WriteFileAtomic(path, damaged).ok());

    Result<StoreEpochInfo> info = store->InspectEpoch(2);
    EXPECT_TRUE(info.status().IsCorruption()) << info.status().ToString();
    EXPECT_NE(info.status().ToString().find("padding"), std::string::npos)
        << info.status().ToString();
    for (const SynopsisStoreOptions& options :
         {SynopsisStoreOptions{}, owned}) {
      Result<LoadedSynopsis> loaded =
          SynopsisStore::Open(DirString(), options)->LoadNewest();
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded->epoch, 1u);
      EXPECT_EQ(loaded->sketch.Stats().trees_processed, 10u);
    }
  }
}

TEST_F(StoreTest, PersistRejectsNonAdvancingEpoch) {
  SketchTree sketch = BuildSketch(5, SmallOptions());
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Persist(sketch, 3).ok());
  Status again = store->Persist(sketch, 3);
  EXPECT_TRUE(again.IsInvalidArgument()) << again.ToString();
  EXPECT_TRUE(store->Persist(sketch, 3).IsInvalidArgument());
  EXPECT_TRUE(store->Persist(sketch, 4).ok());
}

TEST_F(StoreTest, ReopenedStoreKeepsNewestEpochAndItsPredecessor) {
  SketchTree sketch = BuildSketch(5, SmallOptions());
  {
    Result<SynopsisStore> store = SynopsisStore::Open(DirString());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Persist(sketch, 1).ok());
    sketch.Update(*ParseSExpr("A(B,C)"));
    ASSERT_TRUE(store->Persist(sketch, 2).ok());
  }
  Result<SynopsisStore> reopened = SynopsisStore::Open(DirString());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->newest_epoch(), 2u);
  sketch.Update(*ParseSExpr("X(Y,Z)"));
  ASSERT_TRUE(reopened->Persist(sketch, 3).ok());
  // Epoch 2, found at Open, read back, so it anchors the prune.
  EXPECT_EQ(reopened->ListEpochs(), (std::vector<uint64_t>{2, 3}));

  Result<SynopsisStore> again = SynopsisStore::Open(DirString());
  ASSERT_TRUE(again.ok());
  sketch.Update(*ParseSExpr("S(NP,VP(V))"));
  ASSERT_TRUE(again->Persist(sketch, 4).ok());
  EXPECT_EQ(again->ListEpochs(), (std::vector<uint64_t>{3, 4}));
  Result<LoadedSynopsis> loaded = again->LoadNewest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 4u);
  EXPECT_EQ(loaded->sketch.SerializeToString(), sketch.SerializeToString());
}

TEST_F(StoreTest, UnreadablePredecessorDefersPruning) {
  // Two ways epoch 2 goes bad after the fact: torn to its header page,
  // or one flipped byte in a counter page (the meta pages stay intact).
  for (bool torn : {true, false}) {
    SCOPED_TRACE(torn ? "torn" : "counter flip");
    fs::remove_all(dir_);
    SketchTree sketch = BuildSketch(5, SmallOptions());
    {
      Result<SynopsisStore> store = SynopsisStore::Open(DirString());
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE(store->Persist(sketch, 1).ok());
      sketch.Update(*ParseSExpr("A(B,C)"));
      ASSERT_TRUE(store->Persist(sketch, 2).ok());
    }
    const std::string path =
        DirString() + "/" + SynopsisStore::EpochFileName(2);
    Result<std::string> bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    std::string damaged = bytes->substr(0, kPagedPageSize);
    if (!torn) {
      Result<ParsedSnapshot> intact =
          ParsePagedSnapshot(*bytes, PageVerify::kMetaOnly);
      ASSERT_TRUE(intact.ok()) << intact.status().ToString();
      damaged = *bytes;
      damaged[intact->counter_pages.front().entry.file_offset] ^= 0x01;
    }
    ASSERT_TRUE(WriteFileAtomic(path, damaged).ok());

    // The reopened writer cannot read epoch 2 back, so epoch 1 — the
    // newest intact state — survives the next write.
    Result<SynopsisStore> reopened = SynopsisStore::Open(DirString());
    ASSERT_TRUE(reopened.ok());
    sketch.Update(*ParseSExpr("X(Y,Z)"));
    ASSERT_TRUE(reopened->Persist(sketch, 3).ok());
    EXPECT_EQ(reopened->ListEpochs(), (std::vector<uint64_t>{1, 2, 3}));

    // Epoch 3 was written by this writer, so the next write prunes
    // everything before it.
    sketch.Update(*ParseSExpr("S(NP,VP(V))"));
    ASSERT_TRUE(reopened->Persist(sketch, 4).ok());
    EXPECT_EQ(reopened->ListEpochs(), (std::vector<uint64_t>{3, 4}));
  }
}

TEST_F(StoreTest, EmptyStoreLoadsNotFound) {
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->newest_epoch(), 0u);
  Result<LoadedSynopsis> loaded = store->LoadNewest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status().ToString();
}

TEST_F(StoreTest, AllEpochsCorruptIsNotFoundWithTheNewestFailure) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  {
    Result<SynopsisStore> store = SynopsisStore::Open(DirString());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Persist(sketch, 1, "cursor").ok());
  }
  std::string path = DirString() + "/" + SynopsisStore::EpochFileName(1);
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(WriteFileAtomic(path, bytes->substr(0, kPagedPageSize)).ok());

  // Epochs exist (a resuming build must fail, not start over) but none
  // validates; the status names the newest failure.
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->newest_epoch(), 1u);
  Result<LoadedSynopsis> loaded = store->LoadNewest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("epoch 1"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(StoreTest, TornNewestEpochFallsBackToPredecessor) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Persist(sketch, 1).ok());
  sketch.Update(*ParseSExpr("A(B,C)"));
  ASSERT_TRUE(store->Persist(sketch, 2).ok());
  const std::string epoch2_bytes = sketch.SerializeToString();

  // Epoch 3 tears; its write still prunes epoch 1 and keeps epoch 2.
  Counter* full_writes = GlobalMetrics().GetCounter("store.persist_full");
  const uint64_t full_before = full_writes->value();
  FaultInjector::Global().Arm(FaultSite::kStoreTornPageWrite,
                              {0, 1, 2 * kPagedPageSize});
  sketch.Update(*ParseSExpr("X(Y,Z)"));
  ASSERT_TRUE(store->Persist(sketch, 3).ok());  // Writer believes it.
  FaultInjector::Global().DisarmAll();
  EXPECT_EQ(full_writes->value(), full_before + 1);
  EXPECT_FALSE(store->InspectEpoch(3).ok());
  EXPECT_EQ(store->ListEpochs(), (std::vector<uint64_t>{2, 3}));

  // The predecessor survived the write, so the loader degrades to it
  // rather than finding nothing.
  Result<LoadedSynopsis> loaded = store->LoadNewest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 2u);
  EXPECT_EQ(loaded->sketch.SerializeToString(), epoch2_bytes);
}

TEST_F(StoreTest, OpenSweepsTmpDebris) {
  fs::create_directories(dir_);
  const fs::path epoch_debris = dir_ / (SynopsisStore::EpochFileName(4) +
                                        ".tmp");
  const fs::path plan_debris = dir_ / "plans.skpc.tmp";
  std::ofstream(epoch_debris) << "half an epoch";
  std::ofstream(plan_debris) << "half a plan cache";
  {
    SketchTree sketch = BuildSketch(5, SmallOptions());
    Result<SynopsisStore> store = SynopsisStore::Open(DirString());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Persist(sketch, 1).ok());
  }
  EXPECT_FALSE(fs::exists(epoch_debris));
  EXPECT_FALSE(fs::exists(plan_debris));

  // An interrupted write's debris is swept by the next Open, and the
  // epochs already on disk are untouched.
  FaultInjector::Global().Arm(FaultSite::kFileTornRename, {0, 1, 0});
  {
    SketchTree sketch = BuildSketch(6, SmallOptions());
    Result<SynopsisStore> store = SynopsisStore::Open(DirString());
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE(store->Persist(sketch, 2).IsIOError());
  }
  FaultInjector::Global().DisarmAll();
  const fs::path torn = dir_ / (SynopsisStore::EpochFileName(2) + ".tmp");
  ASSERT_TRUE(fs::exists(torn));
  Result<SynopsisStore> reopened = SynopsisStore::Open(DirString());
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(fs::exists(torn));
  EXPECT_EQ(reopened->ListEpochs(), std::vector<uint64_t>{1});
}

TEST_F(StoreTest, CursorRoundTripsInFullAndDeltaEpochs) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  SynopsisStoreOptions owned;
  owned.use_mmap = false;
  for (const SynopsisStoreOptions& load_options :
       {SynopsisStoreOptions{}, owned}) {
    fs::remove_all(dir_);
    Result<SynopsisStore> store = SynopsisStore::Open(DirString());
    ASSERT_TRUE(store.ok());
    // Longer than a page, with NULs: the store never interprets it.
    const std::string full_cursor =
        std::string("full\0cursor", 11) + std::string(5000, 'x');
    ASSERT_TRUE(store->Persist(sketch, 1, full_cursor).ok());
    Result<LoadedSynopsis> loaded =
        SynopsisStore::Open(DirString(), load_options)->LoadNewest();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->cursor, full_cursor);
    Result<StoreEpochInfo> info = store->InspectEpoch(1);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->cursor_bytes, full_cursor.size());
    EXPECT_TRUE(info->page_verdict.ok());

    sketch.Update(*ParseSExpr("A(B,C)"));
    ASSERT_TRUE(store->Persist(sketch, 2, "second cursor").ok());
    const std::string epoch2_bytes = sketch.SerializeToString();
    loaded = SynopsisStore::Open(DirString(), load_options)->LoadNewest();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->epoch, 2u);
    EXPECT_EQ(loaded->cursor, "second cursor");
    EXPECT_EQ(loaded->sketch.SerializeToString(), epoch2_bytes);

    // An older store's delta epoch on top (here with its own cursor) is
    // refused, so a resume restarts exactly from the newest full epoch's
    // cursor.
    sketch.Update(*ParseSExpr("X(Y,Z)"));
    std::vector<double> plane = PlaneOf(sketch);
    ASSERT_TRUE(WriteFileAtomic(
                    DirString() + "/" + SynopsisStore::EpochFileName(3),
                    MarkAsDelta(EncodeFullSnapshotImage(
                                    sketch.SerializeMetaToString(),
                                    plane.data(), plane.size(), 3, 12,
                                    "delta cursor"),
                                2))
                    .ok());
    loaded = SynopsisStore::Open(DirString(), load_options)->LoadNewest();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->epoch, 2u);
    EXPECT_EQ(loaded->cursor, "second cursor");
    EXPECT_EQ(loaded->sketch.SerializeToString(), epoch2_bytes);

    // An epoch written without a cursor loads with an empty one.
    Result<SynopsisStore> writer = SynopsisStore::Open(DirString());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Persist(sketch, 4).ok());
    loaded = SynopsisStore::Open(DirString(), load_options)->LoadNewest();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->epoch, 4u);
    EXPECT_TRUE(loaded->cursor.empty());
  }
}

TEST_F(StoreTest, CursorlessImageIsUnchangedByTheCursorPageKind) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  std::vector<double> plane = PlaneOf(sketch);
  std::string meta = sketch.SerializeMetaToString();
  std::string plain =
      EncodeFullSnapshotImage(meta, plane.data(), plane.size(), 1, 10);
  std::string with_cursor = EncodeFullSnapshotImage(
      meta, plane.data(), plane.size(), 1, 10, "cursor");
  // One cursor page more; everything else is the same layout.
  EXPECT_EQ(with_cursor.size(), plain.size() + kPagedPageSize);
  Result<ParsedSnapshot> parsed = ParsePagedSnapshot(plain, PageVerify::kAll);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header.cursor_length, 0u);
  EXPECT_TRUE(parsed->cursor.empty());
  EXPECT_EQ(parsed->meta, meta);
}

TEST_F(StoreTest, FlippedCursorByteIsCorruption) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Persist(sketch, 1, "cursor of epoch 1").ok());
  sketch.Update(*ParseSExpr("A(B,C)"));
  ASSERT_TRUE(store->Persist(sketch, 2, "cursor of epoch 2").ok());

  std::string path = DirString() + "/" + SynopsisStore::EpochFileName(2);
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  size_t at = bytes->find("cursor of epoch 2");
  ASSERT_NE(at, std::string::npos);
  std::string damaged = *bytes;
  damaged[at + 7] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(path, damaged).ok());

  Result<SketchTree> direct = store->MaterializeEpoch(2);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsCorruption()) << direct.status().ToString();
  EXPECT_NE(direct.status().ToString().find("cursor page 0"),
            std::string::npos)
      << direct.status().ToString();
  Result<StoreEpochInfo> info = store->InspectEpoch(2);
  EXPECT_TRUE(info.status().IsCorruption()) << info.status().ToString();

  // The loader never hands out a damaged cursor: it degrades to epoch 1.
  Result<LoadedSynopsis> loaded = store->LoadNewest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->cursor, "cursor of epoch 1");
}

TEST_F(StoreTest, StandalonePagedFileLoadsBothPaths) {
  SketchTree sketch = BuildSketch(15, SmallOptions());
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Persist(sketch, 1).ok());
  std::string path = DirString() + "/" + SynopsisStore::EpochFileName(1);

  Result<LoadedSynopsis> mapped = LoadPagedSnapshotFile(path, true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->mapped);
  Result<LoadedSynopsis> owned = LoadPagedSnapshotFile(path, false);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  EXPECT_FALSE(owned->mapped);
  std::vector<double> a = Probe(mapped->sketch);
  std::vector<double> b = Probe(owned->sketch);
  std::vector<double> live = Probe(sketch);
  EXPECT_EQ(a, live);
  EXPECT_EQ(b, live);

  // A delta image of an older store is refused on both paths.
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string delta_path = DirString() + "/delta.sks3";
  ASSERT_TRUE(WriteFileAtomic(delta_path, MarkAsDelta(*bytes, 1)).ok());
  for (bool use_mmap : {false, true}) {
    Result<LoadedSynopsis> refused =
        LoadPagedSnapshotFile(delta_path, use_mmap);
    ASSERT_FALSE(refused.ok());
    EXPECT_TRUE(refused.status().IsInvalidArgument())
        << refused.status().ToString();
  }
}

TEST_F(StoreTest, DeltaFlaggedNewestEpochIsRefusedAndDegrades) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  {
    Result<SynopsisStore> store = SynopsisStore::Open(DirString());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Persist(sketch, 1).ok());
  }
  const std::string epoch1_bytes = sketch.SerializeToString();
  // What an older store's chain leaves behind: deltas on top of the
  // newest full epoch.
  for (uint64_t epoch = 2; epoch <= 3; ++epoch) {
    sketch.Update(*ParseSExpr("A(B,C)"));
    std::vector<double> plane = PlaneOf(sketch);
    ASSERT_TRUE(WriteFileAtomic(
                    DirString() + "/" + SynopsisStore::EpochFileName(epoch),
                    MarkAsDelta(EncodeFullSnapshotImage(
                                    sketch.SerializeMetaToString(),
                                    plane.data(), plane.size(), epoch,
                                    sketch.Stats().trees_processed),
                                epoch - 1))
                    .ok());
  }

  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->newest_epoch(), 3u);
  Result<SketchTree> direct = store->MaterializeEpoch(3);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsInvalidArgument())
      << direct.status().ToString();
  EXPECT_NE(direct.status().ToString().find("delta"), std::string::npos)
      << direct.status().ToString();
  EXPECT_TRUE(store->InspectEpoch(3).status().IsInvalidArgument());

  SynopsisStoreOptions owned;
  owned.use_mmap = false;
  for (const SynopsisStoreOptions& options : {SynopsisStoreOptions{}, owned}) {
    Result<LoadedSynopsis> loaded =
        SynopsisStore::Open(DirString(), options)->LoadNewest();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->epoch, 1u);
    EXPECT_EQ(loaded->mapped, options.use_mmap);
    EXPECT_EQ(loaded->sketch.SerializeToString(), epoch1_bytes);
  }

  // The delta epochs cannot anchor a prune; the next writer's second
  // write prunes them.
  sketch.Update(*ParseSExpr("X(Y,Z)"));
  ASSERT_TRUE(store->Persist(sketch, 4).ok());
  EXPECT_EQ(store->ListEpochs(), (std::vector<uint64_t>{1, 2, 3, 4}));
  ASSERT_TRUE(store->Persist(sketch, 5).ok());
  EXPECT_EQ(store->ListEpochs(), (std::vector<uint64_t>{4, 5}));
}

// ---------------------------------------------------------------------------
// Fault injection at the store.* sites.

TEST_F(StoreTest, TornPageWriteIsSkippedByLoader) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Persist(sketch, 1).ok());

  // The next persist tears: only the first two pages reach disk.
  FaultInjector::Global().Arm(FaultSite::kStoreTornPageWrite,
                              {0, 1, 2 * kPagedPageSize});
  sketch.Update(*ParseSExpr("A(B,C)"));
  ASSERT_TRUE(store->Persist(sketch, 2).ok());  // Writer believes it.
  FaultInjector::Global().DisarmAll();

  Result<LoadedSynopsis> loaded = store->LoadNewest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->sketch.Stats().trees_processed, 10u);

  Result<SketchTree> torn = store->MaterializeEpoch(2);
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(torn.status().IsCorruption() ||
              torn.status().IsInvalidArgument() ||
              torn.status().IsOutOfRange())
      << torn.status().ToString();
}

TEST_F(StoreTest, HeaderOnlyTornWriteIsSkippedByLoader) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Persist(sketch, 1).ok());
  FaultInjector::Global().Arm(FaultSite::kStoreTornPageWrite, {0, 1, 0});
  sketch.Update(*ParseSExpr("A(B,C)"));
  ASSERT_TRUE(store->Persist(sketch, 2).ok());
  FaultInjector::Global().DisarmAll();
  Result<LoadedSynopsis> loaded = store->LoadNewest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 1u);
}

TEST_F(StoreTest, MmapFailureFallsBackToMaterialization) {
  SketchTree sketch = BuildSketch(10, SmallOptions());
  Result<SynopsisStore> store = SynopsisStore::Open(DirString());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Persist(sketch, 1).ok());

  FaultInjector::Global().Arm(FaultSite::kStoreMmapFail, {0, 0, 0});
  Result<LoadedSynopsis> loaded = store->LoadNewest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->mapped);  // Fallback path.
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(Probe(loaded->sketch), Probe(sketch));
}

// ---------------------------------------------------------------------------
// Plan-cache persistence.

TEST_F(StoreTest, PlanCacheRoundTripServesWithoutRecompiling) {
  fs::create_directories(dir_);
  SketchTreeOptions options = SmallOptions();
  SketchTree sketch = BuildSketch(10, options);
  Result<QueryService> service =
      QueryService::CreateStatic(std::move(sketch));
  ASSERT_TRUE(service.ok());

  QueryRequest request;
  request.kind = QueryKind::kOrdered;
  request.text = "A(B,C)";
  Result<QueryAnswer> cold = service->Execute(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  request.text = "X(Y)";
  ASSERT_TRUE(service->Execute(request).ok());

  std::string path = (dir_ / "plans.skpc").string();
  ASSERT_TRUE(
      SavePlanCache(service->plan_cache(), options, path).ok());

  // A fresh service with the restored cache answers the same queries as
  // hits, bit-identically, without compiling.
  SketchTree again = BuildSketch(10, options);
  std::vector<double> live = Probe(again);
  Result<QueryService> restarted =
      QueryService::CreateStatic(std::move(again));
  ASSERT_TRUE(restarted.ok());
  Result<size_t> restored =
      LoadPlanCache(path, options, &restarted->plan_cache());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, 2u);

  request.text = "A(B,C)";
  Result<QueryAnswer> warm = restarted->Execute(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->estimate, cold->estimate);
}

TEST_F(StoreTest, PlanCacheRejectsForeignOptionsTag) {
  fs::create_directories(dir_);
  SketchTreeOptions options = SmallOptions();
  Result<QueryService> service =
      QueryService::CreateStatic(BuildSketch(5, options));
  ASSERT_TRUE(service.ok());
  QueryRequest request;
  request.kind = QueryKind::kOrdered;
  request.text = "A(B)";
  ASSERT_TRUE(service->Execute(request).ok());
  std::string path = (dir_ / "plans.skpc").string();
  ASSERT_TRUE(SavePlanCache(service->plan_cache(), options, path).ok());

  SketchTreeOptions other = options;
  other.seed = 43;  // Different mapping — plans would be wrong.
  PlanCache fresh(16);
  Result<size_t> loaded = LoadPlanCache(path, other, &fresh);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  EXPECT_EQ(fresh.size(), 0u);

  // Truncation is Corruption; a missing file is NotFound.
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      WriteFileAtomic(path, bytes->substr(0, bytes->size() - 3)).ok());
  Result<size_t> truncated = LoadPlanCache(path, options, &fresh);
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.status().IsCorruption() ||
              truncated.status().IsOutOfRange())
      << truncated.status().ToString();
  Result<size_t> missing =
      LoadPlanCache((dir_ / "absent.skpc").string(), options, &fresh);
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST_F(StoreTest, PlanCacheRejectsPlansThatDoNotFitTheOptions) {
  fs::create_directories(dir_);
  SketchTreeOptions options = SmallOptions();
  Result<QueryService> service =
      QueryService::CreateStatic(BuildSketch(5, options));
  ASSERT_TRUE(service.ok());
  QueryRequest request;
  request.kind = QueryKind::kOrdered;
  request.text = "A(B)";
  ASSERT_TRUE(service->Execute(request).ok());
  std::shared_ptr<const CompiledQuery> good =
      service->plan_cache().Entries().front().second;
  ASSERT_EQ(good->plan.xi_sums.size(),
            static_cast<size_t>(options.s1) * options.s2);

  // Each file is CRC-valid — SavePlanCache writes what it is given —
  // but its one plan would index out of bounds at estimate time.
  auto save_one = [&](const std::function<void(CompiledQuery*)>& damage) {
    auto plan = std::make_shared<CompiledQuery>();
    plan->kind = good->kind;
    plan->key = good->key;
    plan->plan = good->plan;
    damage(plan.get());
    PlanCache cache(4);
    cache.Put(plan->key, plan);
    std::string path = (dir_ / "plans.skpc").string();
    EXPECT_TRUE(SavePlanCache(cache, options, path).ok());
    return path;
  };
  const std::function<void(CompiledQuery*)> damages[] = {
      [&](CompiledQuery* plan) {
        plan->plan.residues.push_back(options.num_virtual_streams);
      },
      [](CompiledQuery* plan) { plan->plan.xi_sums.pop_back(); },
      [](CompiledQuery* plan) {
        plan->kind = QueryKind::kExpression;
        ExprTermPlan term;
        term.values = plan->plan.values;
        term.xi_prods.assign(3, 1.0);
        plan->terms.push_back(term);
      },
  };
  for (const auto& damage : damages) {
    PlanCache fresh(16);
    Result<size_t> loaded = LoadPlanCache(save_one(damage), options, &fresh);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption())
        << loaded.status().ToString();
  }

  // The undamaged copy loads.
  PlanCache fresh(16);
  Result<size_t> loaded =
      LoadPlanCache(save_one([](CompiledQuery*) {}), options, &fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 1u);
}

// ---------------------------------------------------------------------------
// Publisher retention + the shard_snapshot request.

TEST_F(StoreTest, PublisherRetainsRecentPlanesOnly) {
  SnapshotPublisher publisher;
  publisher.RetainPlanes(2);
  SketchTree sketch = BuildSketch(5, SmallOptions());
  for (int i = 0; i < 3; ++i) {
    sketch.Update(*ParseSExpr("A(B,C)"));
    ASSERT_TRUE(publisher.PublishCopyOf(sketch).ok());
  }
  EXPECT_EQ(publisher.RetainedFor(1), nullptr);  // Aged out of the ring.
  std::shared_ptr<const SketchSnapshot> second = publisher.RetainedFor(2);
  std::shared_ptr<const SketchSnapshot> third = publisher.RetainedFor(3);
  ASSERT_NE(second, nullptr);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->epoch, 3u);
  // Retention holds the published snapshot itself; it copies nothing.
  EXPECT_EQ(third, publisher.Current());
  std::vector<double> retained = PlaneOf(third->sketch);
  std::vector<double> live = PlaneOf(sketch);
  ASSERT_EQ(retained.size(), live.size());
  EXPECT_EQ(std::memcmp(retained.data(), live.data(),
                        live.size() * sizeof(double)),
            0);
}

/// One writer publishes copies of a live top-k synopsis while readers
/// estimate against Current() and read retained snapshots. The copies
/// share the live synopsis's coefficient matrix and fingerprinter, and
/// the retention ring is read under the publisher's lock; under TSan this
/// is the race check for both.
TEST(SnapshotPublisherTest, ConcurrentCopiesRetainedReadsAndEstimates) {
  SketchTreeOptions options = SmallOptions();
  options.topk_size = 4;
  options.build_structural_summary = true;
  constexpr int kTreesPerEpoch = 3;
  SnapshotPublisher publisher;
  publisher.RetainPlanes(3);
  SketchTree live = *SketchTree::Create(options);
  ASSERT_TRUE(publisher.PublishCopyOf(live).ok());  // Epoch 1, no trees.
  Result<QueryService> service =
      QueryService::Create(live.options(), {}, &publisher);
  ASSERT_TRUE(service.ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    const char* docs[] = {"A(B,C)", "A(C,B)", "X(Y,Z)", "S(NP,VP(V))"};
    for (int round = 0; round < 30; ++round) {
      for (int i = 0; i < kTreesPerEpoch; ++i) {
        live.Update(*ParseSExpr(docs[(round + i) % 4]));
      }
      if (!publisher.PublishCopyOf(live).ok()) ++failures;
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      uint64_t asked = 0;
      while (!done.load() || asked < 20) {
        ++asked;
        QueryRequest request;
        request.kind = QueryKind::kOrdered;
        request.text = "A(B,C)";
        if (!service->Execute(request).ok()) ++failures;
        uint64_t epoch = publisher.current_epoch();
        std::shared_ptr<const SketchSnapshot> base =
            publisher.RetainedFor(epoch > 1 ? epoch - 1 : epoch);
        if (base == nullptr) continue;  // Aged out since the read.
        if (base->trees_processed != kTreesPerEpoch * (base->epoch - 1)) {
          ++failures;
        }
        std::vector<double> plane = PlaneOf(base->sketch);
        if (plane.size() != base->sketch.CounterPlaneDoubles()) ++failures;
        if (!(base->sketch.EstimateSelfJoinSize() >= 0.0)) ++failures;
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(publisher.current_epoch(), 31u);
  EXPECT_EQ(publisher.RetainedFor(28), nullptr);
  ASSERT_NE(publisher.RetainedFor(29), nullptr);
  EXPECT_EQ(publisher.Current()->sketch.SerializeToString(),
            live.SerializeToString());
}

TEST_F(StoreTest, SetNextEpochSurvivesWarmRestartNumbering) {
  SnapshotPublisher publisher;
  publisher.SetNextEpoch(7);
  SketchTree sketch = BuildSketch(3, SmallOptions());
  EXPECT_EQ(publisher.Publish(BuildSketch(3, SmallOptions())), 7u);
  ASSERT_TRUE(publisher.PublishCopyOf(sketch).ok());
  EXPECT_EQ(publisher.current_epoch(), 8u);
}

TEST_F(StoreTest, ShardSnapshotRequestIgnoresBaseEpoch) {
  // What an older coordinator sends when it wants a delta; the field is
  // not part of the request any more, so it parses as a plain pull.
  Result<WireRequest> request = ParseWireRequest(
      R"({"op":"shard_snapshot","id":9,"base_epoch":12})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, "shard_snapshot");
  EXPECT_EQ(request->id_json, "9");

  std::string reply = FormatShardSnapshotReply("9", 13, 500, "QUJD");
  EXPECT_EQ(reply.find("format"), std::string::npos);
  EXPECT_EQ(reply.find("base_epoch"), std::string::npos);
  EXPECT_NE(reply.find("\"epoch\":13"), std::string::npos);
  EXPECT_NE(reply.find("\"sketch\":\"QUJD\""), std::string::npos);
}

}  // namespace
}  // namespace sketchtree
