#ifndef SKETCHTREE_STORE_SYNOPSIS_STORE_H_
#define SKETCHTREE_STORE_SYNOPSIS_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/sketch_tree.h"
#include "store/mmap_file.h"
#include "store/page_format.h"

namespace sketchtree {

struct SynopsisStoreOptions {
  /// Map snapshots read-only and attach their counter pages
  /// zero-copy on load, after checking every page's CRC on the mapped
  /// bytes. Off = always materialize through owned memory (the
  /// --no-mmap escape hatch, and what a resuming build uses).
  bool use_mmap = true;
};

/// One store file's shape, as reported by `inspect --store` — derived
/// from the header and directory alone, no synopsis is built.
struct StoreEpochInfo {
  uint64_t epoch = 0;
  std::string path;
  uint64_t file_bytes = 0;
  uint64_t trees_processed = 0;
  uint32_t page_count = 0;  ///< Directory entries (meta + cursor + counter).
  uint32_t meta_pages = 0;
  uint32_t counter_pages = 0;  ///< The whole plane's pages.
  uint32_t cursor_bytes = 0;   ///< The caller cursor's length (0 = none).
  uint64_t counter_doubles = 0;
  /// OK, or the first per-page CRC failure (named by page index).
  Status page_verdict;
};

/// The report for one parsed image of `file_bytes` bytes at `path`,
/// including the deferred counter-page CRC sweep.
StoreEpochInfo DescribeSnapshot(const ParsedSnapshot& parsed,
                                std::string path, uint64_t file_bytes);

/// A synopsis loaded from the store, plus whatever keeps it alive.
/// When `mapped` is true the sketch's counter plane aliases `mapping`;
/// the mapping must outlive the sketch (and anything the sketch is
/// moved into — snapshots hold the sketch by value, so servers keep
/// the mapping for the process lifetime).
struct LoadedSynopsis {
  SketchTree sketch;
  uint64_t epoch = 0;
  bool mapped = false;
  std::shared_ptr<MmapFile> mapping;
  /// The caller cursor persisted with the epoch (empty when none was).
  std::string cursor;

  LoadedSynopsis(SketchTree sketch_in, uint64_t epoch_in, bool mapped_in,
                 std::shared_ptr<MmapFile> mapping_in)
      : sketch(std::move(sketch_in)),
        epoch(epoch_in),
        mapped(mapped_in),
        mapping(std::move(mapping_in)) {}
};

/// A directory of v3 paged snapshot files, one per published epoch
/// (`epoch-<N>.sks3`), plus the persisted plan cache (`plans.skpc`).
///
/// Write side: Persist() writes the live synopsis as a full snapshot,
/// then prunes everything older than the epoch before it: the directory
/// holds the newest epoch and its predecessor, the fallback should the
/// newest write turn out torn.
///
/// Read side: every epoch file has one load rule (LoadPagedSnapshotFile):
/// map it and attach its counter pages zero-copy, otherwise read it,
/// check every page and materialize it.
/// LoadNewest() walks epochs newest-first and returns the first one that
/// loads, degrading past typed corruption to older epochs.
///
/// Each epoch may carry an opaque caller cursor (a build's stream
/// position), CRC'd like every page and returned by LoadNewest, so a
/// build checkpoint is one epoch: synopsis and cursor commit together.
///
/// Single-writer, like the ingest loop that feeds it. Not thread-safe.
class SynopsisStore {
 public:
  /// Opens (creating if necessary) the store directory, sweeps the
  /// ".tmp" debris of atomic writes interrupted before their rename,
  /// and scans it for existing epochs. IOError when the directory
  /// cannot be created.
  static Result<SynopsisStore> Open(const std::string& directory,
                                    const SynopsisStoreOptions& options = {});

  const std::string& directory() const { return directory_; }
  const SynopsisStoreOptions& options() const { return options_; }

  /// Where QueryService persists compiled plans alongside the epochs.
  std::string PlanCachePath() const { return directory_ + "/plans.skpc"; }

  /// Persists `sketch` as epoch `epoch` (must exceed the newest epoch
  /// on disk), with `cursor` stored verbatim beside it, and prunes the
  /// epochs older than its predecessor. A predecessor this writer did
  /// not persist itself must read back first, or pruning waits for the
  /// next write. Consults kStoreTornPageWrite, which truncates the encoded image before the
  /// atomic write — the loader must then skip the epoch as Corruption.
  Status Persist(const SketchTree& sketch, uint64_t epoch,
                 std::string_view cursor = {});

  /// Newest epoch present when the store was opened or last persisted
  /// (0 when empty). A restarted publisher continues from this + 1.
  uint64_t newest_epoch() const { return newest_epoch_; }

  /// Epochs on disk, ascending (rescans the directory).
  std::vector<uint64_t> ListEpochs() const;

  /// Header/directory report for one epoch, counters never loaded.
  /// The per-page CRC sweep fills `page_verdict`.
  Result<StoreEpochInfo> InspectEpoch(uint64_t epoch) const;

  /// Rebuilds epoch `epoch` in owned memory with every page CRC
  /// checked. Typed failures: NotFound (no such epoch), Corruption (any
  /// page mismatch), InvalidArgument (a delta image), IOError.
  Result<SketchTree> MaterializeEpoch(uint64_t epoch) const;

  /// Loads the newest epoch that validates, newest-first, each by
  /// LoadPagedSnapshotFile's rule (mapped when enabled). Epochs that
  /// fail typed validation are skipped — the store degrades to the
  /// newest intact state rather than crashing. NotFound when no epoch
  /// validates.
  Result<LoadedSynopsis> LoadNewest() const;

  /// File name for an epoch ("epoch-<N>.sks3").
  static std::string EpochFileName(uint64_t epoch);

 private:
  SynopsisStore(std::string directory, const SynopsisStoreOptions& options)
      : directory_(std::move(directory)), options_(options) {}

  std::string EpochPath(uint64_t epoch) const;
  /// Reads + parses one epoch file; `buffer` receives the file bytes
  /// the parsed views alias.
  Result<ParsedSnapshot> ReadEpoch(uint64_t epoch, PageVerify verify,
                                   std::string* buffer) const;
  void PruneBelow(uint64_t epoch);

  std::string directory_;
  SynopsisStoreOptions options_;
  uint64_t newest_epoch_ = 0;
  /// True once this writer has persisted newest_epoch_ itself; until
  /// then the epoch found at Open must read back before it may anchor a
  /// prune.
  bool wrote_newest_ = false;
};

/// The one synopsis encoder: `sketch` as a v3 paged image carrying
/// `epoch` and the caller's `cursor`. A standalone synopsis file
/// (SketchTree::SaveToFile) is the image at epoch 0 with no cursor.
std::string EncodeSynopsisImage(const SketchTree& sketch, uint64_t epoch,
                                std::string_view cursor = {});

/// The one synopsis decoder: checks every page of the image `bytes`
/// (ParsePagedSnapshot with PageVerify::kAll) and rebuilds the synopsis
/// with the image's epoch and cursor. Given the `mapping` that `bytes`
/// views, the counter pages are attached zero-copy; otherwise they are
/// copied into owned memory and checked against the plane CRC.
Result<LoadedSynopsis> DecodeSynopsisImage(
    std::string_view bytes, std::shared_ptr<MmapFile> mapping = nullptr);

/// The one load rule for a synopsis file — a SaveToFile output, a store
/// epoch, a checkpoint. With `use_mmap` the file is mapped and decoded
/// in place, its counter pages attached zero-copy; anything short of a
/// clean mapped decode, and every load without `use_mmap`, reads the
/// file and decodes it into owned memory (SketchTree::LoadFromFile).
/// Typed failures: NotFound, IOError, Corruption (a truncated file
/// included), InvalidArgument (not a v3 image, or a delta image of an
/// older store).
Result<LoadedSynopsis> LoadPagedSnapshotFile(const std::string& path,
                                             bool use_mmap);

}  // namespace sketchtree

#endif  // SKETCHTREE_STORE_SYNOPSIS_STORE_H_
