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
  /// Deltas allowed on a chain before the next publish rewrites a full
  /// snapshot (and prunes the chain before the superseded one). 0 =
  /// always write full.
  size_t delta_max_chain = 8;
  /// Map full snapshots read-only and attach their counter pages
  /// zero-copy on load (header, directory, meta and cursor pages are
  /// verified eagerly; counter CRCs lazily, so warm restart stays
  /// O(meta)). Off = always materialize through owned memory (the
  /// --no-mmap escape hatch, and what a resuming build uses).
  bool use_mmap = true;
};

/// One store file's shape, as reported by `inspect --store` — derived
/// from the header and directory alone, no synopsis is built.
struct StoreEpochInfo {
  uint64_t epoch = 0;
  std::string path;
  uint64_t file_bytes = 0;
  bool is_delta = false;
  uint64_t base_epoch = 0;
  uint32_t chain_depth = 0;
  uint64_t trees_processed = 0;
  uint32_t page_count = 0;  ///< Directory entries (meta + cursor + counter).
  uint32_t meta_pages = 0;
  uint32_t counter_pages = 0;  ///< Full: whole plane. Delta: dirty pages.
  uint32_t cursor_bytes = 0;   ///< The caller cursor's length (0 = none).
  uint64_t counter_doubles = 0;
  /// counter_pages / pages-in-a-full-plane: 1.0 for a full snapshot,
  /// the dirty-page ratio for a delta.
  double dirty_ratio = 0.0;
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
/// Write side: Persist() encodes the live synopsis as a full snapshot
/// or — when the previous epoch is on disk and the chain is short
/// enough — as a counter-diff delta against it. A full write prunes
/// only the epochs older than the chain it supersedes, so the directory
/// holds at most two chains: the newest, and the one before it as the
/// fallback should the newest full write turn out torn.
///
/// Read side: LoadNewest() walks epochs newest-first and returns the
/// first one that validates, preferring the zero-copy mmap attach for
/// full snapshots and falling back to materialization (and to older
/// epochs on typed corruption). MaterializeEpoch() replays a delta
/// chain into owned memory and is byte-exact: the resulting plane is
/// identical to the full snapshot of the same epoch.
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
  /// on disk), with `cursor` stored verbatim beside it. Full-or-delta
  /// policy is internal; consult the metrics (store.persist_full /
  /// store.persist_delta) or inspect to see which was chosen. Consults
  /// kStoreTornPageWrite, which truncates the encoded image before the
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

  /// Rebuilds epoch `epoch` in owned memory, replaying its delta chain
  /// down to the underlying full snapshot with every page CRC checked.
  /// Typed failures: NotFound (no such epoch / broken chain link),
  /// Corruption (any page or chain-stamp mismatch), IOError.
  Result<SketchTree> MaterializeEpoch(uint64_t epoch) const;

  /// Loads the newest epoch that validates, newest-first. Full
  /// snapshots attach zero-copy via mmap when enabled (falling back to
  /// materialization if the map attempt fails); deltas always
  /// materialize. Epochs that fail typed validation are skipped — the
  /// store degrades to the newest intact state rather than crashing.
  /// NotFound when no epoch validates.
  Result<LoadedSynopsis> LoadNewest() const;

  /// File name for an epoch ("epoch-<N>.sks3").
  static std::string EpochFileName(uint64_t epoch);

  /// The full-snapshot file a delta chain of `epoch` bottoms out in, or
  /// the epoch itself when it is full — chain introspection for
  /// `inspect --store`. Reads headers only.
  Result<uint64_t> ChainBase(uint64_t epoch) const;

 private:
  SynopsisStore(std::string directory, const SynopsisStoreOptions& options)
      : directory_(std::move(directory)), options_(options) {}

  std::string EpochPath(uint64_t epoch) const;
  /// Reads + parses one epoch file; `buffer` receives the file bytes
  /// the parsed views alias.
  Result<ParsedSnapshot> ReadEpoch(uint64_t epoch, PageVerify verify,
                                   std::string* buffer) const;
  /// MaterializeEpoch, also returning the epoch's cursor.
  Result<SketchTree> Materialize(uint64_t epoch, std::string* cursor) const;
  /// Attempts the zero-copy path for one epoch. Statuses bubble up so
  /// LoadNewest can decide between materializing and skipping.
  Result<LoadedSynopsis> TryMapAttach(uint64_t epoch) const;
  void PruneBelow(uint64_t epoch);

  std::string directory_;
  SynopsisStoreOptions options_;
  uint64_t newest_epoch_ = 0;

  // Delta-chain write state: the plane of the last epoch this process
  // persisted, against which the next Persist may diff. Empty after a
  // restart, so the first persisted epoch of a process is always full —
  // chains never span writer restarts.
  std::vector<double> last_plane_;
  uint32_t last_plane_crc_ = 0;
  uint64_t last_epoch_ = 0;
  uint32_t last_chain_depth_ = 0;
  // Full epoch that anchors the chain of last_epoch_ — what the next
  // full write supersedes. Meaningful only once last_epoch_ != 0.
  uint64_t chain_base_ = 0;
};

/// Loads one standalone v3 paged snapshot *file* (`serve --synopsis`
/// pointed at a store epoch file). A full snapshot attaches zero-copy
/// via mmap when `use_mmap` — with the portable read-and-materialize
/// fallback when the map fails — and materializes otherwise. Delta
/// files are refused as InvalidArgument: their base lives in the store
/// directory, so they must be loaded through SynopsisStore.
Result<LoadedSynopsis> LoadPagedSnapshotFile(const std::string& path,
                                             bool use_mmap);

}  // namespace sketchtree

#endif  // SKETCHTREE_STORE_SYNOPSIS_STORE_H_
