#include "store/synopsis_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <system_error>
#include <utility>

#include "common/atomic_file.h"
#include "faultinject/fault_injector.h"
#include "metrics/metrics.h"

namespace sketchtree {

namespace fs = std::filesystem;

namespace {

constexpr char kEpochPrefix[] = "epoch-";
constexpr char kEpochSuffix[] = ".sks3";
/// Backstop against corrupted chain_depth fields sending the chain walk
/// on an epoch-by-epoch crawl through the whole directory.
constexpr size_t kMaxChainWalk = 64;

/// Store health instrumentation; store.epochs_skipped is the one to
/// alert on — it means an on-disk epoch failed page validation and the
/// loader degraded to an older one.
struct StoreMetrics {
  Counter* persist_full;
  Counter* persist_delta;
  Counter* persist_errors;
  Counter* bytes_written;
  Counter* counter_pages_written;
  Counter* loads_mapped;
  Counter* loads_materialized;
  Counter* mmap_fallbacks;
  Counter* epochs_skipped;
  Counter* pruned;
  Counter* tmp_swept;
};

StoreMetrics& Metrics() {
  static StoreMetrics metrics{
      GlobalMetrics().GetCounter("store.persist_full"),
      GlobalMetrics().GetCounter("store.persist_delta"),
      GlobalMetrics().GetCounter("store.persist_errors"),
      GlobalMetrics().GetCounter("store.bytes_written"),
      GlobalMetrics().GetCounter("store.counter_pages_written"),
      GlobalMetrics().GetCounter("store.loads_mapped"),
      GlobalMetrics().GetCounter("store.loads_materialized"),
      GlobalMetrics().GetCounter("store.mmap_fallbacks"),
      GlobalMetrics().GetCounter("store.epochs_skipped"),
      GlobalMetrics().GetCounter("store.pruned"),
      GlobalMetrics().GetCounter("store.tmp_swept"),
  };
  return metrics;
}

/// Parses "epoch-<N>.sks3"; nullopt for anything else (including the
/// ".tmp" debris of interrupted atomic writes, and plans.skpc).
std::optional<uint64_t> EpochOfFile(const std::string& filename) {
  std::string_view name = filename;
  if (name.substr(0, sizeof(kEpochPrefix) - 1) != kEpochPrefix) {
    return std::nullopt;
  }
  name.remove_prefix(sizeof(kEpochPrefix) - 1);
  if (name.size() <= sizeof(kEpochSuffix) - 1 ||
      name.substr(name.size() - (sizeof(kEpochSuffix) - 1)) != kEpochSuffix) {
    return std::nullopt;
  }
  name.remove_suffix(sizeof(kEpochSuffix) - 1);
  if (name.empty()) return std::nullopt;
  uint64_t epoch = 0;
  for (char c : name) {
    if (c < '0' || c > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<uint64_t>(c - '0');
  }
  return epoch;
}

Status AnnotateEpoch(const Status& status, uint64_t epoch) {
  if (status.ok()) return status;
  std::string message =
      "epoch " + std::to_string(epoch) + ": " + status.message();
  switch (status.code()) {
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(message));
    case Status::Code::kOutOfRange:
      return Status::Corruption(std::move(message));
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(message));
    default:
      return Status::IOError(std::move(message));
  }
}

/// Validation failures the loader degrades past; I/O and missing files
/// also end an epoch's candidacy, so everything non-OK skips.
bool ShouldSkipEpoch(const Status& status) { return !status.ok(); }

}  // namespace

StoreEpochInfo DescribeSnapshot(const ParsedSnapshot& parsed,
                                std::string path, uint64_t file_bytes) {
  const PagedHeader& header = parsed.header;
  StoreEpochInfo info;
  info.epoch = header.epoch;
  info.path = std::move(path);
  info.file_bytes = file_bytes;
  info.is_delta = header.is_delta();
  info.base_epoch = header.base_epoch;
  info.chain_depth = header.chain_depth;
  info.trees_processed = header.trees_processed;
  info.page_count = header.page_count;
  info.counter_pages = static_cast<uint32_t>(parsed.counter_pages.size());
  info.meta_pages = static_cast<uint32_t>(
      (header.meta_length + kPagedPageSize - 1) / kPagedPageSize);
  info.cursor_bytes = header.cursor_length;
  info.counter_doubles = header.counter_doubles;
  uint64_t plane_pages =
      (header.counter_doubles * sizeof(double) + kPagedPageSize - 1) /
      kPagedPageSize;
  info.dirty_ratio = plane_pages == 0
                         ? 0.0
                         : static_cast<double>(info.counter_pages) /
                               static_cast<double>(plane_pages);
  info.page_verdict = VerifyCounterPages(parsed);
  return info;
}

std::string SynopsisStore::EpochFileName(uint64_t epoch) {
  return std::string(kEpochPrefix) + std::to_string(epoch) + kEpochSuffix;
}

std::string SynopsisStore::EpochPath(uint64_t epoch) const {
  return directory_ + "/" + EpochFileName(epoch);
}

Result<SynopsisStore> SynopsisStore::Open(const std::string& directory,
                                          const SynopsisStoreOptions& options) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("cannot create store directory '" + directory +
                           "': " + ec.message());
  }
  for (const fs::directory_entry& entry :
       fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // Debris of an atomic write interrupted before its rename: the
      // data never became an epoch (or plan cache), so sweep it.
      std::error_code remove_ec;
      if (fs::remove(entry.path(), remove_ec)) {
        Metrics().tmp_swept->Increment();
      }
    }
  }
  SynopsisStore store(directory, options);
  std::vector<uint64_t> epochs = store.ListEpochs();
  if (!epochs.empty()) store.newest_epoch_ = epochs.back();
  return store;
}

std::vector<uint64_t> SynopsisStore::ListEpochs() const {
  std::vector<uint64_t> epochs;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (std::optional<uint64_t> epoch =
            EpochOfFile(entry.path().filename().string())) {
      epochs.push_back(*epoch);
    }
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

Status SynopsisStore::Persist(const SketchTree& sketch, uint64_t epoch,
                              std::string_view cursor) {
  if (epoch <= newest_epoch_) {
    return Status::InvalidArgument(
        "epoch " + std::to_string(epoch) + " does not advance the store (at " +
        std::to_string(newest_epoch_) + ")");
  }
  size_t doubles = sketch.CounterPlaneDoubles();
  std::vector<double> plane(doubles);
  sketch.CopyCounterPlane(plane.data());
  std::string meta = sketch.SerializeMetaToString();
  uint64_t trees = sketch.Stats().trees_processed;

  bool as_delta = options_.delta_max_chain > 0 && last_epoch_ != 0 &&
                  last_epoch_ == newest_epoch_ &&
                  last_plane_.size() == plane.size() &&
                  last_chain_depth_ + 1 <=
                      static_cast<uint32_t>(options_.delta_max_chain);
  std::string image;
  if (as_delta) {
    image = EncodeDeltaSnapshotImage(meta, plane.data(), last_plane_.data(),
                                     doubles, epoch, trees, last_epoch_,
                                     last_plane_crc_, last_chain_depth_ + 1,
                                     cursor);
  } else {
    image = EncodeFullSnapshotImage(meta, plane.data(), doubles, epoch, trees,
                                    cursor);
  }
  size_t image_bytes = image.size();

  uint64_t keep = 0;
  if (FaultInjector::Global().ShouldFire(FaultSite::kStoreTornPageWrite,
                                         &keep)) {
    // A torn multi-page write: some tail of the page set never reached
    // disk, but the rename completed. param = bytes kept (0 keeps just
    // the header page).
    image.resize(std::min<size_t>(image.size(),
                                  keep == 0 ? kPagedPageSize : keep));
  }

  Status status = WriteFileAtomic(EpochPath(epoch), image);
  if (!status.ok()) {
    Metrics().persist_errors->Increment();
    return status;
  }
  (as_delta ? Metrics().persist_delta : Metrics().persist_full)->Increment();
  Metrics().bytes_written->Increment(image_bytes);

  if (!as_delta) {
    // Keep the superseded chain as the fallback in case this full write
    // is torn; only what precedes it goes. A writer that has not
    // persisted yet learns that chain from the headers on disk, and an
    // unreadable newest epoch defers pruning to the next full write.
    uint64_t superseded = chain_base_;
    if (last_epoch_ == 0 && newest_epoch_ != 0) {
      Result<uint64_t> base = ChainBase(newest_epoch_);
      superseded = base.ok() ? *base : 0;
    }
    PruneBelow(superseded);
    chain_base_ = epoch;
  }
  // The writer believes the write succeeded (a genuinely torn write
  // would too); the loader's page validation is what catches the tear.
  last_plane_crc_ = PlaneCrc(plane.data(), plane.size());
  last_plane_ = std::move(plane);
  last_epoch_ = epoch;
  last_chain_depth_ = as_delta ? last_chain_depth_ + 1 : 0;
  newest_epoch_ = epoch;
  return Status::OK();
}

void SynopsisStore::PruneBelow(uint64_t epoch) {
  for (uint64_t old : ListEpochs()) {
    if (old >= epoch) continue;
    if (std::remove(EpochPath(old).c_str()) == 0) {
      Metrics().pruned->Increment();
    }
  }
}

Result<ParsedSnapshot> SynopsisStore::ReadEpoch(uint64_t epoch,
                                                PageVerify verify,
                                                std::string* buffer) const {
  Result<std::string> bytes = ReadFileToString(EpochPath(epoch));
  if (!bytes.ok()) return AnnotateEpoch(bytes.status(), epoch);
  *buffer = std::move(bytes).value();
  Result<ParsedSnapshot> parsed = ParsePagedSnapshot(*buffer, verify);
  if (!parsed.ok()) return AnnotateEpoch(parsed.status(), epoch);
  return parsed;
}

Result<StoreEpochInfo> SynopsisStore::InspectEpoch(uint64_t epoch) const {
  std::string buffer;
  Result<ParsedSnapshot> parsed_or =
      ReadEpoch(epoch, PageVerify::kMetaOnly, &buffer);
  if (!parsed_or.ok()) return parsed_or.status();
  StoreEpochInfo info =
      DescribeSnapshot(parsed_or.value(), EpochPath(epoch), buffer.size());
  info.epoch = epoch;
  return info;
}

Result<SketchTree> SynopsisStore::MaterializeEpoch(uint64_t epoch) const {
  return Materialize(epoch, nullptr);
}

Result<SketchTree> SynopsisStore::Materialize(uint64_t epoch,
                                              std::string* cursor) const {
  // Walk the chain newest-to-oldest until a full snapshot anchors it.
  std::vector<std::unique_ptr<std::string>> buffers;
  std::vector<ParsedSnapshot> chain;
  uint64_t current = epoch;
  while (true) {
    if (chain.size() >= kMaxChainWalk) {
      return Status::Corruption("delta chain from epoch " +
                                std::to_string(epoch) + " exceeds " +
                                std::to_string(kMaxChainWalk) + " links");
    }
    buffers.push_back(std::make_unique<std::string>());
    Result<ParsedSnapshot> parsed =
        ReadEpoch(current, PageVerify::kAll, buffers.back().get());
    if (!parsed.ok()) return parsed.status();
    bool is_delta = parsed.value().header.is_delta();
    uint64_t base = parsed.value().header.base_epoch;
    chain.push_back(std::move(parsed).value());
    if (!is_delta) break;
    if (base >= current) {
      return Status::Corruption("epoch " + std::to_string(current) +
                                " claims base epoch " + std::to_string(base) +
                                ", which does not precede it");
    }
    current = base;
  }

  std::vector<double> plane;
  Status status = ExtractFullPlane(chain.back(), &plane);
  if (!status.ok()) {
    return AnnotateEpoch(status, chain.back().header.epoch);
  }
  for (size_t i = chain.size() - 1; i-- > 0;) {
    status = ApplyDeltaToPlane(chain[i], &plane);
    if (!status.ok()) return AnnotateEpoch(status, chain[i].header.epoch);
  }
  Metrics().loads_materialized->Increment();
  if (cursor != nullptr) *cursor = chain.front().cursor;
  return SketchTree::FromMetaAndCounters(chain.front().meta, plane.data(),
                                         plane.size(), /*attach=*/false);
}

Result<LoadedSynopsis> SynopsisStore::TryMapAttach(uint64_t epoch) const {
  Result<MmapFile> mapped = MmapFile::Map(EpochPath(epoch));
  if (!mapped.ok()) return AnnotateEpoch(mapped.status(), epoch);
  auto mapping = std::make_shared<MmapFile>(std::move(mapped).value());

  Result<ParsedSnapshot> parsed_or =
      ParsePagedSnapshot(mapping->view(), PageVerify::kMetaOnly);
  if (!parsed_or.ok()) return AnnotateEpoch(parsed_or.status(), epoch);
  const ParsedSnapshot& parsed = parsed_or.value();
  if (parsed.header.is_delta() || !parsed.counters_contiguous) {
    return Status::InvalidArgument(
        "epoch " + std::to_string(epoch) +
        " is not a contiguous full snapshot; mmap attach needs one");
  }
  const double* plane = reinterpret_cast<const double*>(
      mapping->data() + parsed.counters_offset);
  Result<SketchTree> sketch = SketchTree::FromMetaAndCounters(
      parsed.meta, plane, parsed.header.counter_doubles, /*attach=*/true);
  if (!sketch.ok()) return AnnotateEpoch(sketch.status(), epoch);
  Metrics().loads_mapped->Increment();
  LoadedSynopsis loaded(std::move(sketch).value(), epoch, /*mapped=*/true,
                        std::move(mapping));
  loaded.cursor = parsed.cursor;
  return loaded;
}

Result<LoadedSynopsis> SynopsisStore::LoadNewest() const {
  std::vector<uint64_t> epochs = ListEpochs();
  if (epochs.empty()) {
    return Status::NotFound("no snapshot epochs in store '" + directory_ +
                            "'");
  }
  Status last_error = Status::OK();
  for (size_t i = epochs.size(); i-- > 0;) {
    uint64_t epoch = epochs[i];
    if (options_.use_mmap) {
      Result<LoadedSynopsis> attached = TryMapAttach(epoch);
      if (attached.ok()) return attached;
      // Deltas and failed maps fall back to materialization; only an
      // outright validation failure skips the epoch, and even then the
      // materialize path gets its say (it may replay a chain whose
      // *mapped* parse failed on a meta page the chain never needs).
      if (attached.status().IsIOError()) {
        Metrics().mmap_fallbacks->Increment();
      }
    }
    std::string cursor;
    Result<SketchTree> materialized = Materialize(epoch, &cursor);
    if (materialized.ok()) {
      LoadedSynopsis loaded(std::move(materialized).value(), epoch,
                            /*mapped=*/false, nullptr);
      loaded.cursor = std::move(cursor);
      return loaded;
    }
    if (ShouldSkipEpoch(materialized.status())) {
      Metrics().epochs_skipped->Increment();
      last_error = materialized.status();
    }
  }
  return Status::NotFound(
      "no epoch in store '" + directory_ + "' validates; newest failure: " +
      last_error.ToString());
}

Result<uint64_t> SynopsisStore::ChainBase(uint64_t epoch) const {
  uint64_t current = epoch;
  for (size_t walked = 0; walked < kMaxChainWalk; ++walked) {
    std::string buffer;
    Result<ParsedSnapshot> parsed =
        ReadEpoch(current, PageVerify::kMetaOnly, &buffer);
    if (!parsed.ok()) return parsed.status();
    if (!parsed.value().header.is_delta()) return current;
    uint64_t base = parsed.value().header.base_epoch;
    if (base >= current) {
      return Status::Corruption("epoch " + std::to_string(current) +
                                " claims base epoch " + std::to_string(base) +
                                ", which does not precede it");
    }
    current = base;
  }
  return Status::Corruption("delta chain from epoch " + std::to_string(epoch) +
                            " exceeds " + std::to_string(kMaxChainWalk) +
                            " links");
}

Result<LoadedSynopsis> LoadPagedSnapshotFile(const std::string& path,
                                             bool use_mmap) {
  if (use_mmap) {
    Result<MmapFile> mapped = MmapFile::Map(path);
    if (mapped.ok()) {
      auto mapping = std::make_shared<MmapFile>(std::move(mapped).value());
      Result<ParsedSnapshot> parsed_or =
          ParsePagedSnapshot(mapping->view(), PageVerify::kMetaOnly);
      if (parsed_or.ok() && !parsed_or.value().header.is_delta() &&
          parsed_or.value().counters_contiguous) {
        const ParsedSnapshot& parsed = parsed_or.value();
        const double* plane = reinterpret_cast<const double*>(
            mapping->data() + parsed.counters_offset);
        Result<SketchTree> sketch = SketchTree::FromMetaAndCounters(
            parsed.meta, plane, parsed.header.counter_doubles,
            /*attach=*/true);
        if (sketch.ok()) {
          Metrics().loads_mapped->Increment();
          return LoadedSynopsis(std::move(sketch).value(),
                                parsed.header.epoch, /*mapped=*/true,
                                std::move(mapping));
        }
      }
      // Anything short of a clean attach falls through to the portable
      // path, whose typed errors are final.
    }
    Metrics().mmap_fallbacks->Increment();
  }

  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  std::string buffer = std::move(bytes).value();
  Result<ParsedSnapshot> parsed_or =
      ParsePagedSnapshot(buffer, PageVerify::kAll);
  if (!parsed_or.ok()) return parsed_or.status();
  const ParsedSnapshot& parsed = parsed_or.value();
  if (parsed.header.is_delta()) {
    return Status::InvalidArgument(
        "'" + path + "' is a delta snapshot (base epoch " +
        std::to_string(parsed.header.base_epoch) +
        "); load it through its store directory");
  }
  std::vector<double> plane;
  Status status = ExtractFullPlane(parsed, &plane);
  if (!status.ok()) return status;
  Result<SketchTree> sketch = SketchTree::FromMetaAndCounters(
      parsed.meta, plane.data(), plane.size(), /*attach=*/false);
  if (!sketch.ok()) return sketch.status();
  Metrics().loads_materialized->Increment();
  return LoadedSynopsis(std::move(sketch).value(), parsed.header.epoch,
                        /*mapped=*/false, nullptr);
}

}  // namespace sketchtree
