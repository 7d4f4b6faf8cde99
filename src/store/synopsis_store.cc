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

/// Store health instrumentation; store.epochs_skipped is the one to
/// alert on — it means an on-disk epoch failed page validation and the
/// loader degraded to an older one.
struct StoreMetrics {
  Counter* persist_full;
  Counter* persist_errors;
  Counter* bytes_written;
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
      GlobalMetrics().GetCounter("store.persist_errors"),
      GlobalMetrics().GetCounter("store.bytes_written"),
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

}  // namespace

StoreEpochInfo DescribeSnapshot(const ParsedSnapshot& parsed,
                                std::string path, uint64_t file_bytes) {
  const PagedHeader& header = parsed.header;
  StoreEpochInfo info;
  info.epoch = header.epoch;
  info.path = std::move(path);
  info.file_bytes = file_bytes;
  info.trees_processed = header.trees_processed;
  info.page_count = header.page_count;
  info.counter_pages = static_cast<uint32_t>(parsed.counter_pages.size());
  info.meta_pages = static_cast<uint32_t>(
      (header.meta_length + kPagedPageSize - 1) / kPagedPageSize);
  info.cursor_bytes = header.cursor_length;
  info.counter_doubles = header.counter_doubles;
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
  std::string image = EncodeSynopsisImage(sketch, epoch, cursor);
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
  Metrics().persist_full->Increment();
  Metrics().bytes_written->Increment(image_bytes);

  // Keep the predecessor as the fallback in case this write is torn;
  // only what precedes it goes. The writer trusts its own writes (a
  // genuinely torn write looks successful too; the loader's page
  // validation catches the tear), but the epoch found at Open must read
  // back with every page intact first, or pruning waits for the next
  // write.
  uint64_t predecessor = newest_epoch_;
  if (predecessor != 0 && !wrote_newest_) {
    std::string buffer;
    if (!ReadEpoch(predecessor, PageVerify::kAll, &buffer).ok()) {
      predecessor = 0;
    }
  }
  PruneBelow(predecessor);
  newest_epoch_ = epoch;
  wrote_newest_ = true;
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
  Result<LoadedSynopsis> loaded =
      LoadPagedSnapshotFile(EpochPath(epoch), /*use_mmap=*/false);
  if (!loaded.ok()) return AnnotateEpoch(loaded.status(), epoch);
  return std::move(loaded.value().sketch);
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
    Result<LoadedSynopsis> loaded =
        LoadPagedSnapshotFile(EpochPath(epoch), options_.use_mmap);
    if (loaded.ok()) {
      loaded.value().epoch = epoch;
      return loaded;
    }
    Metrics().epochs_skipped->Increment();
    last_error = AnnotateEpoch(loaded.status(), epoch);
  }
  return Status::NotFound(
      "no epoch in store '" + directory_ + "' validates; newest failure: " +
      last_error.ToString());
}

std::string EncodeSynopsisImage(const SketchTree& sketch, uint64_t epoch,
                                std::string_view cursor) {
  std::vector<double> plane(sketch.CounterPlaneDoubles());
  sketch.CopyCounterPlane(plane.data());
  return EncodeFullSnapshotImage(sketch.SerializeMetaToString(), plane.data(),
                                 plane.size(), epoch,
                                 sketch.Stats().trees_processed, cursor);
}

Result<LoadedSynopsis> DecodeSynopsisImage(std::string_view bytes,
                                           std::shared_ptr<MmapFile> mapping) {
  SKETCHTREE_ASSIGN_OR_RETURN(ParsedSnapshot parsed,
                              ParsePagedSnapshot(bytes, PageVerify::kAll));
  const bool attach = mapping != nullptr && parsed.counters_contiguous;
  std::vector<double> owned;
  const double* plane = nullptr;
  if (attach) {
    plane = reinterpret_cast<const double*>(bytes.data() +
                                            parsed.counters_offset);
  } else {
    mapping.reset();
    SKETCHTREE_RETURN_NOT_OK(ExtractFullPlane(parsed, &owned));
    plane = owned.data();
  }
  SKETCHTREE_ASSIGN_OR_RETURN(
      SketchTree sketch,
      SketchTree::FromMetaAndCounters(parsed.meta, plane,
                                      parsed.header.counter_doubles, attach));
  (attach ? Metrics().loads_mapped : Metrics().loads_materialized)
      ->Increment();
  LoadedSynopsis loaded(std::move(sketch), parsed.header.epoch, attach,
                        std::move(mapping));
  loaded.cursor = std::move(parsed.cursor);
  return loaded;
}

Result<LoadedSynopsis> LoadPagedSnapshotFile(const std::string& path,
                                             bool use_mmap) {
  if (use_mmap) {
    Result<MmapFile> mapped = MmapFile::Map(path);
    if (mapped.ok()) {
      auto mapping = std::make_shared<MmapFile>(std::move(mapped).value());
      std::string_view view = mapping->view();
      Result<LoadedSynopsis> loaded =
          DecodeSynopsisImage(view, std::move(mapping));
      if (loaded.ok()) return loaded;
      // Anything short of a clean decode (a bad page CRC included)
      // falls through to the portable path, whose typed errors are
      // final.
    }
    Metrics().mmap_fallbacks->Increment();
  }
  SKETCHTREE_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  Result<LoadedSynopsis> loaded = DecodeSynopsisImage(bytes);
  if (loaded.status().IsOutOfRange()) {
    // A short file on disk is a torn or partial write, not a caller bug.
    return Status::Corruption("'" + path + "' is truncated: " +
                              loaded.status().message());
  }
  return loaded;
}

}  // namespace sketchtree
