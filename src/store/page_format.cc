#include "store/page_format.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/binary_io.h"
#include "common/crc32.h"

namespace sketchtree {

// Counter pages are raw in-memory doubles; the format pins them
// little-endian so a mapped file is directly usable as the plane.
static_assert(std::endian::native == std::endian::little,
              "the v3 paged snapshot format stores counter pages as raw "
              "little-endian doubles; big-endian hosts must use the v2 "
              "serialized path");
static_assert(sizeof(double) == 8, "counter pages assume 8-byte doubles");

namespace {

std::string_view BytesOf(const double* plane, size_t count) {
  return std::string_view(reinterpret_cast<const char*>(plane),
                          count * sizeof(double));
}

size_t PagesFor(size_t bytes) {
  return (bytes + kPagedPageSize - 1) / kPagedPageSize;
}

uint32_t PlaneCrc(const double* plane, size_t count) {
  return Crc32(BytesOf(plane, count));
}

void EncodeHeader(const PagedHeader& header, std::string* out) {
  BinaryWriter writer;
  writer.WriteU32(kPagedMagic);
  writer.WriteU32(kPagedVersion);
  writer.WriteU32(kPagedPageSize);
  writer.WriteU32(0);  // Retired delta flags.
  writer.WriteU64(header.epoch);
  writer.WriteU64(header.trees_processed);
  writer.WriteU64(0);  // Retired base epoch.
  writer.WriteU32(0);  // Retired base plane CRC.
  writer.WriteU32(header.plane_crc);
  writer.WriteU64(header.counter_doubles);
  writer.WriteU32(0);  // Retired chain depth.
  writer.WriteU32(header.page_count);
  writer.WriteU64(header.dir_offset);
  writer.WriteU64(header.dir_length);
  writer.WriteU32(header.dir_crc);
  writer.WriteU64(header.meta_length);
  writer.WriteU32(header.cursor_length);
  writer.WriteU32(Crc32(writer.buffer()));
  std::string encoded = writer.Release();
  out->append(encoded);
  out->append(kPagedPageSize - encoded.size(), '\0');
}

std::string EncodeDirectory(const std::vector<PageEntry>& entries) {
  BinaryWriter writer;
  for (const PageEntry& entry : entries) {
    writer.WriteU32(entry.page_id);
    writer.WriteU32(static_cast<uint32_t>(entry.kind));
    writer.WriteU64(entry.file_offset);
    writer.WriteU32(entry.payload_length);
    writer.WriteU32(entry.crc);
  }
  return writer.Release();
}

/// Assembles header + directory + payload pages into one image. The
/// payload entries must already carry their page_id/kind/length/crc;
/// this fills in file offsets (meta pages first, then counter pages,
/// in the order given).
std::string AssembleImage(PagedHeader header, std::vector<PageEntry> entries,
                          const std::vector<std::string_view>& payloads) {
  header.page_count = static_cast<uint32_t>(entries.size());
  header.dir_offset = kPagedPageSize;
  header.dir_length = entries.size() * kPagedDirEntryBytes;
  size_t dir_pages = PagesFor(header.dir_length);
  size_t offset = kPagedPageSize * (1 + dir_pages);
  for (PageEntry& entry : entries) {
    entry.file_offset = offset;
    offset += kPagedPageSize;
  }
  std::string directory = EncodeDirectory(entries);
  header.dir_crc = Crc32(directory);

  std::string image;
  image.reserve(offset);
  EncodeHeader(header, &image);
  image.append(directory);
  image.append(kPagedPageSize * dir_pages - directory.size(), '\0');
  for (size_t i = 0; i < entries.size(); ++i) {
    image.append(payloads[i]);
    image.append(kPagedPageSize - payloads[i].size(), '\0');
  }
  return image;
}

/// Splits `blob` into pages of `kind` with ordinal page ids (for the
/// counter plane, the ordinal is the plane page index).
void AppendBlobPages(PageKind kind, std::string_view blob,
                     std::vector<PageEntry>* entries,
                     std::vector<std::string_view>* payloads) {
  for (size_t i = 0; i < PagesFor(blob.size()); ++i) {
    std::string_view slice = blob.substr(i * kPagedPageSize, kPagedPageSize);
    PageEntry entry;
    entry.page_id = static_cast<uint32_t>(i);
    entry.kind = kind;
    entry.payload_length = static_cast<uint32_t>(slice.size());
    entry.crc = Crc32(slice);
    entries->push_back(entry);
    payloads->push_back(slice);
  }
}

Result<PagedHeader> ParseHeader(std::string_view bytes) {
  if (bytes.size() < kPagedHeaderBytes) {
    return Status::OutOfRange("paged snapshot shorter than its header (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  BinaryReader reader(bytes.substr(0, kPagedHeaderBytes));
  PagedHeader header;
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kPagedMagic) {
    return Status::InvalidArgument("not a paged snapshot (bad magic)");
  }
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kPagedVersion) {
    return Status::InvalidArgument("unsupported paged snapshot version " +
                                   std::to_string(version));
  }
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t page_size, reader.ReadU32());
  if (page_size != kPagedPageSize) {
    return Status::InvalidArgument("unsupported page size " +
                                   std::to_string(page_size));
  }
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t flags, reader.ReadU32());
  SKETCHTREE_ASSIGN_OR_RETURN(header.epoch, reader.ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(header.trees_processed, reader.ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(uint64_t base_epoch, reader.ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t base_plane_crc, reader.ReadU32());
  SKETCHTREE_ASSIGN_OR_RETURN(header.plane_crc, reader.ReadU32());
  SKETCHTREE_ASSIGN_OR_RETURN(header.counter_doubles, reader.ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t chain_depth, reader.ReadU32());
  SKETCHTREE_ASSIGN_OR_RETURN(header.page_count, reader.ReadU32());
  SKETCHTREE_ASSIGN_OR_RETURN(header.dir_offset, reader.ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(header.dir_length, reader.ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(header.dir_crc, reader.ReadU32());
  SKETCHTREE_ASSIGN_OR_RETURN(header.meta_length, reader.ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(header.cursor_length, reader.ReadU32());
  uint32_t stored_crc = 0;
  SKETCHTREE_ASSIGN_OR_RETURN(stored_crc, reader.ReadU32());
  uint32_t computed = Crc32(bytes.substr(0, kPagedHeaderBytes - 4));
  if (stored_crc != computed) {
    return Status::Corruption("paged snapshot header checksum mismatch");
  }
  if (flags != 0 || base_epoch != 0 || base_plane_crc != 0 ||
      chain_depth != 0) {
    // The header CRC held, so these were written on purpose: a delta
    // image (flag bit 0) of an older store.
    return Status::InvalidArgument(
        "paged snapshot is a delta image (flags " + std::to_string(flags) +
        ", base epoch " + std::to_string(base_epoch) + ", chain depth " +
        std::to_string(chain_depth) + "); only full images are read");
  }
  return header;
}

const char* KindName(PageKind kind) {
  switch (kind) {
    case PageKind::kMeta:
      return "meta";
    case PageKind::kCounters:
      return "counter";
    case PageKind::kCursor:
      return "cursor";
  }
  return "unknown";
}

/// Concatenates one blob's pages in page-id order into `out`, checking
/// that the ids run 0..n-1 and the bytes add up to `expected_length`.
Status ReassembleBlob(PageKind kind, uint64_t expected_length,
                      std::vector<ParsedPage>* pages, std::string* out) {
  uint64_t total = 0;
  for (const ParsedPage& page : *pages) total += page.entry.payload_length;
  if (total != expected_length) {
    return Status::Corruption(std::string(KindName(kind)) + " pages hold " +
                              std::to_string(total) +
                              " bytes but the header promises " +
                              std::to_string(expected_length));
  }
  std::sort(pages->begin(), pages->end(),
            [](const ParsedPage& a, const ParsedPage& b) {
              return a.entry.page_id < b.entry.page_id;
            });
  out->reserve(total);
  for (size_t i = 0; i < pages->size(); ++i) {
    if ((*pages)[i].entry.page_id != i) {
      return Status::Corruption(std::string(KindName(kind)) +
                                " page sequence has a gap at ordinal " +
                                std::to_string(i));
    }
    out->append((*pages)[i].payload);
  }
  return Status::OK();
}

}  // namespace

bool IsPagedSnapshot(std::string_view bytes) {
  if (bytes.size() < 4) return false;
  uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), 4);
  return magic == kPagedMagic;
}

std::string EncodeFullSnapshotImage(std::string_view meta, const double* plane,
                                    size_t plane_doubles, uint64_t epoch,
                                    uint64_t trees_processed,
                                    std::string_view cursor) {
  PagedHeader header;
  header.epoch = epoch;
  header.trees_processed = trees_processed;
  header.plane_crc = PlaneCrc(plane, plane_doubles);
  header.meta_length = meta.size();
  header.cursor_length = static_cast<uint32_t>(cursor.size());
  header.counter_doubles = plane_doubles;

  std::vector<PageEntry> entries;
  std::vector<std::string_view> payloads;
  AppendBlobPages(PageKind::kMeta, meta, &entries, &payloads);
  AppendBlobPages(PageKind::kCursor, cursor, &entries, &payloads);
  AppendBlobPages(PageKind::kCounters, BytesOf(plane, plane_doubles),
                  &entries, &payloads);
  return AssembleImage(header, std::move(entries), payloads);
}

Result<ParsedSnapshot> ParsePagedSnapshot(std::string_view bytes,
                                          PageVerify verify) {
  ParsedSnapshot parsed;
  SKETCHTREE_ASSIGN_OR_RETURN(parsed.header, ParseHeader(bytes));
  const PagedHeader& header = parsed.header;

  if (header.dir_offset + header.dir_length > bytes.size()) {
    return Status::OutOfRange(
        "paged snapshot truncated: directory ends at " +
        std::to_string(header.dir_offset + header.dir_length) + " but file is " +
        std::to_string(bytes.size()) + " bytes");
  }
  if (header.dir_length !=
      static_cast<uint64_t>(header.page_count) * kPagedDirEntryBytes) {
    return Status::Corruption("paged snapshot directory length disagrees "
                              "with its page count");
  }
  std::string_view dir_bytes =
      bytes.substr(header.dir_offset, header.dir_length);
  if (Crc32(dir_bytes) != header.dir_crc) {
    return Status::Corruption("paged snapshot directory checksum mismatch");
  }

  BinaryReader dir(dir_bytes);
  std::vector<ParsedPage> meta_pages;
  std::vector<ParsedPage> cursor_pages;
  uint64_t counter_bytes = 0;
  for (uint32_t i = 0; i < header.page_count; ++i) {
    PageEntry entry;
    SKETCHTREE_ASSIGN_OR_RETURN(entry.page_id, dir.ReadU32());
    SKETCHTREE_ASSIGN_OR_RETURN(uint32_t kind, dir.ReadU32());
    SKETCHTREE_ASSIGN_OR_RETURN(entry.file_offset, dir.ReadU64());
    SKETCHTREE_ASSIGN_OR_RETURN(entry.payload_length, dir.ReadU32());
    SKETCHTREE_ASSIGN_OR_RETURN(entry.crc, dir.ReadU32());
    if (kind < static_cast<uint32_t>(PageKind::kMeta) ||
        kind > static_cast<uint32_t>(PageKind::kCursor)) {
      return Status::Corruption("page " + std::to_string(entry.page_id) +
                                " has unknown kind " + std::to_string(kind));
    }
    entry.kind = static_cast<PageKind>(kind);
    // Every page occupies a full zero-padded 4 KiB slot, so a file
    // that ends inside a slot is truncated even if the payload bytes
    // themselves survived.
    if (entry.payload_length > kPagedPageSize ||
        entry.file_offset % kPagedPageSize != 0 ||
        entry.file_offset + kPagedPageSize > bytes.size()) {
      return Status::Corruption(
          std::string(KindName(entry.kind)) + " page " +
          std::to_string(entry.page_id) + " lies outside the file (offset " +
          std::to_string(entry.file_offset) + ", length " +
          std::to_string(entry.payload_length) + ", file " +
          std::to_string(bytes.size()) + " bytes)");
    }
    ParsedPage page;
    page.entry = entry;
    page.payload = bytes.substr(entry.file_offset, entry.payload_length);
    // Meta and cursor pages are always verified — meta is needed to
    // build anything at all, and the cursor is what a resume trusts.
    if ((entry.kind != PageKind::kCounters || verify == PageVerify::kAll) &&
        Crc32(page.payload) != entry.crc) {
      return Status::Corruption(std::string(KindName(entry.kind)) + " page " +
                                std::to_string(entry.page_id) +
                                " checksum mismatch");
    }
    switch (entry.kind) {
      case PageKind::kMeta:
        meta_pages.push_back(page);
        break;
      case PageKind::kCursor:
        cursor_pages.push_back(page);
        break;
      case PageKind::kCounters:
        counter_bytes += entry.payload_length;
        parsed.counter_pages.push_back(page);
        break;
    }
  }

  SKETCHTREE_RETURN_NOT_OK(ReassembleBlob(PageKind::kMeta, header.meta_length,
                                          &meta_pages, &parsed.meta));
  SKETCHTREE_RETURN_NOT_OK(ReassembleBlob(PageKind::kCursor,
                                          header.cursor_length, &cursor_pages,
                                          &parsed.cursor));

  std::sort(parsed.counter_pages.begin(), parsed.counter_pages.end(),
            [](const ParsedPage& a, const ParsedPage& b) {
              return a.entry.page_id < b.entry.page_id;
            });
  uint64_t plane_bytes = header.counter_doubles * sizeof(double);
  uint64_t plane_pages = PagesFor(plane_bytes);
  for (size_t i = 0; i + 1 < parsed.counter_pages.size(); ++i) {
    if (parsed.counter_pages[i].entry.page_id ==
        parsed.counter_pages[i + 1].entry.page_id) {
      return Status::Corruption(
          "counter page " +
          std::to_string(parsed.counter_pages[i].entry.page_id) +
          " appears twice in the directory");
    }
  }
  for (const ParsedPage& page : parsed.counter_pages) {
    if (page.entry.page_id >= plane_pages) {
      return Status::Corruption("counter page " +
                                std::to_string(page.entry.page_id) +
                                " exceeds the plane's " +
                                std::to_string(plane_pages) + " pages");
    }
    size_t begin = static_cast<size_t>(page.entry.page_id) * kPagedPageSize;
    size_t expect = std::min<uint64_t>(kPagedPageSize, plane_bytes - begin);
    if (page.entry.payload_length != expect) {
      return Status::Corruption(
          "counter page " + std::to_string(page.entry.page_id) + " holds " +
          std::to_string(page.entry.payload_length) + " bytes, expected " +
          std::to_string(expect));
    }
  }
  if (parsed.counter_pages.size() != plane_pages ||
      counter_bytes != plane_bytes) {
    return Status::Corruption(
        "snapshot carries " + std::to_string(parsed.counter_pages.size()) +
        " counter pages (" + std::to_string(counter_bytes) +
        " bytes) but the plane needs " + std::to_string(plane_pages) + " (" +
        std::to_string(plane_bytes) + " bytes)");
  }
  parsed.counters_contiguous = !parsed.counter_pages.empty();
  for (size_t i = 0; i < parsed.counter_pages.size(); ++i) {
    if (parsed.counter_pages[i].entry.file_offset !=
        parsed.counter_pages[0].entry.file_offset + i * kPagedPageSize) {
      parsed.counters_contiguous = false;
      break;
    }
  }
  if (parsed.counters_contiguous) {
    parsed.counters_offset = parsed.counter_pages[0].entry.file_offset;
  }
  return parsed;
}

Status VerifyCounterPages(const ParsedSnapshot& parsed) {
  for (const ParsedPage& page : parsed.counter_pages) {
    if (Crc32(page.payload) != page.entry.crc) {
      return Status::Corruption("counter page " +
                                std::to_string(page.entry.page_id) +
                                " checksum mismatch");
    }
  }
  return Status::OK();
}

Status ExtractFullPlane(const ParsedSnapshot& full,
                        std::vector<double>* plane) {
  plane->assign(full.header.counter_doubles, 0.0);
  char* plane_bytes = reinterpret_cast<char*>(plane->data());
  for (const ParsedPage& page : full.counter_pages) {
    std::memcpy(plane_bytes +
                    static_cast<size_t>(page.entry.page_id) * kPagedPageSize,
                page.payload.data(), page.payload.size());
  }
  uint32_t crc = PlaneCrc(plane->data(), plane->size());
  if (crc != full.header.plane_crc) {
    return Status::Corruption("snapshot plane fails its checksum after "
                              "reassembly");
  }
  return Status::OK();
}

}  // namespace sketchtree
