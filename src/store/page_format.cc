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
              "little-endian doubles");
static_assert(sizeof(double) == 8, "counter pages assume 8-byte doubles");

namespace {

std::string_view BytesOf(const double* plane, size_t count) {
  return std::string_view(reinterpret_cast<const char*>(plane),
                          count * sizeof(double));
}

uint64_t PagesFor(uint64_t bytes) {
  return bytes / kPagedPageSize + (bytes % kPagedPageSize != 0 ? 1 : 0);
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
    return Status::InvalidArgument(
        "not a v3 paged synopsis image (bad magic); synopsis files written "
        "in an older format are no longer read, rebuild them");
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

bool IsZero(std::string_view padding) {
  return padding.find_first_not_of('\0') == std::string_view::npos;
}

Status PaddingCorruption(const std::string& what) {
  return Status::Corruption(what + " has non-zero padding");
}

}  // namespace

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

  // The header's lengths fix the whole layout (AssembleImage): the
  // directory from page 1, then the meta, cursor and counter pages, one
  // slot each, in that order.
  const uint64_t plane_bytes = header.counter_doubles * sizeof(double);
  if (header.counter_doubles > (uint64_t{1} << 31) ||
      header.page_count != PagesFor(header.meta_length) +
                               PagesFor(header.cursor_length) +
                               PagesFor(plane_bytes) ||
      header.dir_offset != kPagedPageSize ||
      header.dir_length !=
          static_cast<uint64_t>(header.page_count) * kPagedDirEntryBytes) {
    return Status::Corruption(
        "paged snapshot header describes an impossible layout (" +
        std::to_string(header.page_count) + " pages for " +
        std::to_string(header.meta_length) + " meta bytes, " +
        std::to_string(header.cursor_length) + " cursor bytes and " +
        std::to_string(header.counter_doubles) + " counters)");
  }
  const uint64_t first_payload =
      kPagedPageSize * (1 + PagesFor(header.dir_length));
  const uint64_t image_bytes =
      first_payload + uint64_t{kPagedPageSize} * header.page_count;
  if (bytes.size() < image_bytes) {
    return Status::OutOfRange("paged snapshot truncated: " +
                              std::to_string(bytes.size()) + " of " +
                              std::to_string(image_bytes) + " bytes");
  }
  if (bytes.size() > image_bytes) {
    return Status::Corruption("paged snapshot has " +
                              std::to_string(bytes.size() - image_bytes) +
                              " trailing bytes");
  }
  if (!IsZero(bytes.substr(kPagedHeaderBytes,
                           kPagedPageSize - kPagedHeaderBytes))) {
    return PaddingCorruption("paged snapshot header page");
  }
  std::string_view dir_bytes =
      bytes.substr(header.dir_offset, header.dir_length);
  if (Crc32(dir_bytes) != header.dir_crc) {
    return Status::Corruption("paged snapshot directory checksum mismatch");
  }
  if (!IsZero(bytes.substr(header.dir_offset + header.dir_length,
                           first_payload - header.dir_offset -
                               header.dir_length))) {
    return PaddingCorruption("paged snapshot directory");
  }

  BinaryReader dir(dir_bytes);
  uint64_t slot = first_payload;
  // Checks the next directory entries and pages — those of one blob of
  // `blob_length` bytes — and appends the payloads to `out` (counter
  // pages are indexed instead).
  auto read_pages = [&](PageKind kind, uint64_t blob_length,
                        std::string* out) -> Status {
    for (uint64_t i = 0; i < PagesFor(blob_length);
         ++i, slot += kPagedPageSize) {
      PageEntry entry;
      SKETCHTREE_ASSIGN_OR_RETURN(entry.page_id, dir.ReadU32());
      SKETCHTREE_ASSIGN_OR_RETURN(uint32_t kind_code, dir.ReadU32());
      SKETCHTREE_ASSIGN_OR_RETURN(entry.file_offset, dir.ReadU64());
      SKETCHTREE_ASSIGN_OR_RETURN(entry.payload_length, dir.ReadU32());
      SKETCHTREE_ASSIGN_OR_RETURN(entry.crc, dir.ReadU32());
      entry.kind = kind;
      auto name = [kind, i] {
        return std::string(KindName(kind)) + " page " + std::to_string(i);
      };
      const uint64_t length = std::min<uint64_t>(
          kPagedPageSize, blob_length - i * kPagedPageSize);
      if (entry.page_id != i || kind_code != static_cast<uint32_t>(kind) ||
          entry.file_offset != slot || entry.payload_length != length) {
        return Status::Corruption("directory entry for " + name() +
                                  " disagrees with the layout");
      }
      std::string_view payload = bytes.substr(slot, length);
      // Meta and cursor pages are always verified — meta is needed to
      // build anything at all, and the cursor is what a resume trusts.
      if ((kind != PageKind::kCounters || verify == PageVerify::kAll) &&
          Crc32(payload) != entry.crc) {
        return Status::Corruption(name() + " checksum mismatch");
      }
      if (!IsZero(bytes.substr(slot + length, kPagedPageSize - length))) {
        return PaddingCorruption(name());
      }
      if (out != nullptr) {
        out->append(payload);
      } else {
        parsed.counter_pages.push_back(ParsedPage{entry, payload});
      }
    }
    return Status::OK();
  };
  SKETCHTREE_RETURN_NOT_OK(
      read_pages(PageKind::kMeta, header.meta_length, &parsed.meta));
  SKETCHTREE_RETURN_NOT_OK(
      read_pages(PageKind::kCursor, header.cursor_length, &parsed.cursor));
  SKETCHTREE_RETURN_NOT_OK(
      read_pages(PageKind::kCounters, plane_bytes, nullptr));
  parsed.counters_contiguous = !parsed.counter_pages.empty();
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
  if (full.counters_contiguous) {
    std::memcpy(plane->data(), full.counter_pages[0].payload.data(),
                plane->size() * sizeof(double));
  }
  uint32_t crc = PlaneCrc(plane->data(), plane->size());
  if (crc != full.header.plane_crc) {
    return Status::Corruption("snapshot plane fails its checksum after "
                              "reassembly");
  }
  return Status::OK();
}

}  // namespace sketchtree
