#ifndef SKETCHTREE_STORE_PAGE_FORMAT_H_
#define SKETCHTREE_STORE_PAGE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sketchtree {

/// The v3 paged snapshot format (DESIGN.md section 15): the one
/// serialized form of a synopsis. A standalone synopsis file, a store
/// epoch, a build checkpoint and a `shard_snapshot` pull are all this
/// image; they differ only in the header's epoch and the cursor blob.
///
/// The synopsis is laid out in 4 KiB page-aligned blocks behind an
/// explicit directory:
///
///   page 0        fixed header (magic "SKP3", epoch, plane CRC,
///                 directory location, header CRC)
///   pages 1..d    page directory: one 24-byte entry per payload page
///                 {page_id, kind, file_offset, payload_length, crc}
///   meta pages    the SerializeMetaToString blob, split into pages
///   cursor pages  an optional caller blob (a build's stream cursor),
///                 opaque to the store, split into pages like meta
///   counter pages the whole counter plane, 512 doubles per page,
///                 written consecutively at page-aligned offsets
///
/// The layout is a pure function of the header's lengths, and every
/// byte of the image is guarded: the header and directory by their
/// CRCs, each payload page by its own CRC-32 (so corruption is typed at
/// page granularity, "counter page 17 checksum mismatch"), and every
/// padding byte by having to be zero. A mapped reader checks the pages
/// in place before attaching. The counter pages are contiguous and raw
/// little-endian, which makes the mapped file's counter region directly
/// usable as the synopsis's counter plane — the zero-copy warm-restart
/// path.
///
/// Every image is a full snapshot. The header keeps the slots of the
/// retired delta images (a flag word, a base epoch, a base plane CRC and
/// a chain depth) and writes them as zero; an image with any of them set
/// is refused as InvalidArgument.
///
/// This layer works on byte images only; synopsis_store.h owns files,
/// epochs, and the SketchTree round trip.

inline constexpr uint32_t kPagedMagic = 0x53'4B'50'33;  // "SKP3".
inline constexpr uint32_t kPagedVersion = 3;
inline constexpr uint32_t kPagedPageSize = 4096;
/// Doubles per counter page (kPagedPageSize / sizeof(double)).
inline constexpr size_t kPagedDoublesPerPage = kPagedPageSize / sizeof(double);
/// Serialized bytes of the fixed header (the tail of page 0 is zero).
inline constexpr size_t kPagedHeaderBytes = 100;
/// Serialized bytes of one directory entry.
inline constexpr size_t kPagedDirEntryBytes = 24;

enum class PageKind : uint32_t {
  kMeta = 1,      ///< A slice of the meta blob.
  kCounters = 2,  ///< 512 raw little-endian doubles of the plane.
  kCursor = 3,    ///< A slice of the caller's cursor blob.
};

/// Fixed header, page 0. `header_crc` covers the preceding 96 bytes.
/// The retired delta slots (flags, base epoch, base plane CRC, chain
/// depth) are not fields: they are written as zero and must read as zero.
struct PagedHeader {
  uint64_t epoch = 0;
  uint64_t trees_processed = 0;
  /// CRC-32 of the whole counter plane's bytes, checked after reassembly.
  uint32_t plane_crc = 0;
  uint64_t counter_doubles = 0;  ///< Plane length, in doubles.
  uint32_t page_count = 0;       ///< Directory entries (meta + counters).
  uint64_t dir_offset = 0;
  uint64_t dir_length = 0;
  uint32_t dir_crc = 0;
  uint64_t meta_length = 0;  ///< Meta blob bytes across the meta pages.
  /// Cursor blob bytes across the cursor pages; 0 (no cursor pages)
  /// encodes exactly like a file written before cursors existed.
  uint32_t cursor_length = 0;
};

/// One directory entry: where a payload page lives and what guards it.
struct PageEntry {
  uint32_t page_id = 0;  ///< Meta: slice ordinal. Counters: plane page index.
  PageKind kind = PageKind::kMeta;
  uint64_t file_offset = 0;
  uint32_t payload_length = 0;  ///< <= kPagedPageSize.
  uint32_t crc = 0;             ///< CRC-32 of the payload bytes.
};

/// A directory entry plus a view of its payload inside the parsed image.
struct ParsedPage {
  PageEntry entry;
  std::string_view payload;
};

/// How much of the image ParsePagedSnapshot checksums up front.
enum class PageVerify {
  /// Header, directory, meta and cursor pages and every padding byte —
  /// counter page CRCs are recorded but not computed. `inspect` uses
  /// this, then sweeps the counters with VerifyCounterPages to name the
  /// bad page.
  kMetaOnly,
  /// Everything, counter pages included.
  kAll,
};

/// A validated v3 image. Payload views alias the input bytes.
struct ParsedSnapshot {
  PagedHeader header;
  std::string meta;  ///< Reassembled meta blob (meta_length bytes).
  std::string cursor;  ///< Reassembled cursor blob (cursor_length bytes).
  /// Counter pages in ascending page_id order: exactly 0..N-1.
  std::vector<ParsedPage> counter_pages;
  /// True when the image holds counter pages. They always form one
  /// contiguous full-plane region — the precondition for zero-copy
  /// attach.
  bool counters_contiguous = false;
  /// Byte offset of that region within the input image (valid only when
  /// counters_contiguous). Page-aligned, so the doubles are too.
  size_t counters_offset = 0;
};

/// Encodes a snapshot image: every counter page, contiguous, plus the
/// meta blob and the (possibly empty) cursor blob.
std::string EncodeFullSnapshotImage(std::string_view meta,
                                    const double* plane, size_t plane_doubles,
                                    uint64_t epoch, uint64_t trees_processed,
                                    std::string_view cursor = {});

/// Validates and indexes a v3 image. InvalidArgument for wrong
/// magic/version (a synopsis file of an older format included) or a
/// delta image, OutOfRange for an image too short to hold what the
/// header promises, Corruption — naming the page index — for any
/// checksum, padding or layout mismatch.
Result<ParsedSnapshot> ParsePagedSnapshot(std::string_view bytes,
                                          PageVerify verify);

/// The deferred half of PageVerify::kMetaOnly: checks every counter
/// page's CRC against the directory. Corruption names the first bad
/// page index.
Status VerifyCounterPages(const ParsedSnapshot& parsed);

/// Extracts a snapshot's counter plane into `plane` (resized) and checks
/// it against the header's plane CRC.
Status ExtractFullPlane(const ParsedSnapshot& full, std::vector<double>* plane);

}  // namespace sketchtree

#endif  // SKETCHTREE_STORE_PAGE_FORMAT_H_
