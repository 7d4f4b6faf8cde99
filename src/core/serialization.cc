// Synopsis (de)serialization for SketchTree. Format v2 (little-endian):
//
//   magic "SKTR" | version u32 | options | trees_processed u64 |
//   trees_removed u64 | patterns_removed u64 | virtual-streams state |
//   has_summary u8 [ | summary state ] | crc32 u32
//
// Only mutable state is stored; all randomness is re-derived from the
// options' seeds on load, making the format compact and the round trip
// bit-exact. The trailing CRC-32 covers every preceding byte, so a
// truncated, torn, or bit-flipped synopsis is rejected as Corruption
// instead of being parsed into silently wrong counts (v1 had no
// checksum and did not persist the turnstile removal counters).
#include "common/atomic_file.h"
#include "common/binary_io.h"
#include "common/crc32.h"
#include "core/sketch_tree.h"

namespace sketchtree {

namespace {

constexpr uint32_t kMagic = 0x53'4B'54'52;  // "SKTR".
constexpr uint32_t kVersion = 2;
constexpr size_t kCrcTrailerBytes = 4;

// Meta blob of the v3 paged store (src/store/): the synopsis minus its
// counter planes. No trailing CRC — every page the store embeds this in
// carries its own CRC-32.
constexpr uint32_t kMetaMagic = 0x53'4B'54'4D;  // "SKTM".
constexpr uint32_t kMetaVersion = 3;

void WriteOptions(const SketchTreeOptions& options, BinaryWriter* writer) {
  writer->WriteU32(static_cast<uint32_t>(options.max_pattern_edges));
  writer->WriteU32(static_cast<uint32_t>(options.s1));
  writer->WriteU32(static_cast<uint32_t>(options.s2));
  writer->WriteU32(options.num_virtual_streams);
  writer->WriteU64(options.topk_size);
  writer->WriteDouble(options.topk_probability);
  writer->WriteU32(static_cast<uint32_t>(options.fingerprint_degree));
  writer->WriteU32(static_cast<uint32_t>(options.independence));
  writer->WriteU64(options.seed);
  writer->WriteU64(options.sketch_seed);
  writer->WriteU8(options.build_structural_summary ? 1 : 0);
  writer->WriteU64(options.summary_max_nodes);
}

Result<SketchTreeOptions> ReadOptions(BinaryReader* reader) {
  SketchTreeOptions options;
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t max_edges, reader->ReadU32());
  options.max_pattern_edges = static_cast<int>(max_edges);
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t s1, reader->ReadU32());
  options.s1 = static_cast<int>(s1);
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t s2, reader->ReadU32());
  options.s2 = static_cast<int>(s2);
  SKETCHTREE_ASSIGN_OR_RETURN(options.num_virtual_streams, reader->ReadU32());
  SKETCHTREE_ASSIGN_OR_RETURN(uint64_t topk, reader->ReadU64());
  options.topk_size = topk;
  SKETCHTREE_ASSIGN_OR_RETURN(options.topk_probability,
                              reader->ReadDouble());
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t degree, reader->ReadU32());
  options.fingerprint_degree = static_cast<int>(degree);
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t independence, reader->ReadU32());
  options.independence = static_cast<int>(independence);
  SKETCHTREE_ASSIGN_OR_RETURN(options.seed, reader->ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(options.sketch_seed, reader->ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(uint8_t build_summary, reader->ReadU8());
  options.build_structural_summary = build_summary != 0;
  SKETCHTREE_ASSIGN_OR_RETURN(options.summary_max_nodes, reader->ReadU64());
  return options;
}

}  // namespace

void SketchTree::SaveBody(BinaryWriter* writer, bool with_counters) const {
  WriteOptions(options_, writer);
  writer->WriteU64(trees_processed_);
  writer->WriteU64(trees_removed_);
  writer->WriteU64(patterns_removed_);
  streams_->Save(writer, with_counters);
  writer->WriteU8(summary_ != nullptr ? 1 : 0);
  if (summary_ != nullptr) summary_->SaveState(writer);
}

Status SketchTree::LoadBody(BinaryReader* reader, bool with_counters) {
  SKETCHTREE_ASSIGN_OR_RETURN(trees_processed_, reader->ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(trees_removed_, reader->ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(patterns_removed_, reader->ReadU64());
  SKETCHTREE_RETURN_NOT_OK(streams_->Load(reader, with_counters));
  SKETCHTREE_ASSIGN_OR_RETURN(uint8_t has_summary, reader->ReadU8());
  if ((has_summary != 0) != (summary_ != nullptr)) {
    return Status::InvalidArgument(
        "summary presence flag conflicts with the synopsis options");
  }
  if (summary_ != nullptr) {
    // StructuralSummary::LoadState requires a pristine summary.
    StructuralSummary::Options summary_options;
    summary_options.max_nodes = options_.summary_max_nodes;
    summary_ = std::make_unique<StructuralSummary>(summary_options);
    SKETCHTREE_RETURN_NOT_OK(summary_->LoadState(reader));
  }
  if (!reader->AtEnd()) {
    return Status::InvalidArgument("trailing bytes after synopsis state");
  }
  return Status::OK();
}

std::string SketchTree::SerializeToString() const {
  BinaryWriter writer;
  writer.WriteU32(kMagic);
  writer.WriteU32(kVersion);
  SaveBody(&writer, /*with_counters=*/true);
  uint32_t crc = Crc32(writer.buffer());
  writer.WriteU32(crc);
  return writer.Release();
}

Result<SketchTree> SketchTree::DeserializeFromString(
    std::string_view bytes) {
  // Validate the envelope before interpreting any field: magic first
  // (is this a synopsis at all?), then the whole-payload CRC (is it the
  // synopsis that was written?).
  if (bytes.size() < 8 + kCrcTrailerBytes) {
    return Status::OutOfRange("synopsis too short (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  {
    BinaryReader header(bytes);
    SKETCHTREE_ASSIGN_OR_RETURN(uint32_t magic, header.ReadU32());
    if (magic != kMagic) {
      return Status::InvalidArgument("not a SketchTree synopsis (bad magic)");
    }
    SKETCHTREE_ASSIGN_OR_RETURN(uint32_t version, header.ReadU32());
    if (version != kVersion) {
      return Status::InvalidArgument("unsupported synopsis version " +
                                     std::to_string(version));
    }
  }
  std::string_view payload = bytes.substr(0, bytes.size() - kCrcTrailerBytes);
  BinaryReader trailer(bytes.substr(bytes.size() - kCrcTrailerBytes));
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t stored_crc, trailer.ReadU32());
  uint32_t computed_crc = Crc32(payload);
  if (stored_crc != computed_crc) {
    return Status::Corruption(
        "synopsis checksum mismatch (stored " + std::to_string(stored_crc) +
        ", computed " + std::to_string(computed_crc) +
        "): torn write or bit rot");
  }

  BinaryReader reader(payload);
  SKETCHTREE_RETURN_NOT_OK(reader.ReadU32().status());  // Magic, checked.
  SKETCHTREE_RETURN_NOT_OK(reader.ReadU32().status());  // Version, checked.
  SKETCHTREE_ASSIGN_OR_RETURN(SketchTreeOptions options,
                              ReadOptions(&reader));
  SKETCHTREE_ASSIGN_OR_RETURN(SketchTree sketch, Create(options));
  SKETCHTREE_RETURN_NOT_OK(sketch.LoadBody(&reader, /*with_counters=*/true));
  return sketch;
}

std::string SketchTree::SerializeMetaToString() const {
  BinaryWriter writer;
  writer.WriteU32(kMetaMagic);
  writer.WriteU32(kMetaVersion);
  SaveBody(&writer, /*with_counters=*/false);
  return writer.Release();
}

namespace {

/// Decodes a meta blob's envelope and options; positions `reader` at the
/// stream counters.
Result<SketchTreeOptions> ReadMetaEnvelope(BinaryReader* reader) {
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t magic, reader->ReadU32());
  if (magic != kMetaMagic) {
    return Status::InvalidArgument(
        "not a SketchTree snapshot meta blob (bad magic)");
  }
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t version, reader->ReadU32());
  if (version != kMetaVersion) {
    return Status::InvalidArgument("unsupported snapshot meta version " +
                                   std::to_string(version));
  }
  return ReadOptions(reader);
}

}  // namespace

Result<SketchTree> SketchTree::FromMetaAndCounters(std::string_view meta,
                                                   const double* plane,
                                                   size_t count,
                                                   bool attach) {
  BinaryReader reader(meta);
  SKETCHTREE_ASSIGN_OR_RETURN(SketchTreeOptions options,
                              ReadMetaEnvelope(&reader));
  SKETCHTREE_ASSIGN_OR_RETURN(SketchTree sketch, Create(options));
  SKETCHTREE_RETURN_NOT_OK(sketch.LoadBody(&reader, /*with_counters=*/false));
  if (attach) {
    SKETCHTREE_RETURN_NOT_OK(sketch.streams_->AttachCounterPlane(plane,
                                                                 count));
  } else {
    SKETCHTREE_RETURN_NOT_OK(sketch.streams_->LoadCounterPlane(plane,
                                                               count));
  }
  return sketch;
}

Status SketchTree::SaveToFile(const std::string& path) const {
  return WriteFileAtomic(path, SerializeToString());
}

Result<SketchTree> SketchTree::LoadFromFile(const std::string& path) {
  // ReadFileToString already distinguishes NotFound (ENOENT) from
  // IOError; DeserializeFromString layers Corruption (CRC mismatch),
  // OutOfRange (truncation), and InvalidArgument (wrong format) on top.
  SKETCHTREE_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  Result<SketchTree> sketch = DeserializeFromString(bytes);
  if (!sketch.ok()) {
    Status st = sketch.status();
    if (st.IsOutOfRange()) {
      // A short file on disk is a torn/partial write, not a caller bug.
      return Status::Corruption("'" + path + "' is truncated: " +
                                st.message());
    }
    return st;
  }
  return sketch;
}

}  // namespace sketchtree
