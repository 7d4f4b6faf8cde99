// SketchTree persistence. The one serialized form of a synopsis is the
// v3 paged image (store/page_format.h): the options and the rest of the
// non-counter state go into its "meta" blob, written here, and the
// counter plane is paged out raw beside it. Only mutable state is
// stored; all randomness is re-derived from the options' seeds on load,
// which keeps the image compact and the round trip bit-exact.
#include "common/atomic_file.h"
#include "common/binary_io.h"
#include "core/sketch_tree.h"
#include "store/synopsis_store.h"

namespace sketchtree {

namespace {

// Meta blob of the v3 paged image: the synopsis minus its counter
// plane. No CRC of its own — every page the image embeds it in carries
// one.
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

void SketchTree::SaveBody(BinaryWriter* writer) const {
  WriteOptions(options_, writer);
  writer->WriteU64(trees_processed_);
  writer->WriteU64(trees_removed_);
  writer->WriteU64(patterns_removed_);
  streams_->Save(writer);
  writer->WriteU8(summary_ != nullptr ? 1 : 0);
  if (summary_ != nullptr) summary_->SaveState(writer);
}

Status SketchTree::LoadBody(BinaryReader* reader) {
  SKETCHTREE_ASSIGN_OR_RETURN(trees_processed_, reader->ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(trees_removed_, reader->ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(patterns_removed_, reader->ReadU64());
  SKETCHTREE_RETURN_NOT_OK(streams_->Load(reader));
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

std::string SketchTree::SerializeMetaToString() const {
  BinaryWriter writer;
  writer.WriteU32(kMetaMagic);
  writer.WriteU32(kMetaVersion);
  SaveBody(&writer);
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
  SKETCHTREE_RETURN_NOT_OK(sketch.LoadBody(&reader));
  if (attach) {
    SKETCHTREE_RETURN_NOT_OK(sketch.streams_->AttachCounterPlane(plane,
                                                                 count));
  } else {
    SKETCHTREE_RETURN_NOT_OK(sketch.streams_->LoadCounterPlane(plane,
                                                               count));
  }
  return sketch;
}

std::string SketchTree::SerializeToString() const {
  return EncodeSynopsisImage(*this, /*epoch=*/0);
}

Result<SketchTree> SketchTree::DeserializeFromString(
    std::string_view bytes) {
  SKETCHTREE_ASSIGN_OR_RETURN(LoadedSynopsis loaded,
                              DecodeSynopsisImage(bytes));
  return std::move(loaded.sketch);
}

Status SketchTree::SaveToFile(const std::string& path) const {
  return WriteFileAtomic(path, SerializeToString());
}

Result<SketchTree> SketchTree::LoadFromFile(const std::string& path) {
  SKETCHTREE_ASSIGN_OR_RETURN(LoadedSynopsis loaded,
                              LoadPagedSnapshotFile(path, /*use_mmap=*/false));
  return std::move(loaded.sketch);
}

}  // namespace sketchtree
