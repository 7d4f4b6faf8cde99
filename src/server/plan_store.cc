#include "server/plan_store.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/binary_io.h"
#include "common/crc32.h"

namespace sketchtree {

namespace {

constexpr uint32_t kPlanMagic = 0x53'4B'50'43;  // "SKPC".
/// Bump when the CompiledQuery field encoding below changes shape.
constexpr uint32_t kPlanVersion = 1;
constexpr size_t kCrcTrailerBytes = 4;

/// The options tag: every field that the xi families, the value
/// mapping, or plan shape depend on — i.e. all of them. Byte-compared
/// on load, so any drift invalidates the file.
std::string OptionsTag(const SketchTreeOptions& options) {
  BinaryWriter writer;
  writer.WriteU32(static_cast<uint32_t>(options.max_pattern_edges));
  writer.WriteU32(static_cast<uint32_t>(options.s1));
  writer.WriteU32(static_cast<uint32_t>(options.s2));
  writer.WriteU32(options.num_virtual_streams);
  writer.WriteU64(options.topk_size);
  writer.WriteDouble(options.topk_probability);
  writer.WriteU32(static_cast<uint32_t>(options.fingerprint_degree));
  writer.WriteU32(static_cast<uint32_t>(options.independence));
  writer.WriteU64(options.seed);
  writer.WriteU64(options.sketch_seed);
  writer.WriteU8(options.build_structural_summary ? 1 : 0);
  writer.WriteU64(options.summary_max_nodes);
  return writer.Release();
}

void WriteDoubles(const std::vector<double>& values, BinaryWriter* writer) {
  writer->WriteU64(values.size());
  for (double v : values) writer->WriteDouble(v);
}

Result<std::vector<double>> ReadDoubles(BinaryReader* reader) {
  SKETCHTREE_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  if (count > reader->remaining() / 8) {
    return Status::OutOfRange("truncated double list in plan cache file");
  }
  std::vector<double> values;
  values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SKETCHTREE_ASSIGN_OR_RETURN(double v, reader->ReadDouble());
    values.push_back(v);
  }
  return values;
}

void WriteSumPlan(const SumPlan& plan, BinaryWriter* writer) {
  writer->WriteU64(plan.values.size());
  for (uint64_t v : plan.values) writer->WriteU64(v);
  writer->WriteU64(plan.residues.size());
  for (uint32_t r : plan.residues) writer->WriteU32(r);
  WriteDoubles(plan.xi_sums, writer);
}

Status ReadSumPlan(BinaryReader* reader, SumPlan* plan) {
  SKETCHTREE_ASSIGN_OR_RETURN(uint64_t num_values, reader->ReadU64());
  if (num_values > reader->remaining() / 8) {
    return Status::OutOfRange("truncated value list in plan cache file");
  }
  plan->values.reserve(num_values);
  for (uint64_t i = 0; i < num_values; ++i) {
    SKETCHTREE_ASSIGN_OR_RETURN(uint64_t v, reader->ReadU64());
    plan->values.push_back(v);
  }
  SKETCHTREE_ASSIGN_OR_RETURN(uint64_t num_residues, reader->ReadU64());
  if (num_residues > reader->remaining() / 4) {
    return Status::OutOfRange("truncated residue list in plan cache file");
  }
  plan->residues.reserve(num_residues);
  for (uint64_t i = 0; i < num_residues; ++i) {
    SKETCHTREE_ASSIGN_OR_RETURN(uint32_t r, reader->ReadU32());
    plan->residues.push_back(r);
  }
  SKETCHTREE_ASSIGN_OR_RETURN(plan->xi_sums, ReadDoubles(reader));
  return Status::OK();
}

bool Persistable(const CompiledQuery& plan) {
  return plan.kind != QueryKind::kExtended;
}

void WriteEntry(const std::string& key, const CompiledQuery& plan,
                BinaryWriter* writer) {
  writer->WriteU8(static_cast<uint8_t>(plan.kind));
  writer->WriteString(key);
  writer->WriteU64(plan.num_arrangements);
  WriteSumPlan(plan.plan, writer);
  writer->WriteU64(plan.terms.size());
  for (const ExprTermPlan& term : plan.terms) {
    writer->WriteDouble(term.coeff);
    writer->WriteU64(term.values.size());
    for (uint64_t v : term.values) writer->WriteU64(v);
    writer->WriteDouble(term.m_factorial);
    WriteDoubles(term.xi_prods, writer);
  }
}

/// A CRC-valid plan must still fit the synopsis it will run against:
/// the projection indexes the sketch by residue and the finishes index
/// the ξ vectors per instance, so either mismatch would read out of
/// bounds.
Status CheckPlanShape(const CompiledQuery& plan,
                      const SketchTreeOptions& options) {
  for (uint32_t r : plan.plan.residues) {
    if (r >= options.num_virtual_streams) {
      return Status::Corruption(
          "plan cache entry '" + plan.key + "' names residue " +
          std::to_string(r) + " but the synopsis has " +
          std::to_string(options.num_virtual_streams) + " virtual streams");
    }
  }
  const size_t instances = static_cast<size_t>(options.s1) * options.s2;
  auto check_length = [&](const std::vector<double>& xi, const char* what) {
    if (xi.size() == instances) return Status::OK();
    return Status::Corruption("plan cache entry '" + plan.key + "' has " +
                              std::to_string(xi.size()) + " " + what +
                              ", expected s1*s2 = " +
                              std::to_string(instances));
  };
  SKETCHTREE_RETURN_NOT_OK(check_length(plan.plan.xi_sums, "xi sums"));
  for (const ExprTermPlan& term : plan.terms) {
    SKETCHTREE_RETURN_NOT_OK(check_length(term.xi_prods, "xi products"));
  }
  return Status::OK();
}

Result<std::pair<std::string, std::shared_ptr<const CompiledQuery>>>
ReadEntry(BinaryReader* reader, const SketchTreeOptions& options) {
  SKETCHTREE_ASSIGN_OR_RETURN(uint8_t kind, reader->ReadU8());
  if (kind > static_cast<uint8_t>(QueryKind::kExpression) ||
      kind == static_cast<uint8_t>(QueryKind::kExtended)) {
    return Status::Corruption("plan cache entry has unloadable kind " +
                              std::to_string(kind));
  }
  auto plan = std::make_shared<CompiledQuery>();
  plan->kind = static_cast<QueryKind>(kind);
  SKETCHTREE_ASSIGN_OR_RETURN(plan->key, reader->ReadString());
  SKETCHTREE_ASSIGN_OR_RETURN(uint64_t arrangements, reader->ReadU64());
  plan->num_arrangements = arrangements;
  SKETCHTREE_RETURN_NOT_OK(ReadSumPlan(reader, &plan->plan));
  SKETCHTREE_ASSIGN_OR_RETURN(uint64_t num_terms, reader->ReadU64());
  if (num_terms > reader->remaining()) {
    return Status::OutOfRange("truncated term list in plan cache file");
  }
  plan->terms.reserve(num_terms);
  for (uint64_t i = 0; i < num_terms; ++i) {
    ExprTermPlan term;
    SKETCHTREE_ASSIGN_OR_RETURN(term.coeff, reader->ReadDouble());
    SKETCHTREE_ASSIGN_OR_RETURN(uint64_t num_values, reader->ReadU64());
    if (num_values > reader->remaining() / 8) {
      return Status::OutOfRange("truncated term values in plan cache file");
    }
    term.values.reserve(num_values);
    for (uint64_t j = 0; j < num_values; ++j) {
      SKETCHTREE_ASSIGN_OR_RETURN(uint64_t v, reader->ReadU64());
      term.values.push_back(v);
    }
    SKETCHTREE_ASSIGN_OR_RETURN(term.m_factorial, reader->ReadDouble());
    SKETCHTREE_ASSIGN_OR_RETURN(term.xi_prods, ReadDoubles(reader));
    plan->terms.push_back(std::move(term));
  }
  SKETCHTREE_RETURN_NOT_OK(CheckPlanShape(*plan, options));
  std::string key = plan->key;
  return std::make_pair(std::move(key),
                        std::shared_ptr<const CompiledQuery>(std::move(plan)));
}

}  // namespace

Status SavePlanCache(const PlanCache& cache, const SketchTreeOptions& options,
                     const std::string& path) {
  auto entries = cache.Entries();
  BinaryWriter writer;
  writer.WriteU32(kPlanMagic);
  writer.WriteU32(kPlanVersion);
  writer.WriteString(OptionsTag(options));
  uint64_t persistable = 0;
  for (const auto& [key, plan] : entries) {
    if (Persistable(*plan)) ++persistable;
  }
  writer.WriteU64(persistable);
  for (const auto& [key, plan] : entries) {
    if (Persistable(*plan)) WriteEntry(key, *plan, &writer);
  }
  uint32_t crc = Crc32(writer.buffer());
  writer.WriteU32(crc);
  return WriteFileAtomic(path, writer.buffer());
}

Result<size_t> LoadPlanCache(const std::string& path,
                             const SketchTreeOptions& options,
                             PlanCache* cache) {
  SKETCHTREE_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  if (bytes.size() < kCrcTrailerBytes + 8) {
    return Status::Corruption("plan cache file too short (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  std::string_view payload(bytes.data(), bytes.size() - kCrcTrailerBytes);
  BinaryReader trailer(
      std::string_view(bytes.data() + payload.size(), kCrcTrailerBytes));
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t stored_crc, trailer.ReadU32());
  if (Crc32(payload) != stored_crc) {
    return Status::Corruption("plan cache file checksum mismatch");
  }

  BinaryReader reader(payload);
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kPlanMagic) {
    return Status::InvalidArgument("not a plan cache file (bad magic)");
  }
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kPlanVersion) {
    return Status::InvalidArgument("unsupported plan cache version " +
                                   std::to_string(version));
  }
  SKETCHTREE_ASSIGN_OR_RETURN(std::string tag, reader.ReadString());
  if (tag != OptionsTag(options)) {
    return Status::InvalidArgument(
        "plan cache was built for a synopsis with different options");
  }
  SKETCHTREE_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  size_t loaded = 0;
  for (uint64_t i = 0; i < count; ++i) {
    SKETCHTREE_ASSIGN_OR_RETURN(auto entry, ReadEntry(&reader, options));
    cache->Put(entry.first, std::move(entry.second));
    ++loaded;
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("plan cache file has trailing bytes");
  }
  return loaded;
}

}  // namespace sketchtree
