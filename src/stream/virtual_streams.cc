#include "stream/virtual_streams.h"

#include <cmath>
#include <cstring>

#include "metrics/metrics.h"
#include "trace/trace.h"

namespace sketchtree {

namespace {

/// Global instrumentation of the sketch-update layer. Pointers are
/// resolved once; every update afterwards is lock-free. Only batch-level
/// and rare events are recorded — the per-value Insert path stays
/// untouched.
struct StreamMetrics {
  Histogram* batch_bucket_size;
  Counter* over_deletions;
};

StreamMetrics& Metrics() {
  static StreamMetrics metrics{
      GlobalMetrics().GetHistogram("stream.batch_bucket_size",
                                   Histogram::ExponentialBounds(1, 2.0, 16)),
      GlobalMetrics().GetCounter("stream.over_deletions"),
  };
  return metrics;
}

}  // namespace

bool IsPrime(uint32_t n) {
  if (n < 2) return false;
  if (n % 2 == 0) return n == 2;
  for (uint32_t d = 3; static_cast<uint64_t>(d) * d <= n; d += 2) {
    if (n % d == 0) return false;
  }
  return true;
}

Result<VirtualStreams> VirtualStreams::Create(
    const VirtualStreamsOptions& options) {
  if (options.num_streams == 0) {
    return Status::InvalidArgument("num_streams must be >= 1");
  }
  if (options.num_streams > 1 && !IsPrime(options.num_streams)) {
    return Status::InvalidArgument(
        "num_streams must be prime (got " +
        std::to_string(options.num_streams) + ")");
  }
  if (options.s1 < 1 || options.s2 < 1) {
    return Status::InvalidArgument("s1 and s2 must be >= 1");
  }
  if (options.independence < 4) {
    return Status::InvalidArgument(
        "independence must be >= 4 (AMS needs four-wise xi variables)");
  }
  if (options.topk_probability < 0.0 || options.topk_probability > 1.0) {
    return Status::InvalidArgument("topk_probability must be in [0, 1]");
  }
  return VirtualStreams(options);
}

VirtualStreams::VirtualStreams(const VirtualStreamsOptions& options)
    : options_(options), sampling_rng_(options.seed, /*stream=*/0x70b5) {
  // One array, copied p times: every stream shares its coefficient
  // matrix, so instance (i, j) has identical xi variables in every
  // stream (Section 5.3) by construction, enabling sketch addition
  // across streams.
  arrays_.assign(options_.num_streams,
                 SketchArray(options_.s1, options_.s2, options_.independence,
                             options_.seed));
  if (options_.topk_capacity > 0) {
    trackers_.reserve(options_.num_streams);
    for (uint32_t r = 0; r < options_.num_streams; ++r) {
      trackers_.emplace_back(options_.topk_capacity, &arrays_[r]);
    }
  }
}

VirtualStreams::VirtualStreams(const VirtualStreams& other)
    : options_(other.options_),
      arrays_(other.arrays_),
      sampling_rng_(other.sampling_rng_),
      values_inserted_(other.values_inserted_),
      over_deletions_(other.over_deletions_) {
  trackers_.reserve(other.trackers_.size());
  for (size_t r = 0; r < other.trackers_.size(); ++r) {
    trackers_.emplace_back(other.trackers_[r], &arrays_[r]);
  }
}

void VirtualStreams::AccountStreamLength(size_t count, double weight) {
  // llround of the magnitude is symmetric for +w and -w (the old code
  // truncated deletions, so Insert(v, -0.75) after Insert(v, +0.75) left
  // the stream length inconsistent) and exact for the ±1 turnstile case.
  uint64_t delta =
      static_cast<uint64_t>(std::llround(std::fabs(weight))) * count;
  if (weight >= 0) {
    values_inserted_ += delta;
    return;
  }
  if (delta > values_inserted_) {
    uint64_t excess = delta - values_inserted_;
    over_deletions_ += excess;
    Metrics().over_deletions->Increment(excess);
    values_inserted_ = 0;
  } else {
    values_inserted_ -= delta;
  }
}

void VirtualStreams::Insert(uint64_t v, double weight) {
  uint32_t r = ResidueOf(v);
  arrays_[r].Update(v, weight);
  AccountStreamLength(1, weight);
  if (!trackers_.empty()) {
    if (options_.topk_probability >= 1.0 ||
        sampling_rng_.NextDouble() < options_.topk_probability) {
      trackers_[r].Process(v);
    }
  }
}

void VirtualStreams::InsertBatch(std::span<const uint64_t> values,
                                 double weight) {
  if (values.empty()) return;
  TRACE_SPAN("sketch.update_batch");
  // Top-k processing (Algorithm 4) runs against the sketch state after
  // each individual update, so tracking keeps the exact per-value path.
  if (!trackers_.empty()) {
    for (uint64_t v : values) Insert(v, weight);
    return;
  }
  if (batch_buckets_.empty()) batch_buckets_.resize(options_.num_streams);
  for (uint64_t v : values) {
    uint32_t r = ResidueOf(v);
    std::vector<uint64_t>& bucket = batch_buckets_[r];
    if (bucket.empty()) batch_touched_.push_back(r);
    bucket.push_back(v);
  }
  Histogram* bucket_size = Metrics().batch_bucket_size;
  for (uint32_t r : batch_touched_) {
    bucket_size->Observe(batch_buckets_[r].size());
    arrays_[r].UpdateBatch(batch_buckets_[r], weight);
    batch_buckets_[r].clear();
  }
  batch_touched_.clear();
  AccountStreamLength(values.size(), weight);
}

double VirtualStreams::EstimateSelfJoinSize() const {
  // Per stream, F2 = E[X^2]; the streams are disjoint so totals add.
  // Boost within each stream with the usual average/median.
  double total = 0.0;
  for (const SketchArray& array : arrays_) {
    total += BoostedEstimate(options_.s1, options_.s2, [&](int i, int j) {
      double x = array.value(i, j);
      return x * x;
    });
  }
  return total;
}

Status VirtualStreams::MergeFrom(const VirtualStreams& other) {
  if (other.options_.num_streams != options_.num_streams ||
      other.options_.s1 != options_.s1 || other.options_.s2 != options_.s2 ||
      other.options_.independence != options_.independence ||
      other.options_.seed != options_.seed) {
    return Status::InvalidArgument(
        "MergeFrom requires identical sketch dimensions and seed");
  }
  // Top-k capacities must match too: re-adding the other side's tracked
  // mass below assumes both sides ran the same Section 5.2 tracking, and
  // a capacity mismatch would leave this tracker's delete condition
  // violated for values only the other side tracked.
  if (other.options_.topk_capacity != options_.topk_capacity ||
      other.options_.topk_probability != options_.topk_probability) {
    return Status::InvalidArgument(
        "MergeFrom requires identical top-k capacity and probability");
  }
  for (uint32_t r = 0; r < options_.num_streams; ++r) {
    for (int i = 0; i < options_.s2; ++i) {
      for (int j = 0; j < options_.s1; ++j) {
        arrays_[r].set_value(i, j, arrays_[r].value(i, j) +
                                       other.arrays_[r].value(i, j));
      }
    }
    // Re-add the other side's tracked (deleted) mass so the merged
    // counters reflect its full sub-stream; only this tracker's
    // deletions remain outstanding, preserving the delete condition.
    // Ascending value order, so the merged counters depend only on what
    // the other side tracks, not on how its hash map was filled.
    if (!other.trackers_.empty()) {
      for (const auto& [value, freq] : other.trackers_[r].SortedTracked()) {
        arrays_[r].Update(value, +freq);
      }
    }
  }
  values_inserted_ += other.values_inserted_;
  over_deletions_ += other.over_deletions_;
  return Status::OK();
}

void VirtualStreams::Save(BinaryWriter* writer) const {
  writer->WriteU64(values_inserted_);
  writer->WriteU32(options_.num_streams);
  writer->WriteU32(static_cast<uint32_t>(options_.s1));
  writer->WriteU32(static_cast<uint32_t>(options_.s2));
  writer->WriteU32(static_cast<uint32_t>(trackers_.size()));
  for (const TopKTracker& tracker : trackers_) {
    // Canonical order, so the serialized bytes are a pure function of
    // the tracked contents and resumed builds stay bit-identical.
    std::vector<std::pair<uint64_t, double>> entries = tracker.SortedTracked();
    writer->WriteU64(entries.size());
    for (const auto& [value, freq] : entries) {
      writer->WriteU64(value);
      writer->WriteDouble(freq);
    }
  }
}

Status VirtualStreams::Load(BinaryReader* reader) {
  SKETCHTREE_ASSIGN_OR_RETURN(values_inserted_, reader->ReadU64());
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t num_streams, reader->ReadU32());
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t s1, reader->ReadU32());
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t s2, reader->ReadU32());
  if (num_streams != options_.num_streams ||
      s1 != static_cast<uint32_t>(options_.s1) ||
      s2 != static_cast<uint32_t>(options_.s2)) {
    return Status::InvalidArgument(
        "serialized synopsis dimensions do not match the options");
  }
  SKETCHTREE_ASSIGN_OR_RETURN(uint32_t num_trackers, reader->ReadU32());
  if (num_trackers != trackers_.size()) {
    return Status::InvalidArgument(
        "serialized top-k tracker count does not match the options");
  }
  for (TopKTracker& tracker : trackers_) {
    tracker.ClearTracked();
    SKETCHTREE_ASSIGN_OR_RETURN(uint64_t entries, reader->ReadU64());
    for (uint64_t e = 0; e < entries; ++e) {
      SKETCHTREE_ASSIGN_OR_RETURN(uint64_t value, reader->ReadU64());
      SKETCHTREE_ASSIGN_OR_RETURN(double freq, reader->ReadDouble());
      SKETCHTREE_RETURN_NOT_OK(tracker.RestoreTracked(value, freq));
    }
  }
  return Status::OK();
}

size_t VirtualStreams::CounterPlaneDoubles() const {
  return static_cast<size_t>(options_.num_streams) * options_.s1 *
         options_.s2;
}

void VirtualStreams::CopyCounterPlane(double* out) const {
  for (const SketchArray& array : arrays_) {
    std::memcpy(out, array.counter_data(),
                array.counter_count() * sizeof(double));
    out += array.counter_count();
  }
}

Status VirtualStreams::LoadCounterPlane(const double* data, size_t count) {
  if (count != CounterPlaneDoubles()) {
    return Status::InvalidArgument(
        "counter plane holds " + std::to_string(count) + " doubles, want " +
        std::to_string(CounterPlaneDoubles()));
  }
  const size_t per_stream =
      static_cast<size_t>(options_.s1) * options_.s2;
  for (uint32_t r = 0; r < options_.num_streams; ++r) {
    for (int i = 0; i < options_.s2; ++i) {
      for (int j = 0; j < options_.s1; ++j) {
        arrays_[r].set_value(i, j,
                             data[r * per_stream +
                                  static_cast<size_t>(i) * options_.s1 + j]);
      }
    }
  }
  return Status::OK();
}

Status VirtualStreams::AttachCounterPlane(const double* data, size_t count) {
  if (count != CounterPlaneDoubles()) {
    return Status::InvalidArgument(
        "counter plane holds " + std::to_string(count) + " doubles, want " +
        std::to_string(CounterPlaneDoubles()));
  }
  const size_t per_stream =
      static_cast<size_t>(options_.s1) * options_.s2;
  for (uint32_t r = 0; r < options_.num_streams; ++r) {
    arrays_[r].AttachCounters(data + r * per_stream);
  }
  return Status::OK();
}

size_t VirtualStreams::MemoryBytes() const {
  // Every stream's counter plane, plus the one coefficient matrix the
  // streams share.
  size_t bytes = arrays_.front().CoefficientBytes();
  for (const SketchArray& array : arrays_) {
    bytes += array.counter_count() * sizeof(double);
  }
  for (const TopKTracker& tracker : trackers_) bytes += tracker.MemoryBytes();
  return bytes;
}

size_t VirtualStreams::PaperMemoryBytes() const {
  size_t bytes = 0;
  for (const SketchArray& array : arrays_) bytes += array.PaperMemoryBytes();
  for (const TopKTracker& tracker : trackers_) bytes += tracker.MemoryBytes();
  return bytes;
}

}  // namespace sketchtree
