#ifndef SKETCHTREE_STREAM_VIRTUAL_STREAMS_H_
#define SKETCHTREE_STREAM_VIRTUAL_STREAMS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/status.h"
#include "sketch/sketch_array.h"
#include "topk/topk_tracker.h"

namespace sketchtree {

/// Configuration of the partitioned synopsis.
struct VirtualStreamsOptions {
  /// Number of virtual streams p (Section 5.3). Must be prime — the
  /// residue v mod p then spreads Rabin residues uniformly. 1 disables
  /// partitioning.
  uint32_t num_streams = 229;
  int s1 = 50;  ///< Accuracy: instances averaged per group.
  int s2 = 7;   ///< Confidence: groups median-selected.
  /// Independence k of the xi families. 4 suffices for point/sum counts;
  /// products of m counts need 2m-wise (default supports m <= 4).
  int independence = 8;
  uint64_t seed = 42;
  /// Top-k size per virtual stream; 0 disables tracking (Section 5.2).
  size_t topk_capacity = 0;
  /// Probability of invoking top-k processing per inserted value
  /// (Section 5.2 suggests sampling when per-pattern invocation is too
  /// expensive). 1.0 = always.
  double topk_probability = 1.0;
};

/// Splits the 1-D value stream into p disjoint virtual streams by residue
/// (Section 5.3) and maintains one s1 × s2 AMS sketch array — plus,
/// optionally, one top-k tracker — per stream. All arrays share one
/// xi-coefficient matrix, so instance (i, j) has identical xi variables
/// in every stream and X_{i union j} is simply the elementwise sum of
/// sketches: the property the estimator (core/estimate_plan.h) relies on
/// when a query touches several streams.
///
/// Copyable: a copy owns its counter planes and trackers (each tracker
/// bound to the copy's own array) and shares the coefficient matrix.
class VirtualStreams {
 public:
  static Result<VirtualStreams> Create(const VirtualStreamsOptions& options);

  VirtualStreams(const VirtualStreams& other);
  VirtualStreams(VirtualStreams&&) = default;
  VirtualStreams& operator=(VirtualStreams&&) = default;

  const VirtualStreamsOptions& options() const { return options_; }
  int s1() const { return options_.s1; }
  int s2() const { return options_.s2; }

  /// Routes `v` to its virtual stream, updates the sketches with
  /// `weight` occurrences (negative weight deletes — the turnstile
  /// property of AMS sketches, Section 3), and (with the configured
  /// probability) runs top-k processing.
  void Insert(uint64_t v, double weight = 1.0);

  /// Inserts a batch of values with one weight — the per-tree fast path
  /// of Algorithm 1. Values are bucketed by virtual-stream residue and
  /// each bucket is flushed through the batched sketch kernel, turning
  /// scattered single-value updates into cache-friendly runs. Produces
  /// bit-identical counters to inserting the values one by one in order
  /// (each stream sees its own values in the original order). When top-k
  /// tracking is enabled this falls back to the per-value path, because
  /// Algorithm 4 is defined against the sketch state after each
  /// individual update.
  void InsertBatch(std::span<const uint64_t> values, double weight = 1.0);

  uint32_t ResidueOf(uint64_t v) const {
    return static_cast<uint32_t>(v % options_.num_streams);
  }

  /// xi_v for instance (i, j) — identical in every stream by seed sharing.
  int Xi(int i, int j, uint64_t v) const { return arrays_[0].Xi(i, j, v); }

  /// Estimate of the *residual* self-join size SJ(S) = sum_i f_i^2 of
  /// the sketched stream (after top-k deletions), via the AMS second
  /// frequency moment estimator E[X^2] = F2, summed over the disjoint
  /// virtual streams. This is the quantity Theorems 1-2 tie accuracy
  /// to, so it feeds the parameter planner directly.
  double EstimateSelfJoinSize() const;

  /// Sketch array of virtual stream `r` — read-only introspection for
  /// the health report (sketch/health.h).
  const SketchArray& array(uint32_t r) const { return arrays_[r]; }

  /// Top-k tracker of stream `r`, or nullptr if tracking is disabled.
  const TopKTracker* topk(uint32_t r) const {
    return trackers_.empty() ? nullptr : &trackers_[r];
  }

  /// Total values inserted so far (stream length).
  uint64_t values_inserted() const { return values_inserted_; }

  /// Values whose deletion exceeded the recorded stream length — a
  /// turnstile stream that removed more than it inserted. The sketches
  /// absorb such deletions correctly (counters go negative); this count
  /// makes the anomaly observable instead of silently clamping the
  /// stream length at zero.
  uint64_t over_deletions() const { return over_deletions_; }

  /// Actual bytes held by the synopsis: counter planes, the shared
  /// coefficient matrix (counted once), and top-k structures.
  size_t MemoryBytes() const;

  /// Section 7.5's accounting — counters + per-instance seeds + top-k —
  /// for benches that reproduce the paper's KB figures.
  size_t PaperMemoryBytes() const;

  /// Folds another synopsis built with the *same options* (hence the
  /// same xi families) into this one, exploiting the linearity of AMS
  /// sketches: counters add elementwise. The other side's top-k
  /// deletions are compensated during the fold (its tracked mass is
  /// re-added), so this tracker's delete condition still holds
  /// afterwards. Enables parallel/distributed stream ingestion.
  Status MergeFrom(const VirtualStreams& other);

  /// Serializes the mutable state except the counters: stream length,
  /// dimensions and the top-k entries in canonical order. The xi
  /// families and sampling RNG are rebuilt from the options on load, and
  /// the synopsis image (store/page_format.h) pages the counter plane
  /// out separately as page-aligned blocks.
  void Save(BinaryWriter* writer) const;

  /// Restores Save state into a VirtualStreams created with the *same
  /// options*, leaving the counter planes untouched (the caller loads or
  /// attaches them afterwards). Safe on a synopsis that already holds
  /// state: trackers are cleared and rebuilt from the entries. Fails on
  /// dimension mismatches or truncation.
  Status Load(BinaryReader* reader);

  /// Doubles in the full counter plane: num_streams * s1 * s2. The
  /// global plane is the concatenation of every stream's row-major
  /// plane in stream order — the layout the paged store pages out.
  size_t CounterPlaneDoubles() const;

  /// Copies the full counter plane into `out` (CounterPlaneDoubles()
  /// doubles), stream-major.
  void CopyCounterPlane(double* out) const;

  /// Overwrites every stream's counters from a full plane (bit-exact
  /// bulk form of set_value over all instances).
  Status LoadCounterPlane(const double* data, size_t count);

  /// Points every stream's read path at slices of an external plane
  /// (a mapped snapshot's counter region) without copying. The caller
  /// keeps `data` alive for the synopsis's lifetime; any write
  /// copies-on-write first (see SketchArray::AttachCounters).
  Status AttachCounterPlane(const double* data, size_t count);

 private:
  VirtualStreams(const VirtualStreamsOptions& options);

  /// Applies `count` values of the given weight to the stream-length
  /// accounting. Exact for the ±1 turnstile weights; fractional weights
  /// round half away from zero symmetrically for inserts and deletes.
  void AccountStreamLength(size_t count, double weight);

  VirtualStreamsOptions options_;
  std::vector<SketchArray> arrays_;    // One per virtual stream.
  std::vector<TopKTracker> trackers_;  // Empty when top-k disabled.
  Pcg64 sampling_rng_;
  uint64_t values_inserted_ = 0;
  uint64_t over_deletions_ = 0;
  // Reusable InsertBatch scratch: per-stream value buckets (allocated on
  // first batched insert) and the residues touched by the current batch.
  std::vector<std::vector<uint64_t>> batch_buckets_;
  std::vector<uint32_t> batch_touched_;
};

/// Deterministic primality check for 32-bit values (validates p).
bool IsPrime(uint32_t n);

}  // namespace sketchtree

#endif  // SKETCHTREE_STREAM_VIRTUAL_STREAMS_H_
