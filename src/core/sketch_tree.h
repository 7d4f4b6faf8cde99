#ifndef SKETCHTREE_CORE_SKETCH_TREE_H_
#define SKETCHTREE_CORE_SKETCH_TREE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "core/estimate_plan.h"
#include "enumtree/pattern.h"
#include "hashing/label_hasher.h"
#include "hashing/rabin.h"
#include "query/expression.h"
#include "query/extended_query.h"
#include "stream/virtual_streams.h"
#include "summary/structural_summary.h"
#include "tree/labeled_tree.h"

namespace sketchtree {

class AccuracySentinel;

/// Full configuration of a SketchTree synopsis. Defaults follow the
/// paper's experimental setup (Section 7.5).
struct SketchTreeOptions {
  /// k: maximum number of edges of enumerated (and queryable) patterns.
  int max_pattern_edges = 4;
  /// s1: iid sketch instances averaged per group — accuracy knob
  /// (Theorem 1: s1 = 8 SJ(S) / (eps^2 f_q^2)).
  int s1 = 50;
  /// s2: groups median-selected — confidence knob (s2 = 2 lg(1/delta);
  /// the paper fixes 7, i.e. delta ~ 0.1).
  int s2 = 7;
  /// p: number of virtual streams; must be prime (Section 5.3). 1
  /// disables partitioning.
  uint32_t num_virtual_streams = 229;
  /// Top-k frequent patterns tracked and deleted per virtual stream; 0
  /// disables the Section 5.2 strategy.
  size_t topk_size = 0;
  /// Probability of running top-k processing per enumerated pattern.
  double topk_probability = 1.0;
  /// Degree of the random irreducible polynomial for Rabin mapping
  /// (the paper uses 31; up to 61 supported).
  int fingerprint_degree = 31;
  /// Independence k of the xi families; products of m counts need 2m.
  int independence = 8;
  /// Master seed: fixes the irreducible polynomial (the pattern -> value
  /// mapping), and — unless sketch_seed overrides it — every sketch
  /// instance's xi family and the top-k sampling. Runs are fully
  /// reproducible for a given seed.
  uint64_t seed = 42;
  /// When nonzero, seeds the sketch layer (xi families, top-k sampling)
  /// independently of the mapping. Lets experiments repeat a measurement
  /// with fresh sketch randomness while the canonical mapping — and thus
  /// comparability with an ExactCounter built from `seed` — stays fixed.
  uint64_t sketch_seed = 0;
  /// Maintain an online structural summary (DataGuide of label paths)
  /// alongside the sketches, enabling extended queries with '//' and '*'
  /// (Section 6.2) via EstimateExtended.
  bool build_structural_summary = false;
  /// Node cap of the structural summary; past it the summary saturates
  /// and extended queries are refused (limited-space guarantee).
  size_t summary_max_nodes = 100000;
};

/// Summary statistics of a synopsis, for reporting.
struct SketchTreeStats {
  uint64_t trees_processed = 0;
  uint64_t patterns_processed = 0;  ///< Values inserted into the stream.
  uint64_t trees_removed = 0;       ///< Turnstile deletions via Remove.
  uint64_t patterns_removed = 0;    ///< Pattern values those removals emitted.
  /// Deleted pattern mass exceeding the recorded stream length — nonzero
  /// means more was removed than inserted (see
  /// VirtualStreams::over_deletions).
  uint64_t over_deletions = 0;
  /// Actual bytes: counter planes + the one xi-coefficient matrix all
  /// virtual streams share + top-k.
  size_t memory_bytes = 0;
  size_t paper_memory_bytes = 0;    ///< Section 7.5 accounting: counters + seeds + top-k.
  size_t tracked_patterns = 0;      ///< Currently in top-k lists.
};

/// SketchTree: one-pass approximate tree pattern counting over a stream of
/// labeled trees (the paper's core contribution).
///
/// Usage:
///
///   auto st = SketchTree::Create(options).value();
///   for (const LabeledTree& doc : stream) st.Update(doc);
///   auto q = ParsePatternQuery("A(B,C)", options.max_pattern_edges);
///   double approx = st.EstimateCountOrdered(*q).value();
///
/// Update runs Algorithm 1: EnumTree emits every pattern with 1..k edges,
/// each is canonicalized through the extended Prüfer transform and Rabin
/// mapping, routed to its virtual stream, added to the s1 x s2 AMS
/// sketches, and fed to top-k tracking. Estimation runs Algorithm 2 with
/// the Section 5.2 compensation and the Section 5.3 sketch addition.
///
/// Not thread-safe (one synopsis per stream consumer). Copyable: a copy
/// — the epoch cut a snapshot publisher or a checkpoint takes — owns the
/// mutable state (counter planes, top-k trackers, structural summary,
/// stream counters, label-hash memo) and shares the immutable parts (the
/// fingerprinter and the xi-coefficient matrix). It serializes to the
/// same bytes as its source, does not inherit an attached sentinel, and
/// a copy of a mapped synopsis reads the mapping until its first write.
class SketchTree {
 public:
  static Result<SketchTree> Create(const SketchTreeOptions& options);

  SketchTree(SketchTree&&) = default;
  SketchTree& operator=(SketchTree&&) = default;
  SketchTree(const SketchTree& other);

  const SketchTreeOptions& options() const { return options_; }

  /// Processes one stream element (Algorithm 1). Returns the number of
  /// patterns the tree contributed.
  uint64_t Update(const LabeledTree& tree);

  /// Removes one earlier stream element (turnstile model): every pattern
  /// of `tree` is deleted from the sketches — "a value i can be deleted
  /// from the stream by subtracting xi_i from X" (Section 3). The
  /// structural summary, if any, is monotone and keeps the tree's label
  /// paths; resolution then merely includes patterns whose counts are
  /// near zero. Returns the number of patterns removed.
  uint64_t Remove(const LabeledTree& tree);

  /// Canonical 1-D value of a pattern under this synopsis's mapping.
  uint64_t MapPattern(const LabeledTree& pattern) {
    return canonicalizer_->MapPatternTree(pattern);
  }

  /// Approximate COUNT_ord(Q) (Theorem 1). Fails if the query exceeds the
  /// maximum pattern size k.
  Result<double> EstimateCountOrdered(const LabeledTree& query);

  /// Approximate sum of COUNT_ord over a set of distinct patterns via the
  /// single sum estimator (Theorem 2). Duplicated patterns are rejected.
  Result<double> EstimateCountOrderedSum(
      const std::vector<LabeledTree>& queries);

  /// Approximate unordered COUNT(Q): the sum estimator over all ordered
  /// arrangements of Q (Section 3.3).
  Result<double> EstimateCount(const LabeledTree& query);

  /// Approximate value of a general count expression (Section 4): each
  /// expanded term coeff * prod COUNT_ord(P) is estimated per sketch
  /// instance as coeff * X^m / m! * prod(xi), terms are summed, then the
  /// average/median boosting is applied to the whole expression.
  Result<double> EstimateExpression(const CountExpression& expression);

  /// Parses `text` (see CountExpression) and estimates it.
  Result<double> EstimateExpression(std::string_view text);

  /// Approximate COUNT_ord of an extended query with '//' edges and '*'
  /// wildcards (Section 6.2): the query is resolved against the online
  /// structural summary into a set of plain patterns whose total
  /// frequency is estimated with the sum estimator. Requires
  /// `build_structural_summary` to be enabled in the options.
  Result<double> EstimateExtended(const ExtendedQuery& query);

  /// Parses the extended syntax (e.g. `A(B,//C(*))`) and estimates it.
  Result<double> EstimateExtended(std::string_view text);

  /// The online structural summary, or nullptr when not enabled.
  const StructuralSummary* summary() const { return summary_.get(); }

  /// Serializes the complete synopsis — options, sketch counters, top-k
  /// state, structural summary, stream counters — as a self-contained
  /// v3 paged image (store/page_format.h) at epoch 0 with no cursor: the
  /// same encoding as a store epoch, a build checkpoint and a
  /// `shard_snapshot` pull. Seed-derived randomness (the irreducible
  /// polynomial and every xi family) is rebuilt on load, so the image
  /// stores only the mutable state plus the options. Estimates after a
  /// round trip are bit-identical to the original's.
  std::string SerializeToString() const;

  /// Restores any v3 synopsis image (SerializeToString, a store epoch, a
  /// checkpoint), checking every page; its epoch and cursor are dropped.
  /// Fails with InvalidArgument (not a v3 image — a file of an older
  /// format included — or a delta image), OutOfRange (truncated), or
  /// Corruption (checksum, padding or layout mismatch) — never crashes
  /// or silently accepts damaged bytes.
  static Result<SketchTree> DeserializeFromString(std::string_view bytes);

  /// The non-counter mutable state — options, stream counters, top-k
  /// entries, structural summary — as a self-contained blob: the "meta"
  /// half of the v3 paged image, which pages the counter planes out
  /// separately as page-aligned blocks. No checksum: the image
  /// checksums every page it embeds this in.
  std::string SerializeMetaToString() const;

  /// Rebuilds a synopsis from a SerializeMetaToString blob plus a full
  /// counter plane (CounterPlaneDoubles() doubles, stream-major). With
  /// `attach` false the plane is copied; with `attach` true the synopsis
  /// reads the caller's memory directly (an mmap'd snapshot — the
  /// caller keeps it alive and unchanged; any mutation copies-on-write
  /// first). Both forms produce bit-identical estimates.
  static Result<SketchTree> FromMetaAndCounters(std::string_view meta,
                                                const double* plane,
                                                size_t count,
                                                bool attach = false);

  /// Counter-plane bulk access, forwarded to VirtualStreams — the unit
  /// the paged store serializes and maps.
  size_t CounterPlaneDoubles() const {
    return streams_->CounterPlaneDoubles();
  }
  void CopyCounterPlane(double* out) const {
    streams_->CopyCounterPlane(out);
  }
  Status LoadCounterPlane(const double* data, size_t count) {
    return streams_->LoadCounterPlane(data, count);
  }

  /// Atomically persists SerializeToString(): write to `path`.tmp,
  /// fsync, rename over `path`, fsync the directory. A crash mid-save
  /// leaves the previous file intact.
  Status SaveToFile(const std::string& path) const;
  /// Loads any v3 synopsis file — a SaveToFile output or a store epoch —
  /// into owned memory, every page checked (LoadPagedSnapshotFile
  /// without mmap). Typed failures: NotFound (no such file), IOError
  /// (unreadable), Corruption (truncated, checksum or padding mismatch),
  /// InvalidArgument (not a v3 image, or a delta image).
  static Result<SketchTree> LoadFromFile(const std::string& path);

  /// Folds `other` — a synopsis built with identical options — into this
  /// one. AMS linearity makes the merged synopsis equivalent to having
  /// streamed both inputs through a single SketchTree (up to the other
  /// side's top-k bookkeeping, whose deletions are compensated during
  /// the merge). Enables sharded/parallel ingestion:
  ///
  ///   shard 1..n: build SketchTree over its partition (same options)
  ///   combiner:   st1.Merge(st2); st1.Merge(st3); ...
  Status Merge(const SketchTree& other);

  SketchTreeStats Stats() const;

  /// AMS F2 estimate of the residual self-join size of the sketched
  /// pattern stream (after top-k deletions). Per Theorem 1, the current
  /// relative error for a pattern of frequency f is roughly
  /// sqrt(8 * SJ / s1) / f — so this lets callers assess, online, how
  /// trustworthy an estimate is (see PlanParameters in
  /// stats/parameter_planner.h).
  double EstimateSelfJoinSize() const {
    return streams_->EstimateSelfJoinSize();
  }

  const RabinFingerprinter& fingerprinter() const { return *fingerprinter_; }
  const VirtualStreams& streams() const { return *streams_; }

  /// Attaches an accuracy sentinel (stats/sentinel.h): every enumerated
  /// pattern value is mirrored to `sentinel` during Update/Remove, where
  /// a sampled subset is counted exactly for live error measurement.
  /// Not owned; pass nullptr to detach. The caller keeps the sentinel
  /// alive for as long as it stays attached.
  void AttachSentinel(AccuracySentinel* sentinel) { sentinel_ = sentinel; }
  AccuracySentinel* sentinel() const { return sentinel_; }

 private:
  SketchTree(const SketchTreeOptions& options,
             std::shared_ptr<const RabinFingerprinter> fingerprinter,
             std::unique_ptr<VirtualStreams> streams);

  /// The meta blob after its envelope: options, stream counters, the
  /// streams' state without counters, the structural summary. The
  /// loader reads what follows the options and expects the input to end.
  void SaveBody(BinaryWriter* writer) const;
  Status LoadBody(BinaryReader* reader);

  /// Validates a query pattern against k and returns its canonical value.
  Result<uint64_t> MapQuery(const LabeledTree& query);
  /// MapQuery as the estimate planners' mapping function.
  PatternMapFn QueryMapFn();

  /// Shared body of Update/Remove: enumerates the tree's patterns into
  /// the reusable per-tree buffer and flushes it through the batched
  /// sketch path with the given weight (+1 insert, -1 delete).
  uint64_t IngestTree(const LabeledTree& tree, double weight);

  SketchTreeOptions options_;
  std::shared_ptr<const RabinFingerprinter> fingerprinter_;
  std::unique_ptr<LabelHasher> hasher_;
  std::unique_ptr<PatternCanonicalizer> canonicalizer_;
  std::unique_ptr<VirtualStreams> streams_;
  std::unique_ptr<StructuralSummary> summary_;  // Null unless enabled.
  AccuracySentinel* sentinel_ = nullptr;        // Not owned; may be null.
  uint64_t trees_processed_ = 0;
  uint64_t trees_removed_ = 0;
  uint64_t patterns_removed_ = 0;
  /// Reusable per-tree buffer of enumerated pattern values; filled by
  /// EnumTree and flushed through VirtualStreams::InsertBatch.
  std::vector<uint64_t> pattern_values_;
};

}  // namespace sketchtree

#endif  // SKETCHTREE_CORE_SKETCH_TREE_H_
