#ifndef SKETCHTREE_INGEST_PARALLEL_INGESTER_H_
#define SKETCHTREE_INGEST_PARALLEL_INGESTER_H_

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/sketch_tree.h"
#include "ingest/tree_queue.h"

namespace sketchtree {

/// Per-shard ingest accounting. Counts are maintained by the worker
/// thread while the pipeline runs and are final once Finish returned.
struct ShardIngestStats {
  uint64_t trees_ingested = 0;
  uint64_t patterns_ingested = 0;
};

/// Configuration of the sharded ingestion pipeline.
struct ParallelIngestOptions {
  /// Worker threads, each owning one SketchTree replica. 1 still runs
  /// the queue + worker machinery when `inline_single_thread` is off
  /// (useful for pipelining parse and sketch work onto two cores).
  int num_threads = 4;
  /// Bound of the tree hand-off queue; back-pressure for the producer.
  size_t queue_capacity = 256;
  /// With num_threads == 1, skip the queue and worker thread entirely:
  /// Add/AddBatch apply each tree synchronously on the calling thread,
  /// eliminating the hand-off overhead that made a 1-thread pipeline
  /// slower than plain serial ingestion. Only valid with a single
  /// producer thread (there is no queue to serialize concurrent Adds);
  /// a multi-producer front end such as the parse pool must turn this
  /// off. Ignored when num_threads > 1.
  bool inline_single_thread = true;
  /// Trees a worker pulls per queue lock acquisition. Larger batches cut
  /// hand-off contention; the snapshot drain still waits on per-tree
  /// counters, so consistency cuts are unaffected.
  size_t worker_batch = 32;
};

/// Retry discipline for transient tree-source failures in IngestAll.
/// A pull that fails with IOError is retried up to `max_attempts` total
/// tries with exponential backoff; any other error class is treated as
/// permanent and returned immediately.
struct ReaderRetryPolicy {
  int max_attempts = 4;
  std::chrono::milliseconds initial_backoff{1};
  double backoff_multiplier = 2.0;
};

/// Pull-based tree producer for IngestAll: returns the next stream tree,
/// nullopt at end of stream, or an error Status (IOError = transient,
/// retried per ReaderRetryPolicy).
using TreeSource = std::function<Result<std::optional<LabeledTree>>()>;

/// Parallel sharded ingestion of a tree stream (the scaling path the
/// paper's Section 5.3 seed sharing enables): N workers each own a
/// SketchTree replica built from identical options — hence identical
/// Rabin polynomial and xi families — consume trees from a bounded MPMC
/// queue, and the replicas are folded with SketchTree::Merge when the
/// stream ends. By sketch linearity the merged counters equal the sums
/// a single synopsis would hold; and because ±1 updates keep every
/// counter an exactly-representable integer, the combined synopsis is
/// bit-identical to serial ingestion whatever the shard assignment
/// (without top-k tracking; with top-k, equivalence is up to the
/// per-shard tracking documented at SketchTree::Merge).
///
/// Usage:
///
///   auto ingester = ParallelIngester::Create(options, {.num_threads = 4});
///   for (LabeledTree& tree : stream) ingester->Add(std::move(tree));
///   SketchTree combined = ingester->Finish().value();
class ParallelIngester {
 public:
  static Result<ParallelIngester> Create(
      const SketchTreeOptions& sketch_options,
      const ParallelIngestOptions& ingest_options);

  /// Joins any still-running workers (discarding their output) if
  /// Finish was never called.
  ~ParallelIngester();

  // Movable (workers reference heap-allocated shared state, not `this`).
  // Defined out of line where State is complete.
  ParallelIngester(ParallelIngester&&) noexcept;
  ParallelIngester& operator=(ParallelIngester&&) noexcept;
  ParallelIngester(const ParallelIngester&) = delete;
  ParallelIngester& operator=(const ParallelIngester&) = delete;

  /// Enqueues one stream tree; blocks while the queue is full. Fails
  /// once Finish has been called. Safe to call from multiple producer
  /// threads concurrently (except in the inline single-thread mode, see
  /// ParallelIngestOptions::inline_single_thread).
  Status Add(LabeledTree tree);

  /// Enqueues a whole batch under one queue lock acquisition — the
  /// producer-side counterpart of `worker_batch`, used by the parallel
  /// parse front end to amortize hand-off costs. Consumes `*trees`
  /// (left empty). Same concurrency contract as Add.
  Status AddBatch(std::vector<LabeledTree>* trees);

  /// Pulls trees from `source` until it signals end of stream, Adding
  /// each. Transient (IOError) pulls are retried with exponential
  /// backoff per `retry`; exhausting the budget returns the last error
  /// (counted in `ingest.reader_gave_up`), successful retries in
  /// `ingest.reader_retries`. Non-IOError statuses and Add failures
  /// abort immediately.
  Status IngestAll(const TreeSource& source,
                   const ReaderRetryPolicy& retry = {});

  /// Drains the pipeline to a consistent cut — blocks until the workers
  /// have applied every tree Added so far — and returns the shard
  /// replicas merged into one synopsis (a copy; the replicas keep
  /// ingesting). By linearity that is exactly the synopsis of the
  /// trees Added so far. The caller (producer thread) must not Add
  /// concurrently; that is the cut's consistency guarantee.
  Result<SketchTree> SnapshotShards();

  /// Closes the stream, joins the workers, merges the shard replicas,
  /// and returns the combined synopsis. One-shot: further Add/Finish
  /// calls fail. Fails with Internal if any Add was rejected by a closed
  /// queue or if the trees the workers ingested do not reconcile exactly
  /// with trees_enqueued() — the producer count is verified, not
  /// trusted.
  Result<SketchTree> Finish();

  int num_threads() const;
  /// Trees handed to workers so far (== successful Add calls).
  uint64_t trees_enqueued() const;
  /// Trees the workers have actually pulled through SketchTree::Update.
  /// Catches up with trees_enqueued() once Finish has joined the
  /// workers; mid-stream it may trail the producer.
  uint64_t trees_ingested() const;
  /// Per-shard tree/pattern counts (index == shard/worker id).
  std::vector<ShardIngestStats> ShardStats() const;

 private:
  struct Shard;
  struct State;

  explicit ParallelIngester(std::unique_ptr<State> state);

  /// Inline single-thread mode: apply one tree to shard 0 on the calling
  /// thread, with the same accounting the worker loop performs.
  void ApplyInline(const LabeledTree& tree);

  std::unique_ptr<State> state_;
};

}  // namespace sketchtree

#endif  // SKETCHTREE_INGEST_PARALLEL_INGESTER_H_
