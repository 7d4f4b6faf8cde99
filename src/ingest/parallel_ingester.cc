#include "ingest/parallel_ingester.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "faultinject/fault_injector.h"
#include "metrics/metrics.h"
#include "trace/trace.h"

namespace sketchtree {

struct ParallelIngester::Shard {
  Shard(SketchTree sketch_in, Counter* trees_metric_in)
      : sketch(std::move(sketch_in)), trees_metric(trees_metric_in) {}
  SketchTree sketch;
  std::thread worker;
  // Written by the worker thread, read by reconciliation/ShardStats;
  // relaxed atomics make mid-stream reads well-defined.
  std::atomic<uint64_t> trees{0};
  std::atomic<uint64_t> patterns{0};
  Counter* trees_metric;  // "ingest.shard_trees.<id>".
};

struct ParallelIngester::State {
  explicit State(size_t queue_capacity) : queue(queue_capacity) {}
  BoundedTreeQueue queue;
  std::vector<std::unique_ptr<Shard>> shards;
  // Atomics: the parse pool Adds from several producer threads at once.
  std::atomic<uint64_t> trees_enqueued{0};
  std::atomic<uint64_t> rejected_adds{0};  // Dropped by a closed queue.
  // num_threads == 1 with inline_single_thread: no queue, no worker —
  // Add applies the tree synchronously on the (single) producer thread.
  bool inline_mode = false;
  size_t worker_batch = 32;
  bool finished = false;
};

Result<ParallelIngester> ParallelIngester::Create(
    const SketchTreeOptions& sketch_options,
    const ParallelIngestOptions& ingest_options) {
  if (ingest_options.num_threads < 1 || ingest_options.num_threads > 256) {
    return Status::InvalidArgument("num_threads must be in [1, 256]");
  }
  auto state = std::make_unique<State>(ingest_options.queue_capacity);
  state->shards.reserve(ingest_options.num_threads);
  for (int t = 0; t < ingest_options.num_threads; ++t) {
    // Every replica is built from the same options, so seeds — and with
    // them the pattern mapping and all xi families — are shared across
    // shards, which is what makes the final Merge exact.
    SKETCHTREE_ASSIGN_OR_RETURN(SketchTree replica,
                                SketchTree::Create(sketch_options));
    state->shards.push_back(std::make_unique<Shard>(
        std::move(replica),
        GlobalMetrics().GetCounter("ingest.shard_trees." +
                                   std::to_string(t))));
  }
  state->worker_batch =
      ingest_options.worker_batch == 0 ? 1 : ingest_options.worker_batch;
  if (ingest_options.num_threads == 1 &&
      ingest_options.inline_single_thread) {
    // The degenerate pipeline is just serial ingestion; spawning a
    // worker would only add a queue hand-off per tree between two
    // threads doing strictly sequential work.
    state->inline_mode = true;
    return ParallelIngester(std::move(state));
  }
  int shard_id = -1;
  for (auto& shard : state->shards) {
    ++shard_id;
    Shard* raw = shard.get();
    BoundedTreeQueue* queue = &state->queue;
    const size_t batch_size = state->worker_batch;
    raw->worker = std::thread([raw, queue, shard_id, batch_size] {
      TraceRecorder::Global().SetThreadName("shard-" +
                                            std::to_string(shard_id));
      std::vector<LabeledTree> batch;
      batch.reserve(batch_size);
      while (queue->PopBatch(&batch, batch_size)) {
        for (LabeledTree& tree : batch) {
          uint64_t patterns = raw->sketch.Update(tree);
          // Release pairs with the acquire in SnapshotShards' drain
          // loop: once the snapshotting thread observes this increment,
          // the Update above is visible too. Per-tree (not per-batch) so
          // a snapshot never waits on a half-applied batch's worth of
          // slack.
          raw->trees.fetch_add(1, std::memory_order_release);
          raw->patterns.fetch_add(patterns, std::memory_order_relaxed);
          raw->trees_metric->Increment();
        }
      }
    });
  }
  return ParallelIngester(std::move(state));
}

ParallelIngester::ParallelIngester(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

ParallelIngester::ParallelIngester(ParallelIngester&&) noexcept = default;
ParallelIngester& ParallelIngester::operator=(ParallelIngester&&) noexcept =
    default;

ParallelIngester::~ParallelIngester() {
  if (state_ == nullptr || state_->finished) return;
  state_->queue.Close();
  for (auto& shard : state_->shards) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

Status ParallelIngester::Add(LabeledTree tree) {
  if (state_->finished) {
    return Status::InvalidArgument("Add after Finish");
  }
  if (state_->inline_mode) {
    ApplyInline(tree);
    state_->trees_enqueued.fetch_add(1, std::memory_order_relaxed);
    GlobalMetrics().GetCounter("ingest.trees_enqueued")->Increment();
    return Status::OK();
  }
  if (!state_->queue.Push(std::move(tree))) {
    state_->rejected_adds.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("ingest queue closed while adding");
  }
  state_->trees_enqueued.fetch_add(1, std::memory_order_relaxed);
  GlobalMetrics().GetCounter("ingest.trees_enqueued")->Increment();
  return Status::OK();
}

Status ParallelIngester::AddBatch(std::vector<LabeledTree>* trees) {
  if (state_->finished) {
    return Status::InvalidArgument("AddBatch after Finish");
  }
  const size_t total = trees->size();
  if (total == 0) return Status::OK();
  if (state_->inline_mode) {
    for (LabeledTree& tree : *trees) ApplyInline(tree);
    trees->clear();
    state_->trees_enqueued.fetch_add(total, std::memory_order_relaxed);
    GlobalMetrics().GetCounter("ingest.trees_enqueued")->Increment(total);
    return Status::OK();
  }
  const size_t pushed = state_->queue.PushBatch(trees);
  state_->trees_enqueued.fetch_add(pushed, std::memory_order_relaxed);
  GlobalMetrics().GetCounter("ingest.trees_enqueued")->Increment(pushed);
  if (pushed < total) {
    state_->rejected_adds.fetch_add(total - pushed,
                                    std::memory_order_relaxed);
    return Status::Internal("ingest queue closed while adding batch");
  }
  return Status::OK();
}

void ParallelIngester::ApplyInline(const LabeledTree& tree) {
  Shard& shard = *state_->shards[0];
  uint64_t patterns = shard.sketch.Update(tree);
  shard.trees.fetch_add(1, std::memory_order_release);
  shard.patterns.fetch_add(patterns, std::memory_order_relaxed);
  shard.trees_metric->Increment();
}

Status ParallelIngester::IngestAll(const TreeSource& source,
                                   const ReaderRetryPolicy& retry) {
  Counter* retries_metric = GlobalMetrics().GetCounter("ingest.reader_retries");
  Counter* gave_up_metric = GlobalMetrics().GetCounter("ingest.reader_gave_up");
  int attempt = 1;
  std::chrono::milliseconds backoff = retry.initial_backoff;
  while (true) {
    Result<std::optional<LabeledTree>> next =
        FaultInjector::Global().ShouldFire(FaultSite::kReaderError)
            ? Result<std::optional<LabeledTree>>(
                  Status::IOError("injected transient reader error"))
            : source();
    if (!next.ok()) {
      if (!next.status().IsIOError()) return next.status();
      if (attempt >= retry.max_attempts) {
        gave_up_metric->Increment();
        return next.status();
      }
      ++attempt;
      retries_metric->Increment();
      std::this_thread::sleep_for(backoff);
      backoff = std::chrono::milliseconds(std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(backoff.count()) *
                                  retry.backoff_multiplier)));
      continue;
    }
    attempt = 1;
    backoff = retry.initial_backoff;
    if (!next.value().has_value()) return Status::OK();
    SKETCHTREE_RETURN_NOT_OK(Add(std::move(*next.value())));
  }
}

Result<SketchTree> ParallelIngester::SnapshotShards() {
  if (state_->finished) {
    return Status::InvalidArgument("SnapshotShards after Finish");
  }
  // Consistent cut: with the producer paused (our caller), wait until
  // the workers have applied every enqueued tree. The acquire loads
  // pair with the workers' release increments, making each shard's last
  // Update visible before we copy it; afterwards the workers sit
  // blocked in Pop and do not touch their sketches.
  const uint64_t enqueued =
      state_->trees_enqueued.load(std::memory_order_relaxed);
  uint64_t applied = 0;
  do {
    applied = 0;
    for (const auto& shard : state_->shards) {
      applied += shard->trees.load(std::memory_order_acquire);
    }
    if (applied < enqueued) std::this_thread::yield();
  } while (applied < enqueued);
  SketchTree merged = state_->shards[0]->sketch;
  for (size_t t = 1; t < state_->shards.size(); ++t) {
    SKETCHTREE_RETURN_NOT_OK(merged.Merge(state_->shards[t]->sketch));
  }
  return merged;
}

Result<SketchTree> ParallelIngester::Finish() {
  if (state_->finished) {
    return Status::InvalidArgument("Finish already called");
  }
  state_->finished = true;
  state_->queue.Close();
  for (auto& shard : state_->shards) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Reconcile before merging: every enqueued tree must have reached
  // exactly one shard's SketchTree::Update. A mismatch (or an Add the
  // queue rejected) means part of the stream was dropped and the
  // combined synopsis would silently under-count.
  const uint64_t rejected =
      state_->rejected_adds.load(std::memory_order_relaxed);
  if (rejected > 0) {
    return Status::Internal(
        std::to_string(rejected) +
        " Add call(s) were rejected by a closed queue; the stream is "
        "incomplete");
  }
  const uint64_t enqueued =
      state_->trees_enqueued.load(std::memory_order_relaxed);
  uint64_t ingested = trees_ingested();
  if (ingested != enqueued) {
    return Status::Internal(
        "ingest reconciliation failed: enqueued " +
        std::to_string(enqueued) + " trees but workers "
        "ingested " + std::to_string(ingested));
  }
  SketchTree combined = std::move(state_->shards[0]->sketch);
  for (size_t t = 1; t < state_->shards.size(); ++t) {
    SKETCHTREE_RETURN_NOT_OK(combined.Merge(state_->shards[t]->sketch));
  }
  return combined;
}

int ParallelIngester::num_threads() const {
  return static_cast<int>(state_->shards.size());
}

uint64_t ParallelIngester::trees_enqueued() const {
  return state_->trees_enqueued.load(std::memory_order_relaxed);
}

uint64_t ParallelIngester::trees_ingested() const {
  uint64_t total = 0;
  for (const auto& shard : state_->shards) {
    total += shard->trees.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<ShardIngestStats> ParallelIngester::ShardStats() const {
  std::vector<ShardIngestStats> stats;
  stats.reserve(state_->shards.size());
  for (const auto& shard : state_->shards) {
    stats.push_back({shard->trees.load(std::memory_order_relaxed),
                     shard->patterns.load(std::memory_order_relaxed)});
  }
  return stats;
}

}  // namespace sketchtree
