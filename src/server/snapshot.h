#ifndef SKETCHTREE_SERVER_SNAPSHOT_H_
#define SKETCHTREE_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "common/status.h"
#include "common/timer.h"
#include "core/sketch_tree.h"

namespace sketchtree {

/// One immutable, epoch-stamped copy of the synopsis. Published once and
/// never written again, so any number of reader threads may estimate
/// against it concurrently without synchronization: the estimator
/// (core/estimate_plan.h) only reads a const VirtualStreams.
struct SketchSnapshot {
  uint64_t epoch = 0;
  /// Stream position the snapshot corresponds to, for staleness
  /// reporting (`trees` in every wire reply).
  uint64_t trees_processed = 0;
  /// NowNanos() at publish — the stats op's epoch-age field, so one
  /// scrape shows how stale the served snapshot is.
  uint64_t published_ns = 0;
  SketchTree sketch;

  SketchSnapshot(uint64_t epoch_in, SketchTree sketch_in)
      : epoch(epoch_in),
        trees_processed(sketch_in.Stats().trees_processed),
        published_ns(NowNanos()),
        sketch(std::move(sketch_in)) {}
};

/// Epoch-published snapshot exchange between one ingest thread and many
/// query threads. The writer periodically produces an isolated copy of
/// the live synopsis (a plain SketchTree copy — the same consistent cut
/// a build checkpoint takes) and swaps it in; readers grab the current
/// shared_ptr under a briefly-held mutex and then estimate lock-free.
/// Staleness is bounded by how often the writer publishes (the serve
/// command's --publish-every knob).
class SnapshotPublisher {
 public:
  /// Swaps in `sketch` as the new current snapshot and returns its
  /// epoch (monotonically increasing from 1).
  uint64_t Publish(SketchTree sketch);

  /// Publishes an independent copy of `live`, leaving `live` untouched
  /// — the writer-side helper for a single-threaded ingest loop. The
  /// copy is exact, so estimates against the snapshot equal estimates
  /// against the live synopsis frozen at this instant. Never fails; the
  /// Result is kept for callers that treat publishing as fallible.
  Result<uint64_t> PublishCopyOf(const SketchTree& live);

  /// The most recently published snapshot, or nullptr before the first
  /// Publish. The returned snapshot stays valid (shared ownership) even
  /// after newer epochs are published.
  std::shared_ptr<const SketchSnapshot> Current() const;

  /// Epoch of the current snapshot (0 before the first Publish).
  uint64_t current_epoch() const;

  /// Makes the next Publish stamp epoch `next` (must exceed every epoch
  /// published so far). A server warm-restarting from a synopsis store
  /// calls this with the store's newest epoch + 1, so epoch numbering
  /// survives the restart and clients never see it run backwards.
  void SetNextEpoch(uint64_t next);

  /// Keeps the last `epochs` published snapshots alive (0 disables, the
  /// default). Retention copies nothing — a snapshot is immutable, so
  /// the ring holds references — but each retained epoch keeps its
  /// synopsis in memory. The server does not enable it; a caller that
  /// wants recent epochs kept readable through RetainedFor does.
  void RetainPlanes(size_t epochs);

  /// The retained snapshot of `epoch`, or nullptr if retention is off or
  /// the epoch has aged out of the ring.
  std::shared_ptr<const SketchSnapshot> RetainedFor(uint64_t epoch) const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const SketchSnapshot> current_;
  uint64_t next_epoch_ = 1;
  size_t retain_epochs_ = 0;
  std::deque<std::shared_ptr<const SketchSnapshot>> retained_;
};

}  // namespace sketchtree

#endif  // SKETCHTREE_SERVER_SNAPSHOT_H_
