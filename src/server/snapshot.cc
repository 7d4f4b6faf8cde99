#include "server/snapshot.h"

#include "metrics/metrics.h"
#include "trace/trace.h"

namespace sketchtree {

uint64_t SnapshotPublisher::Publish(SketchTree sketch) {
  TRACE_SPAN("server.snapshot_publish");
  std::shared_ptr<const SketchSnapshot> snapshot;
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = next_epoch_++;
    snapshot = std::make_shared<const SketchSnapshot>(epoch,
                                                      std::move(sketch));
    current_ = std::move(snapshot);
    if (retain_epochs_ > 0) {
      retained_.push_back(current_);
      while (retained_.size() > retain_epochs_) retained_.pop_front();
    }
  }
  GlobalMetrics().GetCounter("server.snapshots_published")->Increment();
  GlobalMetrics()
      .GetGauge("server.snapshot_epoch")
      ->Set(static_cast<int64_t>(epoch));
  return epoch;
}

Result<uint64_t> SnapshotPublisher::PublishCopyOf(const SketchTree& live) {
  TRACE_SPAN("server.snapshot_copy");
  return Publish(SketchTree(live));
}

std::shared_ptr<const SketchSnapshot> SnapshotPublisher::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t SnapshotPublisher::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ == nullptr ? 0 : current_->epoch;
}

void SnapshotPublisher::SetNextEpoch(uint64_t next) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next > next_epoch_) next_epoch_ = next;
}

void SnapshotPublisher::RetainPlanes(size_t epochs) {
  std::lock_guard<std::mutex> lock(mu_);
  retain_epochs_ = epochs;
  while (retained_.size() > retain_epochs_) retained_.pop_front();
}

std::shared_ptr<const SketchSnapshot> SnapshotPublisher::RetainedFor(
    uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& retained : retained_) {
    if (retained->epoch == epoch) return retained;
  }
  return nullptr;
}

}  // namespace sketchtree
