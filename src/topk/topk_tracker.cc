#include "topk/topk_tracker.h"

#include <algorithm>

#include "metrics/metrics.h"

namespace sketchtree {

namespace {

struct TopKMetrics {
  Counter* evictions;  // Minimum evicted to admit a more frequent value.
  Counter* untracks;   // Every removal from H/L (evictions included).
};

TopKMetrics& Metrics() {
  static TopKMetrics metrics{
      GlobalMetrics().GetCounter("topk.evictions"),
      GlobalMetrics().GetCounter("topk.untracks"),
  };
  return metrics;
}

}  // namespace

void TopKTracker::Process(uint64_t v) {
  if (capacity_ == 0) return;

  // Lines 1–7: if v is already tracked, add its deleted instances back so
  // the estimate below sees the full stream for v.
  auto it = frequencies_.find(v);
  if (it != frequencies_.end()) {
    Untrack(v, it->second);
  }

  // Line 8: estimate v's frequency from the (now v-complete) sketches.
  double est = array_->EstimatePoint(v);

  // Lines 9–14: track v if its estimate is positive and beats the current
  // minimum (or there is room).
  if (est <= 0.0) return;
  bool full = frequencies_.size() >= capacity_;
  if (full) {
    auto root = heap_.begin();
    if (est <= root->first) return;  // Not frequent enough.
    // Lines 11–13: evict the minimum, restoring its instances.
    uint64_t evicted = root->second;
    double evicted_freq = root->first;
    Untrack(evicted, evicted_freq);
    Metrics().evictions->Increment();
  }

  // Lines 14–18: insert v and delete est instances of it from the stream.
  frequencies_.emplace(v, est);
  heap_.emplace(est, v);
  array_->Update(v, -est);
}

void TopKTracker::Untrack(uint64_t v, double freq) {
  array_->Update(v, +freq);
  heap_.erase({freq, v});
  frequencies_.erase(v);
  Metrics().untracks->Increment();
}

Status TopKTracker::RestoreTracked(uint64_t v, double freq) {
  if (frequencies_.size() >= capacity_) {
    return Status::OutOfRange("RestoreTracked: tracker already full");
  }
  if (!frequencies_.emplace(v, freq).second) {
    return Status::InvalidArgument("RestoreTracked: value already tracked");
  }
  heap_.emplace(freq, v);
  return Status::OK();
}

std::vector<std::pair<uint64_t, double>> TopKTracker::SortedTracked() const {
  std::vector<std::pair<uint64_t, double>> entries(frequencies_.begin(),
                                                   frequencies_.end());
  std::sort(entries.begin(), entries.end());
  return entries;
}

size_t TopKTracker::MemoryBytes() const {
  // Per tracked value: (value, frequency) in L and (frequency, value) in
  // H — 2 * (8 + 8) bytes of payload.
  return frequencies_.size() * 2 * (sizeof(uint64_t) + sizeof(double));
}

}  // namespace sketchtree
