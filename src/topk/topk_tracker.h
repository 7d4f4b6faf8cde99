#ifndef SKETCHTREE_TOPK_TOPK_TRACKER_H_
#define SKETCHTREE_TOPK_TOPK_TRACKER_H_

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sketch/sketch_array.h"

namespace sketchtree {

/// Tracks the top-k most frequent 1-D values of a stream and *removes*
/// their instances from the AMS sketches (Section 5.2, Algorithm 4).
/// Deleting high-frequency values shrinks the stream's self-join size,
/// which Theorems 1–2 tie directly to estimation error — this is the
/// paper's main memory/accuracy lever.
///
/// Invariant (the paper's "delete condition"), checked by tests: if value
/// v is tracked with frequency f_v, then exactly f_v instances of v have
/// been subtracted from every sketch instance. Query processing must
/// therefore compensate: for tracked query values, xi_q * f_q is added
/// back to each instance's X (TrackedFrequency exposes f_q for that).
class TopKTracker {
 public:
  /// `array` must outlive the tracker. `capacity` is the paper's top-k
  /// size parameter.
  TopKTracker(size_t capacity, SketchArray* array)
      : capacity_(capacity), array_(array) {}

  /// Copies `other`'s tracked entries into a tracker over `array` — the
  /// copy of the array `other` tracks. There is no plain copy: a copied
  /// tracker would keep deleting from the source's sketches.
  TopKTracker(const TopKTracker& other, SketchArray* array)
      : capacity_(other.capacity_),
        array_(array),
        frequencies_(other.frequencies_),
        heap_(other.heap_) {}
  TopKTracker(const TopKTracker&) = delete;
  TopKTracker& operator=(const TopKTracker&) = delete;
  TopKTracker(TopKTracker&&) = default;
  TopKTracker& operator=(TopKTracker&&) = default;

  /// Algorithm 4: called with a value after the sketches were updated
  /// with it. May re-estimate, evict, and delete instances from the
  /// sketches.
  void Process(uint64_t v);

  /// Frequency stored for `v` if it is currently tracked.
  std::optional<double> TrackedFrequency(uint64_t v) const {
    auto it = frequencies_.find(v);
    if (it == frequencies_.end()) return std::nullopt;
    return it->second;
  }

  size_t size() const { return frequencies_.size(); }
  size_t capacity() const { return capacity_; }

  /// Smallest tracked frequency (Root(H)); nullopt when empty.
  std::optional<double> MinFrequency() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.begin()->first;
  }

  const std::unordered_map<uint64_t, double>& tracked() const {
    return frequencies_;
  }

  /// The tracked entries in ascending value order. The hash map's
  /// iteration order depends on its insertion history, so anything whose
  /// result depends on entry order (serialized bytes, the floating-point
  /// sums of a merge) walks this instead: it is a pure function of the
  /// tracked contents.
  std::vector<std::pair<uint64_t, double>> SortedTracked() const;

  /// Bytes for the heap H and the list/map L (paper's memory accounting).
  size_t MemoryBytes() const;

  /// Re-inserts a tracked entry during synopsis deserialization WITHOUT
  /// touching the sketches (the restored counters already reflect the
  /// deletion). Fails if v is already tracked or capacity is exceeded.
  Status RestoreTracked(uint64_t v, double freq);

  /// Drops every tracked entry WITHOUT touching the sketches — the
  /// companion to RestoreTracked, run before meta state is loaded.
  void ClearTracked() {
    frequencies_.clear();
    heap_.clear();
  }

 private:
  /// Removes v from H and L, adding its f_v instances back to the
  /// sketches (restores the pre-tracking state for v).
  void Untrack(uint64_t v, double freq);

  size_t capacity_;
  SketchArray* array_;
  // L: tracked value -> estimated frequency. H: min-heap over the same
  // entries (ordered multiset; begin() is the root).
  std::unordered_map<uint64_t, double> frequencies_;
  std::set<std::pair<double, uint64_t>> heap_;
};

}  // namespace sketchtree

#endif  // SKETCHTREE_TOPK_TOPK_TRACKER_H_
