#ifndef SKETCHTREE_SKETCH_SKETCH_ARRAY_H_
#define SKETCHTREE_SKETCH_SKETCH_ARRAY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hashing/kwise.h"

namespace sketchtree {

/// The boosted s1 × s2 grid of iid AMS sketch instances (Section 3.1):
/// s1 controls accuracy (instances are averaged), s2 controls confidence
/// (averages are median-selected). Instance (i, j) — i in [0, s2),
/// j in [0, s1) — has its own seed derived from `base_seed`, so two
/// SketchArrays built with the same base seed have identical xi families
/// (the virtual-stream sharing of Section 5.3). The coefficients are
/// immutable once drawn, so copies share one matrix by reference count:
/// a copy costs one counter plane, not a re-derivation of the xi
/// families, and every copy of an array has the same xi by construction.
///
/// Storage is structure-of-arrays: one contiguous counter plane holding
/// every instance's projection X, and one contiguous coefficient matrix
/// holding every instance's xi-polynomial coefficients, laid out
/// coefficient-major so the batched update kernel's inner loop walks a
/// contiguous run of coefficients across all instances. This replaces the
/// earlier one-heap-allocation-per-instance layout, whose pointer chase
/// per instance dominated the per-pattern update cost.
class SketchArray {
 public:
  SketchArray(int s1, int s2, int independence, uint64_t base_seed);

  // Moves keep `read_` valid without fixup: a vector move transfers the
  // heap buffer, so an owned read pointer still points at the (now
  // moved-to) plane, and an external one stays external. Copies must
  // re-point an owned read pointer at the copied plane; they share the
  // coefficient matrix and start with no Horner scratch (the scalar
  // kernel allocates it on first use).
  SketchArray(SketchArray&&) = default;
  SketchArray& operator=(SketchArray&&) = default;
  SketchArray(const SketchArray& other)
      : s1_(other.s1_),
        s2_(other.s2_),
        independence_(other.independence_),
        counters_(other.counters_),
        coeffs_(other.coeffs_),
        read_(other.counters_external() ? other.read_ : counters_.data()) {}
  SketchArray& operator=(const SketchArray& other) {
    if (this != &other) *this = SketchArray(other);
    return *this;
  }

  int s1() const { return s1_; }
  int s2() const { return s2_; }
  int independence() const { return independence_; }

  /// Adds `weight` occurrences of `v` to every instance (Algorithm 1's
  /// inner double loop). Negative weight deletes (turnstile, Section 3).
  void Update(uint64_t v, double weight = 1.0) { UpdateBatch({&v, 1}, weight); }

  /// Adds `weight` occurrences of every value in `values` to every
  /// instance. Bit-identical to calling Update(v, weight) for each value
  /// in order — each counter receives exactly the same sequence of ±weight
  /// additions — but evaluates the Horner recurrence across all instances
  /// in a tight loop over the contiguous coefficient matrix.
  void UpdateBatch(std::span<const uint64_t> values, double weight = 1.0);

  /// Instance (i, j)'s projection value X. Reads through `read_`, which
  /// points either at the owned plane or at an attached external one
  /// (an mmap'd snapshot page) — the estimate path is identical either
  /// way, which is what makes mapped and deserialized snapshots produce
  /// bit-identical answers.
  double value(int i, int j) const { return read_[Index(i, j)]; }

  /// Overwrites instance (i, j)'s X directly — used by synopsis
  /// deserialization and merging (the xi families are rebuilt from the
  /// seed, so the counter plane is the whole mutable state).
  void set_value(int i, int j, double x) {
    EnsureOwnedCounters();
    counters_[Index(i, j)] = x;
  }

  /// The counter plane as a contiguous row-major array of s2*s1 doubles
  /// — the unit the paged snapshot store pages out and maps back in.
  const double* counter_data() const { return read_; }
  size_t counter_count() const { return counters_.size(); }

  /// Points the read path at an external, caller-owned plane of s2*s1
  /// doubles (a counter block inside a memory-mapped snapshot). The
  /// array becomes a read-only view: any subsequent write (Update,
  /// set_value, bulk load) first copies the external plane into owned
  /// storage, so attached storage is never written through. The caller
  /// keeps `external` alive (and unchanged) for as long as the array —
  /// or anything moved from it — may read.
  void AttachCounters(const double* external) { read_ = external; }

  /// True when reads come from caller-owned storage (AttachCounters).
  bool counters_external() const { return read_ != counters_.data(); }

  /// Copy-on-write seam: materializes an attached external plane into
  /// the owned vector so writes cannot touch mapped memory.
  void EnsureOwnedCounters() {
    if (counters_external()) {
      std::copy(read_, read_ + counters_.size(), counters_.begin());
      read_ = counters_.data();
    }
  }

  /// The ±1 variable xi_v of instance (i, j). Not stored — recomputed
  /// from the coefficient matrix during query processing, exactly as the
  /// paper prescribes.
  int Xi(int i, int j, uint64_t v) const;

  /// Point estimate of the frequency of `v` (the xi_v * X estimator with
  /// average/median boosting, Algorithm 2 with a single query value).
  double EstimatePoint(uint64_t v) const;

  /// Actual memory footprint: counter plane plus the materialized
  /// coefficient matrix (`independence` 64-bit coefficients per
  /// instance), in bytes. The matrix is shared by every copy of this
  /// array, so a holder of several copies counts CoefficientBytes once.
  size_t MemoryBytes() const;
  size_t CoefficientBytes() const {
    return coeffs_->size() * sizeof(uint64_t);
  }

  /// The paper's Section 7.5 accounting — one counter plus one 64-bit
  /// seed per instance, treating xi variables as recomputed-not-stored.
  /// Benches reproducing the paper's KB figures report this one.
  size_t PaperMemoryBytes() const;

 private:
  size_t Index(int i, int j) const {
    return static_cast<size_t>(i) * s1_ + j;
  }
  size_t num_instances() const { return counters_.size(); }

  int s1_;
  int s2_;
  int independence_;
  std::vector<double> counters_;  // Row-major counter plane: [i * s1 + j].
  /// Coefficient-major xi coefficients: (*coeffs_)[c * n + inst] is
  /// instance inst's degree-c coefficient (n = s1 * s2 instances).
  /// Immutable, shared by every copy of the array.
  std::shared_ptr<const std::vector<uint64_t>> coeffs_;
  std::vector<uint64_t> scratch_;  // Horner accumulators, one per instance.
  /// Where value() reads from: counters_.data() (owned) or an attached
  /// external plane (a mapped snapshot's counter block).
  const double* read_ = nullptr;
};

/// Average-of-s1 / median-of-s2 boosting over arbitrary per-instance
/// estimates: `per_instance(i, j)` returns instance (i, j)'s estimate.
/// This is the reusable core of Algorithm 2 — point, sum, product, and
/// general expression estimators all differ only in the per-instance
/// term. Templated on the callable so the estimate path pays no
/// std::function indirection.
template <typename PerInstance>
double BoostedEstimate(int s1, int s2, PerInstance&& per_instance) {
  std::vector<double> medians;
  medians.reserve(s2);
  for (int i = 0; i < s2; ++i) {
    double sum = 0.0;
    for (int j = 0; j < s1; ++j) sum += per_instance(i, j);
    medians.push_back(sum / s1);
  }
  size_t mid = medians.size() / 2;
  std::nth_element(medians.begin(), medians.begin() + mid, medians.end());
  if (medians.size() % 2 == 1) return medians[mid];
  // Even s2: average the two middle values for a symmetric median.
  double upper = medians[mid];
  double lower = *std::max_element(medians.begin(), medians.begin() + mid);
  return 0.5 * (lower + upper);
}

}  // namespace sketchtree

#endif  // SKETCHTREE_SKETCH_SKETCH_ARRAY_H_
