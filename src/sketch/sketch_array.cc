#include "sketch/sketch_array.h"

#include <cassert>

#include "common/rng.h"
#include "sketch/kernel_dispatch.h"

namespace sketchtree {

SketchArray::SketchArray(int s1, int s2, int independence, uint64_t base_seed)
    : s1_(s1), s2_(s2), independence_(independence) {
  assert(s1 >= 1 && s2 >= 1 && independence >= 2);
  const size_t n = static_cast<size_t>(s1) * s2;
  counters_.assign(n, 0.0);
  read_ = counters_.data();
  auto coeffs = std::make_shared<std::vector<uint64_t>>(
      static_cast<size_t>(independence) * n);
  // Instance inst = i * s1 + j draws its coefficients from the same PRNG
  // stream, in the same order, as a standalone KWiseHash seeded with
  // DeriveSeed(base_seed, inst) — so the xi families (and therefore every
  // estimate) are independent of the storage layout, and arrays sharing a
  // base seed keep identical xi variables instance-by-instance.
  for (size_t inst = 0; inst < n; ++inst) {
    Pcg64 rng(DeriveSeed(base_seed, inst), /*stream=*/0xC0FFEE);
    for (int c = 0; c < independence; ++c) {
      (*coeffs)[static_cast<size_t>(c) * n + inst] =
          rng.NextBounded(KWiseHash::kPrime);
    }
  }
  coeffs_ = std::move(coeffs);
}

void SketchArray::UpdateBatch(std::span<const uint64_t> values,
                              double weight) {
  constexpr uint64_t kPrime = KWiseHash::kPrime;
  const size_t n = num_instances();
  const uint64_t* coeffs = coeffs_->data();
  EnsureOwnedCounters();  // Never write through an attached (mapped) plane.
#ifdef SKETCHTREE_HAVE_AVX2_KERNEL
  // The AVX2 kernel applies exactly the same per-counter add sequence as
  // the scalar loop below (differential-tested), so dispatch never
  // changes a counter bit.
  if (ActiveSketchKernel() == SketchKernel::kAvx2) {
    sketch_internal::UpdateBatchAvx2(coeffs, n, independence_,
                                     values.data(), values.size(), weight,
                                     counters_.data());
    return;
  }
#endif
  scratch_.resize(n);
  uint64_t* acc = scratch_.data();
  double* counters = counters_.data();
  for (uint64_t v : values) {
    // Fold into the field once per value (injective on [0, kPrime), which
    // covers all degree-<=61 Rabin residues).
    const uint64_t x = v % kPrime;
    // Horner from the highest coefficient down, all instances in
    // lockstep: acc starts at c_{k-1} (the first recurrence step from 0
    // lands there), then k-1 rounds of acc = acc * x + c over contiguous
    // coefficient rows.
    const uint64_t* top = coeffs + static_cast<size_t>(independence_ - 1) * n;
    std::copy(top, top + n, acc);
    for (int c = independence_ - 2; c >= 0; --c) {
      const uint64_t* row = coeffs + static_cast<size_t>(c) * n;
      for (size_t t = 0; t < n; ++t) {
        uint64_t a = kwise_internal::MulMod(acc[t], x);
        a += row[t];
        if (a >= kPrime) a -= kPrime;
        acc[t] = a;
      }
    }
    // xi = ±1 from the low bit of h(v); counters move by weight * xi.
    for (size_t t = 0; t < n; ++t) {
      counters[t] += (acc[t] & 1) ? weight : -weight;
    }
  }
}

int SketchArray::Xi(int i, int j, uint64_t v) const {
  constexpr uint64_t kPrime = KWiseHash::kPrime;
  const size_t n = num_instances();
  const size_t inst = Index(i, j);
  const uint64_t x = v % kPrime;
  uint64_t acc = 0;
  for (int c = independence_ - 1; c >= 0; --c) {
    acc = kwise_internal::MulMod(acc, x);
    acc += (*coeffs_)[static_cast<size_t>(c) * n + inst];
    if (acc >= kPrime) acc -= kPrime;
  }
  return (acc & 1) ? +1 : -1;
}

double SketchArray::EstimatePoint(uint64_t v) const {
  return BoostedEstimate(s1_, s2_, [&](int i, int j) {
    return Xi(i, j, v) * value(i, j);
  });
}

size_t SketchArray::MemoryBytes() const {
  return counters_.size() * sizeof(double) + CoefficientBytes();
}

size_t SketchArray::PaperMemoryBytes() const {
  // One double counter plus one 64-bit seed per instance (the xi
  // variables counted as recomputed from the seed — Section 3.1).
  return counters_.size() * (sizeof(double) + sizeof(uint64_t));
}

}  // namespace sketchtree
