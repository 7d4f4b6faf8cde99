#ifndef SKETCHTREE_TESTS_REFERENCE_ESTIMATOR_H_
#define SKETCHTREE_TESTS_REFERENCE_ESTIMATOR_H_

// A deliberately naive, test-only reference estimator: the paper's
// estimators written straight from their definitions (Sections 3.2, 4,
// 5.2, 5.3), with no plans, no hoisting and no precomputation. Every
// per-instance term is recomputed from scratch inside the boosting
// loop, through std::function providers.
//
// The production estimator (src/core/estimate_plan.h) is shared by
// SketchTree, the query service and the cluster coordinator, so
// comparing those with each other cannot catch an estimator bug. Tests
// compare them with this file instead. Both perform the same
// floating-point operations in the same order, so the comparison is
// EXPECT_EQ on doubles.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "core/sketch_tree.h"
#include "query/expression.h"
#include "sketch/estimators.h"
#include "sketch/sketch_array.h"
#include "stream/virtual_streams.h"

namespace sketchtree::reference {

/// Instance (i, j)'s projection value X, and its ±1 variable xi_v.
using XProvider = std::function<double(int i, int j)>;
using XiProvider = std::function<int(int i, int j, uint64_t v)>;

/// sum_j f_{v_j} for distinct values: X * (xi_{v_1} + ... + xi_{v_t}).
inline double EstimateSumGeneric(int s1, int s2,
                                 const std::vector<uint64_t>& values,
                                 const XiProvider& xi, const XProvider& x) {
  return BoostedEstimate(s1, s2, [&](int i, int j) {
    double xi_sum = 0.0;
    for (uint64_t v : values) xi_sum += xi(i, j, v);
    return x(i, j) * xi_sum;
  });
}

/// prod_j f_{v_j} for distinct values: X^m / m! * prod xi_{v_j}.
inline double EstimateProductGeneric(int s1, int s2,
                                     const std::vector<uint64_t>& values,
                                     const XiProvider& xi,
                                     const XProvider& x) {
  const int m = static_cast<int>(values.size());
  const double m_factorial = Factorial(m);
  return BoostedEstimate(s1, s2, [&](int i, int j) {
    double xi_prod = 1.0;
    for (uint64_t v : values) xi_prod *= xi(i, j, v);
    return std::pow(x(i, j), m) / m_factorial * xi_prod;
  });
}

/// Single-array forms: no virtual streams, no top-k compensation.
inline double EstimateSum(const SketchArray& array,
                          const std::vector<uint64_t>& values) {
  return EstimateSumGeneric(
      array.s1(), array.s2(), values,
      [&](int i, int j, uint64_t v) { return array.Xi(i, j, v); },
      [&](int i, int j) { return array.value(i, j); });
}

inline double EstimateProduct(const SketchArray& array,
                              const std::vector<uint64_t>& values) {
  return EstimateProductGeneric(
      array.s1(), array.s2(), values,
      [&](int i, int j, uint64_t v) { return array.Xi(i, j, v); },
      [&](int i, int j) { return array.value(i, j); });
}

/// Instance (i, j)'s combined projection for a query over `values`: X
/// summed over the distinct virtual streams the values land in (in
/// first-appearance order), plus the top-k compensation
/// d = sum xi_v * f_v over the distinct tracked values.
inline double CombinedX(const VirtualStreams& streams, int i, int j,
                        const std::vector<uint64_t>& values) {
  double x = 0.0;
  std::vector<uint32_t> seen;
  for (uint64_t v : values) {
    uint32_t r = streams.ResidueOf(v);
    if (std::find(seen.begin(), seen.end(), r) != seen.end()) continue;
    seen.push_back(r);
    x += streams.array(r).value(i, j);
  }
  if (streams.topk(0) != nullptr) {
    std::vector<uint64_t> compensated;
    for (uint64_t v : values) {
      if (std::find(compensated.begin(), compensated.end(), v) !=
          compensated.end()) {
        continue;
      }
      compensated.push_back(v);
      std::optional<double> freq =
          streams.topk(streams.ResidueOf(v))->TrackedFrequency(v);
      if (freq.has_value()) x += streams.Xi(i, j, v) * *freq;
    }
  }
  return x;
}

inline double EstimateSum(const VirtualStreams& streams,
                          const std::vector<uint64_t>& values) {
  return EstimateSumGeneric(
      streams.s1(), streams.s2(), values,
      [&](int i, int j, uint64_t v) { return streams.Xi(i, j, v); },
      [&](int i, int j) { return CombinedX(streams, i, j, values); });
}

inline double EstimatePoint(const VirtualStreams& streams, uint64_t v) {
  return EstimateSum(streams, {v});
}

inline double EstimateProduct(const VirtualStreams& streams,
                              const std::vector<uint64_t>& values) {
  return EstimateProductGeneric(
      streams.s1(), streams.s2(), values,
      [&](int i, int j, uint64_t v) { return streams.Xi(i, j, v); },
      [&](int i, int j) { return CombinedX(streams, i, j, values); });
}

/// One expanded product term coeff * prod COUNT_ord(v) of an expression.
struct Term {
  double coeff = 1.0;
  std::vector<uint64_t> values;
};

/// A count expression (Section 4): per instance,
/// sum_t coeff_t * X^{m_t} / m_t! * prod(xi), with X the combined
/// projection over every term's values (Section 5.3).
inline double EstimateExpression(const VirtualStreams& streams,
                                 const std::vector<Term>& terms) {
  std::vector<uint64_t> all_values;
  for (const Term& term : terms) {
    all_values.insert(all_values.end(), term.values.begin(),
                      term.values.end());
  }
  return BoostedEstimate(streams.s1(), streams.s2(), [&](int i, int j) {
    const double x = CombinedX(streams, i, j, all_values);
    double value = 0.0;
    for (const Term& term : terms) {
      double xi_prod = 1.0;
      for (uint64_t v : term.values) xi_prod *= streams.Xi(i, j, v);
      double x_pow = 1.0;
      for (size_t e = 0; e < term.values.size(); ++e) x_pow *= x;
      value += term.coeff * x_pow /
               Factorial(static_cast<int>(term.values.size())) * xi_prod;
    }
    return value;
  });
}

/// The sum estimator over `patterns`, mapped with `sketch`'s mapping.
inline double EstimatePatternSum(SketchTree& sketch,
                                 const std::vector<LabeledTree>& patterns) {
  std::vector<uint64_t> values;
  for (const LabeledTree& pattern : patterns) {
    values.push_back(sketch.MapPattern(pattern));
  }
  return EstimateSum(sketch.streams(), values);
}

/// The expression `text`, mapped with `sketch`'s mapping.
inline double EstimateExpression(SketchTree& sketch, std::string_view text) {
  const CountExpression expression = CountExpression::Parse(text).value();
  std::vector<Term> terms;
  for (const ExprTerm& term : expression.terms()) {
    Term mapped{term.coeff, {}};
    for (const LabeledTree& pattern : term.patterns) {
      mapped.values.push_back(sketch.MapPattern(pattern));
    }
    terms.push_back(std::move(mapped));
  }
  return EstimateExpression(sketch.streams(), terms);
}

}  // namespace sketchtree::reference

#endif  // SKETCHTREE_TESTS_REFERENCE_ESTIMATOR_H_
