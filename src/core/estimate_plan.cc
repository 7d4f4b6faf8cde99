#include "core/estimate_plan.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "sketch/estimators.h"
#include "sketch/sketch_array.h"

namespace sketchtree {

namespace {

/// Distinct residues of `values` in first-appearance order — the order
/// the stream sketches are summed in, part of the bit-exactness
/// contract.
std::vector<uint32_t> DistinctResidues(const VirtualStreams& streams,
                                       const std::vector<uint64_t>& values) {
  std::vector<bool> seen(streams.options().num_streams, false);
  std::vector<uint32_t> residues;
  for (uint64_t v : values) {
    uint32_t r = streams.ResidueOf(v);
    if (seen[r]) continue;
    seen[r] = true;
    residues.push_back(r);
  }
  return residues;
}

Result<std::vector<uint64_t>> MapPatterns(
    std::span<const LabeledTree> patterns, const PatternMapFn& map) {
  std::vector<uint64_t> values;
  values.reserve(patterns.size());
  for (const LabeledTree& pattern : patterns) {
    SKETCHTREE_ASSIGN_OR_RETURN(uint64_t value, map(pattern));
    values.push_back(value);
  }
  return values;
}

bool HasDuplicate(std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  return std::adjacent_find(values.begin(), values.end()) != values.end();
}

/// The single per-instance projection loop. Cells are independent, so
/// walking residue-major performs, per cell, exactly the additions of a
/// cell-by-cell loop in the same order: residues first, then the
/// compensation of each distinct tracked value.
std::vector<double> Project(const VirtualStreams& streams,
                            const std::vector<uint32_t>& residues,
                            const std::vector<uint64_t>& values) {
  // The tracked set does not depend on the instance — only xi does — so
  // each value's tracked frequency is looked up once. A value repeated
  // across expression terms is compensated once: its instances were
  // deleted from the sketch once.
  std::vector<std::pair<uint64_t, double>> tracked;
  if (streams.topk(0) != nullptr) {
    std::unordered_set<uint64_t> compensated;
    for (uint64_t v : values) {
      std::optional<double> freq =
          streams.topk(streams.ResidueOf(v))->TrackedFrequency(v);
      if (freq.has_value() && compensated.insert(v).second) {
        tracked.emplace_back(v, *freq);
      }
    }
  }
  const int s1 = streams.s1();
  const int s2 = streams.s2();
  const size_t cells = static_cast<size_t>(s1) * s2;
  std::vector<double> x(cells, 0.0);
  for (uint32_t r : residues) {
    const double* counters = streams.array(r).counter_data();
    for (size_t c = 0; c < cells; ++c) x[c] += counters[c];
  }
  for (const auto& [v, freq] : tracked) {
    for (int i = 0; i < s2; ++i) {
      for (int j = 0; j < s1; ++j) {
        x[static_cast<size_t>(i) * s1 + j] += streams.Xi(i, j, v) * freq;
      }
    }
  }
  return x;
}

}  // namespace

SumPlan BuildSumPlan(const VirtualStreams& streams,
                     std::vector<uint64_t> values) {
  SumPlan plan;
  plan.values = std::move(values);
  plan.residues = DistinctResidues(streams, plan.values);
  const int s1 = streams.s1();
  const int s2 = streams.s2();
  plan.xi_sums.resize(static_cast<size_t>(s1) * s2);
  for (int i = 0; i < s2; ++i) {
    for (int j = 0; j < s1; ++j) {
      // xi is ±1 so the running sum is an exact small integer,
      // independent of summation order.
      double sum = 0.0;
      for (uint64_t v : plan.values) sum += streams.Xi(i, j, v);
      plan.xi_sums[static_cast<size_t>(i) * s1 + j] = sum;
    }
  }
  return plan;
}

Result<SumPlan> PlanSum(const VirtualStreams& streams,
                        std::span<const LabeledTree> patterns,
                        const PatternMapFn& map) {
  if (patterns.empty()) {
    return Status::InvalidArgument("empty query set");
  }
  SKETCHTREE_ASSIGN_OR_RETURN(std::vector<uint64_t> values,
                              MapPatterns(patterns, map));
  if (HasDuplicate(values)) {
    return Status::InvalidArgument(
        "sum estimator requires distinct patterns (Section 3.2)");
  }
  return BuildSumPlan(streams, std::move(values));
}

Result<ExpressionPlan> PlanExpression(const VirtualStreams& streams,
                                      const CountExpression& expression,
                                      const PatternMapFn& map) {
  const int independence = streams.options().independence;
  if (2 * expression.MaxDegree() > independence) {
    return Status::InvalidArgument(
        "expression has a degree-" + std::to_string(expression.MaxDegree()) +
        " product but independence=" + std::to_string(independence) +
        " only supports degree " + std::to_string(independence / 2) +
        " (Appendix C needs 2m-wise xi variables)");
  }
  const int s1 = streams.s1();
  const int s2 = streams.s2();
  ExpressionPlan plan;
  std::vector<uint64_t> all_values;
  for (const ExprTerm& term : expression.terms()) {
    ExprTermPlan term_plan;
    term_plan.coeff = term.coeff;
    SKETCHTREE_ASSIGN_OR_RETURN(term_plan.values,
                                MapPatterns(term.patterns, map));
    // xi_q^2 == 1 would bias the product estimator.
    if (HasDuplicate(term_plan.values)) {
      return Status::InvalidArgument(
          "a product term repeats a pattern; terminals must be distinct "
          "(Section 4)");
    }
    term_plan.m_factorial = Factorial(term.degree());
    term_plan.xi_prods.resize(static_cast<size_t>(s1) * s2);
    for (int i = 0; i < s2; ++i) {
      for (int j = 0; j < s1; ++j) {
        double xi_prod = 1.0;
        for (uint64_t v : term_plan.values) xi_prod *= streams.Xi(i, j, v);
        term_plan.xi_prods[static_cast<size_t>(i) * s1 + j] = xi_prod;
      }
    }
    all_values.insert(all_values.end(), term_plan.values.begin(),
                      term_plan.values.end());
    plan.terms.push_back(std::move(term_plan));
  }
  plan.projection = BuildSumPlan(streams, std::move(all_values));
  return plan;
}

std::vector<double> ComputeProjectionMatrix(
    const VirtualStreams& streams, const std::vector<uint64_t>& values) {
  return Project(streams, DistinctResidues(streams, values), values);
}

std::vector<double> ComputeProjectionMatrix(const VirtualStreams& streams,
                                            const SumPlan& plan) {
  return Project(streams, plan.residues, plan.values);
}

double FinishSum(const SumPlan& plan, const std::vector<double>& x, int s1,
                 int s2) {
  return BoostedEstimate(s1, s2, [&](int i, int j) {
    const size_t c = static_cast<size_t>(i) * s1 + j;
    return x[c] * plan.xi_sums[c];
  });
}

double FinishExpression(const std::vector<ExprTermPlan>& terms,
                        const std::vector<double>& x, int s1, int s2) {
  // One boosted pass over the whole expression: per instance,
  // E'' = sum_t coeff_t * X^{m_t} / m_t! * prod(xi), where X is the
  // single combined projection over all query trees of the expression
  // (Section 5.3).
  return BoostedEstimate(s1, s2, [&](int i, int j) {
    const size_t c = static_cast<size_t>(i) * s1 + j;
    double value = 0.0;
    for (const ExprTermPlan& term : terms) {
      double x_pow = 1.0;
      for (size_t e = 0; e < term.values.size(); ++e) x_pow *= x[c];
      value += term.coeff * x_pow / term.m_factorial * term.xi_prods[c];
    }
    return value;
  });
}

double ExecuteSum(const SumPlan& plan, const VirtualStreams& streams) {
  return FinishSum(plan, ComputeProjectionMatrix(streams, plan), streams.s1(),
                   streams.s2());
}

double ExecuteExpression(const SumPlan& projection,
                         const std::vector<ExprTermPlan>& terms,
                         const VirtualStreams& streams) {
  return FinishExpression(terms, ComputeProjectionMatrix(streams, projection),
                          streams.s1(), streams.s2());
}

}  // namespace sketchtree
