#ifndef SKETCHTREE_CORE_ESTIMATE_PLAN_H_
#define SKETCHTREE_CORE_ESTIMATE_PLAN_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "query/expression.h"
#include "stream/virtual_streams.h"
#include "tree/labeled_tree.h"

namespace sketchtree {

/// The one estimator of the synopsis (Algorithm 2 with the Section 5.2
/// compensation and the Section 5.3 sketch addition), split into the
/// three stages every caller shares:
///
///  1. *plan* — map the query patterns, check the estimator's
///     preconditions, and pre-aggregate the xi variables
///     (PlanSum / PlanExpression). Depends only on the query and the
///     synopsis options, so plans are cached and persisted;
///  2. *project* — per instance (i, j), the combined projection X(i,j)
///     over the streams the query hits plus the top-k compensation
///     (ComputeProjectionMatrix). The only step that reads counters;
///  3. *finish* — multiply in the plan's xi data and boost
///     (FinishSum / FinishExpression).
///
/// SketchTree::Estimate*, the compiled plans of the query service and
/// the cluster coordinator (which sums shard projection matrices before
/// finishing) all run exactly these functions, so their answers are
/// bit-identical by construction.

/// Maps one query pattern to its canonical value, or fails with the
/// caller's validation error (see ValidateQueryPattern).
using PatternMapFn = std::function<Result<uint64_t>(const LabeledTree&)>;

/// Precomputed single-sum estimator plan over a fixed set of pattern
/// values (Theorem 2's estimator):
///
///  * `residues`: the distinct virtual streams the values hit, in
///    first-appearance order (the order their sketches are summed in);
///  * `xi_sums[i*s1+j]`: instance (i,j)'s sum of xi over the values.
///    xi is ±1, so the sums are exact integers.
struct SumPlan {
  std::vector<uint64_t> values;
  std::vector<uint32_t> residues;
  std::vector<double> xi_sums;  // s2 * s1, indexed [i * s1 + j].
};

/// One expanded product term coeff * prod COUNT_ord(P) of a count
/// expression: its mapped values, m!, and the per-instance xi product
/// (±1, exact).
struct ExprTermPlan {
  double coeff = 1.0;
  std::vector<uint64_t> values;
  double m_factorial = 1.0;
  std::vector<double> xi_prods;  // s2 * s1, indexed [i * s1 + j].
};

/// A count expression's plan: the combined projection set of Section
/// 5.3 — every term's values concatenated in term order (`xi_sums` is
/// unused) — plus the per-term xi data.
struct ExpressionPlan {
  SumPlan projection;
  std::vector<ExprTermPlan> terms;
};

/// Builds the sum plan for `values` against the xi families and stream
/// count of `streams`. Performs no precondition checks.
SumPlan BuildSumPlan(const VirtualStreams& streams,
                     std::vector<uint64_t> values);

/// Plans the sum estimator over `patterns`: rejects an empty set, maps
/// every pattern through `map`, and requires the values to be distinct
/// (Section 3.2).
Result<SumPlan> PlanSum(const VirtualStreams& streams,
                        std::span<const LabeledTree> patterns,
                        const PatternMapFn& map);

/// Plans a count expression (Section 4): checks that the xi families'
/// independence supports the highest product degree (Appendix C), maps
/// every term's patterns through `map`, and requires each product
/// term's patterns to be distinct.
Result<ExpressionPlan> PlanExpression(const VirtualStreams& streams,
                                      const CountExpression& expression,
                                      const PatternMapFn& map);

/// The per-instance combined projection X(i,j) for `values`, row-major
/// [i * s1 + j]: the counters of the values' distinct residues summed
/// in first-appearance order, plus the top-k compensation
/// d = sum xi_v * f_v over the distinct tracked values, in
/// first-appearance order. Each tracked frequency is looked up once per
/// call, not once per instance. Every entry is an exact integer (the
/// counters are ±1 sums below 2^53), which is what lets the cluster
/// coordinator sum these matrices across shards elementwise and finish
/// them as if they came from the merged synopsis.
std::vector<double> ComputeProjectionMatrix(
    const VirtualStreams& streams, const std::vector<uint64_t>& values);

/// The same matrix for a plan, reusing its precomputed residues.
std::vector<double> ComputeProjectionMatrix(const VirtualStreams& streams,
                                            const SumPlan& plan);

/// Finishes the sum estimator: boosts X(i,j) * xi_sums(i,j).
double FinishSum(const SumPlan& plan, const std::vector<double>& x, int s1,
                 int s2);

/// Finishes the expression estimator: boosts, per instance,
/// sum_t coeff_t * X^{m_t} / m_t! * prod(xi) over the terms.
double FinishExpression(const std::vector<ExprTermPlan>& terms,
                        const std::vector<double>& x, int s1, int s2);

/// Project-then-finish on one synopsis.
double ExecuteSum(const SumPlan& plan, const VirtualStreams& streams);
double ExecuteExpression(const SumPlan& projection,
                         const std::vector<ExprTermPlan>& terms,
                         const VirtualStreams& streams);

}  // namespace sketchtree

#endif  // SKETCHTREE_CORE_ESTIMATE_PLAN_H_
