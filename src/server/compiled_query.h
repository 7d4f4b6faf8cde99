#ifndef SKETCHTREE_SERVER_COMPILED_QUERY_H_
#define SKETCHTREE_SERVER_COMPILED_QUERY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/estimate_plan.h"
#include "enumtree/pattern.h"
#include "query/expression.h"
#include "query/extended_query.h"
#include "server/snapshot.h"
#include "tree/labeled_tree.h"

namespace sketchtree {

/// The four query shapes the service answers.
enum class QueryKind {
  kOrdered,     // COUNT_ord(Q): point estimate of one pattern.
  kUnordered,   // COUNT(Q): sum over Q's ordered arrangements.
  kExtended,    // COUNT_ord with '//' and '*', via the summary.
  kExpression,  // General count expression (Section 4).
};

const char* QueryKindName(QueryKind kind);

/// A fully compiled query: parsed once, arrangements expanded once,
/// every pattern fingerprinted once. Immutable after compilation (the
/// mapping from pattern to value is fixed by the synopsis options, so a
/// plan never expires), hence freely shared between the plan cache and
/// any number of concurrent executions.
///
/// Extended queries are the exception: their resolution depends on the
/// structural summary, which grows with the stream, so the compiled
/// form caches the parse and memoizes the per-epoch resolution behind
/// an internal mutex.
struct CompiledQuery {
  QueryKind kind = QueryKind::kOrdered;
  /// Canonical cache key, including the kind prefix (see
  /// CanonicalQueryKey).
  std::string key;

  // kOrdered / kUnordered: the sum plan over the pattern's value
  // (ordered) or its deduplicated arrangement values (unordered).
  // kExpression: the expression plan's combined projection set
  // (ExpressionPlan::projection).
  SumPlan plan;
  /// Number of ordered arrangements an unordered query expanded into
  /// (1 for ordered queries), for introspection and replies.
  size_t num_arrangements = 1;

  // kExpression: the per-term xi data (ExpressionPlan::terms).
  std::vector<ExprTermPlan> terms;

  // kExtended: the parsed query plus a memo of the most recent epoch's
  // resolution, so repeated queries against an unchanged snapshot skip
  // summary resolution and fingerprinting too.
  std::optional<ExtendedQuery> extended;
  mutable std::mutex extended_mu;
  mutable uint64_t extended_epoch = 0;  // 0 = nothing memoized.
  mutable std::shared_ptr<const SumPlan> extended_plan;  // Null => count 0.
};

/// Thread-safe pattern-to-value mapper built from synopsis options: the
/// same Rabin polynomial and label hashing every snapshot of the stream
/// uses. Mapping maintains scratch buffers and a label memo, so
/// concurrent MapQuery calls serialize on an internal mutex.
class QueryMapper {
 public:
  static Result<QueryMapper> Create(const SketchTreeOptions& options);

  QueryMapper(QueryMapper&&) = default;
  QueryMapper& operator=(QueryMapper&&) = default;

  const SketchTreeOptions& options() const { return options_; }

  /// Canonical value of `pattern`, after ValidateQueryPattern — the
  /// same check SketchTree::MapQuery runs.
  Result<uint64_t> MapQuery(const LabeledTree& pattern);

  /// MapQuery as the estimate planners' mapping function.
  PatternMapFn MapFn() {
    return [this](const LabeledTree& pattern) { return MapQuery(pattern); };
  }

 private:
  QueryMapper(const SketchTreeOptions& options,
              std::unique_ptr<RabinFingerprinter> fingerprinter);

  SketchTreeOptions options_;
  std::unique_ptr<RabinFingerprinter> fingerprinter_;
  std::unique_ptr<LabelHasher> hasher_;
  std::unique_ptr<PatternCanonicalizer> canonicalizer_;
  std::unique_ptr<std::mutex> mu_;  // Heap-held so the mapper stays movable.
};

/// Canonical cache key of a query: a kind prefix plus the normalized
/// text form. Unordered queries key on the *unordered* canonical form,
/// so `A(B,C)` and `A(C,B)` compile to one shared plan; ordered queries
/// key on the ordered form and stay distinct.
Result<std::string> CanonicalQueryKey(QueryKind kind, std::string_view text,
                                      int max_pattern_edges);

/// Admission-time cost profile of a query: the canonical plan-cache key
/// plus the closed-form compile cost — the number of ordered
/// arrangements an unordered compile would expand into (1 for the other
/// kinds), computed without materializing anything. One parse, no
/// expansion: cheap enough for the server's reader thread to price
/// every request at admission, which is what makes cost-aware lane
/// scheduling free. CanonicalQueryKey is this function minus the count,
/// so the two can never disagree on the key.
struct QueryCostProfile {
  std::string key;
  double arrangements = 1.0;
};
Result<QueryCostProfile> AnalyzeQueryCost(QueryKind kind,
                                          std::string_view text,
                                          int max_pattern_edges);

/// Compiles `text` into an immutable plan against `mapper` and the xi
/// families of `streams` (any snapshot of the stream — the families are
/// identical across snapshots by option equality). `max_arrangements`
/// bounds the unordered expansion.
Result<std::shared_ptr<CompiledQuery>> CompileQuery(
    QueryKind kind, std::string_view text, QueryMapper* mapper,
    const VirtualStreams& streams, size_t max_arrangements);

/// Executes a compiled query against one snapshot. Extended queries may
/// resolve against the snapshot's summary (memoized per epoch) and so
/// need the mapper; the other kinds never touch it. Runs the same
/// project-and-finish functions (core/estimate_plan.h) as the
/// corresponding SketchTree::Estimate* call, so the two agree bit for
/// bit on the same snapshot.
Result<double> ExecuteCompiled(const CompiledQuery& query,
                               const SketchSnapshot& snapshot,
                               QueryMapper* mapper);

/// Resolves an extended (kExtended) compiled query against `snapshot`'s
/// structural summary into the explicit sum plan it estimates, sharing
/// the compiled query's per-epoch memo. A null plan means the summary
/// proves the count is zero. Exposed for the cluster coordinator, which
/// resolves against its merged snapshot and then scatters the resolved
/// values to the shards.
Result<std::shared_ptr<const SumPlan>> ResolveExtendedPlan(
    const CompiledQuery& query, const SketchSnapshot& snapshot,
    QueryMapper* mapper);

}  // namespace sketchtree

#endif  // SKETCHTREE_SERVER_COMPILED_QUERY_H_
