#include "server/compiled_query.h"

#include "query/pattern_query.h"
#include "query/unordered.h"
#include "trace/trace.h"

namespace sketchtree {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kOrdered:
      return "count_ord";
    case QueryKind::kUnordered:
      return "count";
    case QueryKind::kExtended:
      return "extended";
    case QueryKind::kExpression:
      return "expr";
  }
  return "unknown";
}

QueryMapper::QueryMapper(const SketchTreeOptions& options,
                         std::unique_ptr<RabinFingerprinter> fingerprinter)
    : options_(options),
      fingerprinter_(std::move(fingerprinter)),
      hasher_(std::make_unique<LabelHasher>(fingerprinter_.get())),
      canonicalizer_(std::make_unique<PatternCanonicalizer>(
          fingerprinter_.get(), hasher_.get())),
      mu_(std::make_unique<std::mutex>()) {}

Result<QueryMapper> QueryMapper::Create(const SketchTreeOptions& options) {
  // Same seed, same degree => same irreducible polynomial, so values
  // computed here match every snapshot of the stream.
  SKETCHTREE_ASSIGN_OR_RETURN(
      RabinFingerprinter fp,
      RabinFingerprinter::FromSeed(options.fingerprint_degree, options.seed));
  return QueryMapper(options,
                     std::make_unique<RabinFingerprinter>(std::move(fp)));
}

Result<uint64_t> QueryMapper::MapQuery(const LabeledTree& pattern) {
  SKETCHTREE_RETURN_NOT_OK(
      ValidateQueryPattern(pattern, options_.max_pattern_edges));
  std::lock_guard<std::mutex> lock(*mu_);
  return canonicalizer_->MapPatternTree(pattern);
}

Result<std::string> CanonicalQueryKey(QueryKind kind, std::string_view text,
                                      int max_pattern_edges) {
  SKETCHTREE_ASSIGN_OR_RETURN(
      QueryCostProfile profile,
      AnalyzeQueryCost(kind, text, max_pattern_edges));
  return std::move(profile.key);
}

Result<QueryCostProfile> AnalyzeQueryCost(QueryKind kind,
                                          std::string_view text,
                                          int max_pattern_edges) {
  QueryCostProfile profile;
  switch (kind) {
    case QueryKind::kOrdered: {
      SKETCHTREE_ASSIGN_OR_RETURN(
          LabeledTree pattern, ParsePatternQuery(text, max_pattern_edges));
      profile.key = "ord:" + PatternToString(pattern);
      return profile;
    }
    case QueryKind::kUnordered: {
      SKETCHTREE_ASSIGN_OR_RETURN(
          LabeledTree pattern, ParsePatternQuery(text, max_pattern_edges));
      profile.key =
          "unord:" +
          UnorderedKeyAndArrangements(pattern, &profile.arrangements);
      return profile;
    }
    case QueryKind::kExtended: {
      SKETCHTREE_ASSIGN_OR_RETURN(ExtendedQuery query,
                                  ExtendedQuery::Parse(text));
      profile.key = "ext:" + query.ToString();
      return profile;
    }
    case QueryKind::kExpression:
      // Expressions key on the raw text: normalizing would require the
      // full sum-of-products expansion the cache exists to skip.
      profile.key = "expr:" + std::string(text);
      return profile;
  }
  return Status::InvalidArgument("unknown query kind");
}

Result<std::shared_ptr<CompiledQuery>> CompileQuery(
    QueryKind kind, std::string_view text, QueryMapper* mapper,
    const VirtualStreams& streams, size_t max_arrangements) {
  TRACE_SPAN("server.compile");
  auto compiled = std::make_shared<CompiledQuery>();
  compiled->kind = kind;
  switch (kind) {
    case QueryKind::kOrdered: {
      SKETCHTREE_ASSIGN_OR_RETURN(
          LabeledTree pattern,
          ParsePatternQuery(text, mapper->options().max_pattern_edges));
      SKETCHTREE_ASSIGN_OR_RETURN(
          compiled->plan,
          PlanSum(streams, std::span(&pattern, 1), mapper->MapFn()));
      break;
    }
    case QueryKind::kUnordered: {
      SKETCHTREE_ASSIGN_OR_RETURN(
          LabeledTree pattern,
          ParsePatternQuery(text, mapper->options().max_pattern_edges));
      SKETCHTREE_ASSIGN_OR_RETURN(
          std::vector<LabeledTree> arrangements,
          OrderedArrangements(pattern, max_arrangements));
      SKETCHTREE_ASSIGN_OR_RETURN(
          compiled->plan, PlanSum(streams, arrangements, mapper->MapFn()));
      compiled->num_arrangements = arrangements.size();
      break;
    }
    case QueryKind::kExtended: {
      SKETCHTREE_ASSIGN_OR_RETURN(ExtendedQuery query,
                                  ExtendedQuery::Parse(text));
      compiled->extended.emplace(std::move(query));
      break;
    }
    case QueryKind::kExpression: {
      SKETCHTREE_ASSIGN_OR_RETURN(CountExpression expression,
                                  CountExpression::Parse(text));
      SKETCHTREE_ASSIGN_OR_RETURN(
          ExpressionPlan plan,
          PlanExpression(streams, expression, mapper->MapFn()));
      compiled->plan = std::move(plan.projection);
      compiled->terms = std::move(plan.terms);
      break;
    }
  }
  return compiled;
}

Result<std::shared_ptr<const SumPlan>> ResolveExtendedPlan(
    const CompiledQuery& query, const SketchSnapshot& snapshot,
    QueryMapper* mapper) {
  const StructuralSummary* summary = snapshot.sketch.summary();
  if (summary == nullptr) {
    return Status::InvalidArgument(
        "extended queries need build_structural_summary=true");
  }
  std::lock_guard<std::mutex> lock(query.extended_mu);
  if (query.extended_epoch == snapshot.epoch) {
    return query.extended_plan;
  }
  SKETCHTREE_ASSIGN_OR_RETURN(
      std::vector<LabeledTree> resolved,
      ResolveExtendedQuery(*query.extended, *summary,
                           mapper->options().max_pattern_edges));
  if (resolved.empty()) {
    // The summary proves no occurrence exists.
    query.extended_epoch = snapshot.epoch;
    query.extended_plan = nullptr;
    return query.extended_plan;
  }
  SKETCHTREE_ASSIGN_OR_RETURN(
      SumPlan plan,
      PlanSum(snapshot.sketch.streams(), resolved, mapper->MapFn()));
  query.extended_plan = std::make_shared<const SumPlan>(std::move(plan));
  query.extended_epoch = snapshot.epoch;
  return query.extended_plan;
}

namespace {

/// The extended path: resolve against this snapshot's summary (memoized
/// per epoch) and estimate the resolved patterns' sum.
Result<double> ExecuteExtended(const CompiledQuery& query,
                               const SketchSnapshot& snapshot,
                               QueryMapper* mapper) {
  SKETCHTREE_ASSIGN_OR_RETURN(std::shared_ptr<const SumPlan> plan,
                              ResolveExtendedPlan(query, snapshot, mapper));
  if (plan == nullptr) return 0.0;
  return ExecuteSum(*plan, snapshot.sketch.streams());
}

}  // namespace

Result<double> ExecuteCompiled(const CompiledQuery& query,
                               const SketchSnapshot& snapshot,
                               QueryMapper* mapper) {
  TRACE_SPAN("server.estimate");
  const VirtualStreams& streams = snapshot.sketch.streams();
  switch (query.kind) {
    case QueryKind::kOrdered:
    case QueryKind::kUnordered:
      return ExecuteSum(query.plan, streams);
    case QueryKind::kExtended:
      return ExecuteExtended(query, snapshot, mapper);
    case QueryKind::kExpression:
      return ExecuteExpression(query.plan, query.terms, streams);
  }
  return Status::Internal("unknown compiled query kind");
}

}  // namespace sketchtree
