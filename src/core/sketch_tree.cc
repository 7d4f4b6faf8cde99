#include "core/sketch_tree.h"

#include "common/timer.h"
#include "core/estimate_plan.h"
#include "enumtree/enum_tree.h"
#include "metrics/metrics.h"
#include "stats/sentinel.h"
#include "trace/trace.h"
#include "query/pattern_query.h"
#include "query/unordered.h"

namespace sketchtree {

namespace {

/// Per-process instrumentation of the synopsis ingest path (Algorithm 1).
/// Shared by every SketchTree in the process — shard replicas of a
/// parallel ingest all feed the same counters, which is exactly the
/// pipeline-wide view the progress reporting wants.
struct IngestMetrics {
  Counter* trees_ingested;
  Counter* trees_removed;
  Counter* patterns_ingested;
  Counter* patterns_removed;
  Histogram* patterns_per_tree;
  Histogram* update_latency_us;
  Histogram* remove_latency_us;
};

IngestMetrics& Metrics() {
  static IngestMetrics metrics{
      GlobalMetrics().GetCounter("sketch.trees_ingested"),
      GlobalMetrics().GetCounter("sketch.trees_removed"),
      GlobalMetrics().GetCounter("sketch.patterns_ingested"),
      GlobalMetrics().GetCounter("sketch.patterns_removed"),
      GlobalMetrics().GetHistogram("sketch.patterns_per_tree",
                                   Histogram::ExponentialBounds(1, 2.0, 21)),
      GlobalMetrics().GetHistogram("sketch.update_latency_us",
                                   Histogram::ExponentialBounds(1, 2.0, 21)),
      GlobalMetrics().GetHistogram("sketch.remove_latency_us",
                                   Histogram::ExponentialBounds(1, 2.0, 21)),
  };
  return metrics;
}

}  // namespace

SketchTree::SketchTree(const SketchTreeOptions& options,
                       std::shared_ptr<const RabinFingerprinter> fingerprinter,
                       std::unique_ptr<VirtualStreams> streams)
    : options_(options),
      fingerprinter_(std::move(fingerprinter)),
      hasher_(std::make_unique<LabelHasher>(fingerprinter_.get())),
      canonicalizer_(std::make_unique<PatternCanonicalizer>(
          fingerprinter_.get(), hasher_.get())),
      streams_(std::move(streams)) {}

SketchTree::SketchTree(const SketchTree& other)
    : SketchTree(other.options_, other.fingerprinter_,
                 std::make_unique<VirtualStreams>(*other.streams_)) {
  if (other.summary_ != nullptr) {
    summary_ = std::make_unique<StructuralSummary>(*other.summary_);
  }
  trees_processed_ = other.trees_processed_;
  trees_removed_ = other.trees_removed_;
  patterns_removed_ = other.patterns_removed_;
}

Result<SketchTree> SketchTree::Create(const SketchTreeOptions& options) {
  if (options.max_pattern_edges < 1 || options.max_pattern_edges > 64) {
    return Status::InvalidArgument("max_pattern_edges must be in [1, 64]");
  }
  // Hard resource caps: the synopsis allocates s1 * s2 * num_streams
  // counters up front, so unbounded values (e.g. from corrupted
  // serialized options) must be rejected, not attempted.
  if (options.s1 > 1'000'000 || options.s2 > 10'000) {
    return Status::InvalidArgument("s1/s2 exceed supported limits");
  }
  if (options.num_virtual_streams > 1'000'003) {
    return Status::InvalidArgument("num_virtual_streams exceeds 1000003");
  }
  if (options.independence > 64) {
    return Status::InvalidArgument("independence exceeds 64");
  }
  uint64_t counters = static_cast<uint64_t>(options.s1) * options.s2 *
                      options.num_virtual_streams;
  if (counters > (uint64_t{1} << 31)) {
    return Status::InvalidArgument(
        "synopsis would need more than 2^31 counters; lower s1/s2/streams");
  }
  if (options.fingerprint_degree < 16 || options.fingerprint_degree > 61) {
    return Status::InvalidArgument(
        "fingerprint_degree must be in [16, 61] (the paper uses 31)");
  }
  SKETCHTREE_ASSIGN_OR_RETURN(
      RabinFingerprinter fp,
      RabinFingerprinter::FromSeed(options.fingerprint_degree, options.seed));

  VirtualStreamsOptions vs_options;
  vs_options.num_streams = options.num_virtual_streams;
  vs_options.s1 = options.s1;
  vs_options.s2 = options.s2;
  vs_options.independence = options.independence;
  vs_options.seed = options.sketch_seed != 0 ? options.sketch_seed
                                             : options.seed;
  vs_options.topk_capacity = options.topk_size;
  vs_options.topk_probability = options.topk_probability;
  SKETCHTREE_ASSIGN_OR_RETURN(VirtualStreams streams,
                              VirtualStreams::Create(vs_options));

  SketchTree sketch(
      options, std::make_shared<const RabinFingerprinter>(std::move(fp)),
      std::make_unique<VirtualStreams>(std::move(streams)));
  if (options.build_structural_summary) {
    StructuralSummary::Options summary_options;
    summary_options.max_nodes = options.summary_max_nodes;
    sketch.summary_ = std::make_unique<StructuralSummary>(summary_options);
  }
  return sketch;
}

uint64_t SketchTree::IngestTree(const LabeledTree& tree, double weight) {
  // Collect the enumerated pattern values into the reusable per-tree
  // buffer, then flush batches through the bucketed SoA kernel. Flushing
  // in bounded chunks caps the buffer for enormous trees; order within
  // each virtual stream is preserved, so the result is bit-identical to
  // per-value insertion.
  constexpr size_t kFlushValues = size_t{1} << 20;
  pattern_values_.clear();
  uint64_t emitted = EnumerateTreePatterns(
      tree, options_.max_pattern_edges,
      [&](LabeledTree::NodeId root, const std::vector<PatternEdge>& edges) {
        uint64_t value = canonicalizer_->MapPatternEdges(tree, root, edges);
        pattern_values_.push_back(value);
        if (sentinel_ != nullptr) sentinel_->Observe(value, weight);
        if (pattern_values_.size() >= kFlushValues) {
          streams_->InsertBatch(pattern_values_, weight);
          pattern_values_.clear();
        }
      });
  streams_->InsertBatch(pattern_values_, weight);
  pattern_values_.clear();
  return emitted;
}

uint64_t SketchTree::Update(const LabeledTree& tree) {
  TRACE_SPAN("sketch.update_tree");
  WallTimer timer;
  uint64_t emitted = IngestTree(tree, +1.0);
  if (summary_ != nullptr) summary_->Update(tree);
  ++trees_processed_;
  IngestMetrics& metrics = Metrics();
  metrics.trees_ingested->Increment();
  metrics.patterns_ingested->Increment(emitted);
  metrics.patterns_per_tree->Observe(emitted);
  metrics.update_latency_us->Observe(
      static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
  return emitted;
}

uint64_t SketchTree::Remove(const LabeledTree& tree) {
  WallTimer timer;
  uint64_t removed = IngestTree(tree, -1.0);
  if (trees_processed_ > 0) --trees_processed_;
  ++trees_removed_;
  patterns_removed_ += removed;
  IngestMetrics& metrics = Metrics();
  metrics.trees_removed->Increment();
  metrics.patterns_removed->Increment(removed);
  metrics.remove_latency_us->Observe(
      static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
  return removed;
}

Result<uint64_t> SketchTree::MapQuery(const LabeledTree& query) {
  SKETCHTREE_RETURN_NOT_OK(
      ValidateQueryPattern(query, options_.max_pattern_edges));
  return canonicalizer_->MapPatternTree(query);
}

PatternMapFn SketchTree::QueryMapFn() {
  return [this](const LabeledTree& pattern) { return MapQuery(pattern); };
}

Result<double> SketchTree::EstimateCountOrdered(const LabeledTree& query) {
  SKETCHTREE_ASSIGN_OR_RETURN(
      SumPlan plan, PlanSum(*streams_, std::span(&query, 1), QueryMapFn()));
  return ExecuteSum(plan, *streams_);
}

Result<double> SketchTree::EstimateCountOrderedSum(
    const std::vector<LabeledTree>& queries) {
  SKETCHTREE_ASSIGN_OR_RETURN(SumPlan plan,
                              PlanSum(*streams_, queries, QueryMapFn()));
  return ExecuteSum(plan, *streams_);
}

Result<double> SketchTree::EstimateCount(const LabeledTree& query) {
  SKETCHTREE_ASSIGN_OR_RETURN(std::vector<LabeledTree> arrangements,
                              OrderedArrangements(query));
  return EstimateCountOrderedSum(arrangements);
}

Result<double> SketchTree::EstimateExpression(
    const CountExpression& expression) {
  SKETCHTREE_ASSIGN_OR_RETURN(
      ExpressionPlan plan,
      PlanExpression(*streams_, expression, QueryMapFn()));
  return ExecuteExpression(plan.projection, plan.terms, *streams_);
}

Result<double> SketchTree::EstimateExpression(std::string_view text) {
  SKETCHTREE_ASSIGN_OR_RETURN(CountExpression expression,
                              CountExpression::Parse(text));
  return EstimateExpression(expression);
}

Result<double> SketchTree::EstimateExtended(const ExtendedQuery& query) {
  if (summary_ == nullptr) {
    return Status::InvalidArgument(
        "extended queries need build_structural_summary=true");
  }
  SKETCHTREE_ASSIGN_OR_RETURN(
      std::vector<LabeledTree> resolved,
      ResolveExtendedQuery(query, *summary_, options_.max_pattern_edges));
  if (resolved.empty()) {
    // The summary proves no occurrence exists.
    return 0.0;
  }
  return EstimateCountOrderedSum(resolved);
}

Result<double> SketchTree::EstimateExtended(std::string_view text) {
  SKETCHTREE_ASSIGN_OR_RETURN(ExtendedQuery query, ExtendedQuery::Parse(text));
  return EstimateExtended(query);
}

Status SketchTree::Merge(const SketchTree& other) {
  TRACE_SPAN("sketch.merge");
  const SketchTreeOptions& a = options_;
  const SketchTreeOptions& b = other.options_;
  if (a.max_pattern_edges != b.max_pattern_edges || a.s1 != b.s1 ||
      a.s2 != b.s2 || a.num_virtual_streams != b.num_virtual_streams ||
      a.fingerprint_degree != b.fingerprint_degree ||
      a.independence != b.independence || a.seed != b.seed ||
      a.sketch_seed != b.sketch_seed) {
    return Status::InvalidArgument(
        "Merge requires synopses built with identical options");
  }
  // Top-k and summary options are part of the contract too: merging a
  // summary-bearing synopsis into a summary-less one would drop the
  // other side's label paths, making EstimateExtended wrongly return 0
  // for patterns only the other side streamed; mismatched top-k
  // capacities break the tracked-mass re-add in
  // VirtualStreams::MergeFrom (the Section 5.2 delete condition).
  if (a.topk_size != b.topk_size ||
      a.topk_probability != b.topk_probability ||
      a.build_structural_summary != b.build_structural_summary ||
      a.summary_max_nodes != b.summary_max_nodes) {
    return Status::InvalidArgument(
        "Merge requires identical top-k and structural-summary options");
  }
  SKETCHTREE_RETURN_NOT_OK(streams_->MergeFrom(*other.streams_));
  if (summary_ != nullptr && other.summary_ != nullptr) {
    summary_->MergeFrom(*other.summary_);
  }
  trees_processed_ += other.trees_processed_;
  trees_removed_ += other.trees_removed_;
  patterns_removed_ += other.patterns_removed_;
  return Status::OK();
}

SketchTreeStats SketchTree::Stats() const {
  SketchTreeStats stats;
  stats.trees_processed = trees_processed_;
  stats.patterns_processed = streams_->values_inserted();
  stats.trees_removed = trees_removed_;
  stats.patterns_removed = patterns_removed_;
  stats.over_deletions = streams_->over_deletions();
  stats.memory_bytes = streams_->MemoryBytes();
  stats.paper_memory_bytes = streams_->PaperMemoryBytes();
  for (uint32_t r = 0; r < options_.num_virtual_streams; ++r) {
    const TopKTracker* tracker = streams_->topk(r);
    if (tracker != nullptr) stats.tracked_patterns += tracker->size();
  }
  return stats;
}

}  // namespace sketchtree
