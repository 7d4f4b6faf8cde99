#include "query/pattern_query.h"

#include "tree/tree_serialization.h"

namespace sketchtree {

Result<LabeledTree> ParsePatternQuery(std::string_view text, int max_edges) {
  SKETCHTREE_ASSIGN_OR_RETURN(LabeledTree pattern, ParseSExpr(text));
  if (max_edges >= 0 && PatternEdgeCount(pattern) > max_edges) {
    return Status::InvalidArgument(
        "query pattern has " + std::to_string(PatternEdgeCount(pattern)) +
        " edges, exceeding the synopsis's maximum pattern size k=" +
        std::to_string(max_edges));
  }
  return pattern;
}

int32_t PatternEdgeCount(const LabeledTree& pattern) {
  return pattern.size() - 1;
}

Status ValidateQueryPattern(const LabeledTree& pattern,
                            int max_pattern_edges) {
  if (pattern.empty()) {
    return Status::InvalidArgument("empty query pattern");
  }
  if (PatternEdgeCount(pattern) > max_pattern_edges) {
    return Status::InvalidArgument(
        "query has " + std::to_string(PatternEdgeCount(pattern)) +
        " edges but the synopsis only enumerates patterns with up to " +
        std::to_string(max_pattern_edges));
  }
  return Status::OK();
}

std::string PatternToString(const LabeledTree& pattern) {
  return TreeToSExpr(pattern);
}

}  // namespace sketchtree
