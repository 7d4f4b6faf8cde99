#ifndef SKETCHTREE_QUERY_PATTERN_QUERY_H_
#define SKETCHTREE_QUERY_PATTERN_QUERY_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "tree/labeled_tree.h"

namespace sketchtree {

/// Parses a tree-pattern query from the s-expression syntax, e.g.
/// `A(B,C(D))` for the pattern rooted at A with children B and C, C having
/// child D. Edges denote parent-child relationships ('/' in XPath terms);
/// equality predicates on values are expressed as child nodes labeled with
/// the value, exactly as the paper treats predicate values as node labels
/// (Section 2.1).
///
/// Beyond the grammar, validates the paper's constraints: the pattern must
/// be non-empty and, if `max_edges` >= 0, have at most that many edges
/// (patterns larger than EnumTree's k cannot be counted — Section 6.2).
Result<LabeledTree> ParsePatternQuery(std::string_view text,
                                      int max_edges = -1);

/// Number of edges of a pattern (nodes - 1).
int32_t PatternEdgeCount(const LabeledTree& pattern);

/// Checks that an already-built pattern can be estimated by a synopsis
/// enumerating patterns with up to `max_pattern_edges` edges: it must be
/// non-empty and within the limit. The one check behind every query
/// mapping (SketchTree and the query service's QueryMapper).
Status ValidateQueryPattern(const LabeledTree& pattern,
                            int max_pattern_edges);

/// Round-trip helper: the canonical textual form of a pattern.
std::string PatternToString(const LabeledTree& pattern);

}  // namespace sketchtree

#endif  // SKETCHTREE_QUERY_PATTERN_QUERY_H_
