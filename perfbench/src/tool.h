// Entry points and shared pieces of the perfbench tool's subcommands.
#ifndef PERFBENCH_TOOL_H_
#define PERFBENCH_TOOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "server/compiled_query.h"
#include "tree/labeled_tree.h"
#include "util.h"

namespace perfbench {

sketchtree::QueryKind KindOf(const std::string& op);

std::vector<sketchtree::LabeledTree> GenerateForest(const std::string& dataset,
                                                    long n, long seed);

std::vector<sketchtree::LabeledTree> ReadForest(const std::string& path);

/// The query-pool indices an open loop sends, in order: Zipf(theta) over
/// pool ranks (theta 0 = uniform). The load generator and the traced
/// replay draw the same sequence from the same seed.
inline std::vector<uint32_t> ZipfPicks(size_t pool, double theta,
                                       uint64_t seed, size_t n) {
  sketchtree::ZipfSampler zipf(pool, theta);
  sketchtree::Pcg64 rng(seed, 0x10ad);
  std::vector<uint32_t> picks(n);
  for (uint32_t& p : picks) p = static_cast<uint32_t>(zipf.Sample(rng));
  return picks;
}

int RunLoadgen(const Flags& flags);
int RunReplay(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_H_
