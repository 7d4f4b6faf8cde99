#ifndef SKETCHTREE_SERVER_PLAN_STORE_H_
#define SKETCHTREE_SERVER_PLAN_STORE_H_

#include <string>

#include "common/status.h"
#include "core/sketch_tree.h"
#include "server/plan_cache.h"

namespace sketchtree {

/// Plan-cache persistence ("plans.skpc" in a synopsis store directory).
///
/// Compiled plans are pure functions of the query text and the synopsis
/// *options* — the xi families and the pattern-to-value mapping are
/// fixed by (seed, sketch_seed, dimensions), never by the counters — so
/// a plan compiled before a restart is bit-identical to one compiled
/// after. Persisting the cache lets a restarted server answer its first
/// warm query without compiling anything.
///
/// The file is version-tagged with the full serialized options block:
/// load against a synopsis with different options (different seed,
/// dimensions, build) is refused as InvalidArgument, which callers
/// treat as a cold start, not an error.
///
/// Extended ('//'/'*') plans are not persisted: their cached half is a
/// cheap parse, and their expensive half — summary resolution — is
/// per-epoch state that cannot outlive a snapshot anyway.

/// Saves every persistable cached plan atomically to `path`.
Status SavePlanCache(const PlanCache& cache, const SketchTreeOptions& options,
                     const std::string& path);

/// Loads plans saved by SavePlanCache into `cache`, oldest-first (so
/// LRU order survives), and returns how many were restored. Typed
/// failures: NotFound (no file — a genuinely cold start), Corruption
/// (checksum/truncation, or a plan whose residues or ξ lengths do not
/// fit `options`), InvalidArgument (wrong magic/version or an options
/// tag from a different synopsis).
Result<size_t> LoadPlanCache(const std::string& path,
                             const SketchTreeOptions& options,
                             PlanCache* cache);

}  // namespace sketchtree

#endif  // SKETCHTREE_SERVER_PLAN_STORE_H_
