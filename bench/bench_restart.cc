// EXP-RESTART — warm-restart time-to-first-answer: the synopsis store's
// mmap read path + persisted plan cache vs a cold load.
//
// A restarted server is useless until it can answer its first query.
// The cold path pays three bills: read and checksum the whole synopsis
// file, copy every counter into freshly allocated planes, and compile
// the first query's plan from scratch. The warm path (serve --store)
// maps the newest paged epoch read-only (every page CRC-checked in
// place — counters are attached, not copied), and restores the plan
// cache, so the first query is a cache hit.
//
// Measured, per path, median over repeated trials:
//   load_us  : bytes on disk -> a QueryService that could answer
//   query_us : the first COUNT(Q) (7 distinct children: 5040 ordered
//              arrangements — a realistic wide unordered query)
//   ttfa_us  : load + first answer, the figure that matters
//
// Paths: cold (LoadFromFile of the same epoch image, cold plan cache),
// warm-mmap (store
// LoadNewest zero-copy + plan restore), warm-owned (--no-mmap fallback:
// same store, counters materialized). All three must produce the
// bit-identical first estimate. Acceptance floor (exit code):
// cold_ttfa / warm_mmap_ttfa >= 3x. A publish-cost phase reports what one
// small epoch costs to persist (median Persist time and file bytes).
// Results go to BENCH_restart.json.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/sketch_tree.h"
#include "server/plan_store.h"
#include "server/query_service.h"
#include "store/synopsis_store.h"
#include "tree/tree_serialization.h"

using namespace sketchtree;

namespace {

constexpr int kTrials = 15;
// Serving-scale dimensions (the CLI's defaults): the counter plane is
// what the two load paths treat differently, so it must be real-sized.
constexpr int kS1 = 50;
constexpr int kS2 = 7;
constexpr int kMaxEdges = 7;
constexpr const char* kFirstQuery = "dept(f0,f1,f2,f3,f4,f5,f6)";

constexpr const char* kDocs[] = {
    "dept(f0,f1,f2)", "proj(f3,f4)",       "team(f5,f6,f0)",
    "org(f1,f2)",     "unit(f3,f4,f5)",    "dept(f6,f0)",
    "proj(f1,f2,f3)", "team(f4,f5)",       "org(f6,f0,f1)",
};

SketchTree BuildSketch() {
  SketchTreeOptions options;
  options.max_pattern_edges = kMaxEdges;
  options.s1 = kS1;
  options.s2 = kS2;
  options.num_virtual_streams = 229;
  options.topk_size = 32;
  options.seed = 42;
  SketchTree sketch = *SketchTree::Create(options);
  for (int i = 0; i < 1200; ++i) sketch.Update(*ParseSExpr(kDocs[i % 9]));
  return sketch;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct PathResult {
  double load_us = 0.0;
  double query_us = 0.0;
  double ttfa_us = 0.0;
  double estimate = 0.0;
  bool cache_hit = false;
  bool mapped = false;
};

Result<QueryAnswer> FirstAnswer(QueryService& service) {
  QueryRequest request;
  request.kind = QueryKind::kUnordered;
  request.text = kFirstQuery;
  request.deadline.reset();
  return service.Execute(request);
}

QueryServiceOptions ServiceOptions() {
  QueryServiceOptions options;
  options.max_arrangements = 10000;
  return options;
}

/// One cold restart: synopsis file -> service -> first (compiling)
/// answer.
PathResult ColdTrial(const std::string& path) {
  PathResult result;
  WallTimer load_timer;
  Result<SketchTree> sketch = SketchTree::LoadFromFile(path);
  if (!sketch.ok()) {
    std::fprintf(stderr, "cold load failed: %s\n",
                 sketch.status().ToString().c_str());
    std::exit(1);
  }
  Result<QueryService> service = QueryService::CreateStatic(
      std::move(sketch).value(), ServiceOptions());
  if (!service.ok()) std::exit(1);
  result.load_us = load_timer.ElapsedSeconds() * 1e6;

  WallTimer query_timer;
  Result<QueryAnswer> answer = FirstAnswer(*service);
  result.query_us = query_timer.ElapsedSeconds() * 1e6;
  if (!answer.ok()) {
    std::fprintf(stderr, "cold query failed: %s\n",
                 answer.status().ToString().c_str());
    std::exit(1);
  }
  result.ttfa_us = result.load_us + result.query_us;
  result.estimate = answer->estimate;
  result.cache_hit = answer->cache_hit;
  return result;
}

/// One warm restart: store LoadNewest (+ plan restore) -> first answer.
PathResult WarmTrial(const std::string& store_dir, bool use_mmap) {
  PathResult result;
  SynopsisStoreOptions store_options;
  store_options.use_mmap = use_mmap;
  WallTimer load_timer;
  Result<SynopsisStore> store =
      SynopsisStore::Open(store_dir, store_options);
  if (!store.ok()) std::exit(1);
  Result<LoadedSynopsis> loaded = store->LoadNewest();
  if (!loaded.ok()) {
    std::fprintf(stderr, "warm load failed: %s\n",
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  result.mapped = loaded->mapped;
  SketchTreeOptions sketch_options = loaded->sketch.options();
  // Keep the mapping alive past the sketch's move into the service.
  std::shared_ptr<MmapFile> mapping = loaded->mapping;
  Result<QueryService> service = QueryService::CreateStatic(
      std::move(loaded->sketch), ServiceOptions());
  if (!service.ok()) std::exit(1);
  Result<size_t> plans = LoadPlanCache(store->PlanCachePath(),
                                       sketch_options,
                                       &service->plan_cache());
  if (!plans.ok() || *plans == 0) {
    std::fprintf(stderr, "plan restore failed: %s\n",
                 plans.ok() ? "0 plans" : plans.status().ToString().c_str());
    std::exit(1);
  }
  result.load_us = load_timer.ElapsedSeconds() * 1e6;

  WallTimer query_timer;
  Result<QueryAnswer> answer = FirstAnswer(*service);
  result.query_us = query_timer.ElapsedSeconds() * 1e6;
  if (!answer.ok()) std::exit(1);
  result.ttfa_us = result.load_us + result.query_us;
  result.estimate = answer->estimate;
  result.cache_hit = answer->cache_hit;
  return result;
}

struct PublishResult {
  double persist_us = 0.0;  // Median per-epoch Persist cost.
  uint64_t bytes = 0;       // Newest epoch file's size on disk.
};

/// Publish-cost phase: a trickle of small epochs persisted into a store,
/// each a full snapshot. The median is what --publish-every costs.
PublishResult PublishCostPhase(const std::filesystem::path& work) {
  namespace fs = std::filesystem;
  SketchTreeOptions options;
  options.max_pattern_edges = kMaxEdges;
  options.s1 = kS1;
  options.s2 = kS2;
  options.num_virtual_streams = 229;
  options.topk_size = 0;
  options.seed = 42;
  SketchTree sketch = *SketchTree::Create(options);
  for (int i = 0; i < 1200; ++i) sketch.Update(*ParseSExpr(kDocs[i % 9]));
  SynopsisStore store = *SynopsisStore::Open((work / "pub").string());
  if (!store.Persist(sketch, 1).ok()) {
    std::fprintf(stderr, "publish-phase seed persist failed\n");
    std::exit(1);
  }
  std::vector<double> persist_us;
  uint64_t epoch = 1;
  for (int trial = 0; trial < kTrials; ++trial) {
    // A small epoch: two more trees touch a handful of stream blocks.
    sketch.Update(*ParseSExpr(kDocs[trial % 9]));
    sketch.Update(*ParseSExpr(kDocs[(trial + 4) % 9]));
    ++epoch;
    WallTimer timer;
    if (!store.Persist(sketch, epoch).ok()) std::exit(1);
    persist_us.push_back(timer.ElapsedSeconds() * 1e6);
  }
  PublishResult result;
  result.persist_us = Median(persist_us);
  result.bytes =
      fs::file_size(work / "pub" / SynopsisStore::EpochFileName(epoch));
  return result;
}

PathResult MedianOf(const std::vector<PathResult>& trials) {
  PathResult median = trials.back();  // Estimate/flags from any trial.
  std::vector<double> load, query, ttfa;
  for (const PathResult& t : trials) {
    load.push_back(t.load_us);
    query.push_back(t.query_us);
    ttfa.push_back(t.ttfa_us);
  }
  median.load_us = Median(load);
  median.query_us = Median(query);
  median.ttfa_us = Median(ttfa);
  return median;
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  const fs::path work = fs::temp_directory_path() / "sketchtree_bench_restart";
  fs::remove_all(work);
  fs::create_directories(work);
  const std::string store_dir = (work / "store").string();
  const std::string epoch_path =
      store_dir + "/" + SynopsisStore::EpochFileName(1);

  // The server's pre-crash life: build, persist epoch 1, compile the
  // first query once, persist its plan.
  SketchTree sketch = BuildSketch();
  const uint64_t trees = sketch.Stats().trees_processed;
  SynopsisStore store = *SynopsisStore::Open(store_dir);
  if (!store.Persist(sketch, 1).ok()) return 1;
  const size_t plane_doubles = sketch.CounterPlaneDoubles();
  SketchTreeOptions options = sketch.options();
  QueryService pre_crash =
      *QueryService::CreateStatic(std::move(sketch), ServiceOptions());
  Result<QueryAnswer> compiled = FirstAnswer(pre_crash);
  if (!compiled.ok()) {
    std::fprintf(stderr, "pre-crash compile failed: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  if (!SavePlanCache(pre_crash.plan_cache(), options, store.PlanCachePath())
           .ok()) {
    return 1;
  }
  const uint64_t store_bytes = fs::file_size(epoch_path);

  std::vector<PathResult> cold_trials, mmap_trials, owned_trials;
  for (int trial = 0; trial < kTrials; ++trial) {
    cold_trials.push_back(ColdTrial(epoch_path));
    mmap_trials.push_back(WarmTrial(store_dir, /*use_mmap=*/true));
    owned_trials.push_back(WarmTrial(store_dir, /*use_mmap=*/false));
  }
  PathResult cold = MedianOf(cold_trials);
  PathResult mmap = MedianOf(mmap_trials);
  PathResult owned = MedianOf(owned_trials);

  PublishResult publish = PublishCostPhase(work);

  bool identical = cold.estimate == mmap.estimate &&
                   cold.estimate == owned.estimate &&
                   cold.estimate == compiled->estimate;
  bool states_ok = !cold.cache_hit && mmap.cache_hit && owned.cache_hit &&
                   mmap.mapped && !owned.mapped;
  double speedup = mmap.ttfa_us > 0.0 ? cold.ttfa_us / mmap.ttfa_us : 0.0;
  bool floor_met = speedup >= 3.0;

  std::printf("EXP-RESTART: time-to-first-answer after restart "
              "(s1=%d s2=%d streams=229, %llu trees, %zu counter doubles, "
              "first query %s: 5040 arrangements)\n",
              kS1, kS2, static_cast<unsigned long long>(trees),
              plane_doubles, kFirstQuery);
  std::printf("  %-12s %12s %12s %12s %10s %7s\n", "path", "load_us",
              "query_us", "ttfa_us", "cache", "mapped");
  auto row = [](const char* name, const PathResult& r) {
    std::printf("  %-12s %12.1f %12.1f %12.1f %10s %7s\n", name, r.load_us,
                r.query_us, r.ttfa_us, r.cache_hit ? "hit" : "compile",
                r.mapped ? "yes" : "no");
  };
  row("cold", cold);
  row("warm-mmap", mmap);
  row("warm-owned", owned);
  std::printf("  first estimates bit-identical across paths: %s\n",
              identical ? "yes" : "NO");
  std::printf("  restart speedup (cold/mmap ttfa): %.2fx "
              "(acceptance floor 3x)\n",
              speedup);
  std::printf("  publish cost per 2-tree epoch: %.1f us / %llu bytes\n",
              publish.persist_us,
              static_cast<unsigned long long>(publish.bytes));

  FILE* json = std::fopen("BENCH_restart.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json,
                 "  \"settings\": {\"s1\": %d, \"s2\": %d, \"streams\": 229,"
                 " \"trees\": %llu, \"counter_doubles\": %zu,\n"
                 "    \"first_query_arrangements\": 5040, \"trials\": %d,"
                 " \"store_bytes\": %llu,\n"
                 "    \"hardware_threads\": %u},\n",
                 kS1, kS2, static_cast<unsigned long long>(trees),
                 plane_doubles, kTrials,
                 static_cast<unsigned long long>(store_bytes),
                 std::thread::hardware_concurrency());
    auto emit = [json](const char* name, const PathResult& r, bool comma) {
      std::fprintf(json,
                   "  \"%s\": {\"load_us\": %.1f, \"first_query_us\": %.1f,"
                   " \"ttfa_us\": %.1f, \"cache_hit\": %s,"
                   " \"mapped\": %s}%s\n",
                   name, r.load_us, r.query_us, r.ttfa_us,
                   r.cache_hit ? "true" : "false",
                   r.mapped ? "true" : "false", comma ? "," : ",");
    };
    emit("cold", cold, true);
    emit("warm_mmap", mmap, true);
    emit("warm_owned", owned, true);
    std::fprintf(json,
                 "  \"full_publish\": {\"persist_us\": %.1f,"
                 " \"bytes\": %llu},\n",
                 publish.persist_us,
                 static_cast<unsigned long long>(publish.bytes));
    std::fprintf(json, "  \"estimates_bit_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(json, "  \"restart_speedup\": %.2f,\n", speedup);
    std::fprintf(json, "  \"floor\": 3.0,\n");
    std::fprintf(json, "  \"floor_met\": %s\n",
                 floor_met ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_restart.json\n");
  }

  fs::remove_all(work);
  return (floor_met && identical && states_ok) ? 0 : 1;
}
