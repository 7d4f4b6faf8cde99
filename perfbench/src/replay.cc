// Traced replay: the workload's inputs pushed in-process through each
// layer's public functions, with a span (steady-clock interval) and a
// count recorded around every call. Spans live in memory and are summed
// into the per-layer figures printed at the end.
#include <sys/stat.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/sketch_tree.h"
#include "enumtree/enum_tree.h"
#include "enumtree/pattern.h"
#include "hashing/label_hasher.h"
#include "hashing/rabin.h"
#include "ingest/parallel_ingester.h"
#include "server/compiled_query.h"
#include "server/query_service.h"
#include "server/snapshot.h"
#include "sketch/sketch_array.h"
#include "store/synopsis_store.h"
#include "tool.h"
#include "topk/topk_tracker.h"
#include "util.h"
#include "xml/xml_tree_reader.h"

namespace perfbench {
namespace {

using sketchtree::LabeledTree;
using Metrics = std::vector<std::pair<std::string, double>>;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// xml: StreamXmlForest over the forest bytes.
std::vector<LabeledTree> ReplayParse(const std::string& forest, Metrics* m) {
  std::string xml = ReadFile(forest);
  std::vector<LabeledTree> trees;
  int64_t t0 = NowNs();
  sketchtree::Status st = sketchtree::StreamXmlForest(
      xml, [&](LabeledTree tree) {
        trees.push_back(std::move(tree));
        return sketchtree::Status::OK();
      });
  int64_t t1 = NowNs();
  if (!st.ok()) Die(st.ToString());
  m->push_back({"xml.busy_s", static_cast<double>(t1 - t0) / 1e9});
  m->push_back({"xml.bytes", static_cast<double>(xml.size())});
  return trees;
}

// The ingest layers below SketchTree::Update, reproduced from public
// calls: EnumTree enumeration, canonical mapping (Prüfer + fingerprint),
// the per-residue sketch update and top-k processing, in the order
// VirtualStreams::Insert / InsertBatch apply them. Its counter plane must
// equal a serial SketchTree's bit for bit.
struct LayerReplay {
  explicit LayerReplay(const sketchtree::SketchTreeOptions& o)
      : options(o),
        fingerprinter(std::move(sketchtree::RabinFingerprinter::FromSeed(
                                    o.fingerprint_degree, o.seed))
                          .value()),
        hasher(&fingerprinter),
        canonicalizer(&fingerprinter, &hasher) {
    arrays.reserve(o.num_virtual_streams);
    for (uint32_t r = 0; r < o.num_virtual_streams; ++r) {
      arrays.emplace_back(o.s1, o.s2, o.independence, o.seed);
    }
    if (o.topk_size > 0) {
      trackers.reserve(o.num_virtual_streams);
      for (uint32_t r = 0; r < o.num_virtual_streams; ++r) {
        trackers.emplace_back(o.topk_size, &arrays[r]);
      }
    }
    buckets.resize(o.num_virtual_streams);
  }

  void Tree(const LabeledTree& tree) {
    values.clear();
    int64_t map_ns = 0;
    int64_t t0 = NowNs();
    patterns += sketchtree::EnumerateTreePatterns(
        tree, options.max_pattern_edges,
        [&](LabeledTree::NodeId root,
            const std::vector<sketchtree::PatternEdge>& edges) {
          int64_t a = NowNs();
          uint64_t v = canonicalizer.MapPatternEdges(tree, root, edges);
          map_ns += NowNs() - a;
          values.push_back(v);
        });
    int64_t t1 = NowNs();
    prufer_ns += map_ns;
    enum_ns += (t1 - t0) - map_ns;
    const uint32_t p = options.num_virtual_streams;
    if (!trackers.empty()) {
      for (uint64_t v : values) {
        uint32_t r = static_cast<uint32_t>(v % p);
        int64_t a = NowNs();
        arrays[r].Update(v, 1.0);
        int64_t b = NowNs();
        bool was = trackers[r].TrackedFrequency(v).has_value();
        int64_t c = NowNs();
        trackers[r].Process(v);
        int64_t d = NowNs();
        sketch_ns += b - a;
        topk_ns += d - c;
        ++updates;
        ++processed;
        if (!was && trackers[r].TrackedFrequency(v).has_value()) ++admitted;
      }
    } else {
      for (uint64_t v : values) {
        uint32_t r = static_cast<uint32_t>(v % p);
        if (buckets[r].empty()) touched.push_back(r);
        buckets[r].push_back(v);
      }
      for (uint32_t r : touched) {
        int64_t a = NowNs();
        arrays[r].UpdateBatch(buckets[r], 1.0);
        sketch_ns += NowNs() - a;
        updates += buckets[r].size();
        buckets[r].clear();
      }
      touched.clear();
    }
  }

  bool PlaneEquals(const sketchtree::SketchTree& serial) const {
    std::vector<double> plane(serial.CounterPlaneDoubles());
    serial.CopyCounterPlane(plane.data());
    size_t per = static_cast<size_t>(options.s1) * options.s2;
    if (plane.size() != per * arrays.size()) return false;
    for (size_t r = 0; r < arrays.size(); ++r) {
      if (std::memcmp(plane.data() + r * per, arrays[r].counter_data(),
                      per * sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  }

  sketchtree::SketchTreeOptions options;
  sketchtree::RabinFingerprinter fingerprinter;
  sketchtree::LabelHasher hasher;
  sketchtree::PatternCanonicalizer canonicalizer;
  std::vector<sketchtree::SketchArray> arrays;
  std::vector<sketchtree::TopKTracker> trackers;
  std::vector<std::vector<uint64_t>> buckets;
  std::vector<uint32_t> touched;
  std::vector<uint64_t> values;
  int64_t enum_ns = 0, prufer_ns = 0, sketch_ns = 0, topk_ns = 0;
  uint64_t patterns = 0, updates = 0, processed = 0, admitted = 0;
};

// Serial SketchTree::Update over the forest (the untraced reference),
// then the layer replay, then the plane comparison.
void ReplayIngestLayers(const std::vector<LabeledTree>& trees,
                        const sketchtree::SketchTreeOptions& options,
                        Metrics* m) {
  sketchtree::SketchTree serial =
      std::move(sketchtree::SketchTree::Create(options)).value();
  int64_t t0 = NowNs();
  for (const LabeledTree& tree : trees) serial.Update(tree);
  double update_s = static_cast<double>(NowNs() - t0) / 1e9;

  LayerReplay replay(options);
  int64_t t1 = NowNs();
  for (const LabeledTree& tree : trees) replay.Tree(tree);
  double replay_s = static_cast<double>(NowNs() - t1) / 1e9;
  bool identical = replay.PlaneEquals(serial);

  double enum_s = static_cast<double>(replay.enum_ns) / 1e9;
  double prufer_s = static_cast<double>(replay.prufer_ns) / 1e9;
  double sketch_s = static_cast<double>(replay.sketch_ns) / 1e9;
  double topk_s = static_cast<double>(replay.topk_ns) / 1e9;
  m->push_back({"enumtree.busy_s", enum_s});
  m->push_back({"enumtree.patterns", static_cast<double>(replay.patterns)});
  m->push_back({"prufer.busy_s", prufer_s});
  m->push_back({"sketch.busy_s", sketch_s});
  m->push_back({"sketch.updates", static_cast<double>(replay.updates)});
  m->push_back({"topk.busy_s", topk_s});
  m->push_back({"topk.processed", static_cast<double>(replay.processed)});
  m->push_back({"topk.admit_ratio",
                replay.processed == 0
                    ? 0.0
                    : static_cast<double>(replay.admitted) /
                          static_cast<double>(replay.processed)});
  m->push_back({"core.update_s", update_s});
  m->push_back(
      {"unattributed_s", update_s - (enum_s + prufer_s + sketch_s + topk_s)});
  m->push_back({"trace.overhead_ratio", replay_s / update_s});
  m->push_back({"replay.plane_identical", identical ? 1.0 : 0.0});
}

// ParallelIngester as `build --threads N` drives it: the producer's Add
// calls (time blocked on the shard queue) and Finish + the merge into a
// fresh base synopsis.
void ReplayParallel(const std::vector<LabeledTree>& trees,
                    const sketchtree::SketchTreeOptions& options, int threads,
                    Metrics* m) {
  sketchtree::ParallelIngestOptions ingest_options;
  ingest_options.num_threads = threads;
  sketchtree::ParallelIngester ingester =
      std::move(sketchtree::ParallelIngester::Create(options, ingest_options))
          .value();
  int64_t push_ns = 0;
  for (const LabeledTree& tree : trees) {
    LabeledTree copy = tree;
    int64_t a = NowNs();
    if (!ingester.Add(std::move(copy)).ok()) Die("Add failed");
    push_ns += NowNs() - a;
  }
  int64_t a = NowNs();
  sketchtree::SketchTree delta = std::move(ingester.Finish()).value();
  sketchtree::SketchTree base =
      std::move(sketchtree::SketchTree::Create(options)).value();
  if (!base.Merge(delta).ok()) Die("merge failed");
  int64_t b = NowNs();
  double max_p = 0, sum_p = 0;
  std::vector<sketchtree::ShardIngestStats> shards = ingester.ShardStats();
  for (const auto& s : shards) {
    max_p = std::max(max_p, static_cast<double>(s.patterns_ingested));
    sum_p += static_cast<double>(s.patterns_ingested);
  }
  m->push_back({"ingest.push_wait_s", static_cast<double>(push_ns) / 1e9});
  m->push_back({"ingest.merge_s", static_cast<double>(b - a) / 1e9});
  m->push_back({"ingest.shard_skew",
                sum_p > 0 ? max_p / (sum_p / static_cast<double>(shards.size()))
                          : 0.0});
  m->push_back({"topk.tracked_after_merge",
                static_cast<double>(base.Stats().tracked_patterns)});
}

// The serve query path on one synopsis: plan lookup or compile
// (PrepareCompiled), the projection matrix (counters plus top-k
// compensation), and the full ExecuteOn, for the open loop's pick order.
void ReplayQueries(const Flags& f, Metrics* m) {
  std::vector<QueryLine> queries = ReadQueries(f.Str("queries"));
  sketchtree::QueryServiceOptions service_options;
  service_options.plan_cache_capacity =
      static_cast<size_t>(f.Long("cache"));
  sketchtree::QueryService service =
      std::move(sketchtree::QueryService::CreateStatic(
                    std::move(sketchtree::SketchTree::LoadFromFile(
                                  f.Str("synopsis")))
                        .value(),
                    service_options))
          .value();
  std::shared_ptr<const sketchtree::SketchSnapshot> snapshot =
      service.snapshots().Current();
  std::vector<uint32_t> picks =
      ZipfPicks(queries.size(), f.Double("zipf"),
                static_cast<uint64_t>(f.Long("seed")),
                static_cast<size_t>(f.Long("picks")));
  std::vector<double> compile_us, projection_us, estimate_us;
  uint64_t hits = 0;
  for (uint32_t q : picks) {
    sketchtree::QueryKind kind = KindOf(queries[q].op);
    int64_t a = NowNs();
    auto prepared = service.PrepareCompiled(kind, queries[q].text, *snapshot);
    int64_t b = NowNs();
    if (!prepared.ok()) Die(prepared.status().ToString());
    if (prepared->cache_hit) {
      ++hits;
    } else {
      compile_us.push_back(static_cast<double>(b - a) / 1e3);
    }
    int64_t c = NowNs();
    std::vector<double> x = sketchtree::ComputeProjectionMatrix(
        snapshot->sketch.streams(), prepared->plan->plan.values);
    int64_t d = NowNs();
    projection_us.push_back(static_cast<double>(d - c) / 1e3);
    sketchtree::QueryRequest request;
    request.kind = kind;
    request.text = queries[q].text;
    int64_t e = NowNs();
    if (!service.ExecuteOn(request, snapshot).ok()) Die("query failed");
    estimate_us.push_back(static_cast<double>(NowNs() - e) / 1e3);
  }
  m->push_back({"server.compile_us", Median(compile_us)});
  m->push_back({"server.plan_cache.hit_ratio",
                static_cast<double>(hits) / static_cast<double>(picks.size())});
  m->push_back({"server.projection_us", Median(projection_us)});
  m->push_back({"server.estimate_us", Median(estimate_us)});
}

// What the `serve --input --store` ingest thread does besides Update:
// PublishCopyOf every --publish-every trees and Persist of each epoch,
// then the warm-restart load of the newest epoch.
void ReplayLive(const std::vector<LabeledTree>& trees,
                const sketchtree::SketchTreeOptions& options, const Flags& f,
                Metrics* m) {
  const uint64_t every = static_cast<uint64_t>(f.Long("publish-every"));
  std::string dir = f.Str("store");
  sketchtree::SynopsisStore store =
      std::move(sketchtree::SynopsisStore::Open(dir, {})).value();
  sketchtree::SketchTree live =
      std::move(sketchtree::SketchTree::Create(options)).value();
  sketchtree::SnapshotPublisher publisher;
  publisher.RetainPlanes(4);
  std::vector<double> publish_ms, persist_ms, bytes;
  int64_t update_ns = 0;
  auto publish = [&] {
    int64_t a = NowNs();
    uint64_t epoch = std::move(publisher.PublishCopyOf(live)).value();
    int64_t b = NowNs();
    if (!store.Persist(live, epoch).ok()) Die("persist failed");
    int64_t c = NowNs();
    publish_ms.push_back(static_cast<double>(b - a) / 1e6);
    persist_ms.push_back(static_cast<double>(c - b) / 1e6);
    struct stat st {};
    std::string path =
        dir + "/" + sketchtree::SynopsisStore::EpochFileName(epoch);
    if (::stat(path.c_str(), &st) == 0) {
      bytes.push_back(static_cast<double>(st.st_size));
    }
  };
  if (!publisher.PublishCopyOf(live).ok()) Die("publish failed");
  uint64_t done = 0;
  for (const LabeledTree& tree : trees) {
    int64_t a = NowNs();
    live.Update(tree);
    update_ns += NowNs() - a;
    if (++done % every == 0) publish();
  }
  publish();
  std::vector<double> load_ms;
  for (int i = 0; i < 5; ++i) {
    int64_t a = NowNs();
    auto loaded = store.LoadNewest();
    load_ms.push_back(static_cast<double>(NowNs() - a) / 1e6);
    if (!loaded.ok()) Die(loaded.status().ToString());
  }
  double sum_publish = 0;
  for (size_t i = 0; i < publish_ms.size(); ++i) {
    sum_publish += publish_ms[i] + persist_ms[i];
  }
  m->push_back({"snapshot.publish_ms", Median(publish_ms)});
  m->push_back({"store.persist_ms", Median(persist_ms)});
  m->push_back({"store.bytes_per_epoch", Median(bytes)});
  m->push_back({"store.load_ms", Median(load_ms)});
  double update_ms = static_cast<double>(update_ns) / 1e6;
  m->push_back({"live.publish_share", sum_publish / (sum_publish + update_ms)});
}

}  // namespace

int RunReplay(const Flags& f) {
  Metrics m;
  std::string what = f.Str("what");
  if (what == "ingest" || what == "live") {
    sketchtree::SketchTreeOptions options = CliOptions(f.Long("topk"));
    std::vector<LabeledTree> trees = ReplayParse(f.Str("forest"), &m);
    ReplayIngestLayers(trees, options, &m);
    if (what == "ingest") {
      ReplayParallel(trees, options, static_cast<int>(f.Long("threads")), &m);
    } else {
      ReplayLive(trees, options, f, &m);
    }
  } else if (what == "queries") {
    ReplayQueries(f, &m);
  } else {
    Die("unknown --what " + what);
  }
  PrintJson(m);
  return 0;
}

}  // namespace perfbench
