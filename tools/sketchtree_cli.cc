// sketchtree_cli — command-line front end for building, persisting, and
// querying SketchTree synopses over XML forests.
//
//   sketchtree_cli build --input forest.xml --output synopsis.bin
//                        [--k 4] [--s1 50] [--s2 7] [--streams 229]
//                        [--topk 100] [--summary] [--seed 42]
//   sketchtree_cli query    --synopsis synopsis.bin --pattern "A(B,C)"
//                           [--unordered]
//   sketchtree_cli extended --synopsis synopsis.bin --query "A(//B,*)"
//   sketchtree_cli expr     --synopsis synopsis.bin
//                           --expression "COUNT_ORD(A(B)) * COUNT_ORD(C)"
//   sketchtree_cli serve    --synopsis synopsis.bin [--port 7227]
//   sketchtree_cli stats    --synopsis synopsis.bin
//   sketchtree_cli inspect  --synopsis synopsis.bin
//
// The input forest is one XML document whose root's children are the
// stream trees (the paper's Section 7.2 construction). A synopsis file
// is the v3 paged image SketchTree::SaveToFile writes — the same
// encoding as a store epoch or a checkpoint, so every --synopsis,
// --inputs and --append reader takes either. `serve` maps the file; the
// other commands read it into memory. A build can be extended by
// loading it (--append) and streaming more documents.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <charconv>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/binary_io.h"
#include "common/timer.h"
#include "core/sketch_tree.h"
#include "faultinject/fault_injector.h"
#include "ingest/parallel_ingester.h"
#include "ingest/parse_pool.h"
#include "ingest/quarantine.h"
#include "metrics/metrics.h"
#include "query/pattern_query.h"
#include "cluster/coordinator.h"
#include "server/plan_store.h"
#include "server/query_service.h"
#include "server/snapshot.h"
#include "server/tcp_server.h"
#include "sketch/health.h"
#include "stats/sentinel.h"
#include "store/synopsis_store.h"
#include "trace/trace.h"
#include "xml/xml_tree_reader.h"

namespace {

using namespace sketchtree;

// Exit codes. Distinguishing "the synopsis was written but some stream
// trees were quarantined" from hard failure lets a driving script decide
// whether an imperfect build is usable.
constexpr int kExitOk = EXIT_SUCCESS;      // 0
constexpr int kExitFailure = EXIT_FAILURE; // 1: hard failure, no output.
constexpr int kExitUsage = 2;              // bad command line.
constexpr int kExitQuarantined = 3;        // completed, trees quarantined.

/// What an option's value must be. A count is a non-negative integer;
/// an int may be negative (--hedge-ms -1 disables hedging).
enum class OptionKind { kFlag, kText, kCount, kInt, kReal };

/// Every option any command takes; any other name is a usage error.
using enum OptionKind;
constexpr std::pair<std::string_view, OptionKind> kOptions[] = {
    {"append", kText}, {"breaker-cooldown-ms", kCount},
    {"breaker-threshold", kCount}, {"cache", kCount},
    {"checkpoint-dir", kText}, {"checkpoint-every", kCount},
    {"client-burst", kReal}, {"client-quota", kReal}, {"delta", kReal},
    {"epsilon", kReal}, {"expression", kText}, {"fail-fast", kFlag},
    {"fast-threshold", kReal}, {"faults", kText}, {"hedge-ms", kInt},
    {"input", kText}, {"inputs", kText}, {"json", kFlag}, {"k", kCount},
    {"lanes", kCount}, {"max-arrangements", kCount}, {"metrics-json", kText},
    {"no-mmap", kFlag}, {"output", kText}, {"parse-threads", kCount},
    {"pattern", kText}, {"plan-save-every-ms", kCount}, {"port", kCount},
    {"publish-every", kCount}, {"quarantine", kText}, {"query", kText},
    {"queue", kCount}, {"refresh-every-ms", kCount}, {"resume", kFlag},
    {"retries", kCount}, {"s1", kCount}, {"s2", kCount}, {"seed", kCount},
    {"sentinel", kCount}, {"shard-deadline-ms", kCount}, {"shards", kText},
    {"slow-query-ms", kCount}, {"slow-queue", kCount},
    {"slowlog-capacity", kCount}, {"starvation-bound", kCount},
    {"store", kText}, {"strategy", kText}, {"streams", kCount},
    {"summary", kFlag}, {"synopsis", kText}, {"threads", kCount},
    {"topk", kCount}, {"trace-out", kText}, {"trace-sample", kCount},
    {"unordered", kFlag}, {"workers", kCount},
};

/// A parsed command line. ParseArgs has checked every option name and
/// every numeric value, so the getters cannot meet a malformed one.
struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;

  bool HasFlag(const std::string& name) const {
    for (const std::string& flag : flags) {
      if (flag == name) return true;
    }
    return false;
  }

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }

  long GetLong(const std::string& name, long fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : std::atol(it->second.c_str());
  }

  double GetDouble(const std::string& name, double fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : std::atof(it->second.c_str());
  }
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  sketchtree_cli build --input FOREST.xml[,MORE.xml...]\n"
      "        --output SYNOPSIS.bin\n"
      "        [--k N] [--s1 N] [--s2 N] [--streams PRIME] [--topk N]\n"
      "        [--summary] [--seed N] [--append SYNOPSIS.bin] [--threads N]\n"
      "        [--parse-threads N]\n"
      "        [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]\n"
      "        [--fail-fast] [--quarantine PATH]\n"
      "        [--sentinel K] [--epsilon E] [--delta D]\n"
      "  sketchtree_cli query --synopsis SYNOPSIS.bin --pattern PAT\n"
      "        [--unordered] [--max-arrangements N]\n"
      "  sketchtree_cli extended --synopsis SYNOPSIS.bin --query EXTPAT\n"
      "  sketchtree_cli expr --synopsis SYNOPSIS.bin --expression EXPR\n"
      "  sketchtree_cli serve (--synopsis SYNOPSIS.bin | --input FOREST.xml\n"
      "        | --store DIR)\n"
      "        [--store DIR] [--no-mmap]\n"
      "        [--plan-save-every-ms N]\n"
      "        [--port 7227] [--workers N] [--queue N] [--cache N]\n"
      "        [--max-arrangements N] [--publish-every N]\n"
      "        [--lanes 1|2] [--slow-queue N] [--fast-threshold A]\n"
      "        [--starvation-bound N] [--client-quota QPS]\n"
      "        [--client-burst N] [--trace-sample N]\n"
      "        [--slow-query-ms N] [--slowlog-capacity N]\n"
      "        [build options when --input: --k --s1 --s2 --streams\n"
      "         --topk --summary --seed]\n"
      "  sketchtree_cli serve --shards PORT[,PORT...] [--port 7227]\n"
      "        [--strategy scatter|merged] [--refresh-every-ms N]\n"
      "        [--shard-deadline-ms N] [--retries N] [--hedge-ms N]\n"
      "        [--breaker-threshold N] [--breaker-cooldown-ms N]\n"
      "        [server options as above]\n"
      "  sketchtree_cli merge --inputs A.bin,B.bin[,...] --output OUT.bin\n"
      "  sketchtree_cli stats --synopsis SYNOPSIS.bin\n"
      "  sketchtree_cli inspect (--synopsis SYNOPSIS.bin | --store DIR)\n"
      "        [--json]\n"
      "\n"
      "  serve answers line-delimited JSON queries over TCP (loopback\n"
      "  only) against epoch-published snapshots of the synopsis: with\n"
      "  --synopsis a frozen one, with --input a live single-threaded\n"
      "  ingest republishing every --publish-every trees. Request:\n"
      "  {\"op\":\"count|count_ord|extended|expr|batch|stats|ping|shutdown\",\n"
      "   \"q\":\"...\", \"id\":..., \"client\":\"...\", \"timeout_ms\":N,\n"
      "   \"queries\":[{\"op\":...,\"q\":...},...] for batch}; --port 0\n"
      "  picks a free port (printed on stdout). Admission is two-lane:\n"
      "  cache hits and queries at most --fast-threshold arrangements go\n"
      "  fast, cold expensive compiles go slow and are shed first under\n"
      "  overload (RETRY_AFTER); --client-quota rate-limits per \"client\"\n"
      "  id. See DESIGN.md sections 10 and 12.\n"
      "\n"
      "  serve --shards runs a cluster *coordinator* instead: each port\n"
      "  is a worker `serve` process on loopback. Queries fan out\n"
      "  (scatter-gather, bit-exact vs. the merged path when all shards\n"
      "  are healthy) or answer from the locally merged synopsis\n"
      "  (--strategy merged; refreshed every --refresh-every-ms). Shard\n"
      "  calls get --retries attempts within --shard-deadline-ms, hedge\n"
      "  after --hedge-ms (-1 disables), and trip a circuit breaker after\n"
      "  --breaker-threshold consecutive failures. When a shard stays\n"
      "  down, replies degrade to partial:true with a widened error\n"
      "  scale instead of failing. See DESIGN.md section 13.\n"
      "\n"
      "  serve --store DIR persists every published epoch into DIR as a\n"
      "  full v3 paged snapshot — keeping the newest epoch and the one\n"
      "  before it as a fallback, pruning anything older — and saves\n"
      "  compiled plans to DIR/plans.skpc every --plan-save-every-ms\n"
      "  (default 2000; 0 disables). serve --store DIR *alone*\n"
      "  warm-restarts: the newest intact epoch is mmap-attached\n"
      "  read-only (--no-mmap or a failed map reads it into memory\n"
      "  instead, bit-identical either way), epoch numbering\n"
      "  continues where it left off, and the restored plan cache means\n"
      "  the first warm query compiles nothing. See DESIGN.md section\n"
      "  15.\n"
      "\n"
      "  a synopsis file is a v3 paged image, the same encoding as a\n"
      "  store epoch: every --synopsis, --inputs and --append takes\n"
      "  either. serve maps it read-only; the other commands read it\n"
      "  into memory. Files written in the older v2 format are refused;\n"
      "  rebuild them.\n"
      "\n"
      "  inspect --synopsis prints the file's page-level report — page\n"
      "  counts, cursor bytes, per-page CRC verdict — and then, when\n"
      "  every page verifies, a sketch health report (per-row occupancy\n"
      "  and moments, self-join size, Theorem-1 error scale, warnings);\n"
      "  --json emits one JSON object holding both. inspect --store DIR\n"
      "  prints the page-level report of every epoch without loading\n"
      "  counters. Exit 1 if any page fails validation.\n"
      "\n"
      "  build --sentinel K tracks exact counts for a K-pattern bottom-K\n"
      "  sample during a single-threaded build and reports the observed\n"
      "  relative error against the (epsilon, delta) contract\n"
      "  (defaults 0.1/0.1) after the stream ends.\n"
      "\n"
      "  any command also accepts --trace-out PATH to record a Chrome\n"
      "  trace (chrome://tracing / ui.perfetto.dev) of the run's pipeline\n"
      "  stages across all threads.\n"
      "\n"
      "  serve observability (DESIGN.md section 14): with --trace-out,\n"
      "  --trace-sample N head-samples 1 in N queries into the trace\n"
      "  (requests carrying a sampled `trace` wire field are always\n"
      "  traced); the coordinator forwards the context to its shards, so\n"
      "  per-process traces merge into one timeline with trace_merge.\n"
      "  --slow-query-ms N logs queries at or over N ms end to end into\n"
      "  a --slowlog-capacity ring, drained by the `slowlog` wire op;\n"
      "  the `metrics` op serves the registry in Prometheus text form.\n"
      "\n"
      "  --parse-threads N (or a comma-separated --input list) runs the\n"
      "  parse front end in parallel: each document is split into\n"
      "  per-tree byte ranges and N threads SAX-parse trees\n"
      "  concurrently, feeding the --threads sketch shards. The combined\n"
      "  synopsis is bit-identical to a serial build (with --topk 0).\n"
      "  Incompatible with --checkpoint-dir/--resume/--sentinel.\n"
      "\n"
      "  build checkpointing: with --checkpoint-dir, every\n"
      "  --checkpoint-every trees (default 5000) the synopsis (with\n"
      "  --threads, the base plus every shard at a consistent cut) and\n"
      "  the stream cursor are persisted together as one synopsis-store\n"
      "  epoch in DIR; --resume takes the newest intact epoch as the\n"
      "  synopsis and replays --input past its cursor, whatever\n"
      "  --threads either run used. Malformed stream trees are\n"
      "  quarantined (counted, sampled into --quarantine PATH, default\n"
      "  OUTPUT.quarantine) unless --fail-fast.\n"
      "\n"
      "  any command also accepts --metrics-json PATH to dump the\n"
      "  process metrics registry as JSON on exit, and --faults SPEC (or\n"
      "  env SKETCHTREE_FAULTS) to arm fault injection,\n"
      "  SPEC = site@skip[xcount][:param],...\n"
      "\n"
      "  exit codes: 0 success; 1 hard failure (no usable output);\n"
      "  2 usage error (an unknown option, or a numeric option whose\n"
      "  value is not a number, or negative where a count is due);\n"
      "  3 build completed and synopsis written, but some stream trees\n"
      "  were quarantined.\n");
  return kExitUsage;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return kExitFailure;
}

/// InvalidArgument naming the option unless `value` is, in full, a
/// number of the option's kind.
Status CheckOptionValue(const std::string& name, OptionKind kind,
                        const std::string& value) {
  const char* begin = value.c_str();
  const char* end = begin + value.size();
  bool ok = false;
  if (kind == OptionKind::kReal) {
    char* parsed_end = nullptr;
    std::strtod(begin, &parsed_end);
    ok = !value.empty() && parsed_end == end;
  } else {
    long number = 0;
    std::from_chars_result parsed = std::from_chars(begin, end, number);
    ok = parsed.ec == std::errc() && parsed.ptr == end &&
         (kind == OptionKind::kInt || number >= 0);
  }
  if (ok) return Status::OK();
  const char* what = kind == OptionKind::kCount ? "a non-negative integer"
                     : kind == OptionKind::kInt ? "an integer"
                                                : "a number";
  return Status::InvalidArgument("--" + name + " must be " + what +
                                 ", not '" + value + "'");
}

Result<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" +
                                     std::string(arg) + "'");
    }
    std::string name(arg.substr(2));
    const auto* option =
        std::find_if(std::begin(kOptions), std::end(kOptions),
                     [&](const auto& entry) { return entry.first == name; });
    if (option == std::end(kOptions)) {
      return Status::InvalidArgument("unknown option --" + name);
    }
    // Boolean flags take no value; everything else consumes the next arg.
    if (option->second == OptionKind::kFlag) {
      args.flags.push_back(name);
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("--" + name + " needs a value");
    }
    std::string value = argv[++i];
    if (option->second != OptionKind::kText) {
      SKETCHTREE_RETURN_NOT_OK(CheckOptionValue(name, option->second, value));
    }
    args.options[name] = std::move(value);
  }
  return args;
}

/// The sketch options of a synopsis `build` or `serve --input` creates.
SketchTreeOptions SketchOptionsFromArgs(const Args& args) {
  SketchTreeOptions options;
  options.max_pattern_edges = static_cast<int>(args.GetLong("k", 4));
  options.s1 = static_cast<int>(args.GetLong("s1", 50));
  options.s2 = static_cast<int>(args.GetLong("s2", 7));
  options.num_virtual_streams =
      static_cast<uint32_t>(args.GetLong("streams", 229));
  options.topk_size = static_cast<size_t>(args.GetLong("topk", 100));
  options.seed = static_cast<uint64_t>(args.GetLong("seed", 42));
  options.build_structural_summary = args.HasFlag("summary");
  return options;
}

/// Rate-limited build progress on stderr. Reads the process metrics
/// registry rather than threading counters through the callbacks —
/// which also guarantees the ingest gauges exist in a --metrics-json
/// dump even for a single-threaded build.
class ProgressReporter {
 public:
  ProgressReporter()
      : patterns_(GlobalMetrics().GetCounter("sketch.patterns_ingested")),
        queue_depth_(GlobalMetrics().GetGauge("ingest.queue_depth")) {}

  void MaybeReport(uint64_t trees) {
    double elapsed = timer_.ElapsedSeconds();
    if (elapsed - last_report_ < 1.0) return;
    last_report_ = elapsed;
    std::fprintf(stderr,
                 "progress: %llu trees, %llu patterns, %.0f trees/s, "
                 "queue depth %lld\n",
                 static_cast<unsigned long long>(trees),
                 static_cast<unsigned long long>(patterns_->value()),
                 elapsed > 0 ? static_cast<double>(trees) / elapsed : 0.0,
                 static_cast<long long>(queue_depth_->value()));
  }

  /// Publishes end-of-build throughput into the registry.
  void Finish(uint64_t trees, uint64_t patterns) const {
    double elapsed = timer_.ElapsedSeconds();
    if (elapsed <= 0) return;
    GlobalMetrics()
        .GetGauge("ingest.trees_per_sec")
        ->Set(static_cast<int64_t>(static_cast<double>(trees) / elapsed));
    GlobalMetrics()
        .GetGauge("ingest.patterns_per_sec")
        ->Set(static_cast<int64_t>(static_cast<double>(patterns) / elapsed));
  }

 private:
  WallTimer timer_;
  double last_report_ = 0.0;
  Counter* patterns_;
  Gauge* queue_depth_;
};

/// Splits a comma-separated option value into its non-empty components.
std::vector<std::string> SplitCommaList(const std::string& value) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= value.size()) {
    size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    if (comma > start) parts.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

/// What a build checkpoint stores beside its synopsis: how far into the
/// source the committed prefix reaches. Replaying the source past
/// `trees_streamed` reproduces the uninterrupted run bit-exactly.
struct BuildCursor {
  /// The --input the cursor refers to; resume refuses another source.
  std::string source;
  /// Stream trees fully ingested at the cut: resume skips this many.
  uint64_t trees_streamed = 0;
  /// Byte offset just past the last committed tree (diagnostic).
  uint64_t byte_offset = 0;
  /// Malformed trees quarantined before the cut, restored on resume so
  /// end-of-build accounting spans the whole logical run.
  uint64_t quarantined_trees = 0;

  std::string Encode() const {
    BinaryWriter writer;
    writer.WriteString(source);
    writer.WriteU64(trees_streamed);
    writer.WriteU64(byte_offset);
    writer.WriteU64(quarantined_trees);
    return writer.Release();
  }

  static Result<BuildCursor> Decode(std::string_view bytes) {
    BinaryReader reader(bytes);
    BuildCursor cursor;
    Result<std::string> source = reader.ReadString();
    Result<uint64_t> trees = reader.ReadU64();
    Result<uint64_t> offset = reader.ReadU64();
    Result<uint64_t> quarantined = reader.ReadU64();
    if (!source.ok() || !trees.ok() || !offset.ok() || !quarantined.ok() ||
        !reader.AtEnd()) {
      return Status::Corruption("checkpoint epoch carries no valid build "
                                "cursor (not written by build?)");
    }
    cursor.source = std::move(source).value();
    cursor.trees_streamed = *trees;
    cursor.byte_offset = *offset;
    cursor.quarantined_trees = *quarantined;
    return cursor;
  }
};

int RunBuild(const Args& args) {
  std::string input = args.Get("input");
  std::string output = args.Get("output");
  if (input.empty() || output.empty()) return Usage();
  std::vector<std::string> inputs = SplitCommaList(input);
  if (inputs.empty()) return Usage();

  // Stream tree-at-a-time: only the current document (plus, with
  // --threads, the bounded hand-off queue) is materialized.
  long threads = args.GetLong("threads", 1);
  if (threads < 1) {
    std::fprintf(stderr, "error: --threads must be a positive integer\n");
    return kExitUsage;
  }
  long parse_threads = args.GetLong("parse-threads", 1);
  if (parse_threads < 1) {
    std::fprintf(stderr,
                 "error: --parse-threads must be a positive integer\n");
    return kExitUsage;
  }
  // The parse pool materializes every input document and hands trees
  // over in nondeterministic order; multi-document builds always route
  // through it (the serial streamer reads exactly one document).
  const bool use_parse_pool = parse_threads > 1 || inputs.size() > 1;
  std::string checkpoint_dir = args.Get("checkpoint-dir");
  long checkpoint_every = args.GetLong("checkpoint-every", 5000);
  if (checkpoint_every < 1) {
    std::fprintf(stderr,
                 "error: --checkpoint-every must be a positive integer\n");
    return kExitUsage;
  }
  if (args.HasFlag("resume") && checkpoint_dir.empty()) {
    std::fprintf(stderr, "error: --resume requires --checkpoint-dir\n");
    return kExitUsage;
  }
  if (use_parse_pool && !checkpoint_dir.empty()) {
    // Checkpoints record a committed stream prefix (tree ordinal + byte
    // cursor); out-of-order parallel parsing has no such prefix.
    std::fprintf(stderr,
                 "error: --checkpoint-dir/--resume require the serial "
                 "parse path (drop --parse-threads and use a single "
                 "--input document)\n");
    return kExitUsage;
  }

  // Checkpoints are synopsis-store epochs. Loads materialize into
  // owned memory: a resumed synopsis keeps ingesting.
  std::optional<SynopsisStore> checkpoints;
  if (!checkpoint_dir.empty()) {
    SynopsisStoreOptions store_options;
    store_options.use_mmap = false;
    Result<SynopsisStore> opened =
        SynopsisStore::Open(checkpoint_dir, store_options);
    if (!opened.ok()) return Fail(opened.status());
    checkpoints.emplace(std::move(opened).value());
  }

  // One resume rule for every path: the newest intact epoch replaces
  // the base synopsis and the source replays past its cursor. An empty
  // checkpoint directory is not an error — first run of a crash-restart
  // loop starts from scratch — but a cursor for a different source is:
  // silently mixing streams would corrupt the synopsis's meaning.
  BuildCursor restored;
  std::optional<SketchTree> resumed;
  if (args.HasFlag("resume")) {
    if (checkpoints->newest_epoch() == 0) {
      std::fprintf(stderr,
                   "note: no checkpoint in %s, starting from the "
                   "beginning\n",
                   checkpoint_dir.c_str());
    } else {
      Result<LoadedSynopsis> loaded = checkpoints->LoadNewest();
      if (!loaded.ok()) return Fail(loaded.status());
      Result<BuildCursor> cursor = BuildCursor::Decode(loaded->cursor);
      if (!cursor.ok()) return Fail(cursor.status());
      restored = std::move(cursor).value();
      if (restored.source != input) {
        std::fprintf(stderr,
                     "error: checkpoint %llu was written for '%s', not "
                     "'%s'\n",
                     static_cast<unsigned long long>(loaded->epoch),
                     restored.source.c_str(), input.c_str());
        return kExitFailure;
      }
      std::fprintf(stderr,
                   "resuming from checkpoint %llu: %llu trees committed, "
                   "%llu quarantined\n",
                   static_cast<unsigned long long>(loaded->epoch),
                   static_cast<unsigned long long>(restored.trees_streamed),
                   static_cast<unsigned long long>(
                       restored.quarantined_trees));
      resumed.emplace(std::move(loaded->sketch));
    }
  }

  Result<SketchTree> sketch_result = [&]() -> Result<SketchTree> {
    if (resumed.has_value()) return std::move(*resumed);
    std::string append = args.Get("append");
    if (!append.empty()) return SketchTree::LoadFromFile(append);
    return SketchTree::Create(SketchOptionsFromArgs(args));
  }();
  if (!sketch_result.ok()) return Fail(sketch_result.status());
  SketchTree sketch = std::move(sketch_result).value();

  // Accuracy sentinel: exact counters for a sampled pattern subset,
  // measured against the sketch after the stream ends. Single-threaded
  // only — shard replicas each see a slice of the stream, so per-shard
  // exact counts would not correspond to the merged synopsis.
  std::optional<AccuracySentinel> sentinel;
  long sentinel_k = args.GetLong("sentinel", 0);
  if (sentinel_k > 0) {
    if (threads > 1 || use_parse_pool) {
      std::fprintf(stderr,
                   "error: --sentinel requires a single-threaded build "
                   "(drop --threads/--parse-threads, single --input)\n");
      return kExitUsage;
    }
    SentinelOptions sentinel_options;
    sentinel_options.capacity = static_cast<size_t>(sentinel_k);
    sentinel_options.epsilon = args.GetDouble("epsilon", 0.1);
    sentinel_options.delta = args.GetDouble("delta", 0.1);
    sentinel.emplace(sentinel_options);
  }

  // Quarantine sink for malformed stream trees (default). --fail-fast
  // restores abort-on-first-error.
  QuarantineOptions quarantine_options;
  quarantine_options.sidecar_path =
      args.Get("quarantine", output + ".quarantine");
  QuarantineSink quarantine(quarantine_options);
  ForestStreamOptions stream_options;
  stream_options.fail_fast = args.HasFlag("fail-fast");
  stream_options.quarantine = &quarantine;
  stream_options.skip_trees = restored.trees_streamed;
  quarantine.set_base_count(restored.quarantined_trees);

  uint64_t trees = 0;
  uint64_t patterns = 0;
  ForestStreamStats stream_stats;
  ProgressReporter progress;
  // Consumed-tree ordinal (skipped prefix included) at which the next
  // checkpoint is due.
  uint64_t next_checkpoint = stream_options.skip_trees + checkpoint_every;
  auto checkpoint_due = [&](uint64_t tree_index) {
    return checkpoints.has_value() && tree_index + 1 >= next_checkpoint;
  };
  // Commits `synopsis` — everything ingested through `tree_index` — and
  // the cursor as the next epoch.
  auto write_checkpoint = [&](uint64_t tree_index, uint64_t end_byte_offset,
                              const SketchTree& synopsis) -> Status {
    TRACE_SPAN("checkpoint.write");
    BuildCursor cursor;
    cursor.source = input;
    cursor.trees_streamed = tree_index + 1;
    cursor.byte_offset = end_byte_offset;
    cursor.quarantined_trees = quarantine.count();
    SKETCHTREE_RETURN_NOT_OK(checkpoints->Persist(
        synopsis, checkpoints->newest_epoch() + 1, cursor.Encode()));
    next_checkpoint = tree_index + 1 + checkpoint_every;
    return Status::OK();
  };

  if (use_parse_pool) {
    // Parallel parse front end: documents are split into per-tree byte
    // ranges, --parse-threads SAX parsers consume the combined work
    // list, and parsed trees feed the --threads sketch shards. Trees
    // arrive unordered, but ±1 integer counters make the result
    // bit-identical to a serial build (see parse_pool.h).
    if (sketch.options().topk_size > 0) {
      std::fprintf(stderr,
                   "note: parallel parse with top-k tracking: tracked "
                   "patterns depend on arrival order, so the tracked set "
                   "(not the counters) may differ from a serial build "
                   "(use --topk 0 for a bit-identical one)\n");
    }
    ParallelIngestOptions ingest_options;
    ingest_options.num_threads = static_cast<int>(threads);
    // Several parser threads produce concurrently; the inline
    // single-thread shortcut is only safe with one producer.
    ingest_options.inline_single_thread = parse_threads == 1;
    Result<ParallelIngester> ingester =
        ParallelIngester::Create(sketch.options(), ingest_options);
    if (!ingester.ok()) return Fail(ingester.status());
    ParsePoolOptions pool_options;
    pool_options.num_threads = static_cast<int>(parse_threads);
    pool_options.fail_fast = stream_options.fail_fast;
    pool_options.quarantine = &quarantine;
    ParsePoolStats pool_stats;
    Status parsed = ParseForestFilesParallel(inputs, pool_options,
                                             &ingester.value(), &pool_stats);
    if (!parsed.ok()) return Fail(parsed);
    Result<SketchTree> delta = ingester->Finish();
    if (!delta.ok()) return Fail(delta.status());
    trees = pool_stats.trees_parsed;
    stream_stats.trees_quarantined = pool_stats.trees_quarantined;
    patterns = delta->Stats().patterns_processed;
    Status merge_status = sketch.Merge(*delta);
    if (!merge_status.ok()) return Fail(merge_status);
  } else if (threads > 1) {
    // Sharded ingestion: N worker replicas built from the synopsis's own
    // options consume the stream and are merged into `sketch` at the end
    // (exact by sketch linearity — works for fresh builds, --append and
    // resumes). A checkpoint is the base plus the shards at a cut.
    ParallelIngestOptions ingest_options;
    ingest_options.num_threads = static_cast<int>(threads);
    if (sketch.options().topk_size > 0) {
      std::fprintf(stderr,
                   "note: --threads %ld with top-k tracking: merging "
                   "re-adds each shard's tracked mass, so estimates stay "
                   "unbiased but the combined synopsis keeps no tracked "
                   "patterns (use --topk 0 for a bit-identical parallel "
                   "build)\n",
                   threads);
    }
    Result<ParallelIngester> ingester =
        ParallelIngester::Create(sketch.options(), ingest_options);
    if (!ingester.ok()) return Fail(ingester.status());
    Status stream_status = StreamXmlForestFileEx(
        input,
        [&](LabeledTree tree, uint64_t tree_index,
            uint64_t end_byte_offset) -> Status {
          ++trees;
          SKETCHTREE_RETURN_NOT_OK(ingester->Add(std::move(tree)));
          if (checkpoint_due(tree_index)) {
            SketchTree cut = sketch;
            SKETCHTREE_ASSIGN_OR_RETURN(SketchTree shards,
                                        ingester->SnapshotShards());
            SKETCHTREE_RETURN_NOT_OK(cut.Merge(shards));
            SKETCHTREE_RETURN_NOT_OK(
                write_checkpoint(tree_index, end_byte_offset, cut));
          }
          progress.MaybeReport(trees);
          return Status::OK();
        },
        stream_options, &stream_stats);
    if (!stream_status.ok()) return Fail(stream_status);
    Result<SketchTree> delta = ingester->Finish();
    if (!delta.ok()) return Fail(delta.status());
    std::vector<ShardIngestStats> shard_stats = ingester->ShardStats();
    for (size_t t = 0; t < shard_stats.size(); ++t) {
      std::fprintf(stderr, "shard %zu: %llu trees, %llu patterns\n", t,
                   static_cast<unsigned long long>(
                       shard_stats[t].trees_ingested),
                   static_cast<unsigned long long>(
                       shard_stats[t].patterns_ingested));
    }
    patterns = delta->Stats().patterns_processed;
    Status merge_status = sketch.Merge(*delta);
    if (!merge_status.ok()) return Fail(merge_status);
  } else {
    if (sentinel.has_value()) sketch.AttachSentinel(&*sentinel);
    Status stream_status = StreamXmlForestFileEx(
        input,
        [&](LabeledTree tree, uint64_t tree_index,
            uint64_t end_byte_offset) -> Status {
          patterns += sketch.Update(tree);
          ++trees;
          if (checkpoint_due(tree_index)) {
            SKETCHTREE_RETURN_NOT_OK(
                write_checkpoint(tree_index, end_byte_offset, sketch));
          }
          progress.MaybeReport(trees);
          return Status::OK();
        },
        stream_options, &stream_stats);
    if (!stream_status.ok()) return Fail(stream_status);
  }
  progress.Finish(trees, patterns);
  // Sketch health rides along in the metrics dump of every build; the
  // sentinel verdict (when armed) prints with the build summary.
  PublishHealthMetrics(ComputeSketchHealth(sketch), &GlobalMetrics());
  if (sentinel.has_value()) {
    sketch.AttachSentinel(nullptr);
    SentinelReport report = sentinel->Report(sketch);
    PublishSentinelMetrics(report, &GlobalMetrics());
    std::fputs(report.ToText().c_str(), stdout);
  }
  if (stream_stats.trees_skipped > 0) {
    std::fprintf(stderr, "replayed past %llu committed trees\n",
                 static_cast<unsigned long long>(stream_stats.trees_skipped));
  }
  std::printf("streamed %llu trees (%llu patterns) from %s\n",
              static_cast<unsigned long long>(trees),
              static_cast<unsigned long long>(patterns), input.c_str());

  Status save = sketch.SaveToFile(output);
  if (!save.ok()) return Fail(save);
  SketchTreeStats stats = sketch.Stats();
  std::printf("synopsis written to %s (%zu bytes in memory, %llu trees "
              "total)\n",
              output.c_str(), stats.memory_bytes,
              static_cast<unsigned long long>(stats.trees_processed));
  Status sidecar = quarantine.Close();
  if (!sidecar.ok()) {
    std::fprintf(stderr, "warning: %s\n", sidecar.ToString().c_str());
  }
  if (quarantine.count() > 0) {
    std::fprintf(stderr,
                 "warning: %llu malformed tree(s) quarantined (samples in "
                 "%s)\n",
                 static_cast<unsigned long long>(quarantine.count()),
                 quarantine_options.sidecar_path.c_str());
    return kExitQuarantined;
  }
  return kExitOk;
}

/// Loads the synopsis named by --synopsis and stands up a one-snapshot
/// QueryService around it. All three one-shot query commands (and
/// nothing else) share this path, so the CLI and the TCP server answer
/// through the same compile/estimate implementation.
Result<QueryService> LoadQueryService(const Args& args) {
  SKETCHTREE_ASSIGN_OR_RETURN(SketchTree sketch,
                              SketchTree::LoadFromFile(args.Get("synopsis")));
  QueryServiceOptions service_options;
  long max_arrangements = args.GetLong("max-arrangements", 0);
  if (max_arrangements > 0) {
    service_options.max_arrangements =
        static_cast<size_t>(max_arrangements);
  }
  return QueryService::CreateStatic(std::move(sketch), service_options);
}

/// One-shot query execution: compile + estimate via QueryService, print
/// in the command's historical format.
int RunOneShot(const Args& args, QueryKind kind, const std::string& text) {
  Result<QueryService> service = LoadQueryService(args);
  if (!service.ok()) return Fail(service.status());
  QueryRequest request;
  request.kind = kind;
  request.text = text;
  Result<QueryAnswer> answer = service->Execute(request);
  if (!answer.ok()) return Fail(answer.status());
  switch (kind) {
    case QueryKind::kOrdered:
    case QueryKind::kUnordered:
      std::printf("%s(%s) ~= %.1f\n",
                  kind == QueryKind::kUnordered ? "COUNT" : "COUNT_ord",
                  text.c_str(), answer->estimate);
      break;
    case QueryKind::kExtended:
      std::printf("COUNT_ord(%s) ~= %.1f\n", text.c_str(),
                  answer->estimate);
      break;
    case QueryKind::kExpression:
      std::printf("%s ~= %.1f\n", text.c_str(), answer->estimate);
      break;
  }
  return EXIT_SUCCESS;
}

int RunQuery(const Args& args) {
  std::string pattern_text = args.Get("pattern");
  if (args.Get("synopsis").empty() || pattern_text.empty()) return Usage();
  return RunOneShot(args,
                    args.HasFlag("unordered") ? QueryKind::kUnordered
                                              : QueryKind::kOrdered,
                    pattern_text);
}

int RunExtended(const Args& args) {
  std::string query_text = args.Get("query");
  if (args.Get("synopsis").empty() || query_text.empty()) return Usage();
  return RunOneShot(args, QueryKind::kExtended, query_text);
}

int RunExpr(const Args& args) {
  std::string expression = args.Get("expression");
  if (args.Get("synopsis").empty() || expression.empty()) return Usage();
  return RunOneShot(args, QueryKind::kExpression, expression);
}

QueryServiceOptions ServiceOptionsFromArgs(const Args& args) {
  QueryServiceOptions service_options;
  long cache = args.GetLong("cache", 0);
  if (cache > 0) service_options.plan_cache_capacity =
      static_cast<size_t>(cache);
  long max_arrangements = args.GetLong("max-arrangements", 0);
  if (max_arrangements > 0) {
    service_options.max_arrangements =
        static_cast<size_t>(max_arrangements);
  }
  return service_options;
}

QueryServerOptions ServerOptionsFromArgs(const Args& args) {
  QueryServerOptions server_options;
  server_options.port = static_cast<int>(args.GetLong("port", 7227));
  server_options.num_workers = static_cast<int>(args.GetLong("workers", 4));
  long queue = args.GetLong("queue", 0);
  if (queue > 0) server_options.queue_capacity = static_cast<size_t>(queue);
  // Two-lane scheduling (DESIGN.md section 12): on by default;
  // --lanes 1 restores the single pre-lane FIFO for comparison.
  server_options.two_lanes = args.GetLong("lanes", 2) >= 2;
  long slow_queue = args.GetLong("slow-queue", 0);
  if (slow_queue > 0) {
    server_options.slow_queue_capacity = static_cast<size_t>(slow_queue);
  }
  double fast_threshold = args.GetDouble("fast-threshold", 0.0);
  if (fast_threshold > 0.0) {
    server_options.fast_lane_max_arrangements = fast_threshold;
  }
  long starvation = args.GetLong("starvation-bound", 0);
  if (starvation > 0) {
    server_options.starvation_bound = static_cast<int>(starvation);
  }
  server_options.client_quota_qps = args.GetDouble("client-quota", 0.0);
  server_options.client_quota_burst = args.GetDouble("client-burst", 0.0);
  // Observability (DESIGN.md section 14). Head sampling only records
  // when the recorder is on, i.e. with --trace-out; slow-query logging
  // is independent of tracing.
  long trace_sample = args.GetLong("trace-sample", 0);
  if (trace_sample > 0) {
    server_options.trace_sample_every =
        static_cast<uint64_t>(trace_sample);
  }
  server_options.slow_query_ms = args.GetLong("slow-query-ms", 0);
  long slowlog_capacity = args.GetLong("slowlog-capacity", 0);
  if (slowlog_capacity > 0) {
    server_options.slow_query_log_capacity =
        static_cast<size_t>(slowlog_capacity);
  }
  return server_options;
}

/// serve --shards: the cluster coordinator front end (DESIGN.md
/// section 13). Connects to the worker `serve` processes, performs the
/// initial merge, and serves the same wire protocol with per-request
/// strategy override, retries, hedging, and graceful degradation.
int RunCoordinator(const Args& args, const std::string& shards_csv) {
  CoordinatorOptions coordinator_options;
  for (const std::string& entry : SplitCommaList(shards_csv)) {
    ShardAddress address;
    size_t colon = entry.rfind(':');
    if (colon != std::string::npos) {
      address.host = entry.substr(0, colon);
      address.port = std::atoi(entry.c_str() + colon + 1);
    } else {
      address.port = std::atoi(entry.c_str());
    }
    if (address.port <= 0 || address.port > 65535) {
      std::fprintf(stderr, "error: bad shard \"%s\" in --shards\n",
                   entry.c_str());
      return kExitUsage;
    }
    coordinator_options.shards.push_back(std::move(address));
  }
  std::string strategy = args.Get("strategy");
  if (strategy == "merged") {
    coordinator_options.default_strategy = ClusterStrategy::kMerged;
  } else if (!strategy.empty() && strategy != "scatter") {
    std::fprintf(stderr,
                 "error: --strategy must be scatter or merged\n");
    return kExitUsage;
  }
  coordinator_options.service = ServiceOptionsFromArgs(args);
  coordinator_options.refresh_every_ms =
      args.GetLong("refresh-every-ms", 2000);
  coordinator_options.shard_deadline_ms =
      args.GetLong("shard-deadline-ms", 1000);
  coordinator_options.max_attempts =
      static_cast<int>(args.GetLong("retries", 3));
  coordinator_options.hedge_min_ms = args.GetLong("hedge-ms", 20);
  coordinator_options.breaker_threshold =
      static_cast<int>(args.GetLong("breaker-threshold", 3));
  coordinator_options.breaker_cooldown_ms =
      args.GetLong("breaker-cooldown-ms", 500);

  Result<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Start(coordinator_options);
  if (!coordinator.ok()) return Fail(coordinator.status());

  QueryServerOptions server_options = ServerOptionsFromArgs(args);
  Coordinator* cluster = coordinator->get();
  server_options.cluster_handler =
      [cluster](QueryKind kind, const std::string& text,
                const std::optional<std::chrono::steady_clock::time_point>&
                    deadline,
                const std::string& strategy_override,
                const TraceContext& trace) {
        return cluster->Execute(kind, text, deadline, strategy_override,
                                trace);
      };
  server_options.stats_extra_fields = [cluster] {
    return cluster->StatsJsonFields();
  };
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(cluster->service(), server_options);
  if (!server.ok()) return Fail(server.status());
  std::printf("coordinating %d shards on 127.0.0.1:%d\n",
              cluster->shards_total(), (*server)->port());
  std::fflush(stdout);
  (*server)->WaitForShutdown();
  (*server)->Shutdown();
  cluster->Stop();
  std::printf("coordinator stopped\n");
  return EXIT_SUCCESS;
}

int RunServe(const Args& args) {
  std::string shards_csv = args.Get("shards");
  if (!shards_csv.empty()) return RunCoordinator(args, shards_csv);
  std::string synopsis = args.Get("synopsis");
  std::string input = args.Get("input");
  std::string store_dir = args.Get("store");
  int sources = (synopsis.empty() ? 0 : 1) + (input.empty() ? 0 : 1);
  if (sources > 1 || (sources == 0 && store_dir.empty())) {
    std::fprintf(stderr,
                 "error: serve needs exactly one of --synopsis (frozen "
                 "synopsis), --input (live ingest), --shards (cluster "
                 "coordinator), or --store alone (warm restart from the "
                 "newest persisted epoch)\n");
    return kExitUsage;
  }

  QueryServiceOptions service_options = ServiceOptionsFromArgs(args);
  QueryServerOptions server_options = ServerOptionsFromArgs(args);
  long publish_every = args.GetLong("publish-every", 1000);
  if (publish_every < 1) {
    std::fprintf(stderr,
                 "error: --publish-every must be a positive integer\n");
    return kExitUsage;
  }
  bool use_mmap = !args.HasFlag("no-mmap");
  long plan_save_every_ms = args.GetLong("plan-save-every-ms", 2000);

  std::optional<SynopsisStore> store;
  if (!store_dir.empty()) {
    SynopsisStoreOptions store_options;
    store_options.use_mmap = use_mmap;
    Result<SynopsisStore> opened =
        SynopsisStore::Open(store_dir, store_options);
    if (!opened.ok()) return Fail(opened.status());
    store.emplace(std::move(opened).value());
  }

  // The live synopsis (ingest mode) or the frozen one (synopsis / warm
  // restart); snapshots of it flow to readers through the publisher.
  SnapshotPublisher publisher;
  std::optional<SketchTree> live;
  // A mapped warm start aliases this mapping from inside the published
  // snapshot; it must live as long as the server does.
  std::shared_ptr<MmapFile> mapping;
  SketchTreeOptions sketch_options;

  if (!input.empty()) {
    Result<SketchTree> created =
        SketchTree::Create(SketchOptionsFromArgs(args));
    if (!created.ok()) return Fail(created.status());
    live.emplace(std::move(created).value());
    sketch_options = live->options();
    // Epoch numbering continues past whatever the store already holds,
    // so persisted epochs never run backwards across restarts.
    if (store) publisher.SetNextEpoch(store->newest_epoch() + 1);
    // First epoch: the empty sketch (live mode serves zeros until the
    // first publish).
    Result<uint64_t> first = publisher.PublishCopyOf(*live);
    if (!first.ok()) return Fail(first.status());
  } else if (!synopsis.empty()) {
    Result<LoadedSynopsis> loaded = LoadPagedSnapshotFile(synopsis, use_mmap);
    if (!loaded.ok()) return Fail(loaded.status());
    sketch_options = loaded->sketch.options();
    mapping = loaded->mapping;
    if (loaded->mapped) {
      std::fprintf(stderr, "synopsis mapped read-only (epoch %llu)\n",
                   static_cast<unsigned long long>(loaded->epoch));
    }
    // Frozen mode: the sketch moves straight into the publisher — no
    // copy, which is what keeps a mapped load zero-copy.
    if (loaded->epoch > 0) publisher.SetNextEpoch(loaded->epoch);
    publisher.Publish(std::move(loaded->sketch));
  } else {
    Result<LoadedSynopsis> loaded = store->LoadNewest();
    if (!loaded.ok()) return Fail(loaded.status());
    sketch_options = loaded->sketch.options();
    mapping = loaded->mapping;
    std::fprintf(stderr, "warm restart: epoch %llu (%s), %llu trees\n",
                 static_cast<unsigned long long>(loaded->epoch),
                 loaded->mapped ? "mmap" : "materialized",
                 static_cast<unsigned long long>(
                     loaded->sketch.Stats().trees_processed));
    publisher.SetNextEpoch(loaded->epoch);
    publisher.Publish(std::move(loaded->sketch));
  }

  Result<QueryService> service =
      QueryService::Create(sketch_options, service_options, &publisher);
  if (!service.ok()) return Fail(service.status());

  // Plan-cache persistence: restore at startup so the first warm query
  // after a restart compiles nothing; failures other than "no file yet"
  // degrade to a cold cache with a warning.
  if (store) {
    Result<size_t> restored = LoadPlanCache(
        store->PlanCachePath(), sketch_options, &service->plan_cache());
    if (restored.ok()) {
      std::fprintf(stderr, "plan cache: restored %zu plans\n",
                   restored.value());
    } else if (!restored.status().IsNotFound()) {
      std::fprintf(stderr, "warning: plan cache not restored: %s\n",
                   restored.status().ToString().c_str());
    }
  }

  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), server_options);
  if (!server.ok()) return Fail(server.status());
  std::printf("serving on 127.0.0.1:%d\n", (*server)->port());
  std::fflush(stdout);

  // Periodic plan saver: every --plan-save-every-ms, write the cache to
  // the store when compiles happened since the last save (every cold
  // compile is a cache miss, so the miss counter is the change marker).
  std::atomic<bool> saver_stop{false};
  std::thread plan_saver;
  struct SaverGuard {
    std::atomic<bool>* stop;
    std::thread* thread;
    ~SaverGuard() {
      stop->store(true, std::memory_order_release);
      if (thread->joinable()) thread->join();
    }
  } saver_guard{&saver_stop, &plan_saver};
  if (store && plan_save_every_ms > 0) {
    PlanCache* cache = &service->plan_cache();
    std::string plan_path = store->PlanCachePath();
    SketchTreeOptions tag_options = sketch_options;
    long every_ms = plan_save_every_ms;
    plan_saver = std::thread([cache, plan_path, tag_options, every_ms,
                              &saver_stop] {
      uint64_t saved_misses = 0;
      while (!saver_stop.load(std::memory_order_acquire)) {
        for (long slept = 0;
             slept < every_ms &&
             !saver_stop.load(std::memory_order_acquire);
             slept += 50) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        PlanCache::Stats stats = cache->GetStats();
        if (stats.misses == saved_misses || stats.entries == 0) continue;
        Status saved = SavePlanCache(*cache, tag_options, plan_path);
        if (saved.ok()) {
          saved_misses = stats.misses;
        } else {
          std::fprintf(stderr, "warning: plan cache not saved: %s\n",
                       saved.ToString().c_str());
        }
      }
    });
  }

  if (!input.empty()) {
    // Live ingest on this thread while the server answers from the
    // published snapshots; a new epoch every --publish-every trees,
    // each persisted to the store when one is attached.
    uint64_t trees = 0;
    Status streamed = StreamXmlForestFile(
        input,
        [&](LabeledTree tree) -> Status {
          live->Update(tree);
          if (++trees % static_cast<uint64_t>(publish_every) == 0 &&
              !(*server)->stopping()) {
            SKETCHTREE_ASSIGN_OR_RETURN(uint64_t epoch,
                                        publisher.PublishCopyOf(*live));
            if (store) {
              Status persisted = store->Persist(*live, epoch);
              if (!persisted.ok()) {
                std::fprintf(stderr,
                             "warning: epoch %llu not persisted: %s\n",
                             static_cast<unsigned long long>(epoch),
                             persisted.ToString().c_str());
              }
            }
            std::fprintf(stderr, "published epoch %llu at %llu trees\n",
                         static_cast<unsigned long long>(epoch),
                         static_cast<unsigned long long>(trees));
          }
          return Status::OK();
        });
    if (!streamed.ok() && !(*server)->stopping()) return Fail(streamed);
    Result<uint64_t> final_epoch = publisher.PublishCopyOf(*live);
    if (!final_epoch.ok()) return Fail(final_epoch.status());
    if (store) {
      Status persisted = store->Persist(*live, final_epoch.value());
      if (!persisted.ok()) {
        std::fprintf(stderr, "warning: epoch %llu not persisted: %s\n",
                     static_cast<unsigned long long>(final_epoch.value()),
                     persisted.ToString().c_str());
      }
    }
    std::fprintf(stderr,
                 "ingest finished: %llu trees, final epoch %llu; still "
                 "serving\n",
                 static_cast<unsigned long long>(trees),
                 static_cast<unsigned long long>(*final_epoch));
  }

  (*server)->WaitForShutdown();
  (*server)->Shutdown();
  // One final plan save so compiles from the last save window survive
  // a clean shutdown (a SIGKILL still has the periodic saves).
  if (store) {
    saver_stop.store(true, std::memory_order_release);
    if (plan_saver.joinable()) plan_saver.join();
    if (service->plan_cache().size() > 0) {
      Status saved = SavePlanCache(service->plan_cache(), sketch_options,
                                   store->PlanCachePath());
      if (!saved.ok()) {
        std::fprintf(stderr, "warning: plan cache not saved: %s\n",
                     saved.ToString().c_str());
      }
    }
  }
  std::printf("server stopped\n");
  return EXIT_SUCCESS;
}

int RunMerge(const Args& args) {
  std::string output = args.Get("output");
  std::string inputs = args.Get("inputs");
  if (output.empty() || inputs.empty()) return Usage();
  // --inputs is a comma-separated list of synopsis files.
  std::vector<std::string> paths = SplitCommaList(inputs);
  if (paths.size() < 2) {
    std::fprintf(stderr, "error: merge needs at least two inputs\n");
    return EXIT_FAILURE;
  }
  Result<SketchTree> merged = SketchTree::LoadFromFile(paths[0]);
  if (!merged.ok()) return Fail(merged.status());
  for (size_t p = 1; p < paths.size(); ++p) {
    Result<SketchTree> shard = SketchTree::LoadFromFile(paths[p]);
    if (!shard.ok()) return Fail(shard.status());
    Status st = merged->Merge(*shard);
    if (!st.ok()) return Fail(st);
  }
  Status save = merged->SaveToFile(output);
  if (!save.ok()) return Fail(save);
  std::printf("merged %zu synopses into %s (%llu trees total)\n",
              paths.size(), output.c_str(),
              static_cast<unsigned long long>(
                  merged->Stats().trees_processed));
  return EXIT_SUCCESS;
}

int RunStats(const Args& args) {
  std::string synopsis = args.Get("synopsis");
  if (synopsis.empty()) return Usage();
  Result<SketchTree> sketch = SketchTree::LoadFromFile(synopsis);
  if (!sketch.ok()) return Fail(sketch.status());
  const SketchTreeOptions& options = sketch->options();
  SketchTreeStats stats = sketch->Stats();
  std::printf("synopsis: %s\n", synopsis.c_str());
  std::printf("  k=%d s1=%d s2=%d streams=%u topk=%zu degree=%d seed=%llu\n",
              options.max_pattern_edges, options.s1, options.s2,
              options.num_virtual_streams, options.topk_size,
              options.fingerprint_degree,
              static_cast<unsigned long long>(options.seed));
  std::printf("  trees processed:    %llu\n",
              static_cast<unsigned long long>(stats.trees_processed));
  std::printf("  patterns processed: %llu\n",
              static_cast<unsigned long long>(stats.patterns_processed));
  std::printf("  tracked patterns:   %zu\n", stats.tracked_patterns);
  std::printf("  memory:             %zu bytes (%zu paper-accounted)\n",
              stats.memory_bytes, stats.paper_memory_bytes);
  if (sketch->summary() != nullptr) {
    std::printf("  structural summary: %zu nodes%s\n",
                sketch->summary()->num_nodes(),
                sketch->summary()->saturated() ? " (saturated)" : "");
  }
  return EXIT_SUCCESS;
}

/// One line (text) or one JSON object of the paged report for a store
/// epoch. Returns whether the epoch validates.
bool ReportEpochInfo(const StoreEpochInfo& info, bool json, bool first) {
  bool ok = info.page_verdict.ok();
  if (json) {
    std::printf(
        "%s{\"epoch\":%llu,\"file\":\"%s\",\"bytes\":%llu,"
        "\"trees\":%llu,\"pages\":%u,\"meta_pages\":%u,"
        "\"counter_pages\":%u,\"cursor_bytes\":%u,"
        "\"pages_ok\":%s%s%s%s}",
        first ? "" : ",", static_cast<unsigned long long>(info.epoch),
        info.path.c_str(), static_cast<unsigned long long>(info.file_bytes),
        static_cast<unsigned long long>(info.trees_processed),
        info.page_count, info.meta_pages, info.counter_pages,
        info.cursor_bytes, ok ? "true" : "false",
        ok ? "" : ",\"verdict\":\"",
        ok ? "" : info.page_verdict.ToString().c_str(), ok ? "" : "\"");
  } else {
    std::printf(
        "  epoch %llu  %u pages (%u meta, %u counter, %u cursor bytes)  "
        "%llu bytes  %llu trees  %s\n",
        static_cast<unsigned long long>(info.epoch), info.page_count,
        info.meta_pages, info.counter_pages, info.cursor_bytes,
        static_cast<unsigned long long>(info.file_bytes),
        static_cast<unsigned long long>(info.trees_processed),
        ok ? "pages ok" : info.page_verdict.ToString().c_str());
  }
  return ok;
}

/// inspect --store DIR: the page-level report of every epoch in the
/// store — header/directory fields plus a per-page CRC sweep, counters
/// never loaded. Exit 1 if any epoch fails validation.
int RunInspectStore(const Args& args, const std::string& dir) {
  Result<SynopsisStore> opened = SynopsisStore::Open(dir, {});
  if (!opened.ok()) return Fail(opened.status());
  SynopsisStore& store = opened.value();
  std::vector<uint64_t> epochs = store.ListEpochs();
  bool json = args.HasFlag("json");
  if (json) {
    std::printf("{\"store\":\"%s\",\"epochs\":[", dir.c_str());
  } else {
    std::printf("store: %s\n  epochs: %zu (newest %llu), plan cache %s\n",
                dir.c_str(), epochs.size(),
                static_cast<unsigned long long>(store.newest_epoch()),
                std::ifstream(store.PlanCachePath()).good() ? "present"
                                                            : "absent");
  }
  bool all_ok = true;
  bool first = true;
  for (uint64_t epoch : epochs) {
    Result<StoreEpochInfo> info = store.InspectEpoch(epoch);
    if (!info.ok()) {
      all_ok = false;
      if (json) {
        std::printf("%s{\"epoch\":%llu,\"pages_ok\":false,\"verdict\":"
                    "\"%s\"}",
                    first ? "" : ",",
                    static_cast<unsigned long long>(epoch),
                    info.status().ToString().c_str());
      } else {
        std::printf("  epoch %llu  unreadable: %s\n",
                    static_cast<unsigned long long>(epoch),
                    info.status().ToString().c_str());
      }
      first = false;
      continue;
    }
    if (!ReportEpochInfo(info.value(), json, first)) all_ok = false;
    first = false;
  }
  if (json) {
    std::printf("],\"ok\":%s}\n", all_ok ? "true" : "false");
  }
  return all_ok ? kExitOk : kExitFailure;
}

/// inspect --synopsis FILE: the page report of the image — counters
/// checked page by page, not loaded — and then, when every page
/// verifies, the synopsis's health report. --json prints one object
/// holding both. Exit 1 if a page fails or the synopsis does not load.
int RunInspectSynopsis(const Args& args, const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return Fail(bytes.status());
  Result<ParsedSnapshot> parsed =
      ParsePagedSnapshot(bytes.value(), PageVerify::kMetaOnly);
  if (!parsed.ok()) return Fail(parsed.status());
  StoreEpochInfo info =
      DescribeSnapshot(parsed.value(), path, bytes.value().size());
  bool json = args.HasFlag("json");
  if (json) std::printf("{\"synopsis\":\"%s\",\"pages\":", path.c_str());
  else std::printf("synopsis: %s\n", path.c_str());
  bool pages_ok = ReportEpochInfo(info, json, /*first=*/true);
  Result<LoadedSynopsis> loaded =
      pages_ok ? DecodeSynopsisImage(bytes.value())
               : Result<LoadedSynopsis>(info.page_verdict);
  if (!loaded.ok()) {
    if (json) std::printf(",\"ok\":false}\n");
    return Fail(loaded.status());
  }
  SketchHealthReport report = ComputeSketchHealth(loaded->sketch);
  PublishHealthMetrics(report, &GlobalMetrics());
  if (json) {
    std::string health = report.ToJson();
    while (!health.empty() && health.back() == '\n') health.pop_back();
    std::printf(",\"health\":%s,\"ok\":true}\n", health.c_str());
  } else {
    std::fputs(report.ToText().c_str(), stdout);
  }
  return kExitOk;
}

int RunInspect(const Args& args) {
  std::string store_dir = args.Get("store");
  if (!store_dir.empty()) return RunInspectStore(args, store_dir);
  std::string synopsis = args.Get("synopsis");
  if (synopsis.empty()) return Usage();
  return RunInspectSynopsis(args, synopsis);
}

/// Writes the process metrics registry to `path` as JSON. Runs even
/// when the command failed — a dump of a partial run is exactly what a
/// post-mortem wants.
int DumpMetrics(const std::string& path, int exit_code) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << GlobalMetrics().ToJson() << '\n';
  if (!out) {
    std::fprintf(stderr, "error: cannot write metrics to '%s'\n",
                 path.c_str());
    return EXIT_FAILURE;
  }
  return exit_code;
}

int RunCommand(const Args& args) {
  if (args.command == "build") return RunBuild(args);
  if (args.command == "query") return RunQuery(args);
  if (args.command == "extended") return RunExtended(args);
  if (args.command == "expr") return RunExpr(args);
  if (args.command == "serve") return RunServe(args);
  if (args.command == "merge") return RunMerge(args);
  if (args.command == "stats") return RunStats(args);
  if (args.command == "inspect") return RunInspect(args);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return Usage();
  }
  // Fault injection (for the recovery harness): --faults wins over the
  // SKETCHTREE_FAULTS environment variable.
  const char* fault_env = std::getenv("SKETCHTREE_FAULTS");
  std::string fault_spec =
      args->Get("faults", fault_env != nullptr ? fault_env : "");
  if (!fault_spec.empty()) {
    Status armed = FaultInjector::Global().ArmFromSpec(fault_spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "error: %s\n", armed.ToString().c_str());
      return kExitUsage;
    }
  }
  // Pipeline tracing: enabled for the whole command, serialized on exit
  // (also after a failed command — a truncated run's timeline is prime
  // post-mortem material).
  std::string trace_path = args->Get("trace-out");
  if (!trace_path.empty()) {
    TraceRecorder::Global().SetThreadName("main");
    TraceRecorder::Global().Start();
  }
  int exit_code = RunCommand(*args);
  if (!trace_path.empty()) {
    TraceRecorder::Global().Stop();
    Status written = TraceRecorder::Global().WriteJson(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      if (exit_code == kExitOk) exit_code = kExitFailure;
    } else {
      std::fprintf(stderr, "trace written to %s (%zu events)\n",
                   trace_path.c_str(),
                   TraceRecorder::Global().event_count());
    }
  }
  std::string metrics_path = args->Get("metrics-json");
  if (!metrics_path.empty()) {
    exit_code = DumpMetrics(metrics_path, exit_code);
  }
  return exit_code;
}
