// Distributed-serving tests: coordinator scatter-gather vs.
// merge-at-publish bit-exactness, graceful degradation when shards die,
// recovery after restart, and the retry / hedge / circuit-breaker
// machinery under injected network faults (DESIGN.md section 13).
#include "cluster/coordinator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/shard_client.h"
#include "common/base64.h"
#include "core/sketch_tree.h"
#include "faultinject/fault_injector.h"
#include "metrics/metrics.h"
#include "server/query_service.h"
#include "server/tcp_server.h"
#include "server/wire.h"
#include "trace/trace.h"
#include "tree/tree_serialization.h"

namespace sketchtree {
namespace {

/// Small synopsis; top-k disabled unless a test asks for it.
SketchTreeOptions ClusterOptions(size_t topk_size = 0) {
  SketchTreeOptions options;
  options.max_pattern_edges = 3;
  options.s1 = 8;
  options.s2 = 3;
  options.num_virtual_streams = 31;
  options.topk_size = topk_size;
  options.seed = 17;
  options.build_structural_summary = true;
  return options;
}

/// Deterministic per-shard stream slices (disjoint workloads so a
/// missing shard visibly changes the counts).
SketchTree BuildShardSketch(int shard, size_t topk_size = 0) {
  SketchTree sketch = *SketchTree::Create(ClusterOptions(topk_size));
  switch (shard) {
    case 0:
      for (int i = 0; i < 5; ++i) sketch.Update(*ParseSExpr("A(B,C)"));
      for (int i = 0; i < 3; ++i) sketch.Update(*ParseSExpr("A(B)"));
      for (int i = 0; i < 2; ++i) sketch.Update(*ParseSExpr("R(S)"));
      break;
    case 1:
      for (int i = 0; i < 4; ++i) sketch.Update(*ParseSExpr("A(B,C)"));
      for (int i = 0; i < 7; ++i) sketch.Update(*ParseSExpr("A(C,B)"));
      break;
    default:
      for (int i = 0; i < 6; ++i) sketch.Update(*ParseSExpr("D(E(F))"));
      sketch.Update(*ParseSExpr("A(B,C)"));
      break;
  }
  return sketch;
}

/// One worker process stand-in: a QueryService over a static shard
/// sketch behind a real loopback QueryServer.
struct Worker {
  std::unique_ptr<QueryService> service;
  std::unique_ptr<QueryServer> server;
  int port = 0;
};

Worker StartWorker(int shard, int port = 0, size_t topk_size = 0) {
  Worker worker;
  Result<QueryService> service =
      QueryService::CreateStatic(BuildShardSketch(shard, topk_size));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  worker.service =
      std::make_unique<QueryService>(std::move(service).value());
  QueryServerOptions options;
  options.port = port;
  options.num_workers = 2;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(worker.service.get(), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  worker.server = std::move(server).value();
  worker.port = worker.server->port();
  return worker;
}

CoordinatorOptions TestCoordinatorOptions(const std::vector<Worker>& workers) {
  CoordinatorOptions options;
  for (const Worker& worker : workers) {
    options.shards.push_back(ShardAddress{"127.0.0.1", worker.port});
  }
  options.refresh_every_ms = 0;  // Tests drive RefreshOnce by hand.
  options.shard_deadline_ms = 2000;
  options.max_attempts = 2;
  options.backoff_base_ms = 5;
  options.backoff_max_ms = 20;
  options.hedge_min_ms = -1;  // Deterministic single-leg calls by default.
  options.breaker_threshold = 3;
  options.breaker_cooldown_ms = 100;
  options.startup_deadline_ms = 10000;
  return options;
}

/// Reference answers: the shard sketches merged locally — exactly what
/// a single-node synopsis over the whole stream would hold.
Result<QueryService> MergedReference(const std::vector<int>& shards,
                                     size_t topk_size = 0) {
  SketchTree merged = BuildShardSketch(shards[0], topk_size);
  for (size_t i = 1; i < shards.size(); ++i) {
    SketchTree shard = BuildShardSketch(shards[i], topk_size);
    Status status = merged.Merge(shard);
    if (!status.ok()) return status;
  }
  return QueryService::CreateStatic(std::move(merged));
}

struct QueryCase {
  QueryKind kind;
  const char* text;
};

const QueryCase kQueryMatrix[] = {
    {QueryKind::kOrdered, "A(B,C)"},
    {QueryKind::kOrdered, "A(B)"},
    {QueryKind::kUnordered, "A(B,C)"},
    {QueryKind::kUnordered, "D(E(F))"},
    {QueryKind::kExtended, "A(*)"},
    {QueryKind::kExtended, "A(//C)"},
    {QueryKind::kExtended, "Z(*)"},  // Provably zero via the summary.
    {QueryKind::kExpression, "COUNT_ORD(A(B,C)) + COUNT(A(B)) - COUNT(D(E(F)))"},
    {QueryKind::kExpression, "COUNT_ORD(A(B)) * COUNT_ORD(R(S))"},
};

double Estimate(QueryService& service, const QueryCase& q) {
  QueryRequest request;
  request.kind = q.kind;
  request.text = q.text;
  Result<QueryAnswer> answer = service.Execute(request);
  EXPECT_TRUE(answer.ok()) << q.text << ": " << answer.status().ToString();
  return answer.ok() ? answer->estimate : -1.0;
}

TEST(ClusterTest, ScatterMatchesMergedBitExact) {
  std::vector<Worker> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(StartWorker(i));
  Result<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Start(TestCoordinatorOptions(workers));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  Result<QueryService> reference = MergedReference({0, 1, 2});
  ASSERT_TRUE(reference.ok());

  for (const QueryCase& q : kQueryMatrix) {
    Result<QueryAnswer> scatter =
        (*coordinator)->Execute(q.kind, q.text, std::nullopt, "scatter");
    Result<QueryAnswer> merged =
        (*coordinator)->Execute(q.kind, q.text, std::nullopt, "merged");
    ASSERT_TRUE(scatter.ok()) << q.text << ": "
                              << scatter.status().ToString();
    ASSERT_TRUE(merged.ok()) << q.text << ": " << merged.status().ToString();
    const double expected = Estimate(*reference, q);
    // Bit-identical, not approximately equal: the projection matrices
    // are exact integer sums, and the boosted mean/median replays in
    // the same order on both paths.
    EXPECT_EQ(scatter->estimate, merged->estimate) << q.text;
    EXPECT_EQ(scatter->estimate, expected) << q.text;

    EXPECT_TRUE(scatter->from_cluster);
    EXPECT_EQ(scatter->strategy, "scatter");
    EXPECT_FALSE(scatter->partial) << q.text;
    EXPECT_EQ(scatter->shards_ok, 3);
    EXPECT_EQ(scatter->shards_total, 3);
    EXPECT_EQ(scatter->covered_trees, scatter->total_trees);
    EXPECT_EQ(merged->strategy, "merged");
    EXPECT_FALSE(merged->partial);
    // Provably-zero answers (summary refutation) carry a zero error
    // scale — the proof is exact; everything estimated carries the
    // Theorem-1 scale.
    if (expected != 0.0) EXPECT_GT(scatter->error_scale, 0.0);
  }
}

// An older coordinator asks for a delta by naming its cached epoch in
// `base_epoch`. Workers ignore the field and answer with the full
// serialized synopsis, so a merge of such pulls is still bit-exact.
TEST(ClusterTest, ShardSnapshotWithBaseEpochAnswersInFull) {
  std::vector<Worker> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(StartWorker(i));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::optional<SketchTree> pulled_merge;
  for (int i = 0; i < 3; ++i) {
    ShardClient client(ShardAddress{"127.0.0.1", workers[i].port});
    for (int pull = 0; pull < 2; ++pull) {
      Result<std::string> reply = client.Call(
          R"({"op":"shard_snapshot","id":7,"base_epoch":1})", deadline);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(reply->find("\"format\""), std::string::npos) << *reply;
      Result<std::string> base64 = JsonFieldString(*reply, "sketch");
      ASSERT_TRUE(base64.ok()) << *reply;
      Result<std::string> bytes = Base64Decode(*base64);
      ASSERT_TRUE(bytes.ok());
      Result<SketchTree> pulled = SketchTree::DeserializeFromString(*bytes);
      ASSERT_TRUE(pulled.ok()) << pulled.status().ToString();
      EXPECT_EQ(pulled->SerializeToString(),
                BuildShardSketch(i).SerializeToString());
      if (pull == 1) {
        if (pulled_merge) {
          ASSERT_TRUE(pulled_merge->Merge(*pulled).ok());
        } else {
          pulled_merge.emplace(std::move(pulled).value());
        }
      }
    }
  }
  Result<QueryService> from_pulls =
      QueryService::CreateStatic(std::move(pulled_merge).value());
  ASSERT_TRUE(from_pulls.ok());
  Result<QueryService> reference = MergedReference({0, 1, 2});
  ASSERT_TRUE(reference.ok());

  Result<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Start(TestCoordinatorOptions(workers));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  // A second refresh is where a delta-mode coordinator would have asked
  // for dirty pages only.
  ASSERT_TRUE((*coordinator)->RefreshOnce().ok());
  for (const QueryCase& q : kQueryMatrix) {
    Result<QueryAnswer> merged =
        (*coordinator)->Execute(q.kind, q.text, std::nullopt, "merged");
    ASSERT_TRUE(merged.ok()) << q.text << ": " << merged.status().ToString();
    EXPECT_EQ(merged->estimate, Estimate(*from_pulls, q)) << q.text;
    EXPECT_EQ(merged->estimate, Estimate(*reference, q)) << q.text;
  }
}

// With top-k on, each shard compensates only the values it tracks,
// while the merged synopsis re-adds every other shard's tracked mass
// into its counters, so summed shard projections are not the merged
// synopsis's projection. Scatter refuses such synopses with a typed
// error; merge-at-publish still answers, bit-exact with a local merge.
TEST(ClusterTest, ScatterRefusesTopKSynopses) {
  constexpr size_t kTopK = 4;
  std::vector<Worker> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(StartWorker(i, 0, kTopK));
  Result<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Start(TestCoordinatorOptions(workers));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  Result<QueryService> reference = MergedReference({0, 1, 2}, kTopK);
  ASSERT_TRUE(reference.ok());

  for (const QueryCase& q : kQueryMatrix) {
    Result<QueryAnswer> scatter =
        (*coordinator)->Execute(q.kind, q.text, std::nullopt, "scatter");
    ASSERT_FALSE(scatter.ok()) << q.text;
    EXPECT_TRUE(scatter.status().IsUnimplemented())
        << q.text << ": " << scatter.status().ToString();
    Result<QueryAnswer> merged =
        (*coordinator)->Execute(q.kind, q.text, std::nullopt, "merged");
    ASSERT_TRUE(merged.ok()) << q.text << ": " << merged.status().ToString();
    EXPECT_EQ(merged->estimate, Estimate(*reference, q)) << q.text;
  }
}

TEST(ClusterTest, DegradesToPartialAndRecoversAfterRestart) {
  std::vector<Worker> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(StartWorker(i));
  CoordinatorOptions options = TestCoordinatorOptions(workers);
  options.shard_deadline_ms = 500;
  Result<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Start(options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  Coordinator& cluster = **coordinator;

  const QueryCase q{QueryKind::kOrdered, "A(B,C)"};
  Result<QueryAnswer> healthy =
      cluster.Execute(q.kind, q.text, std::nullopt, "scatter");
  ASSERT_TRUE(healthy.ok());
  ASSERT_FALSE(healthy->partial);

  // Kill worker 2 (connection refused from here on).
  const int dead_port = workers[2].port;
  workers[2].server->Shutdown();
  workers[2].server.reset();
  workers[2].service.reset();

  Result<QueryAnswer> degraded =
      cluster.Execute(q.kind, q.text, std::nullopt, "scatter");
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->partial);
  EXPECT_EQ(degraded->shards_ok, 2);
  EXPECT_EQ(degraded->shards_total, 3);
  EXPECT_LT(degraded->covered_trees, degraded->total_trees);
  // The degraded answer is the exact estimate over the two survivors...
  Result<QueryService> survivors = MergedReference({0, 1});
  ASSERT_TRUE(survivors.ok());
  EXPECT_EQ(degraded->estimate, Estimate(*survivors, q));
  // ...with the Theorem-1 scale honestly widened by the inverse
  // covered fraction.
  EXPECT_GT(degraded->error_scale, healthy->error_scale);

  // The merged path keeps serving the last complete epoch, un-degraded.
  Result<QueryAnswer> merged =
      cluster.Execute(q.kind, q.text, std::nullopt, "merged");
  ASSERT_TRUE(merged.ok());
  EXPECT_FALSE(merged->partial);
  EXPECT_EQ(merged->estimate, healthy->estimate);

  // A partial refresh must NOT publish a new merged epoch.
  const uint64_t epoch_before = merged->epoch;
  EXPECT_FALSE(cluster.RefreshOnce().ok());
  Result<QueryAnswer> still_merged =
      cluster.Execute(q.kind, q.text, std::nullopt, "merged");
  ASSERT_TRUE(still_merged.ok());
  EXPECT_EQ(still_merged->epoch, epoch_before);

  // Restart the worker on the same port (shard re-join): the next
  // refresh re-probes it and scatter answers return to bit-exact full
  // coverage.
  workers[2] = StartWorker(2, dead_port);
  ASSERT_NE(workers[2].server, nullptr);
  Status refreshed = cluster.RefreshOnce();
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  Result<QueryAnswer> recovered =
      cluster.Execute(q.kind, q.text, std::nullopt, "scatter");
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->partial);
  EXPECT_EQ(recovered->shards_ok, 3);
  EXPECT_EQ(recovered->estimate, healthy->estimate);
}

TEST(ClusterTest, UnavailableOnlyWhenNoShardAnswers) {
  std::vector<Worker> workers;
  workers.push_back(StartWorker(0));
  CoordinatorOptions options = TestCoordinatorOptions(workers);
  options.shard_deadline_ms = 300;
  Result<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Start(options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  workers[0].server->Shutdown();
  workers[0].server.reset();

  Result<QueryAnswer> scatter = (*coordinator)
      ->Execute(QueryKind::kOrdered, "A(B,C)", std::nullopt, "scatter");
  ASSERT_FALSE(scatter.ok());
  EXPECT_TRUE(scatter.status().IsUnavailable())
      << scatter.status().ToString();

  // The merged path still answers from the startup epoch.
  Result<QueryAnswer> merged = (*coordinator)
      ->Execute(QueryKind::kOrdered, "A(B,C)", std::nullopt, "merged");
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
}

TEST(ClusterTest, RetriesGarbledReplyWithinDeadline) {
  FaultInjector::Global().DisarmAll();
  std::vector<Worker> workers;
  workers.push_back(StartWorker(0));
  Result<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Start(TestCoordinatorOptions(workers));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  Counter* retries = GlobalMetrics().GetCounter("cluster.shard_retries");
  const uint64_t retries_before = retries->value();
  // First reply garbled; the retry (same connection, same deadline)
  // succeeds.
  FaultInjector::Global().Arm(FaultSite::kNetGarbledReply,
                              FaultPlan{0, 1, 0});
  Result<QueryAnswer> answer = (*coordinator)
      ->Execute(QueryKind::kOrdered, "A(B,C)", std::nullopt, "scatter");
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GE(retries->value(), retries_before + 1);

  Result<QueryService> reference = MergedReference({0});
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(answer->estimate,
            Estimate(*reference, {QueryKind::kOrdered, "A(B,C)"}));
}

TEST(ClusterTest, HedgeWinsWhenPrimaryStalls) {
  FaultInjector::Global().DisarmAll();
  std::vector<Worker> workers;
  workers.push_back(StartWorker(0));
  CoordinatorOptions options = TestCoordinatorOptions(workers);
  options.hedge_min_ms = 20;
  options.hedge_p95_factor = 2.0;
  options.shard_deadline_ms = 3000;
  Result<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Start(options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  Counter* hedges = GlobalMetrics().GetCounter("cluster.hedges");
  Counter* hedge_wins = GlobalMetrics().GetCounter("cluster.hedge_wins");
  const uint64_t hedges_before = hedges->value();
  const uint64_t wins_before = hedge_wins->value();

  // The primary leg's first write stalls 800ms; the hedge (fresh
  // connection, consuming no further fault budget) answers long before.
  FaultInjector::Global().Arm(FaultSite::kNetSlowWrite,
                              FaultPlan{0, 1, 800});
  Result<QueryAnswer> answer = (*coordinator)
      ->Execute(QueryKind::kOrdered, "A(B,C)", std::nullopt, "scatter");
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GE(hedges->value(), hedges_before + 1);
  EXPECT_GE(hedge_wins->value(), wins_before + 1);
  EXPECT_FALSE(answer->partial);
}

/// All (trace_id, span_id) pairs of serialized events named `name` —
/// string-level scanning over ToJson's one-event-per-line output.
struct SpanIds {
  std::string trace_id;
  std::string span_id;
};

std::vector<SpanIds> FindSpans(const std::string& json,
                               const std::string& name) {
  std::vector<SpanIds> out;
  const std::string needle = "\"name\": \"" + name + "\"";
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    const std::string line = json.substr(pos, eol - pos);
    auto sixteen_hex_after = [&](const char* key) {
      const std::string prefix = std::string("\"") + key + "\": \"";
      size_t at = line.find(prefix);
      return at == std::string::npos
                 ? std::string()
                 : line.substr(at + prefix.size(), 16);
    };
    out.push_back(
        {sixteen_hex_after("trace_id"), sixteen_hex_after("span_id")});
    pos = eol;
  }
  return out;
}

std::string Hex16(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// The tentpole's distributed-tracing contract under faults: a retried
// call and a hedged call each record their own child span — distinct
// span ids, all under the query's one trace id — and the worker's own
// handler time comes back as an imported remote.* span.
TEST(ClusterTest, TracedRetriesAndHedgesAreDistinctChildSpans) {
  FaultInjector::Global().DisarmAll();
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Stop();
  recorder.Reset();

  std::vector<Worker> workers;
  workers.push_back(StartWorker(0));
  CoordinatorOptions options = TestCoordinatorOptions(workers);
  options.hedge_min_ms = 20;
  options.hedge_p95_factor = 2.0;
  options.shard_deadline_ms = 3000;
  Result<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Start(options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  recorder.Start();
  TraceContext root = TraceContext::NewRoot();

  // Query 1: first reply garbled, so the primary leg retries.
  FaultInjector::Global().Arm(FaultSite::kNetGarbledReply,
                              FaultPlan{0, 1, 0});
  Result<QueryAnswer> retried = (*coordinator)
      ->Execute(QueryKind::kOrdered, "A(B,C)", std::nullopt, "scatter",
                root);
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();

  // Query 2: first write stalls 800ms, so the hedge fires and wins.
  FaultInjector::Global().Arm(FaultSite::kNetSlowWrite,
                              FaultPlan{0, 1, 800});
  Result<QueryAnswer> hedged = (*coordinator)
      ->Execute(QueryKind::kOrdered, "A(B,C)", std::nullopt, "scatter",
                root);
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(hedged.ok()) << hedged.status().ToString();

  recorder.Stop();
  const std::string json = recorder.ToJson();
  recorder.Reset();

  std::vector<SpanIds> attempts = FindSpans(json, "cluster.attempt");
  std::vector<SpanIds> retries = FindSpans(json, "cluster.retry");
  std::vector<SpanIds> hedges = FindSpans(json, "cluster.hedge");
  ASSERT_GE(attempts.size(), 2u) << json.substr(0, 2000);
  ASSERT_GE(retries.size(), 1u);
  ASSERT_GE(hedges.size(), 1u);

  const std::string want_trace = Hex16(root.trace_id);
  const std::string root_span = Hex16(root.span_id);
  std::set<std::string> span_ids;
  size_t total = 0;
  for (const auto* group : {&attempts, &retries, &hedges}) {
    for (const SpanIds& ids : *group) {
      EXPECT_EQ(ids.trace_id, want_trace);
      EXPECT_NE(ids.span_id, root_span);
      span_ids.insert(ids.span_id);
      ++total;
    }
  }
  // Every attempt minted its own child span id.
  EXPECT_EQ(span_ids.size(), total);

  // The worker (in-process here) reported its handler time; the
  // coordinator imported it as a remote.* span under the same trace.
  std::vector<SpanIds> remote = FindSpans(json, "remote.shard.estimate");
  ASSERT_GE(remote.size(), 1u);
  EXPECT_EQ(remote[0].trace_id, want_trace);
}

TEST(ClusterTest, BreakerSkipsDeadShardInstantly) {
  std::vector<Worker> workers;
  workers.push_back(StartWorker(0));
  workers.push_back(StartWorker(1));
  CoordinatorOptions options = TestCoordinatorOptions(workers);
  options.breaker_threshold = 1;  // One failure opens the breaker.
  options.breaker_cooldown_ms = 60000;
  options.shard_deadline_ms = 300;
  options.max_attempts = 1;
  Result<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Start(options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  workers[1].server->Shutdown();
  workers[1].server.reset();

  Counter* skips = GlobalMetrics().GetCounter("cluster.breaker_skips");
  const uint64_t skips_before = skips->value();

  // First query eats the connection failure and trips the breaker...
  Result<QueryAnswer> first = (*coordinator)
      ->Execute(QueryKind::kOrdered, "A(B,C)", std::nullopt, "scatter");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->partial);
  // ...subsequent queries skip the dead shard without paying a timeout.
  Result<QueryAnswer> second = (*coordinator)
      ->Execute(QueryKind::kOrdered, "A(B,C)", std::nullopt, "scatter");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->partial);
  EXPECT_GE(skips->value(), skips_before + 1);
  EXPECT_EQ((*coordinator)->shards_alive(), 1);
}

TEST(ClusterTest, RejectsUnknownStrategy) {
  std::vector<Worker> workers;
  workers.push_back(StartWorker(0));
  Result<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Start(TestCoordinatorOptions(workers));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  Result<QueryAnswer> answer = (*coordinator)
      ->Execute(QueryKind::kOrdered, "A(B,C)", std::nullopt, "sideways");
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsInvalidArgument());
}

TEST(CircuitBreakerTest, OpensHalfOpensAndRecloses) {
  using std::chrono::milliseconds;
  const auto t0 = std::chrono::steady_clock::time_point(milliseconds(0));
  CircuitBreaker breaker(3, milliseconds(100));

  EXPECT_TRUE(breaker.AllowRequest(t0));
  breaker.RecordFailure(t0);
  breaker.RecordFailure(t0);
  EXPECT_TRUE(breaker.AllowRequest(t0));  // Two failures: still closed.
  breaker.RecordFailure(t0);
  EXPECT_TRUE(breaker.open(t0));
  EXPECT_FALSE(breaker.AllowRequest(t0));
  EXPECT_FALSE(breaker.AllowRequest(t0 + milliseconds(99)));

  // Cooldown elapsed: exactly one half-open probe allowed.
  EXPECT_TRUE(breaker.AllowRequest(t0 + milliseconds(100)));
  EXPECT_FALSE(breaker.AllowRequest(t0 + milliseconds(100)));

  // Probe fails: re-open for another cooldown.
  breaker.RecordFailure(t0 + milliseconds(110));
  EXPECT_FALSE(breaker.AllowRequest(t0 + milliseconds(150)));
  EXPECT_TRUE(breaker.AllowRequest(t0 + milliseconds(210)));

  // Probe succeeds: closed again, failure count reset.
  breaker.RecordSuccess();
  EXPECT_TRUE(breaker.AllowRequest(t0 + milliseconds(211)));
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

}  // namespace
}  // namespace sketchtree
