#ifndef SKETCHTREE_CLUSTER_COORDINATOR_H_
#define SKETCHTREE_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_client.h"
#include "common/status.h"
#include "metrics/metrics.h"
#include "server/query_service.h"
#include "server/snapshot.h"
#include "trace/trace.h"

namespace sketchtree {

/// How the coordinator answers a query (ROADMAP item 2's two options —
/// both are implemented, selectable per request via the wire
/// `strategy` field so they can be differentially tested against each
/// other on a live cluster).
enum class ClusterStrategy {
  /// Fan the query's mapped values out to every healthy shard, pull
  /// back per-instance projection matrices, sum them elementwise, and
  /// finish the estimate locally. Sees each shard's *current* snapshot
  /// and keeps working — degraded but honest — when shards die.
  kScatter,
  /// Answer from the coordinator's local merged synopsis (shard
  /// snapshots pulled and merged each refresh epoch). Minimum per-query
  /// latency; staleness bounded by the refresh cadence; requires the
  /// last refresh to have reached every shard.
  kMerged,
};

const char* ClusterStrategyName(ClusterStrategy strategy);

struct CoordinatorOptions {
  std::vector<ShardAddress> shards;
  ClusterStrategy default_strategy = ClusterStrategy::kScatter;
  QueryServiceOptions service;

  /// Per-shard budget for one logical call, covering every retry and
  /// the hedge. A query's own wire deadline, when sooner, wins.
  int64_t shard_deadline_ms = 1000;
  /// Attempts per logical call (first try + retries), each behind
  /// capped exponential backoff: base * 2^(attempt-1), capped.
  int max_attempts = 3;
  int64_t backoff_base_ms = 10;
  int64_t backoff_max_ms = 200;
  /// Hedging: when the primary attempt has not answered after
  /// max(hedge_min_ms, hedge_p95_factor * shard p95 latency), a second
  /// attempt races it on a fresh connection and the first answer wins.
  /// hedge_min_ms < 0 disables hedging.
  int64_t hedge_min_ms = 20;
  double hedge_p95_factor = 2.0;
  /// Circuit breaker: consecutive failures to open, and how long an
  /// open breaker refuses before allowing a half-open probe.
  int breaker_threshold = 3;
  int64_t breaker_cooldown_ms = 500;
  /// Background refresh cadence (snapshot pull + merge + health); 0
  /// disables the thread (tests drive RefreshOnce by hand).
  int64_t refresh_every_ms = 2000;
  /// How long Start() keeps retrying the initial full refresh before
  /// giving up (every shard must answer once to establish the merged
  /// base and the synopsis options).
  int64_t startup_deadline_ms = 10000;
};

/// The serving front end of a SketchTree cluster: owns one ShardClient
/// + CircuitBreaker per worker, a background refresh thread that pulls
/// and merges shard snapshots (merge-at-publish), and the scatter-
/// gather execution path. Robustness semantics (DESIGN.md section 13):
///
///  * Every shard call gets `max_attempts` tries under capped
///    exponential backoff, all within one shard deadline.
///  * A hedged second attempt launches after a p95-based delay; first
///    answer wins, so one slow worker does not set the query's latency.
///  * Consecutive failures open the shard's circuit breaker: queries
///    skip it instantly until a cooldown-gated half-open probe (or a
///    background health probe) succeeds.
///  * Graceful degradation: if some — not all — shards fail past their
///    retry budget, the query still answers from the survivors with
///    `partial: true`, the covered/total tree counts, and the Theorem-1
///    error scale recomputed over the reachable fraction, widened by
///    the inverse coverage. Only "no shard reachable" is an error
///    (UNAVAILABLE).
///
/// Bit-exactness contract: with all shards healthy, identical shard
/// options, and top-k tracking disabled, scatter-gather answers are
/// bit-identical to merged-path answers over the same shard snapshots —
/// the per-instance projections are exact integer sums, so summing
/// per-shard matrices equals projecting the merged counters, and the
/// mean/median boosting replays locally in the same order.
class Coordinator {
 public:
  /// Connects to every shard, performs the initial full refresh (this
  /// is where the cluster's synopsis options are learned), and starts
  /// the background refresh thread. Fails UNAVAILABLE if any shard
  /// stays unreachable past startup_deadline_ms.
  static Result<std::unique_ptr<Coordinator>> Start(
      const CoordinatorOptions& options);

  ~Coordinator();
  void Stop();

  /// Answers one query with `strategy_override` ("scatter"/"merged"/""
  /// = configured default). This is what the TCP server's cluster
  /// handler calls per admitted request. A valid sampled `trace`
  /// context is propagated to every shard call: each attempt (first
  /// try, retry, hedge) becomes a distinct child span forwarded on the
  /// wire, and shard-reported span summaries are imported back into the
  /// local trace.
  Result<QueryAnswer> Execute(
      QueryKind kind, const std::string& text,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      const std::string& strategy_override,
      const TraceContext& trace = TraceContext{});

  /// One synchronous refresh pass: per shard, health-probe + snapshot
  /// pull. Publishes a new merged epoch only when every shard answered
  /// (a partial merge is never published — the merged path serves the
  /// last complete epoch instead). Always updates per-shard health and
  /// breaker state, so this is also how a restarted worker re-joins.
  Status RefreshOnce();

  /// The local query service over the merged snapshots (plan cache,
  /// classification, and the merged execution path).
  QueryService* service() { return service_.get(); }

  int shards_total() const { return static_cast<int>(shards_.size()); }
  /// Shards whose last probe or call succeeded (breaker closed).
  int shards_alive() const;

  /// Extra JSON fields for the coordinator's `stats` reply (no leading
  /// comma): per-shard alive/trees/epoch plus scatter/hedge/retry
  /// counters.
  std::string StatsJsonFields() const;

 private:
  /// Everything the coordinator remembers about one worker.
  struct ShardState {
    ShardAddress address;
    /// Serializes use of the persistent client (one in-flight call).
    std::mutex mu;
    ShardClient client;
    CircuitBreaker breaker;
    std::atomic<bool> alive{false};
    std::atomic<uint64_t> last_epoch{0};
    std::atomic<uint64_t> last_trees{0};
    std::atomic<double> last_self_join{0.0};
    /// Worker steady-clock minus coordinator steady-clock, estimated
    /// each refresh from the health reply's now_ns against the RTT
    /// midpoint. ~0 on one host (CLOCK_MONOTONIC is shared); exported
    /// in StatsJsonFields so tools/trace_merge can align trace files.
    std::atomic<int64_t> clock_offset_ns{0};
    Histogram* latency_us = nullptr;

    ShardState(const ShardAddress& addr, const CoordinatorOptions& options);
  };

  /// One shard's contribution to a scatter query.
  struct ShardEstimate {
    std::vector<double> x;  // s2 * s1, row-major [i * s1 + j].
    uint64_t epoch = 0;
    uint64_t trees = 0;
  };

  explicit Coordinator(const CoordinatorOptions& options);

  /// One logical call with retries + hedging; records breaker/latency.
  /// A sampled `trace` context stamps every attempt (including the
  /// hedge) as its own child span, each forwarded on the wire.
  Result<std::string> CallShard(ShardState& shard, const std::string& line,
                                std::chrono::steady_clock::time_point deadline,
                                const TraceContext& trace);
  /// Retry loop over the persistent client (the primary leg).
  Result<std::string> CallAttempts(
      ShardState& shard, const std::string& line,
      std::chrono::steady_clock::time_point deadline,
      const TraceContext& trace);
  Result<ShardEstimate> ShardEstimateCall(
      ShardState& shard, const std::string& values_hex,
      std::chrono::steady_clock::time_point deadline,
      const TraceContext& trace);
  Result<QueryAnswer> ExecuteScatter(
      QueryKind kind, const std::string& text,
      std::chrono::steady_clock::time_point deadline,
      const TraceContext& trace);
  Result<QueryAnswer> ExecuteMerged(
      QueryKind kind, const std::string& text,
      const std::optional<std::chrono::steady_clock::time_point>& deadline);
  /// Health-probe + snapshot pull for one shard; returns the
  /// deserialized sketch on success.
  Result<SketchTree> PullShardSnapshot(ShardState& shard);
  /// Best-effort clock-offset estimate against one shard: a `health`
  /// round trip whose reply carries the worker's NowNanos(); the offset
  /// is that reading minus the local RTT midpoint.
  void ProbeShardClock(ShardState& shard);
  void RefreshLoop();
  int64_t HedgeDelayMs(const ShardState& shard) const;

  CoordinatorOptions options_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  SnapshotPublisher merged_;
  std::unique_ptr<QueryService> service_;
  /// Sum of last_trees at the last complete merge, for staleness.
  std::atomic<uint64_t> merged_trees_{0};

  std::atomic<bool> stopping_{false};
  std::mutex refresh_mu_;  // Serializes RefreshOnce callers.
  std::thread refresher_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  Counter* scatter_queries_;
  Counter* merged_queries_;
  Counter* partial_replies_;
  Counter* shard_retries_;
  Counter* hedges_;
  Counter* hedge_wins_;
  Counter* breaker_skips_;
  Counter* refresh_ok_;
  Counter* refresh_partial_;
};

}  // namespace sketchtree

#endif  // SKETCHTREE_CLUSTER_COORDINATOR_H_
