#include "cluster/coordinator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/base64.h"
#include "common/timer.h"
#include "server/compiled_query.h"
#include "server/wire.h"
#include "trace/trace.h"

namespace sketchtree {

namespace {

/// Theorem 1's absolute error scale over the covered shards, widened by
/// the inverse covered fraction when the answer is partial: the unseen
/// shards contribute unknown mass, so the honest scale grows as
/// coverage shrinks.
double WidenedErrorScale(double covered_self_join, int s1, double coverage) {
  double scale = std::sqrt(8.0 * std::max(0.0, covered_self_join) /
                           std::max(1, s1));
  if (coverage > 0.0 && coverage < 1.0) scale /= coverage;
  return scale;
}

/// Accept-any-parseable-reply validator: retries are for transport
/// failures and garbled bytes, not for worker-side error replies.
Status ValidateReplyLine(const std::string& line) {
  return JsonFieldBool(line, "ok").status();
}

/// `line` with the wire `trace` field for one attempt's child context
/// spliced in before the closing brace. Lines here are coordinator-built
/// flat objects, so the closing brace is always last.
std::string WithTraceField(const std::string& line,
                           const TraceContext& context) {
  std::string out = line.substr(0, line.size() - 1);
  out += ",\"trace\":\"";
  out += FormatTraceField(context);
  out += "\"}";
  return out;
}

/// Imports the span summary of a traced shard reply as retroactive "X"
/// events. The shard reports true remote time (remote_ns) and per-span
/// name:offset:duration triples; lacking a cross-process clock we place
/// the remote window at the midpoint of the local call window, which
/// attributes the symmetric wire/queue time evenly to either side.
void ImportRemoteSpans(const std::string& reply, uint64_t call_start_ns,
                       uint64_t call_end_ns, const TraceContext& trace) {
  Result<double> remote_ns = JsonFieldNumber(reply, "remote_ns");
  Result<std::string> spans_field = JsonFieldString(reply, "spans");
  if (!remote_ns.ok() || !spans_field.ok() || remote_ns.value() <= 0.0) {
    return;
  }
  Result<std::vector<RemoteSpan>> spans =
      ParseRemoteSpans(spans_field.value());
  if (!spans.ok()) return;
  const uint64_t remote_dur = static_cast<uint64_t>(remote_ns.value());
  const uint64_t midpoint =
      call_start_ns + (call_end_ns - call_start_ns) / 2;
  const uint64_t remote_origin =
      midpoint > remote_dur / 2 ? midpoint - remote_dur / 2 : call_start_ns;
  TraceRecorder& recorder = TraceRecorder::Global();
  for (const RemoteSpan& span : spans.value()) {
    TraceContext imported{trace.trace_id, TraceContext::NewSpanId(), true};
    recorder.RecordComplete(recorder.InternName("remote." + span.name),
                            remote_origin + span.offset_ns, span.dur_ns,
                            imported);
  }
}

/// Maps a worker's coded error reply to a Status the caller can relay.
Status ShardErrorStatus(const ShardAddress& address,
                        const std::string& line) {
  std::string code = "INTERNAL";
  std::string message = "shard replied ok:false";
  if (Result<std::string> c = JsonFieldString(line, "code"); c.ok()) {
    code = c.value();
  }
  if (Result<std::string> e = JsonFieldString(line, "error"); e.ok()) {
    message = e.value();
  }
  return Status::Internal("shard " + address.ToString() + " failed [" +
                          code + "]: " + message);
}

}  // namespace

const char* ClusterStrategyName(ClusterStrategy strategy) {
  switch (strategy) {
    case ClusterStrategy::kScatter:
      return "scatter";
    case ClusterStrategy::kMerged:
      return "merged";
  }
  return "unknown";
}

Coordinator::ShardState::ShardState(const ShardAddress& addr,
                                    const CoordinatorOptions& options)
    : address(addr),
      client(addr),
      breaker(options.breaker_threshold,
              std::chrono::milliseconds(options.breaker_cooldown_ms)),
      latency_us(GlobalMetrics().GetHistogram(
          "cluster.shard_us." + addr.ToString(),
          Histogram::ExponentialBounds(1, 2.0, 21))) {}

Coordinator::Coordinator(const CoordinatorOptions& options)
    : options_(options),
      scatter_queries_(GlobalMetrics().GetCounter("cluster.scatter_queries")),
      merged_queries_(GlobalMetrics().GetCounter("cluster.merged_queries")),
      partial_replies_(GlobalMetrics().GetCounter("cluster.partial_replies")),
      shard_retries_(GlobalMetrics().GetCounter("cluster.shard_retries")),
      hedges_(GlobalMetrics().GetCounter("cluster.hedges")),
      hedge_wins_(GlobalMetrics().GetCounter("cluster.hedge_wins")),
      breaker_skips_(GlobalMetrics().GetCounter("cluster.breaker_skips")),
      refresh_ok_(GlobalMetrics().GetCounter("cluster.refresh_ok")),
      refresh_partial_(GlobalMetrics().GetCounter("cluster.refresh_partial")) {
  for (const ShardAddress& addr : options.shards) {
    shards_.push_back(std::make_unique<ShardState>(addr, options));
  }
}

Result<std::unique_ptr<Coordinator>> Coordinator::Start(
    const CoordinatorOptions& options) {
  if (options.shards.empty()) {
    return Status::InvalidArgument("coordinator needs at least one shard");
  }
  if (options.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  auto coordinator = std::unique_ptr<Coordinator>(new Coordinator(options));

  // The initial refresh must be complete: it establishes the merged
  // base epoch and — via the first deserialized shard — the cluster's
  // synopsis options, which every compiled plan depends on.
  const auto startup_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options.startup_deadline_ms);
  Status refreshed = coordinator->RefreshOnce();
  while (!refreshed.ok()) {
    if (std::chrono::steady_clock::now() >= startup_deadline) {
      return Status::Unavailable("cluster startup failed: " +
                                 refreshed.message());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    refreshed = coordinator->RefreshOnce();
  }

  std::shared_ptr<const SketchSnapshot> base = coordinator->merged_.Current();
  SKETCHTREE_ASSIGN_OR_RETURN(
      QueryService service,
      QueryService::Create(base->sketch.options(), options.service,
                           &coordinator->merged_));
  coordinator->service_ =
      std::make_unique<QueryService>(std::move(service));

  if (options.refresh_every_ms > 0) {
    coordinator->refresher_ =
        std::thread([c = coordinator.get()] { c->RefreshLoop(); });
  }
  return coordinator;
}

Coordinator::~Coordinator() { Stop(); }

void Coordinator::Stop() {
  stopping_.store(true);
  stop_cv_.notify_all();
  if (refresher_.joinable()) refresher_.join();
}

void Coordinator::RefreshLoop() {
  while (!stopping_.load()) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      stop_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.refresh_every_ms),
          [this] { return stopping_.load(); });
    }
    if (stopping_.load()) return;
    RefreshOnce().ok();  // Partial refreshes keep the previous epoch.
  }
}

int64_t Coordinator::HedgeDelayMs(const ShardState& shard) const {
  if (options_.hedge_min_ms < 0) return -1;
  double p95_ms = shard.latency_us->Percentile(0.95) / 1000.0;
  int64_t delay =
      static_cast<int64_t>(options_.hedge_p95_factor * p95_ms);
  return std::max(options_.hedge_min_ms, delay);
}

Result<std::string> Coordinator::CallAttempts(
    ShardState& shard, const std::string& line,
    std::chrono::steady_clock::time_point deadline,
    const TraceContext& trace) {
  const bool traced = trace.valid() && trace.sampled;
  std::optional<Result<std::string>> last;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Capped exponential backoff, never sleeping past the deadline.
      int64_t backoff_ms = std::min(options_.backoff_max_ms,
                                    options_.backoff_base_ms << (attempt - 1));
      auto wake = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(backoff_ms);
      std::this_thread::sleep_until(std::min(wake, deadline));
      if (std::chrono::steady_clock::now() >= deadline) break;
      shard_retries_->Increment();
    }
    // Each attempt is its own child span — retries show up as separate
    // spans under the same trace, and the worker tags its handler spans
    // with the attempt's forwarded context.
    const TraceContext attempt_context =
        traced ? TraceContext::ChildOf(trace) : TraceContext{};
    const std::string attempt_line =
        traced ? WithTraceField(line, attempt_context) : line;
    const uint64_t attempt_start_ns = NowNanos();
    Result<std::string> result = [&] {
      std::lock_guard<std::mutex> lock(shard.mu);
      return shard.client.Call(attempt_line, deadline);
    }();
    if (traced) {
      TraceRecorder::Global().RecordComplete(
          attempt == 0 ? "cluster.attempt" : "cluster.retry",
          attempt_start_ns, NowNanos() - attempt_start_ns, attempt_context);
    }
    if (result.ok()) {
      Status valid = ValidateReplyLine(result.value());
      if (valid.ok()) return result;
      // Garbled reply: charge the attempt and retry on the same
      // connection — the stream itself is still framed.
      last = Status::Corruption("garbled reply from " +
                                shard.address.ToString() + ": " +
                                valid.message());
      continue;
    }
    last = std::move(result);
    if (last->status().IsDeadlineExceeded()) break;  // No budget left.
  }
  if (!last.has_value()) {
    return Status::DeadlineExceeded("shard call to " +
                                    shard.address.ToString() +
                                    " exhausted its deadline");
  }
  return *std::move(last);
}

Result<std::string> Coordinator::CallShard(
    ShardState& shard, const std::string& line,
    std::chrono::steady_clock::time_point deadline,
    const TraceContext& trace) {
  const auto now = std::chrono::steady_clock::now();
  if (!shard.breaker.AllowRequest(now)) {
    breaker_skips_->Increment();
    // Zero-duration marker: the timeline shows WHY this shard has no
    // attempt bars for the query.
    if (trace.valid() && trace.sampled) {
      TraceRecorder::Global().RecordComplete(
          "cluster.breaker_skip", NowNanos(), 0,
          TraceContext{trace.trace_id, TraceContext::NewSpanId(), true});
    }
    return Status::Unavailable("circuit breaker open for shard " +
                               shard.address.ToString());
  }
  WallTimer timer;

  struct CallState {
    std::mutex mu;
    std::condition_variable cv;
    bool primary_done = false;
    std::optional<Result<std::string>> primary;
  };
  auto state = std::make_shared<CallState>();
  std::thread primary([&, state] {
    Result<std::string> result = CallAttempts(shard, line, deadline, trace);
    std::lock_guard<std::mutex> lock(state->mu);
    state->primary = std::move(result);
    state->primary_done = true;
    state->cv.notify_all();
  });

  std::optional<Result<std::string>> hedge;
  bool hedge_won = false;
  const int64_t hedge_ms = HedgeDelayMs(shard);
  if (hedge_ms >= 0) {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait_for(lock, std::chrono::milliseconds(hedge_ms),
                       [&] { return state->primary_done; });
    const bool primary_pending = !state->primary_done;
    lock.unlock();
    if (primary_pending &&
        std::chrono::steady_clock::now() +
                std::chrono::milliseconds(5) <
            deadline) {
      // Hedge on a fresh connection so a wedged socket cannot stall
      // both legs; single attempt — the primary already owns retries.
      hedges_->Increment();
      const bool traced = trace.valid() && trace.sampled;
      const TraceContext hedge_context =
          traced ? TraceContext::ChildOf(trace) : TraceContext{};
      const std::string hedge_line =
          traced ? WithTraceField(line, hedge_context) : line;
      const uint64_t hedge_start_ns = NowNanos();
      ShardClient fresh(shard.address);
      Result<std::string> result = fresh.Call(hedge_line, deadline);
      if (traced) {
        TraceRecorder::Global().RecordComplete(
            "cluster.hedge", hedge_start_ns, NowNanos() - hedge_start_ns,
            hedge_context);
      }
      if (result.ok() && !ValidateReplyLine(result.value()).ok()) {
        result = Status::Corruption("garbled hedge reply from " +
                                    shard.address.ToString());
      }
      std::lock_guard<std::mutex> relock(state->mu);
      hedge_won = result.ok() && !state->primary_done;
      hedge = std::move(result);
    }
  }

  // The loser is joined, not detached: its lifetime is bounded by the
  // shard deadline, and the caller's references outlive it.
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->primary_done; });
  }
  primary.join();

  Result<std::string> result = [&]() -> Result<std::string> {
    if (hedge_won) return *std::move(hedge);
    if (state->primary->ok()) return *std::move(state->primary);
    if (hedge.has_value() && hedge->ok()) return *std::move(hedge);
    return *std::move(state->primary);
  }();
  if (hedge_won) hedge_wins_->Increment();

  if (result.ok()) {
    shard.breaker.RecordSuccess();
    shard.alive.store(true);
    shard.latency_us->Observe(
        static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
  } else {
    shard.breaker.RecordFailure(std::chrono::steady_clock::now());
    shard.alive.store(false);
  }
  return result;
}

Result<Coordinator::ShardEstimate> Coordinator::ShardEstimateCall(
    ShardState& shard, const std::string& values_hex,
    std::chrono::steady_clock::time_point deadline,
    const TraceContext& trace) {
  // Fan-out threads start with an empty thread-local context; install
  // the query's so cluster.shard_call and the attempt spans carry it.
  TraceContextScope scope(trace.valid() ? trace : CurrentTraceContext());
  TRACE_SPAN("cluster.shard_call");
  const std::string line =
      "{\"op\":\"shard_estimate\",\"values\":\"" + values_hex + "\"}";
  const uint64_t call_start_ns = NowNanos();
  SKETCHTREE_ASSIGN_OR_RETURN(std::string reply,
                              CallShard(shard, line, deadline, trace));
  if (trace.valid() && trace.sampled) {
    ImportRemoteSpans(reply, call_start_ns, NowNanos(), trace);
  }
  SKETCHTREE_ASSIGN_OR_RETURN(bool ok, JsonFieldBool(reply, "ok"));
  if (!ok) return ShardErrorStatus(shard.address, reply);

  ShardEstimate estimate;
  SKETCHTREE_ASSIGN_OR_RETURN(double epoch, JsonFieldNumber(reply, "epoch"));
  SKETCHTREE_ASSIGN_OR_RETURN(double trees, JsonFieldNumber(reply, "trees"));
  estimate.epoch = static_cast<uint64_t>(epoch);
  estimate.trees = static_cast<uint64_t>(trees);
  SKETCHTREE_ASSIGN_OR_RETURN(std::string x_csv, JsonFieldString(reply, "x"));
  const SketchTreeOptions& opts = service_->sketch_options();
  const size_t expected = static_cast<size_t>(opts.s1) * opts.s2;
  estimate.x.reserve(expected);
  size_t start = 0;
  while (start <= x_csv.size() && !x_csv.empty()) {
    size_t comma = x_csv.find(',', start);
    if (comma == std::string::npos) comma = x_csv.size();
    std::string entry = x_csv.substr(start, comma - start);
    char* end = nullptr;
    double value = std::strtod(entry.c_str(), &end);
    if (end == entry.c_str() || *end != '\0') {
      return Status::Corruption("shard " + shard.address.ToString() +
                                " sent a malformed projection matrix");
    }
    estimate.x.push_back(value);
    if (comma == x_csv.size()) break;
    start = comma + 1;
  }
  if (estimate.x.size() != expected) {
    return Status::Corruption(
        "shard " + shard.address.ToString() + " sent " +
        std::to_string(estimate.x.size()) + " matrix entries, want " +
        std::to_string(expected));
  }
  return estimate;
}

Result<SketchTree> Coordinator::PullShardSnapshot(ShardState& shard) {
  TRACE_SPAN("cluster.refresh_shard");
  // Snapshot frames are far larger than estimate replies; give the
  // transfer a few estimate-deadlines of budget.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(4 * options_.shard_deadline_ms);
  SKETCHTREE_ASSIGN_OR_RETURN(
      std::string reply,
      CallShard(shard, "{\"op\":\"shard_snapshot\"}", deadline,
                TraceContext{}));
  SKETCHTREE_ASSIGN_OR_RETURN(bool ok, JsonFieldBool(reply, "ok"));
  if (!ok) return ShardErrorStatus(shard.address, reply);
  SKETCHTREE_ASSIGN_OR_RETURN(double epoch, JsonFieldNumber(reply, "epoch"));
  SKETCHTREE_ASSIGN_OR_RETURN(double trees, JsonFieldNumber(reply, "trees"));
  SKETCHTREE_ASSIGN_OR_RETURN(std::string base64,
                              JsonFieldString(reply, "sketch"));
  Result<std::string> bytes = Base64Decode(base64);
  if (!bytes.ok()) {
    return Status::Corruption("shard " + shard.address.ToString() +
                              " snapshot decode failed: " +
                              bytes.status().message());
  }
  SKETCHTREE_ASSIGN_OR_RETURN(
      SketchTree sketch, SketchTree::DeserializeFromString(bytes.value()));
  shard.last_epoch.store(static_cast<uint64_t>(epoch));
  shard.last_trees.store(static_cast<uint64_t>(trees));
  shard.last_self_join.store(sketch.EstimateSelfJoinSize());
  return sketch;
}

void Coordinator::ProbeShardClock(ShardState& shard) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.shard_deadline_ms);
  const uint64_t send_ns = NowNanos();
  Result<std::string> reply = [&] {
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.client.Call("{\"op\":\"health\"}", deadline);
  }();
  const uint64_t recv_ns = NowNanos();
  if (!reply.ok()) return;
  Result<double> worker_now = JsonFieldNumber(reply.value(), "now_ns");
  if (!worker_now.ok()) return;
  // Standard NTP-style midpoint estimate: assume the wire legs are
  // symmetric, so the worker read its clock at the RTT midpoint.
  const int64_t midpoint =
      static_cast<int64_t>(send_ns + (recv_ns - send_ns) / 2);
  shard.clock_offset_ns.store(
      static_cast<int64_t>(worker_now.value()) - midpoint);
}

Status Coordinator::RefreshOnce() {
  TRACE_SPAN("cluster.refresh");
  std::lock_guard<std::mutex> refresh_lock(refresh_mu_);
  std::vector<std::optional<SketchTree>> pulled(shards_.size());
  Status first_failure;
  size_t ok_count = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    ProbeShardClock(*shards_[i]);
    Result<SketchTree> sketch = PullShardSnapshot(*shards_[i]);
    if (sketch.ok()) {
      pulled[i].emplace(std::move(sketch).value());
      ++ok_count;
    } else if (first_failure.ok()) {
      first_failure = sketch.status();
    }
  }
  if (ok_count < shards_.size()) {
    refresh_partial_->Increment();
    return Status::Unavailable(
        "refresh reached " + std::to_string(ok_count) + "/" +
        std::to_string(shards_.size()) +
        " shards (merged epoch unchanged): " + first_failure.message());
  }

  // Complete pull: merge in shard order and publish a new epoch. Merge
  // order is part of the determinism story, but the counter sums are
  // exact integers, so any order would produce the same doubles.
  SketchTree merged = std::move(*pulled[0]);
  uint64_t total_trees = shards_[0]->last_trees.load();
  for (size_t i = 1; i < shards_.size(); ++i) {
    Status status = merged.Merge(*pulled[i]);
    if (!status.ok()) {
      return Status::Internal("merging shard " +
                              shards_[i]->address.ToString() +
                              " failed: " + status.message());
    }
    total_trees += shards_[i]->last_trees.load();
  }
  merged_trees_.store(total_trees);
  merged_.Publish(std::move(merged));
  refresh_ok_->Increment();
  return Status::OK();
}

int Coordinator::shards_alive() const {
  int alive = 0;
  for (const auto& shard : shards_) {
    if (shard->alive.load()) ++alive;
  }
  return alive;
}

Result<QueryAnswer> Coordinator::ExecuteMerged(
    QueryKind kind, const std::string& text,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  TRACE_SPAN("cluster.merged");
  merged_queries_->Increment();
  QueryRequest request;
  request.kind = kind;
  request.text = text;
  request.deadline = deadline;
  SKETCHTREE_ASSIGN_OR_RETURN(QueryAnswer answer,
                              service_->Execute(request));
  answer.from_cluster = true;
  answer.strategy = "merged";
  answer.partial = false;
  answer.shards_ok = shards_total();  // A published epoch merged them all.
  answer.shards_total = shards_total();
  answer.covered_trees = answer.trees_processed;
  uint64_t known = 0;
  double self_join = 0.0;
  for (const auto& shard : shards_) {
    known += shard->last_trees.load();
    self_join += shard->last_self_join.load();
  }
  answer.total_trees = std::max(known, answer.covered_trees);
  answer.error_scale =
      WidenedErrorScale(self_join, service_->sketch_options().s1, 1.0);
  return answer;
}

Result<QueryAnswer> Coordinator::ExecuteScatter(
    QueryKind kind, const std::string& text,
    std::chrono::steady_clock::time_point deadline,
    const TraceContext& trace) {
  TRACE_SPAN("cluster.scatter");
  scatter_queries_->Increment();
  std::shared_ptr<const SketchSnapshot> snapshot = merged_.Current();
  if (snapshot == nullptr) {
    return Status::Unavailable("no merged epoch published yet");
  }
  // Each shard compensates only the values it tracks, while a merge
  // re-adds every other shard's tracked mass into the counters, so the
  // summed shard projections would not be the merged synopsis's.
  if (service_->sketch_options().topk_size > 0) {
    return Status::Unimplemented(
        "scatter-gather needs shards built with top-k off (--topk 0): "
        "per-shard top-k compensation does not sum to the merged "
        "synopsis's; use strategy \"merged\"");
  }
  WallTimer compile_timer;
  SKETCHTREE_ASSIGN_OR_RETURN(
      QueryService::PreparedQuery prepared,
      service_->PrepareCompiled(kind, text, *snapshot));

  QueryAnswer answer;
  answer.from_cluster = true;
  answer.strategy = "scatter";
  answer.cache_hit = prepared.cache_hit;
  answer.num_arrangements = prepared.plan->num_arrangements;
  answer.shards_total = shards_total();

  // The plan whose values are scattered and whose xi data finishes the
  // estimate. Extended queries resolve against the *merged* summary
  // first — summaries merge at refresh, so the resolution a single
  // merged synopsis would produce is exactly what the shards are asked
  // for.
  const SumPlan* sum_plan = nullptr;
  std::shared_ptr<const SumPlan> extended_plan;
  switch (kind) {
    case QueryKind::kOrdered:
    case QueryKind::kUnordered:
    case QueryKind::kExpression:
      sum_plan = &prepared.plan->plan;
      break;
    case QueryKind::kExtended: {
      SKETCHTREE_ASSIGN_OR_RETURN(
          extended_plan,
          ResolveExtendedPlan(*prepared.plan, *snapshot,
                              service_->mapper()));
      if (extended_plan == nullptr) {
        // The merged summary proves the count is zero; nothing to
        // scatter.
        answer.estimate = 0.0;
        answer.epoch = snapshot->epoch;
        answer.trees_processed = snapshot->trees_processed;
        answer.shards_ok = shards_alive();
        answer.covered_trees = snapshot->trees_processed;
        answer.total_trees = merged_trees_.load();
        answer.compile_micros = compile_timer.ElapsedSeconds() * 1e6;
        return answer;
      }
      sum_plan = extended_plan.get();
      break;
    }
  }
  answer.compile_micros = compile_timer.ElapsedSeconds() * 1e6;

  WallTimer estimate_timer;
  const std::string values_hex = FormatHexValues(sum_plan->values);
  const auto now = std::chrono::steady_clock::now();
  auto call_deadline =
      now + std::chrono::milliseconds(options_.shard_deadline_ms);
  if (deadline < call_deadline) call_deadline = deadline;

  // Fan out one thread per shard; each runs the full retry + hedge
  // machinery for its shard. Threads join within the shard deadline by
  // construction, so the fan-out's latency is the slowest *surviving*
  // leg, never a dead worker's full timeout times the retry count.
  std::vector<std::optional<Result<ShardEstimate>>> results(shards_.size());
  {
    std::vector<std::thread> calls;
    calls.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      calls.emplace_back([&, i] {
        results[i] = ShardEstimateCall(*shards_[i], values_hex,
                                       call_deadline, trace);
      });
    }
    for (std::thread& call : calls) call.join();
  }

  const SketchTreeOptions& opts = service_->sketch_options();
  const size_t cells = static_cast<size_t>(opts.s1) * opts.s2;
  std::vector<double> x(cells, 0.0);
  uint64_t covered_trees = 0;
  uint64_t total_trees = 0;
  uint64_t max_epoch = 0;
  double covered_self_join = 0.0;
  int ok_count = 0;
  Status first_failure;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (results[i].has_value() && results[i]->ok()) {
      const ShardEstimate& shard = results[i]->value();
      // Elementwise exact-integer adds, in shard order: equals the
      // merged synopsis's counters bit for bit.
      for (size_t c = 0; c < cells; ++c) x[c] += shard.x[c];
      covered_trees += shard.trees;
      total_trees += shard.trees;
      max_epoch = std::max(max_epoch, shard.epoch);
      covered_self_join += shards_[i]->last_self_join.load();
      ++ok_count;
    } else {
      total_trees += shards_[i]->last_trees.load();
      if (first_failure.ok() && results[i].has_value()) {
        first_failure = results[i]->status();
      }
    }
  }
  if (ok_count == 0) {
    return Status::Unavailable("no shard reachable: " +
                               first_failure.message());
  }

  // The summed matrix is the merged synopsis's projection; finish it
  // exactly as ExecuteCompiled does.
  const int s1 = opts.s1;
  answer.estimate = kind == QueryKind::kExpression
                        ? FinishExpression(prepared.plan->terms, x, s1, opts.s2)
                        : FinishSum(*sum_plan, x, s1, opts.s2);
  answer.estimate_micros = estimate_timer.ElapsedSeconds() * 1e6;

  answer.epoch = max_epoch;
  answer.trees_processed = covered_trees;
  answer.shards_ok = ok_count;
  answer.covered_trees = covered_trees;
  answer.total_trees = std::max(total_trees, covered_trees);
  answer.partial = ok_count < shards_total();
  double coverage =
      answer.total_trees > 0
          ? static_cast<double>(covered_trees) / answer.total_trees
          : 1.0;
  answer.error_scale = WidenedErrorScale(covered_self_join, s1,
                                         answer.partial ? coverage : 1.0);
  if (answer.partial) partial_replies_->Increment();
  return answer;
}

Result<QueryAnswer> Coordinator::Execute(
    QueryKind kind, const std::string& text,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    const std::string& strategy_override, const TraceContext& trace) {
  // Install the caller's context when it carries one (a direct Execute
  // call in tests); under the TCP server the worker thread already has
  // it installed, and this re-install is a no-op.
  TraceContextScope scope(trace.valid() ? trace : CurrentTraceContext());
  ClusterStrategy strategy = options_.default_strategy;
  if (strategy_override == "scatter") {
    strategy = ClusterStrategy::kScatter;
  } else if (strategy_override == "merged") {
    strategy = ClusterStrategy::kMerged;
  } else if (!strategy_override.empty()) {
    return Status::InvalidArgument("unknown strategy \"" +
                                   strategy_override +
                                   "\" (want scatter or merged)");
  }
  if (strategy == ClusterStrategy::kMerged) {
    return ExecuteMerged(kind, text, deadline);
  }
  auto scatter_deadline =
      deadline.value_or(std::chrono::steady_clock::time_point::max());
  return ExecuteScatter(kind, text, scatter_deadline, trace);
}

std::string Coordinator::StatsJsonFields() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"shards_total\":%d,\"shards_alive\":%d,"
      "\"scatter_queries\":%llu,\"merged_queries\":%llu,"
      "\"partial_replies\":%llu,\"shard_retries\":%llu,"
      "\"hedges\":%llu,\"hedge_wins\":%llu,\"breaker_skips\":%llu,"
      "\"refresh_ok\":%llu,\"refresh_partial\":%llu,"
      "\"merged_trees\":%llu",
      shards_total(), shards_alive(),
      static_cast<unsigned long long>(scatter_queries_->value()),
      static_cast<unsigned long long>(merged_queries_->value()),
      static_cast<unsigned long long>(partial_replies_->value()),
      static_cast<unsigned long long>(shard_retries_->value()),
      static_cast<unsigned long long>(hedges_->value()),
      static_cast<unsigned long long>(hedge_wins_->value()),
      static_cast<unsigned long long>(breaker_skips_->value()),
      static_cast<unsigned long long>(refresh_ok_->value()),
      static_cast<unsigned long long>(refresh_partial_->value()),
      static_cast<unsigned long long>(merged_trees_.load()));
  // Per-shard clock offsets (addr=ns;...), the alignment input for
  // tools/trace_merge when coordinator and workers span hosts.
  std::string out = buf;
  out += ",\"clock_offsets_ns\":\"";
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (i > 0) out += ';';
    out += shards_[i]->address.ToString();
    out += '=';
    out += std::to_string(shards_[i]->clock_offset_ns.load());
  }
  out += "\"";
  return out;
}

}  // namespace sketchtree
