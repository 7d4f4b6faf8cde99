#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "common/base64.h"
#include "common/timer.h"
#include "server/compiled_query.h"
#include "sketch/kernel_dispatch.h"
#include "trace/trace.h"

namespace sketchtree {

namespace {

/// Maps the wire op names of the four query kinds; nullopt for control
/// ops and unknown strings.
std::optional<QueryKind> KindForOp(const std::string& op) {
  if (op == "count") return QueryKind::kUnordered;
  if (op == "count_ord") return QueryKind::kOrdered;
  if (op == "extended") return QueryKind::kExtended;
  if (op == "expr") return QueryKind::kExpression;
  return std::nullopt;
}

std::string SimpleOkReply(const std::string& id_json,
                          const std::string& fields) {
  std::string out = "{";
  if (!id_json.empty()) out += "\"id\":" + id_json + ",";
  out += "\"ok\":true";
  if (!fields.empty()) out += "," + fields;
  out += "}";
  return out;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

SchedulerOptions SchedulerOptionsFor(const QueryServerOptions& options) {
  SchedulerOptions scheduler;
  scheduler.two_lanes = options.two_lanes;
  scheduler.fast_capacity = options.queue_capacity;
  scheduler.slow_capacity = options.slow_queue_capacity;
  scheduler.fast_lane_max_arrangements = options.fast_lane_max_arrangements;
  scheduler.starvation_bound = options.starvation_bound;
  return scheduler;
}

}  // namespace

/// Shared state of one mixed-lane split batch. The two WorkItems (one
/// per lane) hold a shared_ptr to this; the snapshot is pinned by
/// whichever part executes first so both parts answer from one epoch —
/// the same single-{epoch, trees} contract an unsplit batch gives.
struct QueryServer::BatchShared {
  WireRequest request;
  std::mutex mu;
  std::shared_ptr<const SketchSnapshot> snapshot;
  std::vector<std::optional<Result<QueryAnswer>>> results;
  int parts_remaining = 2;
  WallTimer timer;
};

QueryServer::QueryServer(QueryService* service,
                         const QueryServerOptions& options)
    : service_(service),
      options_(options),
      queue_(SchedulerOptionsFor(options)),
      limiter_(options.client_quota_qps,
               options.client_quota_burst > 0.0
                   ? options.client_quota_burst
                   : 2.0 * options.client_quota_qps),
      slow_log_(options.slow_query_log_capacity, options.slow_query_ms),
      started_ns_(NowNanos()),
      slow_service_ms_x1024_(50 * 1024),  // Seed the retry hint at 50ms.
      queue_depth_(GlobalMetrics().GetGauge("server.queue_depth")),
      queue_wait_us_(GlobalMetrics().GetHistogram(
          "server.queue_wait_us", Histogram::ExponentialBounds(1, 2.0, 21))),
      fast_wait_us_(GlobalMetrics().GetHistogram(
          "server.fast_wait_us", Histogram::ExponentialBounds(1, 2.0, 21))),
      slow_wait_us_(GlobalMetrics().GetHistogram(
          "server.slow_wait_us", Histogram::ExponentialBounds(1, 2.0, 21))),
      fast_latency_us_(GlobalMetrics().GetHistogram(
          "server.fast_latency_us",
          Histogram::ExponentialBounds(1, 2.0, 21))),
      slow_latency_us_(GlobalMetrics().GetHistogram(
          "server.slow_latency_us",
          Histogram::ExponentialBounds(1, 2.0, 21))),
      replies_ok_(GlobalMetrics().GetCounter("server.replies_ok")),
      replies_error_(GlobalMetrics().GetCounter("server.replies_error")),
      replies_dropped_(GlobalMetrics().GetCounter("server.replies_dropped")),
      overloaded_(GlobalMetrics().GetCounter("server.overloaded")),
      shed_retry_after_(
          GlobalMetrics().GetCounter("server.shed_retry_after")),
      quota_rejected_(GlobalMetrics().GetCounter("server.quota_rejected")),
      expired_at_dequeue_(
          GlobalMetrics().GetCounter("server.expired_at_dequeue")),
      shed_on_shutdown_(
          GlobalMetrics().GetCounter("server.shed_on_shutdown")),
      fast_admitted_(GlobalMetrics().GetCounter("server.fast_admitted")),
      slow_admitted_(GlobalMetrics().GetCounter("server.slow_admitted")),
      batch_queries_(GlobalMetrics().GetCounter("server.batch_queries")),
      batch_splits_(GlobalMetrics().GetCounter("server.batch_split")),
      shard_ops_(GlobalMetrics().GetCounter("server.shard_ops")),
      connections_(GlobalMetrics().GetCounter("server.connections")) {}

Result<std::unique_ptr<QueryServer>> QueryServer::Start(
    QueryService* service, const QueryServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("QueryServer needs a QueryService");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument("QueryServer needs at least one worker");
  }
  auto server =
      std::unique_ptr<QueryServer>(new QueryServer(service, options));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::IOError(std::string("bind 127.0.0.1:") +
                                    std::to_string(options.port) + ": " +
                                    std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    Status status =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status status =
        Status::IOError(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  server->listen_fd_ = fd;
  server->port_ = ntohs(addr.sin_port);

  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  for (int i = 0; i < options.num_workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

QueryServer::~QueryServer() { Shutdown(); }

void QueryServer::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stopping_.load(); });
}

void QueryServer::Shutdown() {
  stopping_.store(true);
  stop_cv_.notify_all();
  // Serialize concurrent Shutdown calls (owner + destructor).
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);

  // Unblock accept() and join the acceptor; only then is it safe to
  // close the listener (nobody else reads listen_fd_ afterwards).
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Drain workers while connections are still open: an in-flight query
  // finishes and delivers its reply, but everything still *queued* is
  // answered SHUTTING_DOWN instead of being executed at full cost —
  // shutdown applies the shed policy, it does not burn a queue of cold
  // compiles on the way out.
  queue_.Stop();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Unblock every connection reader mid-recv, then join them; each
  // reader closes its own fd on exit (under the connection's write
  // mutex, so an in-flight worker Reply never writes a stale fd).
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [conn, thread] : conns_) {
      std::lock_guard<std::mutex> write_lock(conn->write_mu);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& [conn, thread] : conns) {
    if (thread.joinable()) thread.join();
  }
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (or unrecoverable error).
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_->Increment();
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    ReapFinishedConnections();
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace_back(conn,
                        std::thread([this, conn] { ConnectionLoop(conn); }));
  }
}

void QueryServer::ReapFinishedConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    bool finished;
    {
      std::lock_guard<std::mutex> write_lock(it->first->write_mu);
      finished = it->first->fd < 0;
    }
    if (finished) {
      if (it->second.joinable()) it->second.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryServer::ConnectionLoop(std::shared_ptr<Connection> conn) {
  const int fd = conn->fd;  // Stable: only this thread retires it below.
  std::string buffer;
  char chunk[4096];
  while (!stopping_.load()) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // Peer closed, or Shutdown() unblocked us.
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      start = nl + 1;
      if (line.empty()) continue;
      Result<WireRequest> parsed = ParseWireRequest(line);
      if (!parsed.ok()) {
        SendCounted(conn,
                    FormatCodedErrorReply("", "MALFORMED_REQUEST",
                                          parsed.status().message()),
                    /*ok=*/false);
        continue;
      }
      HandleRequest(conn, std::move(parsed).value());
    }
    buffer.erase(0, start);
    if (buffer.size() > (1u << 20)) {
      SendCounted(conn,
                  FormatCodedErrorReply("", "MALFORMED_REQUEST",
                                        "request line exceeds 1 MiB"),
                  /*ok=*/false);
      break;
    }
  }
  // Retire the fd under the write mutex so no worker replies into a
  // closed (possibly reused) descriptor.
  std::lock_guard<std::mutex> lock(conn->write_mu);
  conn->fd = -1;
  ::close(fd);
}

int64_t QueryServer::SlowRetryHintMs() const {
  int64_t service_ms =
      slow_service_ms_x1024_.load(std::memory_order_relaxed) / 1024;
  if (service_ms < 1) service_ms = 1;
  int64_t waiting = static_cast<int64_t>(queue_.depth(Lane::kSlow)) + 1;
  int64_t hint = waiting * service_ms / std::max(1, options_.num_workers);
  return std::min<int64_t>(std::max<int64_t>(hint, 1), 60000);
}

void QueryServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                                WireRequest request) {
  std::optional<QueryKind> kind = KindForOp(request.op);
  const bool is_batch = request.op == "batch";
  if (kind.has_value() || is_batch) {
    if (is_batch) {
      if (request.batch.empty()) {
        SendCounted(conn,
                    FormatCodedErrorReply(
                        request.id_json, "MALFORMED_REQUEST",
                        "batch needs a non-empty \"queries\" array"),
                    /*ok=*/false);
        return;
      }
      for (const WireBatchItem& sub : request.batch) {
        if (!KindForOp(sub.op).has_value()) {
          SendCounted(conn,
                      FormatCodedErrorReply(
                          request.id_json, "MALFORMED_REQUEST",
                          "unknown op \"" + sub.op +
                              "\" in batch (want count, count_ord, "
                              "extended, or expr)"),
                      /*ok=*/false);
          return;
        }
      }
    }

    const auto now = std::chrono::steady_clock::now();

    // Per-client admission control first: a rate-limited client is
    // turned away before it can occupy either lane.
    const double token_cost =
        is_batch ? static_cast<double>(request.batch.size()) : 1.0;
    int64_t quota_retry_ms = 0;
    if (!limiter_.Admit(request.client, token_cost, now, &quota_retry_ms)) {
      quota_rejected_->Increment();
      std::string who =
          request.client.empty() ? "(anonymous)" : request.client;
      SendCounted(conn,
                  FormatRetryAfterReply(
                      request.id_json, "RETRY_AFTER",
                      "client \"" + who + "\" exceeded its quota (" +
                          std::to_string(options_.client_quota_qps) +
                          " queries/s)",
                      quota_retry_ms),
                  /*ok=*/false);
      return;
    }

    // Trace context (DESIGN.md section 14): adopt a sampled inbound
    // `trace` field as the parent (minting a child span id for this
    // server's handling), else head-sample 1 in trace_sample_every
    // requests with a fresh root. Malformed fields are ignored —
    // observability must never fail a query.
    TraceContext trace;
    if (!request.trace.empty()) {
      Result<TraceContext> inbound = ParseTraceField(request.trace);
      if (inbound.ok() && inbound.value().sampled) {
        trace = TraceContext::ChildOf(inbound.value());
      }
    }
    if (!trace.valid() && options_.trace_sample_every > 0 &&
        trace_sample_counter_.fetch_add(1, std::memory_order_relaxed) %
                options_.trace_sample_every ==
            0) {
      trace = TraceContext::NewRoot();
    }

    // Price the work: plan-cache probe + closed-form arrangement count.
    // A single-lane batch queues whole; a batch whose members classify
    // into *different* lanes is split — the cheap members inherit the
    // fast lane's latency instead of the slowest member's (S1), and the
    // parts rejoin into one reply.
    const int max_edges = service_->sketch_options().max_pattern_edges;
    const SchedulerOptions scheduler = SchedulerOptionsFor(options_);
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (request.timeout_ms > 0) {
      deadline = now + std::chrono::milliseconds(request.timeout_ms);
    }
    AdmissionDecision decision;
    std::vector<size_t> fast_idx;
    std::vector<size_t> slow_idx;
    {
      // The lane decision happens on the reader thread; the scope
      // stamps its span (and the plan probe nested inside
      // ClassifyForAdmission) with the query's context.
      TraceContextScope trace_scope(trace);
      TRACE_SPAN("server.lane_decision");
      if (is_batch) {
        for (size_t i = 0; i < request.batch.size(); ++i) {
          const WireBatchItem& sub = request.batch[i];
          AdmissionDecision d =
              ClassifyForAdmission(*KindForOp(sub.op), sub.query,
                                   service_->plan_cache(), max_edges,
                                   scheduler);
          if (d.lane == Lane::kSlow) {
            decision.lane = Lane::kSlow;
            slow_idx.push_back(i);
          } else {
            fast_idx.push_back(i);
          }
          decision.arrangements += d.arrangements;
        }
      } else {
        decision = ClassifyForAdmission(*kind, request.query,
                                        service_->plan_cache(), max_edges,
                                        scheduler);
      }
    }

    if (is_batch && options_.two_lanes && !fast_idx.empty() &&
        !slow_idx.empty()) {
      const std::string id_json = request.id_json;
      auto shared = std::make_shared<BatchShared>();
      shared->results.resize(request.batch.size());
      shared->request = std::move(request);
      auto make_part = [&](Lane lane, std::vector<size_t> indices) {
        WorkItem part;
        part.conn = conn;
        part.is_batch = true;
        part.lane = lane;
        part.trace = trace;
        part.arrangements = decision.arrangements;
        part.enqueued = now;
        part.deadline = deadline;
        part.shared = shared;
        part.part_indices = std::move(indices);
        return part;
      };
      switch (queue_.PushSplit(make_part(Lane::kFast, std::move(fast_idx)),
                               make_part(Lane::kSlow, std::move(slow_idx)))) {
        case AdmitResult::kAdmitted:
          batch_splits_->Increment();
          fast_admitted_->Increment();
          slow_admitted_->Increment();
          queue_depth_->Set(static_cast<int64_t>(queue_.total_depth()));
          return;
        case AdmitResult::kSlowFull:
          shed_retry_after_->Increment();
          SendCounted(conn,
                      FormatRetryAfterReply(
                          id_json, "RETRY_AFTER",
                          "slow lane full (" +
                              std::to_string(options_.slow_queue_capacity) +
                              " cold compiles pending); expensive queries "
                              "are shed first under overload",
                          SlowRetryHintMs()),
                      /*ok=*/false);
          return;
        case AdmitResult::kFastFull:
          overloaded_->Increment();
          SendCounted(conn,
                      FormatCodedErrorReply(
                          id_json, "OVERLOADED",
                          "admission queue full (" +
                              std::to_string(options_.queue_capacity) +
                              " queries pending); retry with backoff"),
                      /*ok=*/false);
          return;
        case AdmitResult::kStopped:
          SendCounted(conn,
                      FormatCodedErrorReply(id_json, "SHUTTING_DOWN",
                                            "server is shutting down"),
                      /*ok=*/false);
          return;
      }
      return;
    }

    WorkItem item;
    item.conn = conn;
    item.is_batch = is_batch;
    if (kind.has_value()) item.kind = *kind;
    item.lane = decision.lane;
    item.trace = trace;
    item.arrangements = decision.arrangements;
    item.enqueued = now;
    item.deadline = deadline;
    const Lane lane = decision.lane;
    const std::string id_json = request.id_json;
    item.request = std::move(request);
    switch (queue_.Push(lane, std::move(item))) {
      case AdmitResult::kAdmitted:
        (lane == Lane::kFast ? fast_admitted_ : slow_admitted_)->Increment();
        queue_depth_->Set(static_cast<int64_t>(queue_.total_depth()));
        return;
      case AdmitResult::kSlowFull:
        // Shed order under overload: expensive cold compiles go first,
        // with an explicit back-off hint, while the fast lane keeps
        // serving cached estimates.
        shed_retry_after_->Increment();
        SendCounted(conn,
                    FormatRetryAfterReply(
                        id_json, "RETRY_AFTER",
                        "slow lane full (" +
                            std::to_string(options_.slow_queue_capacity) +
                            " cold compiles pending); expensive queries "
                            "are shed first under overload",
                        SlowRetryHintMs()),
                    /*ok=*/false);
        return;
      case AdmitResult::kFastFull:
        overloaded_->Increment();
        SendCounted(conn,
                    FormatCodedErrorReply(
                        id_json, "OVERLOADED",
                        "admission queue full (" +
                            std::to_string(options_.queue_capacity) +
                            " queries pending); retry with backoff"),
                    /*ok=*/false);
        return;
      case AdmitResult::kStopped:
        SendCounted(conn,
                    FormatCodedErrorReply(id_json, "SHUTTING_DOWN",
                                          "server is shutting down"),
                    /*ok=*/false);
        return;
    }
    return;
  }

  if (request.op == "ping") {
    SendCounted(conn, SimpleOkReply(request.id_json, "\"pong\":true"),
                /*ok=*/true);
    return;
  }
  if (request.op == "stats") {
    PlanCache::Stats cache = service_->plan_cache().GetStats();
    std::shared_ptr<const SketchSnapshot> snapshot =
        service_->snapshots().Current();
    char fields[1280];
    std::snprintf(
        fields, sizeof(fields),
        "\"epoch\":%llu,\"trees\":%llu,\"cache_hits\":%llu,"
        "\"cache_misses\":%llu,\"cache_evictions\":%llu,"
        "\"cache_entries\":%zu,\"queue_depth\":%lld,"
        "\"fast_depth\":%zu,\"slow_depth\":%zu,"
        "\"shed_retry_after\":%llu,\"quota_rejected\":%llu,"
        "\"replies_dropped\":%llu,"
        "\"fast_p50_us\":%.1f,\"fast_p95_us\":%.1f,"
        "\"slow_p50_us\":%.1f,\"slow_p95_us\":%.1f,"
        "\"overloaded\":%llu,\"expired_at_dequeue\":%llu,"
        "\"shed_on_shutdown\":%llu,\"batch_splits\":%llu,"
        "\"uptime_s\":%.1f,\"epoch_age_s\":%.1f,\"kernel\":\"%s\","
        "\"slow_queries\":%llu",
        static_cast<unsigned long long>(snapshot ? snapshot->epoch : 0),
        static_cast<unsigned long long>(snapshot ? snapshot->trees_processed
                                                 : 0),
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        static_cast<unsigned long long>(cache.evictions), cache.entries,
        static_cast<long long>(queue_depth_->value()),
        queue_.depth(Lane::kFast), queue_.depth(Lane::kSlow),
        static_cast<unsigned long long>(shed_retry_after_->value()),
        static_cast<unsigned long long>(quota_rejected_->value()),
        static_cast<unsigned long long>(replies_dropped_->value()),
        fast_latency_us_->Percentile(0.5), fast_latency_us_->Percentile(0.95),
        slow_latency_us_->Percentile(0.5), slow_latency_us_->Percentile(0.95),
        static_cast<unsigned long long>(overloaded_->value()),
        static_cast<unsigned long long>(expired_at_dequeue_->value()),
        static_cast<unsigned long long>(shed_on_shutdown_->value()),
        static_cast<unsigned long long>(batch_splits_->value()),
        static_cast<double>(NowNanos() - started_ns_) / 1e9,
        // -1 = no snapshot published yet (age of nothing is undefined).
        snapshot ? static_cast<double>(NowNanos() - snapshot->published_ns) /
                       1e9
                 : -1.0,
        SketchKernelName(ActiveSketchKernel()),
        static_cast<unsigned long long>(slow_log_.total_recorded()));
    std::string all = fields;
    if (options_.stats_extra_fields) {
      std::string extra = options_.stats_extra_fields();
      if (!extra.empty()) all += "," + extra;
    }
    SendCounted(conn, SimpleOkReply(request.id_json, all), /*ok=*/true);
    return;
  }
  if (request.op == "metrics") {
    // The live telemetry plane's scrape op: the full registry as
    // Prometheus text exposition (for scrapers) and as the registry's
    // deterministic JSON (for humans and tests). Newlines inside the
    // embedded JSON would break the line framing, so they become
    // spaces — JSON whitespace is structurally insignificant.
    std::string json = GlobalMetrics().ToJson();
    for (char& c : json) {
      if (c == '\n') c = ' ';
    }
    SendCounted(conn,
                SimpleOkReply(request.id_json,
                              "\"prometheus\":\"" +
                                  JsonEscape(GlobalMetrics().ToPrometheus()) +
                                  "\",\"metrics\":" + json),
                /*ok=*/true);
    return;
  }
  if (request.op == "slowlog") {
    // Destructive drain, oldest first; slow_total keeps counting what
    // the ring overwrote so operators know when they are losing
    // entries.
    SendCounted(
        conn,
        SimpleOkReply(request.id_json,
                      "\"slowlog\":" + slow_log_.DrainToJsonArray() +
                          ",\"slow_total\":" +
                          std::to_string(slow_log_.total_recorded()) +
                          ",\"slow_query_ms\":" +
                          std::to_string(options_.slow_query_ms)),
        /*ok=*/true);
    return;
  }

  // Coordinator-to-worker ops (DESIGN.md section 13), answered inline on
  // the reader thread: each is a bounded snapshot read with no compile,
  // so lane admission would only add latency to the cluster's serve
  // path.
  if (request.op == "health" || request.op == "shard_estimate" ||
      request.op == "shard_snapshot") {
    shard_ops_->Increment();
    std::shared_ptr<const SketchSnapshot> snapshot =
        service_->snapshots().Current();
    if (snapshot == nullptr) {
      SendCounted(conn,
                  FormatCodedErrorReply(request.id_json, "UNAVAILABLE",
                                        "no snapshot published yet"),
                  /*ok=*/false);
      return;
    }
    if (request.op == "health") {
      // now_ns rides every health reply: the coordinator estimates each
      // worker's clock offset as worker_now - midpoint(send, recv), the
      // alignment input trace merging uses.
      SendCounted(conn,
                  FormatHealthReply(request.id_json, snapshot->epoch,
                                    snapshot->trees_processed,
                                    snapshot->sketch.EstimateSelfJoinSize(),
                                    stopping_.load(), NowNanos()),
                  /*ok=*/true);
      return;
    }
    if (request.op == "shard_estimate") {
      // A sampled trace context on the shard leg makes this worker
      // record its handling under the coordinator's trace and return a
      // compact span summary, so the merged timeline separates true
      // remote compute from wire time.
      TraceContext remote_trace;
      if (!request.trace.empty()) {
        Result<TraceContext> inbound = ParseTraceField(request.trace);
        if (inbound.ok() && inbound.value().sampled) {
          remote_trace = TraceContext::ChildOf(inbound.value());
        }
      }
      TraceContextScope trace_scope(remote_trace);
      const uint64_t handler_start = NowNanos();
      Result<std::vector<uint64_t>> values = ParseHexValues(request.values);
      if (!values.ok()) {
        SendCounted(conn,
                    FormatCodedErrorReply(request.id_json,
                                          "MALFORMED_REQUEST",
                                          values.status().message()),
                    /*ok=*/false);
        return;
      }
      const uint64_t estimate_start = NowNanos();
      std::vector<double> x;
      {
        TRACE_SPAN("server.shard_estimate");
        x = ComputeProjectionMatrix(snapshot->sketch.streams(),
                                    values.value());
      }
      const uint64_t estimate_end = NowNanos();
      uint64_t remote_ns = 0;
      std::string spans;
      if (remote_trace.valid()) {
        std::vector<RemoteSpan> summary;
        summary.push_back({"shard.estimate",
                           estimate_start - handler_start,
                           estimate_end - estimate_start});
        spans = FormatRemoteSpans(summary);
        remote_ns = NowNanos() - handler_start;
        if (remote_ns == 0) remote_ns = 1;  // 0 means "untraced".
      }
      const SketchTreeOptions& opts = service_->sketch_options();
      SendCounted(conn,
                  FormatShardEstimateReply(request.id_json, opts.s1, opts.s2,
                                           snapshot->epoch,
                                           snapshot->trees_processed, x,
                                           remote_ns, spans),
                  /*ok=*/true);
      return;
    }
    // shard_snapshot: the merge-at-publish pull, always the whole
    // synopsis image (an older coordinator's `base_epoch` field is
    // ignored). It is the synopsis file format, so a coordinator can
    // also hand it to a fresh worker (shard handoff).
    std::string bytes = snapshot->sketch.SerializeToString();
    SendCounted(conn,
                FormatShardSnapshotReply(request.id_json, snapshot->epoch,
                                         snapshot->trees_processed,
                                         Base64Encode(bytes)),
                /*ok=*/true);
    return;
  }
  if (request.op == "shutdown") {
    SendCounted(conn,
                SimpleOkReply(request.id_json, "\"shutting_down\":true"),
                /*ok=*/true);
    // Flip the flag and wake WaitForShutdown; the owner thread performs
    // the actual teardown via Shutdown() (it must — joins can't happen
    // on this connection thread). Workers observe stopping_ and shed
    // queued work with SHUTTING_DOWN from here on.
    stopping_.store(true);
    stop_cv_.notify_all();
    return;
  }
  SendCounted(conn,
              FormatCodedErrorReply(
                  request.id_json, "MALFORMED_REQUEST",
                  "unknown op \"" + request.op +
                      "\" (want count, count_ord, extended, expr, batch, "
                      "stats, metrics, slowlog, ping, shutdown, health, "
                      "shard_estimate, or shard_snapshot)"),
              /*ok=*/false);
}

Result<QueryAnswer> QueryServer::RunQuery(
    QueryKind kind, const std::string& text,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    const std::string& strategy, const TraceContext& trace,
    const std::shared_ptr<const SketchSnapshot>& snapshot) {
  if (options_.cluster_handler) {
    return options_.cluster_handler(kind, text, deadline, strategy, trace);
  }
  QueryRequest query;
  query.kind = kind;
  query.text = text;
  query.deadline = deadline;
  return snapshot ? service_->ExecuteOn(query, snapshot)
                  : service_->Execute(query);
}

void QueryServer::ExecuteSingle(const WorkItem& item) {
  WallTimer timer;
  Result<QueryAnswer> answer =
      RunQuery(item.kind, item.request.query, item.deadline,
               item.request.strategy, item.trace, nullptr);
  if (item.lane == Lane::kSlow) {
    // Fold the observed service time into the shed hint's EMA
    // (weight 1/4 new): retry_after_ms tracks what a cold compile
    // actually costs right now.
    int64_t observed_x1024 =
        static_cast<int64_t>(timer.ElapsedSeconds() * 1000.0 * 1024.0);
    int64_t prev = slow_service_ms_x1024_.load(std::memory_order_relaxed);
    slow_service_ms_x1024_.store((prev * 3 + observed_x1024) / 4,
                                 std::memory_order_relaxed);
  }
  std::string reply;
  {
    TRACE_SPAN("server.serialize");
    reply = answer.ok() ? FormatAnswerReply(item.request, answer.value())
                        : FormatErrorReply(item.request, answer.status());
  }
  // Slow-query log: end-to-end (admission to reply write) against the
  // threshold. Recorded before the reply goes out so that once a client
  // sees the answer, a slowlog drain is guaranteed to see the entry.
  // The fast path pays one enabled() check and a subtraction.
  if (slow_log_.enabled()) {
    const double total_us =
        static_cast<double>(std::chrono::duration_cast<
                                std::chrono::microseconds>(
                                std::chrono::steady_clock::now() -
                                item.enqueued)
                                .count());
    if (total_us >= static_cast<double>(slow_log_.threshold_ms()) * 1000.0) {
      SlowQueryEntry entry;
      entry.trace_id = item.trace.trace_id;
      entry.key = item.request.op + " " + item.request.query;
      entry.lane = LaneName(item.lane);
      entry.arrangements = item.arrangements;
      entry.micros = total_us;
      if (answer.ok()) {
        const QueryAnswer& a = answer.value();
        entry.epoch = a.epoch;
        entry.covered_trees = a.from_cluster ? a.covered_trees
                                             : a.trees_processed;
        entry.total_trees = a.from_cluster ? a.total_trees
                                           : a.trees_processed;
        entry.error_scale = a.error_scale;
      }
      slow_log_.Record(std::move(entry));
    }
  }
  SendCounted(item.conn, reply, answer.ok());
}

void QueryServer::ExecuteBatch(const WorkItem& item) {
  // One snapshot pin for the whole batch: every sub-query answers from
  // the same epoch, and the results are bit-identical to issuing the
  // singles against that epoch.
  std::shared_ptr<const SketchSnapshot> snapshot =
      service_->snapshots().Current();
  WallTimer timer;
  std::vector<Result<QueryAnswer>> results;
  results.reserve(item.request.batch.size());
  for (const WireBatchItem& sub : item.request.batch) {
    results.push_back(RunQuery(*KindForOp(sub.op), sub.query, item.deadline,
                               item.request.strategy, item.trace, snapshot));
  }
  batch_queries_->Increment(item.request.batch.size());
  std::string reply;
  {
    TRACE_SPAN("server.serialize");
    reply = FormatBatchReply(item.request, snapshot ? snapshot->epoch : 0,
                             snapshot ? snapshot->trees_processed : 0,
                             results, timer.ElapsedSeconds() * 1e6);
  }
  SendCounted(item.conn, reply, /*ok=*/true);
}

void QueryServer::ExecuteSplitPart(const WorkItem& item, const Status& shed) {
  BatchShared& shared = *item.shared;
  std::shared_ptr<const SketchSnapshot> snapshot;
  if (shed.ok()) {
    std::lock_guard<std::mutex> lock(shared.mu);
    if (shared.snapshot == nullptr) {
      shared.snapshot = service_->snapshots().Current();
    }
    snapshot = shared.snapshot;
  }
  for (size_t idx : item.part_indices) {
    Result<QueryAnswer> result = shed.ok()
        ? RunQuery(*KindForOp(shared.request.batch[idx].op),
                   shared.request.batch[idx].query, item.deadline,
                   shared.request.strategy, item.trace, snapshot)
        : Result<QueryAnswer>(shed);
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.results[idx] = std::move(result);
  }
  if (shed.ok()) batch_queries_->Increment(item.part_indices.size());

  bool last = false;
  {
    std::lock_guard<std::mutex> lock(shared.mu);
    last = --shared.parts_remaining == 0;
  }
  if (!last) return;
  // Both parts have landed; this worker rejoins them into the single
  // batch reply the client expects.
  std::vector<Result<QueryAnswer>> results;
  results.reserve(shared.results.size());
  for (std::optional<Result<QueryAnswer>>& r : shared.results) {
    results.push_back(r.has_value()
                          ? std::move(*r)
                          : Result<QueryAnswer>(Status::Internal(
                                "split batch part never executed")));
  }
  std::string reply;
  {
    TRACE_SPAN("server.serialize");
    reply = FormatBatchReply(
        shared.request, shared.snapshot ? shared.snapshot->epoch : 0,
        shared.snapshot ? shared.snapshot->trees_processed : 0, results,
        shared.timer.ElapsedSeconds() * 1e6);
  }
  SendCounted(item.conn, reply, /*ok=*/true);
}

void QueryServer::WorkerLoop() {
  while (true) {
    WorkItem item;
    Lane lane = Lane::kFast;
    if (!queue_.Pop(&item, &lane)) return;  // Stopped and fully drained.
    queue_depth_->Set(static_cast<int64_t>(queue_.total_depth()));
    const auto dequeued = std::chrono::steady_clock::now();
    const uint64_t wait_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(dequeued -
                                                              item.enqueued)
            .count());
    queue_wait_us_->Observe(wait_us);
    (lane == Lane::kFast ? fast_wait_us_ : slow_wait_us_)->Observe(wait_us);

    // Admission wait as a retroactive "X" span: the window opened on the
    // reader thread at enqueue, so it cannot be a B/E pair on this
    // thread's strictly-ordered track.
    if (item.trace.valid()) {
      const uint64_t enqueued_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              item.enqueued.time_since_epoch())
              .count());
      TraceRecorder::Global().RecordComplete(
          "server.admission_wait", enqueued_ns,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  dequeued - item.enqueued)
                  .count()),
          item.trace);
    }

    // Shutdown drain: queued-but-unstarted work is shed, not executed —
    // a queue full of cold compiles must not delay the exit. A split
    // part sheds into its slots of the shared reply (the client still
    // gets one batch reply, with those items erroring) rather than
    // sending a second top-level error line.
    if (stopping_.load()) {
      shed_on_shutdown_->Increment();
      if (item.shared != nullptr) {
        ExecuteSplitPart(item, Status::Unavailable(
                                   "server is shutting down; request was "
                                   "queued but not executed"));
        continue;
      }
      SendCounted(item.conn,
                  FormatCodedErrorReply(
                      item.request.id_json, "SHUTTING_DOWN",
                      "server is shutting down; request was queued but "
                      "not executed"),
                  /*ok=*/false);
      continue;
    }
    // Deadline check at dequeue: an expired request is answered
    // immediately — no snapshot pin, no compile, no estimate.
    if (item.deadline.has_value() && dequeued > *item.deadline) {
      expired_at_dequeue_->Increment();
      if (item.shared != nullptr) {
        ExecuteSplitPart(item,
                         Status::DeadlineExceeded(
                             "deadline expired after " +
                             std::to_string(wait_us / 1000) +
                             "ms in the admission queue"));
        continue;
      }
      SendCounted(item.conn,
                  FormatCodedErrorReply(
                      item.request.id_json, "DEADLINE_EXCEEDED",
                      "deadline expired after " +
                          std::to_string(wait_us / 1000) +
                          "ms in the admission queue"),
                  /*ok=*/false);
      continue;
    }

    {
      // Install the query's context for the whole execution: compile,
      // cache-lookup, estimate, and serialize spans all inherit it.
      TraceContextScope trace_scope(item.trace);
      if (item.shared != nullptr) {
        ExecuteSplitPart(item, Status::OK());
      } else if (item.is_batch) {
        ExecuteBatch(item);
      } else {
        ExecuteSingle(item);
      }
    }
    // Per-lane end-to-end latency (admission to reply), exported as
    // p50/p95 through the stats op.
    const uint64_t total_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - item.enqueued)
            .count());
    (lane == Lane::kFast ? fast_latency_us_ : slow_latency_us_)
        ->Observe(total_us);
  }
}

bool QueryServer::Reply(const std::shared_ptr<Connection>& conn,
                        const std::string& line) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->fd < 0) {
    replies_dropped_->Increment();
    return false;
  }
  if (!SendAll(conn->fd, line + "\n")) {
    // The peer is gone (reset / closed mid-reply). Count the loss and
    // shut the socket down so the reader's recv unblocks and retires
    // the connection instead of idling on a dead peer.
    replies_dropped_->Increment();
    ::shutdown(conn->fd, SHUT_RDWR);
    return false;
  }
  return true;
}

void QueryServer::SendCounted(const std::shared_ptr<Connection>& conn,
                              const std::string& line, bool ok) {
  if (Reply(conn, line)) {
    (ok ? replies_ok_ : replies_error_)->Increment();
  }
}

}  // namespace sketchtree
