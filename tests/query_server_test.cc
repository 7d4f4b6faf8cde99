#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/sketch_tree.h"
#include "metrics/metrics.h"
#include "server/query_service.h"
#include "server/snapshot.h"
#include "trace/trace.h"
#include "tree/tree_serialization.h"

namespace sketchtree {
namespace {

SketchTreeOptions SmallOptions() {
  SketchTreeOptions options;
  options.max_pattern_edges = 3;
  options.s1 = 20;
  options.s2 = 5;
  options.num_virtual_streams = 31;
  options.topk_size = 8;
  options.seed = 11;
  return options;
}

SketchTree BuildSketch() {
  SketchTree sketch = *SketchTree::Create(SmallOptions());
  for (int i = 0; i < 9; ++i) sketch.Update(*ParseSExpr("A(B,C)"));
  for (int i = 0; i < 6; ++i) sketch.Update(*ParseSExpr("R(S(T),U)"));
  return sketch;
}

/// Minimal blocking line-protocol client for the tests.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Aborts the connection with an RST (SO_LINGER zero) — simulates a
  /// client dying mid-reply rather than closing gracefully.
  void CloseHard() {
    if (fd_ < 0) return;
    linger hard{};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd_);
    fd_ = -1;
  }

  bool connected() const { return connected_; }

  void Send(const std::string& lines) {
    ASSERT_EQ(::send(fd_, lines.data(), lines.size(), 0),
              static_cast<ssize_t>(lines.size()));
  }

  /// Reads one newline-terminated reply (empty string on EOF).
  std::string ReadLine() {
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[1024];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

TEST(QueryServerTest, AnswersQueriesOverTcp) {
  Result<QueryService> service = QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_GT((*server)->port(), 0);

  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  client.Send("{\"op\":\"ping\",\"id\":1}\n");
  EXPECT_EQ(client.ReadLine(), "{\"id\":1,\"ok\":true,\"pong\":true}");

  client.Send("{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"id\":2}\n");
  std::string reply = client.ReadLine();
  EXPECT_NE(reply.find("\"id\":2,\"ok\":true,\"estimate\":"),
            std::string::npos)
      << reply;
  EXPECT_NE(reply.find("\"epoch\":1,\"trees\":15"), std::string::npos)
      << reply;
  EXPECT_NE(reply.find("\"cache\":\"miss\""), std::string::npos) << reply;

  // Same unordered pattern in both child orders: second is a cache hit.
  client.Send("{\"op\":\"count\",\"q\":\"A(B,C)\",\"id\":3}\n");
  EXPECT_NE(client.ReadLine().find("\"cache\":\"miss\""),
            std::string::npos);
  client.Send("{\"op\":\"count\",\"q\":\"A(C,B)\",\"id\":4}\n");
  EXPECT_NE(client.ReadLine().find("\"cache\":\"hit\""), std::string::npos);

  client.Send("{\"op\":\"stats\",\"id\":5}\n");
  reply = client.ReadLine();
  EXPECT_NE(reply.find("\"cache_hits\":1"), std::string::npos) << reply;

  // Error paths stay on the connection.
  client.Send("garbage\n");
  reply = client.ReadLine();
  EXPECT_NE(reply.find("\"code\":\"MALFORMED_REQUEST\""),
            std::string::npos)
      << reply;
  client.Send("{\"op\":\"count_ord\",\"q\":\"A((\",\"id\":6}\n");
  reply = client.ReadLine();
  EXPECT_NE(reply.find("\"code\":\"INVALID_ARGUMENT\""), std::string::npos)
      << reply;

  (*server)->Shutdown();
}

TEST(QueryServerTest, ShutdownOpStopsTheServer) {
  Result<QueryService> service = QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());

  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  client.Send("{\"op\":\"shutdown\",\"id\":1}\n");
  EXPECT_EQ(client.ReadLine(),
            "{\"id\":1,\"ok\":true,\"shutting_down\":true}");
  (*server)->WaitForShutdown();  // Returns because of the op.
  (*server)->Shutdown();
  EXPECT_TRUE((*server)->stopping());
}

TEST(QueryServerTest, OverloadRepliesWhenQueueIsFull) {
  SketchTreeOptions sketch_options = SmallOptions();
  sketch_options.max_pattern_edges = 8;
  SketchTree sketch = *SketchTree::Create(sketch_options);
  sketch.Update(*ParseSExpr("A(B,C)"));
  QueryServiceOptions service_options;
  service_options.max_arrangements = 50000;
  Result<QueryService> service =
      QueryService::CreateStatic(std::move(sketch), service_options);
  ASSERT_TRUE(service.ok());

  QueryServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  options.queue_capacity = 1;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());

  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  // One expensive cold compile (8 distinct children: 8! = 40320
  // arrangements) pins the only worker; the pipelined follow-ups hit a
  // 1-slot queue, so most must be rejected with OVERLOADED.
  std::string burst;
  burst += "{\"op\":\"count\",\"q\":\"A(B,C,D,E,F,G,H,I)\",\"id\":0}\n";
  constexpr int kFollowUps = 24;
  for (int i = 1; i <= kFollowUps; ++i) {
    burst += "{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"id\":" +
             std::to_string(i) + "}\n";
  }
  client.Send(burst);
  int ok = 0, overloaded = 0;
  for (int i = 0; i <= kFollowUps; ++i) {
    std::string reply = client.ReadLine();
    ASSERT_FALSE(reply.empty());
    if (reply.find("\"ok\":true") != std::string::npos) {
      ++ok;
    } else {
      EXPECT_NE(reply.find("\"code\":\"OVERLOADED\""), std::string::npos)
          << reply;
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kFollowUps + 1);
  EXPECT_GE(overloaded, 1) << "queue never overflowed";
  (*server)->Shutdown();
}

TEST(QueryServerTest, DeadlineExceededOverTheWire) {
  Result<QueryService> service = QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());
  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  // timeout_ms so small the deadline passes before the worker runs; the
  // deadline is taken at admission, so this is deterministic enough to
  // at least produce a well-formed reply of one of the two kinds.
  client.Send(
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"id\":1,\"timeout_ms\":0}"
      "\n");
  std::string reply = client.ReadLine();
  // timeout_ms 0 means "no deadline": must succeed.
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  (*server)->Shutdown();
}

/// Extracts the raw JSON value of `"field":` occurrences, in order.
std::vector<std::string> ExtractField(const std::string& json,
                                      const std::string& field) {
  std::vector<std::string> values;
  const std::string needle = "\"" + field + "\":";
  for (size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    size_t start = pos + needle.size();
    size_t end = json.find_first_of(",}]", start);
    values.push_back(json.substr(start, end - start));
  }
  return values;
}

/// A service over a wide sketch where an 8-distinct-child unordered
/// pattern costs 8! = 40320 arrangements — tens of milliseconds of cold
/// compile, the head-of-line blocker the lanes exist for.
Result<QueryService> WideService() {
  SketchTreeOptions sketch_options = SmallOptions();
  sketch_options.max_pattern_edges = 8;
  SketchTree sketch = *SketchTree::Create(sketch_options);
  sketch.Update(*ParseSExpr("A(B,C)"));
  QueryServiceOptions service_options;
  service_options.max_arrangements = 50000;
  return QueryService::CreateStatic(std::move(sketch), service_options);
}

// The live telemetry plane (DESIGN.md section 14): stats uptime/epoch
// age/kernel fields, the slow-query ring with destructive drain, and
// the Prometheus + JSON metrics op — all over the wire.
TEST(QueryServerTest, MetricsSlowlogAndStatsObservability) {
  Result<QueryService> service = WideService();
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  options.slow_query_ms = 1;
  options.slow_query_log_capacity = 4;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());
  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  client.Send("{\"op\":\"stats\",\"id\":1}\n");
  std::string stats = client.ReadLine();
  EXPECT_NE(stats.find("\"uptime_s\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"epoch_age_s\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"kernel\":\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"slow_queries\":0"), std::string::npos) << stats;

  // A 40320-arrangement cold compile costs tens of milliseconds —
  // deterministically over the 1ms slow-query threshold.
  client.Send("{\"op\":\"count\",\"q\":\"A(B,C,D,E,F,G,H,I)\",\"id\":2}\n");
  EXPECT_NE(client.ReadLine().find("\"ok\":true"), std::string::npos);

  client.Send("{\"op\":\"slowlog\",\"id\":3}\n");
  std::string slowlog = client.ReadLine();
  EXPECT_NE(slowlog.find("\"ok\":true"), std::string::npos) << slowlog;
  EXPECT_NE(slowlog.find("\"slow_query_ms\":1"), std::string::npos);
  EXPECT_NE(slowlog.find("\"key\":\"count A(B,C,D,E,F,G,H,I)\""),
            std::string::npos)
      << slowlog;
  EXPECT_NE(slowlog.find("\"lane\":"), std::string::npos) << slowlog;
  EXPECT_NE(slowlog.find("\"micros\":"), std::string::npos) << slowlog;
  EXPECT_NE(slowlog.find("\"slow_total\":1"), std::string::npos) << slowlog;

  // The drain is destructive; the running total survives it.
  client.Send("{\"op\":\"slowlog\",\"id\":4}\n");
  std::string drained = client.ReadLine();
  EXPECT_NE(drained.find("\"slowlog\":[]"), std::string::npos) << drained;
  EXPECT_NE(drained.find("\"slow_total\":1"), std::string::npos) << drained;

  client.Send("{\"op\":\"metrics\",\"id\":5}\n");
  std::string metrics = client.ReadLine();
  EXPECT_NE(metrics.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(metrics.find("\"prometheus\":\""), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE sketchtree_"), std::string::npos)
      << metrics.substr(0, 400);
  EXPECT_NE(metrics.find("\"metrics\":{"), std::string::npos);

  client.Send("{\"op\":\"stats\",\"id\":6}\n");
  EXPECT_NE(client.ReadLine().find("\"slow_queries\":1"),
            std::string::npos);

  (*server)->Shutdown();
}

// A request carrying a sampled trace context gets its server-side spans
// (lane decision on the reader thread, the retroactive admission-wait
// window, execution) stamped with that trace id.
TEST(QueryServerTest, WireTraceContextTagsServerSpans) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Stop();
  recorder.Reset();
  Result<QueryService> service = QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());
  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  recorder.Start();
  client.Send(
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"id\":1,"
      "\"trace\":\"00000000000abcde-0000000000111111-1\"}\n");
  EXPECT_NE(client.ReadLine().find("\"ok\":true"), std::string::npos);
  recorder.Stop();
  const std::string json = recorder.ToJson();
  recorder.Reset();

  auto span_has_trace = [&](const std::string& name) {
    size_t at = json.find("\"name\": \"" + name + "\"");
    if (at == std::string::npos) return false;
    size_t eol = json.find('\n', at);
    return json.substr(at, eol - at)
               .find("\"trace_id\": \"00000000000abcde\"") !=
           std::string::npos;
  };
  EXPECT_TRUE(span_has_trace("server.lane_decision")) << json;
  EXPECT_TRUE(span_has_trace("server.admission_wait")) << json;
  EXPECT_TRUE(span_has_trace("server.query")) << json;

  (*server)->Shutdown();
}

TEST(QueryServerTest, WarmRepliesOvertakeQueuedColdCompiles) {
  Result<QueryService> service = WideService();
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());

  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  // Two cold 40320-arrangement compiles pipelined ahead of one cheap
  // point query. Under the old FIFO the cheap query waited behind both
  // cold compiles; with lanes it overtakes whichever cold compile is
  // still queued, so its reply must arrive before the second cold one.
  client.Send(
      "{\"op\":\"count\",\"q\":\"A(B,C,D,E,F,G,H,I)\",\"id\":1}\n"
      "{\"op\":\"count\",\"q\":\"Z(Q,R,S,T,U,V,W,Y)\",\"id\":2}\n"
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"id\":3}\n");
  std::vector<std::string> reply_ids;
  for (int i = 0; i < 3; ++i) {
    std::string reply = client.ReadLine();
    ASSERT_FALSE(reply.empty());
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    std::vector<std::string> ids = ExtractField(reply, "id");
    ASSERT_EQ(ids.size(), 1u) << reply;
    reply_ids.push_back(ids[0]);
  }
  size_t warm_at = 0, second_cold_at = 0;
  for (size_t i = 0; i < reply_ids.size(); ++i) {
    if (reply_ids[i] == "3") warm_at = i;
    if (reply_ids[i] == "2") second_cold_at = i;
  }
  EXPECT_LT(warm_at, second_cold_at)
      << "warm reply queued behind a cold compile: " << reply_ids[0] << ","
      << reply_ids[1] << "," << reply_ids[2];
  (*server)->Shutdown();
}

TEST(QueryServerTest, ExpiredRequestsAreAnsweredAtDequeueWithoutCompiling) {
  Result<QueryService> service = WideService();
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());
  Counter* expired = GlobalMetrics().GetCounter("server.expired_at_dequeue");
  const uint64_t expired_before = expired->value();

  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  // Pin the only worker on a tens-of-ms cold compile...
  client.Send("{\"op\":\"count\",\"q\":\"A(B,C,D,E,F,G,H,I)\",\"id\":1}\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...then flood the queue with requests whose 5ms deadlines will all
  // have expired by the time the worker frees up.
  const char* dead_patterns[] = {"A(B,D)", "A(B,E)", "A(B,F)", "A(B,G)"};
  std::string flood;
  for (int i = 0; i < 4; ++i) {
    flood += "{\"op\":\"count_ord\",\"q\":\"" +
             std::string(dead_patterns[i]) + "\",\"id\":" +
             std::to_string(i + 2) + ",\"timeout_ms\":5}\n";
  }
  client.Send(flood);

  std::string blocker_reply = client.ReadLine();
  EXPECT_NE(blocker_reply.find("\"id\":1,\"ok\":true"), std::string::npos)
      << blocker_reply;
  for (int i = 0; i < 4; ++i) {
    std::string reply = client.ReadLine();
    EXPECT_NE(reply.find("\"code\":\"DEADLINE_EXCEEDED\""),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find("admission queue"), std::string::npos) << reply;
  }
  EXPECT_EQ(expired->value(), expired_before + 4);
  // The regression being locked down: a dead request must cost zero
  // compiles. If any had executed, its plan would now be cached.
  for (const char* pattern : dead_patterns) {
    Result<std::string> key =
        CanonicalQueryKey(QueryKind::kOrdered, pattern, 8);
    ASSERT_TRUE(key.ok());
    EXPECT_FALSE(service->plan_cache().Contains(*key)) << pattern;
  }
  (*server)->Shutdown();
}

TEST(QueryServerTest, DroppedReplyIsCountedNotMiscountedAsDelivered) {
  Result<QueryService> service = WideService();
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());
  Counter* dropped = GlobalMetrics().GetCounter("server.replies_dropped");
  Counter* ok = GlobalMetrics().GetCounter("server.replies_ok");
  const uint64_t dropped_before = dropped->value();
  const uint64_t ok_before = ok->value();

  {
    TestClient client((*server)->port());
    ASSERT_TRUE(client.connected());
    // A slow cold compile guarantees the client is gone (RST) before
    // the worker tries to deliver the reply.
    client.Send(
        "{\"op\":\"count\",\"q\":\"A(B,C,D,E,F,G,H,I)\",\"id\":1}\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    client.CloseHard();
  }
  // The send failure must surface as replies_dropped, not replies_ok.
  // Generous budget: under ASan with sibling test processes compiling
  // the same 40320-arrangement pattern, the compile alone can take
  // several seconds before the worker ever reaches the send.
  for (int i = 0; i < 3000 && dropped->value() == dropped_before &&
                  ok->value() == ok_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(dropped->value(), dropped_before + 1);
  EXPECT_EQ(ok->value(), ok_before);
  (*server)->Shutdown();
}

TEST(QueryServerTest, ShutdownShedsQueuedWorkWithExplicitError) {
  Result<QueryService> service = WideService();
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());
  Counter* shed = GlobalMetrics().GetCounter("server.shed_on_shutdown");
  const uint64_t shed_before = shed->value();
  Gauge* depth = GlobalMetrics().GetGauge("server.queue_depth");
  Histogram* dequeued = GlobalMetrics().GetHistogram(
      "server.queue_wait_us", Histogram::ExponentialBounds(1, 2.0, 21));
  const uint64_t dequeued_before = dequeued->TotalCount();
  // Polls `done` for up to 30 s; the waits below are state, not timing.
  auto wait_until = [](const std::function<bool()>& done) {
    for (int i = 0; i < 30000 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };

  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  // Worker pinned on a cold compile, three more requests queued behind
  // it — then shutdown. The in-flight compile finishes and delivers;
  // the queued requests must be shed with SHUTTING_DOWN, not executed
  // at full cost on the way out.
  client.Send("{\"op\":\"count\",\"q\":\"A(B,C,D,E,F,G,H,I)\",\"id\":1}\n");
  // Id 1 is dequeued: its queue wait is recorded right after the pop.
  // (A queue depth of 0 alone cannot tell "dequeued" from "not yet
  // admitted".)
  ASSERT_TRUE(
      wait_until([&] { return dequeued->TotalCount() > dequeued_before; }));
  client.Send(
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"id\":2}\n"
      "{\"op\":\"count_ord\",\"q\":\"A(B,D)\",\"id\":3}\n"
      "{\"op\":\"count\",\"q\":\"Z(Q,R,S,T,U,V,W,Y)\",\"id\":4}\n");
  // All three are queued behind the busy worker.
  ASSERT_TRUE(wait_until([&] { return depth->value() == 3; }));
  (*server)->Shutdown();

  std::string blocker_reply = client.ReadLine();
  EXPECT_NE(blocker_reply.find("\"id\":1,\"ok\":true"), std::string::npos)
      << blocker_reply;
  for (int i = 0; i < 3; ++i) {
    std::string reply = client.ReadLine();
    EXPECT_NE(reply.find("\"code\":\"SHUTTING_DOWN\""), std::string::npos)
        << reply;
  }
  EXPECT_EQ(shed->value(), shed_before + 3);
}

TEST(QueryServerTest, BatchMatchesSinglesBitForBit) {
  Result<QueryService> service = QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());
  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  // Singles first (these also warm the cache — irrelevant for values,
  // cached replay is bit-identical by construction).
  const char* singles[] = {
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"id\":1}",
      "{\"op\":\"count\",\"q\":\"A(C,B)\",\"id\":2}",
      "{\"op\":\"expr\",\"q\":\"COUNT_ORD(A(B,C)) + COUNT_ORD(R(S(T),U))\","
      "\"id\":3}",
  };
  std::vector<std::string> expected;
  for (const char* line : singles) {
    client.Send(std::string(line) + "\n");
    std::string reply = client.ReadLine();
    ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    std::vector<std::string> estimates = ExtractField(reply, "estimate");
    ASSERT_EQ(estimates.size(), 1u) << reply;
    expected.push_back(estimates[0]);
  }

  // One batch, same queries, one snapshot pin: values must be
  // bit-identical (both sides print %.17g, so string equality is value
  // equality), and the shared epoch is reported once at the top level.
  client.Send(
      "{\"op\":\"batch\",\"id\":9,\"queries\":["
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\"},"
      "{\"op\":\"count\",\"q\":\"A(C,B)\"},"
      "{\"op\":\"expr\",\"q\":\"COUNT_ORD(A(B,C)) + COUNT_ORD(R(S(T),U))\"}"
      "]}\n");
  std::string reply = client.ReadLine();
  EXPECT_NE(reply.find("\"id\":9,\"ok\":true,\"epoch\":1,\"trees\":15"),
            std::string::npos)
      << reply;
  std::vector<std::string> estimates = ExtractField(reply, "estimate");
  ASSERT_EQ(estimates.size(), 3u) << reply;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(estimates[i], expected[i]) << "sub-query " << i;
  }

  // A bad sub-query fails alone; its neighbors still answer.
  client.Send(
      "{\"op\":\"batch\",\"id\":10,\"queries\":["
      "{\"op\":\"count_ord\",\"q\":\"A((\"},"
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\"}]}\n");
  reply = client.ReadLine();
  EXPECT_NE(reply.find("\"ok\":false,\"code\":\"INVALID_ARGUMENT\""),
            std::string::npos)
      << reply;
  EXPECT_NE(reply.find("\"ok\":true,\"estimate\":"), std::string::npos)
      << reply;

  // Batches of unknown ops and empty batches are rejected whole.
  client.Send("{\"op\":\"batch\",\"id\":11,\"queries\":[]}\n");
  EXPECT_NE(client.ReadLine().find("\"code\":\"MALFORMED_REQUEST\""),
            std::string::npos);
  client.Send(
      "{\"op\":\"batch\",\"id\":12,\"queries\":[{\"op\":\"stats\"}]}\n");
  EXPECT_NE(client.ReadLine().find("\"code\":\"MALFORMED_REQUEST\""),
            std::string::npos);
  (*server)->Shutdown();
}

TEST(QueryServerTest, ClientQuotaEnforcedOverTheWire) {
  Result<QueryService> service = QueryService::CreateStatic(BuildSketch());
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  options.client_quota_qps = 5.0;
  options.client_quota_burst = 2.0;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());
  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  // Burst of 2 admitted; the third back-to-back request from the same
  // client is refused with a retry hint.
  for (int i = 1; i <= 2; ++i) {
    client.Send("{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"client\":\"c1\","
                "\"id\":" + std::to_string(i) + "}\n");
    EXPECT_NE(client.ReadLine().find("\"ok\":true"), std::string::npos);
  }
  client.Send(
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"client\":\"c1\",\"id\":3}"
      "\n");
  std::string reply = client.ReadLine();
  EXPECT_NE(reply.find("\"code\":\"RETRY_AFTER\""), std::string::npos)
      << reply;
  EXPECT_NE(reply.find("\"retry_after_ms\":"), std::string::npos) << reply;

  // Another client's bucket is untouched, as is the anonymous bucket.
  client.Send(
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"client\":\"c2\",\"id\":4}"
      "\n");
  EXPECT_NE(client.ReadLine().find("\"ok\":true"), std::string::npos);
  client.Send("{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"id\":5}\n");
  EXPECT_NE(client.ReadLine().find("\"ok\":true"), std::string::npos);

  // A batch costs its size: 3 sub-queries > burst 2 can never admit,
  // which reports the 60s "never" clamp.
  client.Send(
      "{\"op\":\"batch\",\"client\":\"c3\",\"id\":6,\"queries\":["
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\"},"
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\"},"
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\"}]}\n");
  reply = client.ReadLine();
  EXPECT_NE(reply.find("\"code\":\"RETRY_AFTER\""), std::string::npos)
      << reply;
  EXPECT_NE(reply.find("\"retry_after_ms\":60000"), std::string::npos)
      << reply;
  (*server)->Shutdown();
}

TEST(QueryServerTest, SlowLaneOverflowShedsWhileFastKeepsFlowing) {
  Result<QueryService> service = WideService();
  ASSERT_TRUE(service.ok());
  QueryServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  options.slow_queue_capacity = 1;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());
  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  // Worker pinned on cold compile #1; cold #2 fills the 1-slot slow
  // lane; cold #3 must shed with RETRY_AFTER; and the cheap point query
  // still gets through on the fast lane — graceful degradation sheds
  // the expensive work first.
  client.Send("{\"op\":\"count\",\"q\":\"A(B,C,D,E,F,G,H,I)\",\"id\":1}\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  client.Send(
      "{\"op\":\"count\",\"q\":\"Z(Q,R,S,T,U,V,W,Y)\",\"id\":2}\n"
      "{\"op\":\"count\",\"q\":\"M(B,C,D,E,F,G,H,I)\",\"id\":3}\n"
      "{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"id\":4}\n");
  std::map<std::string, std::string> replies;
  for (int i = 0; i < 4; ++i) {
    std::string reply = client.ReadLine();
    ASSERT_FALSE(reply.empty());
    std::vector<std::string> ids = ExtractField(reply, "id");
    ASSERT_EQ(ids.size(), 1u) << reply;
    replies[ids[0]] = reply;
  }
  EXPECT_NE(replies["1"].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(replies["2"].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(replies["3"].find("\"code\":\"RETRY_AFTER\""),
            std::string::npos)
      << replies["3"];
  EXPECT_NE(replies["3"].find("\"retry_after_ms\":"), std::string::npos);
  EXPECT_NE(replies["4"].find("\"ok\":true"), std::string::npos);
  (*server)->Shutdown();
}

/// The torture test the issue calls for: one ingest thread keeps
/// updating a live sketch and publishing snapshots while query threads
/// hammer the service. Every answer must be bit-identical to a direct
/// estimate against the retained snapshot of the epoch it reports —
/// i.e. served from a consistent snapshot, never a torn sketch.
TEST(QueryServerTortureTest, ConcurrentIngestQueriesAndPublishes) {
  SnapshotPublisher publisher;
  SketchTree live = *SketchTree::Create(SmallOptions());
  live.Update(*ParseSExpr("A(B,C)"));
  ASSERT_TRUE(publisher.PublishCopyOf(live).ok());

  // Every published epoch, retained for post-hoc verification.
  std::mutex retained_mu;
  std::map<uint64_t, std::shared_ptr<const SketchSnapshot>> retained;
  retained[1] = publisher.Current();

  Result<QueryService> service =
      QueryService::Create(live.options(), {}, &publisher);
  ASSERT_TRUE(service.ok());

  struct Sample {
    QueryKind kind;
    std::string text;
    uint64_t epoch;
    double estimate;
  };
  std::mutex samples_mu;
  std::vector<Sample> samples;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread ingester([&] {
    const char* docs[] = {"A(B,C)", "A(C,B)", "R(S(T),U)", "X(Y)"};
    for (int round = 0; round < 40; ++round) {
      for (int i = 0; i < 25; ++i) {
        live.Update(*ParseSExpr(docs[(round + i) % 4]));
      }
      Result<uint64_t> epoch = publisher.PublishCopyOf(live);
      if (!epoch.ok()) {
        ++failures;
        break;
      }
      std::lock_guard<std::mutex> lock(retained_mu);
      retained[*epoch] = publisher.Current();
    }
    done.store(true);
  });

  const struct {
    QueryKind kind;
    const char* text;
  } kWorkload[] = {
      {QueryKind::kOrdered, "A(B,C)"},
      {QueryKind::kUnordered, "A(C,B)"},
      {QueryKind::kUnordered, "R(U,S(T))"},
      {QueryKind::kExpression, "COUNT_ORD(A(B,C)) + COUNT_ORD(X(Y))"},
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      uint64_t asked = 0;
      while (!done.load() || asked < 50) {
        const auto& work = kWorkload[(t + asked) % 4];
        QueryRequest request;
        request.kind = work.kind;
        request.text = work.text;
        Result<QueryAnswer> answer = service->Execute(request);
        if (!answer.ok()) {
          ++failures;
          break;
        }
        if (++asked % 8 == 0) {
          std::lock_guard<std::mutex> lock(samples_mu);
          samples.push_back({work.kind, work.text, answer->epoch,
                             answer->estimate});
        }
      }
    });
  }
  ingester.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_FALSE(samples.empty());

  // Post-hoc: replay every sampled answer against a private mutable
  // copy of the snapshot it claims to have used. Any divergence means
  // a query observed a torn or misattributed snapshot.
  std::map<uint64_t, SketchTree> copies;
  for (const Sample& sample : samples) {
    auto it = copies.find(sample.epoch);
    if (it == copies.end()) {
      auto snap = retained.find(sample.epoch);
      ASSERT_NE(snap, retained.end()) << "unknown epoch " << sample.epoch;
      Result<SketchTree> copy = SketchTree::DeserializeFromString(
          snap->second->sketch.SerializeToString());
      ASSERT_TRUE(copy.ok());
      it = copies.emplace(sample.epoch, std::move(copy).value()).first;
    }
    SketchTree& sketch = it->second;
    Result<double> expected = [&]() -> Result<double> {
      switch (sample.kind) {
        case QueryKind::kOrdered:
          return sketch.EstimateCountOrdered(*ParseSExpr(sample.text));
        case QueryKind::kUnordered:
          return sketch.EstimateCount(*ParseSExpr(sample.text));
        case QueryKind::kExpression:
          return sketch.EstimateExpression(sample.text);
        case QueryKind::kExtended:
          return sketch.EstimateExtended(sample.text);
      }
      return Status::Internal("unreachable");
    }();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(sample.estimate, *expected)
        << QueryKindName(sample.kind) << " " << sample.text << " @ epoch "
        << sample.epoch;
  }

  // And the server still works end to end after the torture.
  QueryServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Start(&service.value(), options);
  ASSERT_TRUE(server.ok());
  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  client.Send("{\"op\":\"count_ord\",\"q\":\"A(B,C)\",\"id\":1}\n");
  EXPECT_NE(client.ReadLine().find("\"ok\":true"), std::string::npos);
  (*server)->Shutdown();
}

}  // namespace
}  // namespace sketchtree
