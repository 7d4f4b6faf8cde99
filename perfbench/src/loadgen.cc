// Open-loop load generator for `sketchtree_cli serve`: one thread, a
// fixed arrival schedule that does not slow down when the server does,
// and every latency measured from the request's due time.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "server/wire.h"
#include "tool.h"
#include "util.h"

namespace perfbench {
namespace {

constexpr int64_t kReplyTimeoutNs = 2'000'000'000;
constexpr int64_t kSpinNs = 50'000;
// Latency a failed or refused request counts as: it misses every limit.
constexpr double kFailedLatencyUs = 1e12;

struct Conn {
  int fd = -1;
  std::string out;
  std::string in;
};

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Die("connect failed: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void Flush(Conn* c) {
  while (!c->out.empty()) {
    ssize_t n = ::send(c->fd, c->out.data(), c->out.size(),
                       MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n <= 0) return;
    c->out.erase(0, static_cast<size_t>(n));
  }
}

/// Reads what is available; false when the peer closed.
bool Fill(Conn* c) {
  char buf[65536];
  for (;;) {
    ssize_t n = ::recv(c->fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      c->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
}

bool PopLine(Conn* c, std::string* line) {
  size_t nl = c->in.find('\n');
  if (nl == std::string::npos) return false;
  *line = c->in.substr(0, nl);
  c->in.erase(0, nl + 1);
  return true;
}

/// Blocking request/reply on an otherwise idle connection.
std::string Call(Conn* c, const std::string& request) {
  c->out += request;
  int64_t deadline = NowNs() + 10'000'000'000;
  std::string line;
  while (!PopLine(c, &line)) {
    Flush(c);
    pollfd p{c->fd, static_cast<short>(POLLIN | (c->out.empty() ? 0 : POLLOUT)),
             0};
    ::poll(&p, 1, 50);
    if (!Fill(c)) Die("server closed the connection");
    if (NowNs() > deadline) Die("no reply to " + request);
  }
  return line;
}

double Field(const std::string& line, const char* key) {
  sketchtree::Result<double> v = sketchtree::JsonFieldNumber(line, key);
  return v.ok() ? *v : 0.0;
}

struct ServerStats {
  double hits = 0, misses = 0, shed = 0, trees = 0;
};

ServerStats ReadStats(Conn* c) {
  std::string line = Call(c, "{\"op\":\"stats\",\"id\":-1}\n");
  return {Field(line, "cache_hits"), Field(line, "cache_misses"),
          Field(line, "shed_retry_after"), Field(line, "trees")};
}

struct Window {
  uint64_t sent = 0, ok = 0, failed = 0, shed = 0, timeouts = 0;
  size_t completed = 0;
  std::vector<double> late_us, outside_us, micros;
  std::vector<double> by_slot;  // latency of each request, in send order
  double watch_reached = 0.0;  // Monotonic seconds; 0 = not (yet) seen.
};

struct Pending {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  uint32_t query = 0;
  bool done = false;
};

/// The generator's shared state across windows.
struct Generator {
  Conn conn;                          // every query goes over this one
  Conn watch;                         // stats polling (live workloads)
  std::vector<std::string> prefixes;  // request JSON up to the id value
  std::vector<uint32_t> picks;
  size_t next_pick = 0;
  uint64_t next_id = 0;
  // Live workloads: the forest size. Only replies from an epoch before
  // the final one (the stream still being ingested) feed server_p50_us.
  uint64_t watch_trees = 0;
  // Distinct (query, trees, estimate) answers, checked by run.py.
  std::set<std::tuple<uint32_t, uint64_t, std::string>> answers;
};

void HandleReply(Generator* g, std::vector<Pending>* pending, uint64_t base,
                 const std::string& line, int64_t now, Window* w) {
  double id = Field(line, "id");
  if (id < static_cast<double>(base)) return;
  size_t slot = static_cast<size_t>(id) - base;
  if (slot >= pending->size() || (*pending)[slot].done) return;
  Pending& p = (*pending)[slot];
  p.done = true;
  ++w->completed;
  if (line.find("\"ok\":true") != std::string::npos) {
    ++w->ok;
    double latency = static_cast<double>(now - p.due_ns) / 1e3;
    w->by_slot[slot] = latency;
    double micros = Field(line, "micros");
    const uint64_t trees = static_cast<uint64_t>(Field(line, "trees"));
    if (g->watch_trees == 0 || trees < g->watch_trees) {
      w->micros.push_back(micros);
    }
    w->outside_us.push_back(static_cast<double>(now - p.sent_ns) / 1e3 -
                            micros);
    sketchtree::Result<std::string> est =
        sketchtree::JsonFieldRaw(line, "estimate");
    g->answers.emplace(p.query, trees, est.ok() ? *est : "?");
    return;
  }
  ++w->failed;
  if (line.find("RETRY_AFTER") != std::string::npos ||
      line.find("OVERLOADED") != std::string::npos) {
    ++w->shed;
  }
  if (w->failed <= 3) {
    std::fprintf(stderr, "loadgen: error reply: %s\n", line.c_str());
  }
}

/// Percentile q of each of `parts` consecutive slices of the schedule,
/// and the median of those. A host stall lands in one slice and moves
/// that slice's tail, not the median slice's.
double SliceMedian(const std::vector<double>& by_slot, int parts, double q) {
  std::vector<double> per;
  const size_t n = by_slot.size();
  for (int k = 0; k < parts; ++k) {
    std::vector<double> slice(by_slot.begin() + k * n / parts,
                              by_slot.begin() + (k + 1) * n / parts);
    if (!slice.empty()) per.push_back(Percentile(slice, q));
  }
  return Median(per);
}

/// Runs `rate * seconds` requests on a fixed schedule and waits for every
/// reply (or its timeout).
Window RunWindow(Generator* g, double rate, double seconds) {
  Window w;
  const size_t n = static_cast<size_t>(std::llround(rate * seconds));
  const double interval_ns = 1e9 / rate;
  const uint64_t base = g->next_id;
  g->next_id += n;
  std::vector<Pending> pending(n);
  w.by_slot.assign(n, kFailedLatencyUs);
  const int64_t start = NowNs() + 1'000'000;
  size_t next = 0;
  int64_t watch_next = 0;
  bool watch_inflight = false;
  const bool watching = g->watch_trees > 0 && g->watch.fd >= 0;
  std::vector<pollfd> fds;
  std::string line;
  for (;;) {
    int64_t now = NowNs();
    while (next < n &&
           start + static_cast<int64_t>(next * interval_ns) <= now) {
      Pending& p = pending[next];
      p.due_ns = start + static_cast<int64_t>(next * interval_ns);
      p.query = g->picks[g->next_pick++ % g->picks.size()];
      p.sent_ns = NowNs();
      w.late_us.push_back(static_cast<double>(p.sent_ns - p.due_ns) / 1e3);
      g->conn.out +=
          g->prefixes[p.query] + std::to_string(base + next) + "}\n";
      ++w.sent;
      ++next;
    }
    // One send for everything that came due together.
    Flush(&g->conn);
    if (watching && w.watch_reached == 0.0 && !watch_inflight &&
        now >= watch_next) {
      g->watch.out += "{\"op\":\"stats\",\"id\":-1}\n";
      Flush(&g->watch);
      watch_inflight = true;
    }
    if (next == n && w.completed == n) break;
    if (next == n && n > 0 &&
        now > pending[n - 1].due_ns + kReplyTimeoutNs) {
      for (Pending& p : pending) {
        if (p.done) continue;
        p.done = true;
        ++w.completed;
        ++w.timeouts;
        ++w.failed;
      }
      break;
    }
    fds.clear();
    fds.push_back({g->conn.fd,
                   static_cast<short>(POLLIN | (g->conn.out.empty() ? 0
                                                                   : POLLOUT)),
                   0});
    if (watching) fds.push_back({g->watch.fd, POLLIN, 0});
    // Sleep until shortly before the next due time, then spin: even with
    // the timer slack at 1 ns a timed wakeup can arrive tens of us late.
    int64_t wait_ns = 1'000'000;
    if (next < n) {
      int64_t until = start + static_cast<int64_t>(next * interval_ns) - now;
      wait_ns = until > kSpinNs ? std::min<int64_t>(until - kSpinNs, 1'000'000)
                                : 0;
    }
    timespec ts{0, static_cast<long>(wait_ns)};
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    int64_t read_at = NowNs();
    Flush(&g->conn);
    if (!Fill(&g->conn)) Die("server closed the query connection");
    while (PopLine(&g->conn, &line)) {
      HandleReply(g, &pending, base, line, read_at, &w);
    }
    if (watching) {
      if (!Fill(&g->watch)) Die("server closed the stats connection");
      while (PopLine(&g->watch, &line)) {
        watch_inflight = false;
        watch_next = read_at + 5'000'000;
        if (Field(line, "trees") >= static_cast<double>(g->watch_trees)) {
          w.watch_reached = static_cast<double>(read_at) / 1e9;
        }
      }
    }
  }
  return w;
}

void Append(std::string* out, const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", out->size() > 1 ? "," : "",
                key, value);
  *out += buf;
}

}  // namespace

int RunLoadgen(const Flags& f) {
  // Timed sleeps end when asked (default slack is 50 us), so the thread
  // can sleep, not spin, between requests and leave the CPUs to the
  // server.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  Generator g;
  std::vector<QueryLine> queries = ReadQueries(f.Str("queries"));
  for (const QueryLine& q : queries) {
    g.prefixes.push_back("{\"op\":\"" + q.op + "\",\"q\":\"" +
                         sketchtree::JsonEscape(q.text) + "\",\"id\":");
  }
  const double rate = f.Double("rate");
  const double seconds = f.Double("seconds");
  const double warmup = f.Double("warmup");
  const double zipf = f.Double("zipf");
  g.picks = ZipfPicks(queries.size(), zipf,
                      static_cast<uint64_t>(f.Long("seed")),
                      static_cast<size_t>(std::llround(
                          rate * (seconds + warmup))) + 1);
  const int port = static_cast<int>(f.Long("port"));
  g.conn.fd = Connect(port);
  g.watch_trees = static_cast<uint64_t>(f.Long("watch-trees", 0));
  if (g.watch_trees > 0) g.watch.fd = Connect(port);

  std::string out = "{";
  // Warm-up at the same rate: the plan cache fills and lazy set-up
  // finishes before the timed window. Its failures still count.
  Window warm = RunWindow(&g, rate, warmup);
  ServerStats before = ReadStats(&g.conn);
  Window w = RunWindow(&g, rate, seconds);
  // A live stream that outlasts the query window: keep polling until the
  // final epoch is visible.
  int64_t watch_deadline = NowNs() + 150'000'000'000;
  while (g.watch_trees > 0 && w.watch_reached == 0.0 &&
         NowNs() < watch_deadline) {
    if (ReadStats(&g.watch).trees >= static_cast<double>(g.watch_trees)) {
      w.watch_reached = MonoSeconds();
    } else {
      ::usleep(5000);
    }
  }
  ServerStats after = ReadStats(&g.conn);
  Append(&out, "sent", static_cast<double>(w.sent + warm.sent));
  Append(&out, "ok", static_cast<double>(w.ok + warm.ok));
  Append(&out, "failed", static_cast<double>(w.failed + warm.failed));
  Append(&out, "shed", static_cast<double>(w.shed));
  Append(&out, "timeouts", static_cast<double>(w.timeouts));
  Append(&out, "samples", static_cast<double>(w.by_slot.size()));
  // p99 needs 10 samples beyond it: slices of at least 1000 requests.
  const int slices = static_cast<int>(
      std::clamp<size_t>(w.by_slot.size() / 1000, 1, 8));
  Append(&out, "slices", slices);
  for (int k = 0; k < slices; ++k) {
    const size_t n = w.by_slot.size();
    std::vector<double> slice(w.by_slot.begin() + k * n / slices,
                              w.by_slot.begin() + (k + 1) * n / slices);
    std::fprintf(stderr,
                 "slice %d: p50 %.1f p90 %.1f p95 %.1f p99 %.1f us\n", k,
                 Percentile(slice, 0.5), Percentile(slice, 0.9),
                 Percentile(slice, 0.95), Percentile(slice, 0.99));
  }
  Append(&out, "p50_us", SliceMedian(w.by_slot, slices, 0.50));
  Append(&out, "p99_us", SliceMedian(w.by_slot, slices, 0.99));
  Append(&out, "whole_p99_us", Percentile(w.by_slot, 0.99));
  Append(&out, "late_p50_us", Percentile(w.late_us, 0.50));
  Append(&out, "late_p99_us", Percentile(w.late_us, 0.99));
  Append(&out, "late_max_us", Percentile(w.late_us, 1.0));
  Append(&out, "outside_p50_us", Percentile(w.outside_us, 0.50));
  // Replies print `micros` to 0.1 us, so the median alone repeats; the
  // mean of the replies between p45 and p55 keeps its digits.
  std::sort(w.micros.begin(), w.micros.end());
  const size_t lo = w.micros.size() * 45 / 100;
  const size_t hi = w.micros.size() * 55 / 100;
  double central = 0.0;
  for (size_t i = lo; i < hi; ++i) central += w.micros[i];
  Append(&out, "server_p50_us",
         hi > lo ? central / static_cast<double>(hi - lo) : 0.0);
  Append(&out, "server_samples", static_cast<double>(w.micros.size()));
  Append(&out, "cache_hits", after.hits - before.hits);
  Append(&out, "cache_misses", after.misses - before.misses);
  Append(&out, "shed_retry_after", after.shed - before.shed);
  Append(&out, "watch_reached", w.watch_reached);

  // Saturation ladder: the highest rung of a fixed ladder (10% steps)
  // whose p99 stays within the limit. A backlog that grows shows up as
  // latency measured from the due time. The search strides 7 rungs (about
  // 2x) from the bottom until a rung misses, then walks up one rung at a
  // time from the last rung that passed.
  std::string ladder = f.Str("ladder", "");
  if (!ladder.empty()) {
    const double step = f.Double("step-seconds");
    const double limit = f.Double("limit-us");
    std::vector<double> rates;
    std::stringstream rungs(ladder);
    std::string part;
    while (std::getline(rungs, part, ',')) {
      rates.push_back(std::atof(part.c_str()));
    }
    auto passes = [&](double r) {
      g.picks = ZipfPicks(queries.size(), zipf,
                          static_cast<uint64_t>(f.Long("seed")) + 1 +
                              static_cast<uint64_t>(r),
                          static_cast<size_t>(std::llround(r * step)) + 1);
      // A rung passes when the median p99 of its four quarters is within
      // the limit (failed requests count as infinitely slow). It is over
      // the limit only if it misses twice in a row: a host stall can
      // spoil a quarter or a whole short step, while a saturated server,
      // whose backlog grows for the whole step, misses every time.
      bool pass = false;
      for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
        g.next_pick = 0;
        Window lw = RunWindow(&g, r, step);
        double p99 = SliceMedian(lw.by_slot, 4, 0.99);
        pass = p99 <= limit;
        std::fprintf(stderr,
                     "ladder %.0f qps: p99 %.1f us, late p99 %.1f us, "
                     "failed %llu -> %s\n",
                     r, p99, Percentile(lw.late_us, 0.99),
                     static_cast<unsigned long long>(lw.failed),
                     pass ? "ok" : "over");
      }
      ::usleep(100000);
      return pass;
    };
    constexpr size_t kStride = 7;
    size_t good = rates.size();  // index of the highest rung that passed
    size_t k = 0;
    while (k < rates.size() && passes(rates[k])) {
      good = k;
      k += kStride;
    }
    if (good != rates.size()) {
      for (k = good + 1; k < rates.size() && k < good + kStride &&
                         passes(rates[k]);
           ++k) {
        good = k;
      }
    }
    double max_qps = good == rates.size() ? 0.0 : rates[good];
    Append(&out, "max_qps", max_qps);
  }
  out += "}";
  std::printf("%s\n", out.c_str());

  std::string answers = f.Str("answers-out", "");
  if (!answers.empty()) {
    std::ofstream file(answers);
    for (const auto& [query, trees, estimate] : g.answers) {
      file << query << '\t' << trees << '\t' << estimate << '\n';
    }
  }
  ::close(g.conn.fd);
  if (g.watch.fd >= 0) ::close(g.watch.fd);
  return 0;
}

}  // namespace perfbench
