#ifndef SKETCHTREE_FAULTINJECT_FAULT_INJECTOR_H_
#define SKETCHTREE_FAULTINJECT_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.h"

namespace sketchtree {

/// Instrumented failure points. Each site is a specific seam in the
/// durability or ingestion path where production failures occur; the
/// recovery tests arm them to prove the system degrades the way the
/// design document promises (DESIGN.md section 8.4).
enum class FaultSite {
  /// WriteFileAtomic persists only the first `param` bytes of the
  /// payload but otherwise completes — a torn write the loader must
  /// catch by CRC.
  kFileShortWrite = 0,
  /// WriteFileAtomic's write fails with an injected EIO.
  kFileWriteError,
  /// WriteFileAtomic crashes between the temp-file write and the
  /// rename: the temp file is left behind, the destination is never
  /// (re)placed, and the caller sees an IOError.
  kFileTornRename,
  /// ReadFileToString fails with a *transient* injected EIO —
  /// retry-with-backoff should eventually succeed.
  kFileReadError,
  /// BoundedTreeQueue::Push stalls for `param` milliseconds before
  /// enqueueing, simulating a descheduled or page-faulting producer.
  kQueueStall,
  /// The XML forest streamer treats the current stream tree as
  /// malformed, exercising the quarantine path.
  kMalformedTree,
  /// ParallelIngester::IngestAll's source read fails with a transient
  /// injected EIO (the pull-API twin of kFileReadError).
  kReaderError,

  // Network-layer sites, consulted by the cluster coordinator's shard
  // client (DESIGN.md section 13). They simulate the peer-side failures
  // a TCP client actually sees, so the retry / hedge / circuit-breaker
  // machinery is exercised without real packet loss.
  /// ShardClient::Connect fails as if the worker refused the connection
  /// (worker down, port not yet bound).
  kNetConnectRefused,
  /// The shard connection drops mid-frame: the client's own socket is
  /// closed after a partial write, so the in-flight call fails and the
  /// next call must reconnect.
  kNetDisconnect,
  /// The client's write path stalls for `param` milliseconds (bounded
  /// by the call deadline) before sending — a congested or half-dead
  /// peer. This is the site hedged requests exist for.
  kNetSlowWrite,
  /// The reply bytes are corrupted in flight (one byte flipped), so the
  /// caller's parse fails and the attempt counts as a failure.
  kNetGarbledReply,

  // Persistent-store sites, consulted by the paged snapshot store
  // (src/store/, DESIGN.md section 15). They simulate the disk-level
  // failures the v3 format's per-page CRCs and the mmap fallback exist
  // to catch.
  /// The paged snapshot write is torn mid-page: only the first `param`
  /// bytes of the encoded page set reach disk (param 0 keeps the
  /// header page only). The loader must reject the file as Corruption
  /// via the page directory, never parse the remnant.
  kStoreTornPageWrite,
  /// MmapFile::Map fails as if the kernel refused the mapping; callers
  /// must fall back to the portable read-and-deserialize path.
  kStoreMmapFail,
};

inline constexpr int kNumFaultSites = 13;

/// When and how a site misbehaves.
struct FaultPlan {
  /// Hits to let through unharmed before the first injected failure
  /// (0 = fail on the very first hit).
  uint64_t skip_first = 0;
  /// Consecutive hits that fail once triggered; 0 = every hit forever.
  uint64_t fire_count = 1;
  /// Site-specific knob: bytes kept by kFileShortWrite, stall
  /// milliseconds for kQueueStall and kNetSlowWrite. Ignored elsewhere.
  uint64_t param = 0;
};

/// Process-wide fault-injection registry. Production code asks
/// `ShouldFire(site)` at each instrumented seam; tests (or the
/// SKETCHTREE_FAULTS environment variable, for CLI-level drills) arm
/// sites with a FaultPlan. Unarmed sites cost one relaxed mutex-free
/// check — an armed-site bitmask — so release binaries pay nothing
/// measurable for carrying the hooks.
///
/// Thread-safe: sites are armed from the test thread while workers hit
/// them concurrently.
class FaultInjector {
 public:
  /// The registry every built-in hook consults.
  static FaultInjector& Global();

  void Arm(FaultSite site, FaultPlan plan);
  void Disarm(FaultSite site);
  void DisarmAll();

  /// True when `site` is armed and this hit falls inside the plan's
  /// failure window. `param_out`, when non-null, receives the plan's
  /// param. Hits and fires are counted while the site is armed; the
  /// unarmed fast path is deliberately count-free.
  bool ShouldFire(FaultSite site, uint64_t* param_out = nullptr);

  /// Total times the site was consulted / actually failed.
  uint64_t hits(FaultSite site) const;
  uint64_t fires(FaultSite site) const;

  /// Arms sites from a spec string, the CLI/env entry point:
  ///
  ///   spec      := entry (',' entry)*
  ///   entry     := site '@' skip_first ['x' fire_count] [':' param]
  ///   site      := file.short_write | file.write_error | file.torn_rename
  ///              | file.read_error | queue.stall | tree.malformed
  ///              | reader.error | net.connect_refused | net.disconnect
  ///              | net.slow_write | net.garbled_reply | store.torn_page
  ///              | store.mmap_fail
  ///
  /// e.g. "file.torn_rename@2" (third atomic write crashes before
  /// rename), "reader.error@0x3" (first three source reads fail),
  /// "queue.stall@0x0:5" (every push stalls 5 ms).
  Status ArmFromSpec(std::string_view spec);

  static const char* SiteName(FaultSite site);

 private:
  struct SiteState {
    bool armed = false;
    FaultPlan plan;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  mutable std::mutex mu_;
  std::array<SiteState, kNumFaultSites> sites_;
  // Bitmask of armed sites, readable without the mutex: the hot-path
  // early-out when nothing is armed (the overwhelmingly common case).
  std::atomic<uint32_t> armed_mask_{0};
};

}  // namespace sketchtree

#endif  // SKETCHTREE_FAULTINJECT_FAULT_INJECTOR_H_
