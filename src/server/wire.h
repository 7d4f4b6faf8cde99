#ifndef SKETCHTREE_SERVER_WIRE_H_
#define SKETCHTREE_SERVER_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "server/query_service.h"
#include "trace/trace.h"

namespace sketchtree {

/// The line protocol (DESIGN.md sections 10 and 12): one JSON object per
/// line in each direction over a plain TCP connection.
///
/// Request grammar (flat object; unknown fields are ignored):
///
///   {"op": "count" | "count_ord" | "extended" | "expr" | "batch"
///          | "stats" | "metrics" | "slowlog" | "ping" | "shutdown"
///          | "shard_estimate" | "shard_snapshot" | "health",
///    "q": "<query text>",          // required for the four query ops
///    "queries": [{"op": ..., "q": ...}, ...],  // batch op only
///    "id": <string or number>,     // optional, echoed verbatim
///    "client": "<client id>",      // optional, keys the token bucket
///    "timeout_ms": <number>,       // optional per-query deadline
///    "values": "<hex,hex,...>",    // shard_estimate only
///    "strategy": "scatter"|"merged",  // optional, coordinator only
///    "trace": "<id>-<span>-<0|1>"}    // optional trace context
///
/// `queries` is the one permitted departure from flatness: an array of
/// flat objects, each naming one of the four query ops. A batch pins a
/// single snapshot, so every result shares one {epoch, trees}.
///
/// `trace` carries distributed trace context (DESIGN.md section 14):
/// 16-hex-digit trace id, 16-hex-digit parent span id, and a sampling
/// bit, dash-separated. A server receiving a sampled context records
/// its spans for that request under the context; a coordinator forwards
/// a child context to each shard call. Malformed contexts are ignored
/// (observability must never fail a query).
///
/// `metrics` returns the live metrics registry twice over:
///   {"id": ..., "ok": true, "prometheus": "<text exposition>",
///    "metrics": {<deterministic registry JSON>}}
/// `slowlog` drains the bounded slow-query ring (oldest first):
///   {"id": ..., "ok": true, "slowlog": [{"trace_id": "<hex>",
///     "key": "<canonical query>", "lane": "fast"|"slow",
///     "arrangements": <num>, "epoch": <num>, "micros": <num>,
///     "covered_trees": <num>, "total_trees": <num>,
///     "error_scale": <num>}, ...]}
///
/// The three shard_* / health ops are the coordinator-to-worker leg of
/// distributed serving (DESIGN.md section 13). `shard_estimate` carries
/// the query's mapped pattern values (lowercase hex, comma-separated)
/// and returns the worker's per-instance combined projection matrix —
/// exact integer counters, so the coordinator can sum matrices across
/// shards bit-exactly. `shard_snapshot` returns the worker's current
/// synopsis (base64 of its v3 paged image, the synopsis file format)
/// for the merge-at-publish path, and `health` is a cheap liveness +
/// staleness probe.
///
/// Success reply:
///   {"id": ..., "ok": true, "estimate": <num>, "epoch": <num>,
///    "trees": <num>, "cache": "hit"|"miss", "arrangements": <num>,
///    "micros": <num>}
/// A coordinator's reply appends cluster provenance:
///   ..., "strategy": "scatter"|"merged", "partial": <bool>,
///   "shards_ok": <num>, "shards_total": <num>, "covered_trees": <num>,
///   "total_trees": <num>, "error_scale": <num>}
/// where `partial: true` means one or more shards were unreachable past
/// their retry budget and the estimate covers only `covered_trees` of
/// the cluster's `total_trees`; `error_scale` is the Theorem-1 absolute
/// error scale sqrt(8 * SJ / s1) over the reachable shards, widened by
/// the inverse covered fraction.
/// Batch reply:
///   {"id": ..., "ok": true, "epoch": <num>, "trees": <num>,
///    "results": [{"ok": true, "estimate": ..., "cache": ...,
///                 "arrangements": ...} | {"ok": false, "code": ...,
///                 "error": ...}, ...], "micros": <num>}
/// Error reply:
///   {"id": ..., "ok": false, "code": "<CODE>", "error": "<message>"
///    [, "retry_after_ms": <num>]}
/// with code one of INVALID_ARGUMENT, OUT_OF_RANGE, DEADLINE_EXCEEDED,
/// OVERLOADED, RETRY_AFTER, SHUTTING_DOWN, MALFORMED_REQUEST,
/// UNAVAILABLE, INTERNAL. RETRY_AFTER (slow-lane shed / client quota)
/// carries the retry_after_ms hint.
struct WireBatchItem {
  std::string op;
  std::string query;
};

struct WireRequest {
  std::string op;
  std::string query;
  /// The raw JSON value of "id" (already valid JSON), echoed back; empty
  /// means the field was absent.
  std::string id_json;
  /// Token-bucket key; empty (field absent) shares the anonymous bucket.
  std::string client;
  /// Per-query deadline in milliseconds; <= 0 means none. For a batch,
  /// one deadline covers the whole batch.
  int64_t timeout_ms = 0;
  /// Sub-queries of a "batch" op, in request order.
  std::vector<WireBatchItem> batch;
  /// shard_estimate: comma-separated lowercase-hex pattern values.
  std::string values;
  /// Coordinator strategy override ("scatter" / "merged"); empty uses
  /// the coordinator's configured default. Ignored by plain servers.
  std::string strategy;
  /// Raw `trace` field ("<trace>-<span>-<sampled>"); empty when absent.
  /// Decoded with ParseTraceField by the server; malformed values are
  /// treated as no context, never as an error.
  std::string trace;
};

/// Parses one request line. Accepts exactly a flat JSON object with
/// string / number / boolean / null values; anything else (arrays,
/// nesting, trailing garbage) is rejected with InvalidArgument — the
/// server maps that to a MALFORMED_REQUEST reply rather than closing
/// the connection.
Result<WireRequest> ParseWireRequest(std::string_view line);

/// JSON string escaping for message text (quotes, backslashes, control
/// characters; non-ASCII bytes pass through untouched).
std::string JsonEscape(std::string_view text);

/// Renders a success reply line (no trailing newline).
std::string FormatAnswerReply(const WireRequest& request,
                              const QueryAnswer& answer);

/// Renders an error reply line from a Status (no trailing newline).
std::string FormatErrorReply(const WireRequest& request,
                             const Status& status);

/// Renders an error reply with an explicit code — used for conditions
/// that have no Status representation (OVERLOADED, MALFORMED_REQUEST,
/// RETRY_AFTER, SHUTTING_DOWN).
std::string FormatCodedErrorReply(std::string_view id_json,
                                  std::string_view code,
                                  std::string_view message);

/// Error reply carrying a retry hint: same shape as FormatCodedErrorReply
/// plus `"retry_after_ms": <ms>` — the slow-lane shed and client-quota
/// refusals, where the client should back off rather than hammer.
std::string FormatRetryAfterReply(std::string_view id_json,
                                  std::string_view code,
                                  std::string_view message,
                                  int64_t retry_after_ms);

/// Renders a batch reply: one snapshot's {epoch, trees} at the top
/// level, per-sub-query results in request order (success or error
/// object apiece), and the total service micros.
std::string FormatBatchReply(const WireRequest& request, uint64_t epoch,
                             uint64_t trees,
                             const std::vector<Result<QueryAnswer>>& results,
                             double total_micros);

/// Wire code for a Status (INVALID_ARGUMENT, OUT_OF_RANGE, ...).
const char* WireCodeFor(const Status& status);

/// Encodes a trace context as the wire `trace` field:
/// "<16-hex trace_id>-<16-hex span_id>-<0|1>". Empty for an invalid
/// (zero trace_id) context, so callers can append unconditionally.
std::string FormatTraceField(const TraceContext& context);

/// Decodes a `trace` field. InvalidArgument on any malformation; the
/// server treats that as "no context" rather than failing the request.
Result<TraceContext> ParseTraceField(std::string_view field);

/// One span of a worker-side summary returned in a shard reply, placed
/// relative to the worker's handler start. Durations are what matters
/// — offsets let the coordinator lay the spans out inside its own
/// request window without sharing a clock with the worker.
struct RemoteSpan {
  std::string name;
  uint64_t offset_ns = 0;  ///< Start relative to handler entry.
  uint64_t dur_ns = 0;
};

/// Encodes a span summary as "name:offset_ns:dur_ns;..." — compact
/// enough to ride every shard reply. Names must not contain ':' or ';'
/// (the span-naming convention is dotted lowercase identifiers).
std::string FormatRemoteSpans(const std::vector<RemoteSpan>& spans);

/// Decodes a span summary; InvalidArgument on malformed entries.
Result<std::vector<RemoteSpan>> ParseRemoteSpans(std::string_view text);

/// Encodes mapped pattern values as the `values` request field
/// (lowercase hex, comma-separated, no 0x prefix).
std::string FormatHexValues(const std::vector<uint64_t>& values);

/// Parses a `values` field; rejects empty lists, empty entries, and
/// non-hex bytes with InvalidArgument.
Result<std::vector<uint64_t>> ParseHexValues(std::string_view csv);

/// Renders a `shard_estimate` success reply: the worker's s2*s1
/// combined-projection matrix (row-major [i*s1+j], %.17g so the exact
/// integer counters round-trip) plus snapshot provenance. When the
/// request carried a sampled trace context the worker appends
/// `"remote_ns"` (its total handler time) and `"spans"` (a
/// FormatRemoteSpans summary), so the coordinator's merged trace shows
/// true remote time vs. wire time; pass remote_ns == 0 to omit both.
std::string FormatShardEstimateReply(std::string_view id_json, int s1, int s2,
                                     uint64_t epoch, uint64_t trees,
                                     const std::vector<double>& x,
                                     uint64_t remote_ns = 0,
                                     std::string_view spans = {});

/// Renders a `shard_snapshot` success reply carrying the base64-encoded
/// synopsis image (SketchTree::SerializeToString) of the worker's
/// current snapshot.
std::string FormatShardSnapshotReply(std::string_view id_json, uint64_t epoch,
                                     uint64_t trees,
                                     std::string_view base64_sketch);

/// Renders a `health` success reply: snapshot provenance plus the
/// worker's current self-join-size estimate (the Theorem-1 error-scale
/// input the coordinator caches per shard) and the worker's steady
/// clock (`now_ns`) — the clock-offset sample trace merging uses: the
/// coordinator estimates offset = worker_now - midpoint(send, recv).
std::string FormatHealthReply(std::string_view id_json, uint64_t epoch,
                              uint64_t trees, double self_join_size,
                              bool stopping, uint64_t now_ns);

/// Field extraction from one flat reply line — the coordinator's client
/// side. A proper scan of the top-level object (nested arrays/objects
/// are skipped as opaque tokens), not a substring search, so values
/// containing "key": text cannot confuse it. NotFound when the key is
/// absent; Corruption when the line is not a JSON object — the caller
/// treats that as a garbled reply and retries.
Result<std::string> JsonFieldRaw(std::string_view line, std::string_view key);
/// The key's decoded string value (Corruption if it is not a string).
Result<std::string> JsonFieldString(std::string_view line,
                                    std::string_view key);
/// The key's numeric value (Corruption if it is not a number).
Result<double> JsonFieldNumber(std::string_view line, std::string_view key);
/// The key's boolean value (Corruption if it is not true/false).
Result<bool> JsonFieldBool(std::string_view line, std::string_view key);

}  // namespace sketchtree

#endif  // SKETCHTREE_SERVER_WIRE_H_
