#include "server/wire.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace sketchtree {

namespace {

/// Appends one Unicode code point (any plane) as UTF-8.
void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

bool IsHighSurrogate(uint32_t code) {
  return code >= 0xD800 && code <= 0xDBFF;
}
bool IsLowSurrogate(uint32_t code) {
  return code >= 0xDC00 && code <= 0xDFFF;
}

/// Minimal recursive-descent reader for the flat request objects the
/// protocol allows. Kept deliberately small: the grammar is one object
/// of scalar fields, so a full JSON library would be dead weight.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view text) : text_(text) {}

  Result<WireRequest> Parse() {
    WireRequest request;
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    SkipSpace();
    if (Consume('}')) return Finish(std::move(request));
    while (true) {
      SkipSpace();
      std::string key;
      SKETCHTREE_RETURN_NOT_OK(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after key");
      SkipSpace();
      SKETCHTREE_RETURN_NOT_OK(ParseValue(key, &request));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return Finish(std::move(request));
      return Error("expected ',' or '}'");
    }
  }

 private:
  Result<WireRequest> Finish(WireRequest request) {
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing bytes after JSON object");
    }
    return request;
  }

  Status Error(const std::string& what) {
    return Status::InvalidArgument(what + " at byte " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Four hex digits of a \uXXXX escape (pos_ at the first digit).
  Status ParseHexQuad(uint32_t* code) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    *code = 0;
    for (int h = 0; h < 4; ++h) {
      char hc = text_[pos_++];
      *code <<= 4;
      if (hc >= '0' && hc <= '9') *code |= hc - '0';
      else if (hc >= 'a' && hc <= 'f') *code |= hc - 'a' + 10;
      else if (hc >= 'A' && hc <= 'F') *code |= hc - 'A' + 10;
      else return Error("bad \\u escape digit");
    }
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // \uXXXX: decode to UTF-8, pairing UTF-16 surrogates so
            // astral-plane characters (labels beyond the BMP)
            // round-trip. A lone surrogate is malformed JSON text and
            // is rejected rather than smuggled through as WTF-8.
            uint32_t code = 0;
            SKETCHTREE_RETURN_NOT_OK(ParseHexQuad(&code));
            if (IsLowSurrogate(code)) {
              return Error("lone low surrogate in \\u escape");
            }
            if (IsHighSurrogate(code)) {
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Error("high surrogate not followed by \\u escape");
              }
              pos_ += 2;
              uint32_t low = 0;
              SKETCHTREE_RETURN_NOT_OK(ParseHexQuad(&low));
              if (!IsLowSurrogate(low)) {
                return Error("high surrogate not followed by low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            AppendUtf8(code, out);
            break;
          }
          default:
            return Error("unsupported escape");
        }
        continue;
      }
      out->push_back(c);
    }
    return Error("unterminated string");
  }

  /// The one sanctioned departure from flatness: `"queries": [...]`, an
  /// array of flat objects each holding scalar fields. Everything else
  /// about the grammar stays one level deep.
  Status ParseBatchArray(WireRequest* request) {
    if (!Consume('[')) return Error("expected '['");
    SkipSpace();
    if (Consume(']')) return Status::OK();  // Empty batch; server rejects.
    while (true) {
      SkipSpace();
      if (!Consume('{')) return Error("expected '{' in queries array");
      WireBatchItem item;
      SkipSpace();
      if (!Consume('}')) {
        while (true) {
          SkipSpace();
          std::string key;
          SKETCHTREE_RETURN_NOT_OK(ParseString(&key));
          SkipSpace();
          if (!Consume(':')) return Error("expected ':' after key");
          SkipSpace();
          std::string value;
          bool is_string = false;
          SKETCHTREE_RETURN_NOT_OK(ParseScalar(&value, &is_string));
          if (key == "op" && is_string) {
            item.op = std::move(value);
          } else if (key == "q" && is_string) {
            item.query = std::move(value);
          }
          SkipSpace();
          if (Consume(',')) continue;
          if (Consume('}')) break;
          return Error("expected ',' or '}' in queries array");
        }
      }
      request->batch.push_back(std::move(item));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in queries array");
    }
  }

  /// Scans one scalar (string/number/bool/null). On return `*out` holds
  /// the decoded string when `*is_string`, else the raw text span.
  Status ParseScalar(std::string* out, bool* is_string) {
    size_t start = pos_;
    if (pos_ >= text_.size()) return Error("missing value");
    char c = text_[pos_];
    *is_string = false;
    if (c == '"') {
      *is_string = true;
      return ParseString(out);
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E' || text_[pos_] == '+' ||
              text_[pos_] == '-')) {
        ++pos_;
      }
    } else if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
    } else if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
    } else {
      return Error("only string/number/bool/null values are allowed");
    }
    *out = std::string(text_.substr(start, pos_ - start));
    return Status::OK();
  }

  /// Scans one scalar value and records it into `request` when the key
  /// is meaningful. The raw text span is kept for "id" echoing.
  Status ParseValue(const std::string& key, WireRequest* request) {
    size_t start = pos_;
    if (pos_ >= text_.size()) return Error("missing value");
    char c = text_[pos_];
    if (c == '[' && key == "queries") {
      return ParseBatchArray(request);
    }
    std::string string_value;
    bool is_string = false;
    if (c == '"') {
      is_string = true;
      SKETCHTREE_RETURN_NOT_OK(ParseString(&string_value));
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E' || text_[pos_] == '+' ||
              text_[pos_] == '-')) {
        ++pos_;
      }
    } else if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
    } else if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
    } else {
      return Error("only string/number/bool/null values are allowed");
    }
    std::string_view raw = text_.substr(start, pos_ - start);

    if (key == "op" && is_string) {
      request->op = std::move(string_value);
    } else if (key == "q" && is_string) {
      request->query = std::move(string_value);
    } else if (key == "client" && is_string) {
      request->client = std::move(string_value);
    } else if (key == "id") {
      request->id_json = std::string(raw);
    } else if (key == "timeout_ms" && !is_string) {
      request->timeout_ms =
          static_cast<int64_t>(std::atof(std::string(raw).c_str()));
    } else if (key == "values" && is_string) {
      request->values = std::move(string_value);
    } else if (key == "strategy" && is_string) {
      request->strategy = std::move(string_value);
    } else if (key == "trace" && is_string) {
      request->trace = std::move(string_value);
    }
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<WireRequest> ParseWireRequest(std::string_view line) {
  return FlatJsonParser(line).Parse();
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

const char* WireCodeFor(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk: return "OK";
    case Status::Code::kInvalidArgument: return "INVALID_ARGUMENT";
    case Status::Code::kOutOfRange: return "OUT_OF_RANGE";
    case Status::Code::kNotFound: return "NOT_FOUND";
    case Status::Code::kIOError: return "IO_ERROR";
    case Status::Code::kUnimplemented: return "UNIMPLEMENTED";
    case Status::Code::kInternal: return "INTERNAL";
    case Status::Code::kCorruption: return "CORRUPTION";
    case Status::Code::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case Status::Code::kUnavailable: return "UNAVAILABLE";
  }
  return "INTERNAL";
}

namespace {

std::string IdPrefix(std::string_view id_json) {
  if (id_json.empty()) return "{";
  return "{\"id\":" + std::string(id_json) + ",";
}

/// Strict 16-lowercase-hex-digit parse (the FormatTraceField encoding).
bool ParseHex64(std::string_view text, uint64_t* value) {
  if (text.size() != 16) return false;
  *value = 0;
  for (char c : text) {
    *value <<= 4;
    if (c >= '0' && c <= '9') *value |= static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') *value |= static_cast<uint64_t>(c - 'a' + 10);
    else return false;
  }
  return true;
}

}  // namespace

std::string FormatTraceField(const TraceContext& context) {
  if (!context.valid()) return std::string();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016" PRIx64 "-%016" PRIx64 "-%c",
                context.trace_id, context.span_id,
                context.sampled ? '1' : '0');
  return buf;
}

Result<TraceContext> ParseTraceField(std::string_view field) {
  TraceContext context;
  if (field.size() != 35 || field[16] != '-' || field[33] != '-' ||
      (field[34] != '0' && field[34] != '1') ||
      !ParseHex64(field.substr(0, 16), &context.trace_id) ||
      !ParseHex64(field.substr(17, 16), &context.span_id) ||
      context.trace_id == 0) {
    return Status::InvalidArgument("malformed trace field");
  }
  context.sampled = field[34] == '1';
  return context;
}

std::string FormatRemoteSpans(const std::vector<RemoteSpan>& spans) {
  std::string out;
  char buf[48];
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ';';
    out += spans[i].name;
    std::snprintf(buf, sizeof buf, ":%" PRIu64 ":%" PRIu64,
                  spans[i].offset_ns, spans[i].dur_ns);
    out += buf;
  }
  return out;
}

Result<std::vector<RemoteSpan>> ParseRemoteSpans(std::string_view text) {
  std::vector<RemoteSpan> spans;
  if (text.empty()) return spans;
  size_t start = 0;
  while (start <= text.size()) {
    size_t semi = text.find(';', start);
    if (semi == std::string_view::npos) semi = text.size();
    std::string_view entry = text.substr(start, semi - start);
    size_t c1 = entry.find(':');
    size_t c2 = c1 == std::string_view::npos
                    ? std::string_view::npos
                    : entry.find(':', c1 + 1);
    if (c1 == std::string_view::npos || c2 == std::string_view::npos ||
        c1 == 0) {
      return Status::InvalidArgument("malformed span summary entry");
    }
    RemoteSpan span;
    span.name = std::string(entry.substr(0, c1));
    auto parse_u64 = [](std::string_view digits, uint64_t* value) {
      if (digits.empty() || digits.size() > 20) return false;
      *value = 0;
      for (char c : digits) {
        if (c < '0' || c > '9') return false;
        *value = *value * 10 + static_cast<uint64_t>(c - '0');
      }
      return true;
    };
    if (!parse_u64(entry.substr(c1 + 1, c2 - c1 - 1), &span.offset_ns) ||
        !parse_u64(entry.substr(c2 + 1), &span.dur_ns)) {
      return Status::InvalidArgument("malformed span summary number");
    }
    spans.push_back(std::move(span));
    if (semi == text.size()) break;
    start = semi + 1;
  }
  return spans;
}

std::string FormatAnswerReply(const WireRequest& request,
                              const QueryAnswer& answer) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"ok\":true,\"estimate\":%.17g,\"epoch\":%llu,"
                "\"trees\":%llu,\"cache\":\"%s\",\"arrangements\":%zu,"
                "\"micros\":%.1f",
                answer.estimate,
                static_cast<unsigned long long>(answer.epoch),
                static_cast<unsigned long long>(answer.trees_processed),
                answer.cache_hit ? "hit" : "miss", answer.num_arrangements,
                answer.compile_micros + answer.estimate_micros);
  std::string out = IdPrefix(request.id_json) + buf;
  if (answer.from_cluster) {
    std::snprintf(buf, sizeof(buf),
                  ",\"strategy\":\"%s\",\"partial\":%s,\"shards_ok\":%d,"
                  "\"shards_total\":%d,\"covered_trees\":%llu,"
                  "\"total_trees\":%llu,\"error_scale\":%.17g",
                  answer.strategy.c_str(), answer.partial ? "true" : "false",
                  answer.shards_ok, answer.shards_total,
                  static_cast<unsigned long long>(answer.covered_trees),
                  static_cast<unsigned long long>(answer.total_trees),
                  answer.error_scale);
    out += buf;
  }
  out += '}';
  return out;
}

std::string FormatErrorReply(const WireRequest& request,
                             const Status& status) {
  return FormatCodedErrorReply(request.id_json, WireCodeFor(status),
                               status.message());
}

std::string FormatCodedErrorReply(std::string_view id_json,
                                  std::string_view code,
                                  std::string_view message) {
  return IdPrefix(id_json) + "\"ok\":false,\"code\":\"" +
         std::string(code) + "\",\"error\":\"" + JsonEscape(message) + "\"}";
}

std::string FormatRetryAfterReply(std::string_view id_json,
                                  std::string_view code,
                                  std::string_view message,
                                  int64_t retry_after_ms) {
  return IdPrefix(id_json) + "\"ok\":false,\"code\":\"" +
         std::string(code) + "\",\"error\":\"" + JsonEscape(message) +
         "\",\"retry_after_ms\":" + std::to_string(retry_after_ms) + "}";
}

std::string FormatBatchReply(const WireRequest& request, uint64_t epoch,
                             uint64_t trees,
                             const std::vector<Result<QueryAnswer>>& results,
                             double total_micros) {
  std::string out = IdPrefix(request.id_json);
  char buf[192];
  std::snprintf(buf, sizeof(buf), "\"ok\":true,\"epoch\":%llu,\"trees\":%llu,",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(trees));
  out += buf;
  out += "\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out += ',';
    if (results[i].ok()) {
      const QueryAnswer& answer = results[i].value();
      std::snprintf(buf, sizeof(buf),
                    "{\"ok\":true,\"estimate\":%.17g,\"cache\":\"%s\","
                    "\"arrangements\":%zu}",
                    answer.estimate, answer.cache_hit ? "hit" : "miss",
                    answer.num_arrangements);
      out += buf;
    } else {
      const Status& status = results[i].status();
      out += "{\"ok\":false,\"code\":\"";
      out += WireCodeFor(status);
      out += "\",\"error\":\"" + JsonEscape(status.message()) + "\"}";
    }
  }
  std::snprintf(buf, sizeof(buf), "],\"micros\":%.1f}", total_micros);
  out += buf;
  return out;
}

std::string FormatHexValues(const std::vector<uint64_t>& values) {
  std::string out;
  out.reserve(values.size() * 17);
  char buf[24];
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(values[i]));
    out += buf;
  }
  return out;
}

Result<std::vector<uint64_t>> ParseHexValues(std::string_view csv) {
  if (csv.empty()) {
    return Status::InvalidArgument("empty \"values\" list");
  }
  std::vector<uint64_t> values;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string_view::npos) comma = csv.size();
    std::string_view entry = csv.substr(start, comma - start);
    if (entry.empty() || entry.size() > 16) {
      return Status::InvalidArgument("bad hex value in \"values\"");
    }
    uint64_t value = 0;
    for (char c : entry) {
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint64_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint64_t>(c - 'A' + 10);
      else return Status::InvalidArgument("bad hex value in \"values\"");
    }
    values.push_back(value);
    if (comma == csv.size()) break;
    start = comma + 1;
  }
  return values;
}

std::string FormatShardEstimateReply(std::string_view id_json, int s1, int s2,
                                     uint64_t epoch, uint64_t trees,
                                     const std::vector<double>& x,
                                     uint64_t remote_ns,
                                     std::string_view spans) {
  std::string out = IdPrefix(id_json);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "\"ok\":true,\"s1\":%d,\"s2\":%d,\"epoch\":%llu,"
                "\"trees\":%llu,\"x\":\"",
                s1, s2, static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(trees));
  out += buf;
  for (size_t i = 0; i < x.size(); ++i) {
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf), "%.17g", x[i]);
    out += buf;
  }
  out += '"';
  if (remote_ns > 0) {
    std::snprintf(buf, sizeof(buf), ",\"remote_ns\":%llu,\"spans\":\"",
                  static_cast<unsigned long long>(remote_ns));
    out += buf;
    out += spans;  // Dotted names + digits + ':'/';' — no escaping needed.
    out += '"';
  }
  out += '}';
  return out;
}

std::string FormatShardSnapshotReply(std::string_view id_json, uint64_t epoch,
                                     uint64_t trees,
                                     std::string_view base64_sketch) {
  std::string out = IdPrefix(id_json);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "\"ok\":true,\"epoch\":%llu,\"trees\":%llu,\"sketch\":\"",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(trees));
  out += buf;
  out += base64_sketch;  // Base64 never needs JSON escaping.
  out += "\"}";
  return out;
}

std::string FormatHealthReply(std::string_view id_json, uint64_t epoch,
                              uint64_t trees, double self_join_size,
                              bool stopping, uint64_t now_ns) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "\"ok\":true,\"epoch\":%llu,\"trees\":%llu,"
                "\"self_join_size\":%.17g,\"stopping\":%s,"
                "\"now_ns\":%llu}",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(trees), self_join_size,
                stopping ? "true" : "false",
                static_cast<unsigned long long>(now_ns));
  return IdPrefix(id_json) + buf;
}

namespace {

/// Cursor over one reply line for top-level field extraction.
struct FieldScan {
  std::string_view text;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool Consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  /// pos at the opening quote; leaves pos past the closing quote.
  bool SkipString() {
    if (!Consume('"')) return false;
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return false;
        ++pos;
      }
    }
    return false;
  }
  /// Skips one value of any shape (nested arrays/objects are opaque).
  bool SkipValue() {
    SkipSpace();
    if (pos >= text.size()) return false;
    char c = text[pos];
    if (c == '"') return SkipString();
    if (c == '{' || c == '[') {
      int depth = 0;
      while (pos < text.size()) {
        char d = text[pos];
        if (d == '"') {
          if (!SkipString()) return false;
          continue;
        }
        ++pos;
        if (d == '{' || d == '[') ++depth;
        if (d == '}' || d == ']') {
          if (--depth == 0) return true;
        }
      }
      return false;
    }
    size_t start = pos;
    while (pos < text.size() && text[pos] != ',' && text[pos] != '}' &&
           text[pos] != ']' &&
           !std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    return pos > start;
  }
};

/// Decodes the escapes FlatJsonParser accepts (the reply side emits a
/// subset of them via JsonEscape).
Result<std::string> JsonUnescapeString(std::string_view raw) {
  // `raw` includes the surrounding quotes.
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') {
    return Status::Corruption("reply field is not a JSON string");
  }
  std::string_view body = raw.substr(1, raw.size() - 2);
  std::string out;
  out.reserve(body.size());
  for (size_t i = 0; i < body.size(); ++i) {
    char c = body[i];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (++i >= body.size()) {
      return Status::Corruption("truncated escape in reply string");
    }
    switch (body[i]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        // Same surrogate-pairing rules as the request-side parser.
        uint32_t code = 0;
        auto hex_quad = [&](uint32_t* value) -> Status {
          if (i + 4 >= body.size()) {
            return Status::Corruption("truncated \\u escape in reply string");
          }
          *value = 0;
          for (int h = 0; h < 4; ++h) {
            char hc = body[++i];
            *value <<= 4;
            if (hc >= '0' && hc <= '9') *value |= hc - '0';
            else if (hc >= 'a' && hc <= 'f') *value |= hc - 'a' + 10;
            else if (hc >= 'A' && hc <= 'F') *value |= hc - 'A' + 10;
            else return Status::Corruption("bad \\u escape in reply string");
          }
          return Status::OK();
        };
        SKETCHTREE_RETURN_NOT_OK(hex_quad(&code));
        if (IsLowSurrogate(code)) {
          return Status::Corruption("lone low surrogate in reply string");
        }
        if (IsHighSurrogate(code)) {
          if (i + 2 >= body.size() || body[i + 1] != '\\' ||
              body[i + 2] != 'u') {
            return Status::Corruption(
                "high surrogate not followed by \\u escape in reply string");
          }
          i += 2;
          uint32_t low = 0;
          SKETCHTREE_RETURN_NOT_OK(hex_quad(&low));
          if (!IsLowSurrogate(low)) {
            return Status::Corruption(
                "unpaired surrogate in reply string");
          }
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        AppendUtf8(code, &out);
        break;
      }
      default:
        return Status::Corruption("unsupported escape in reply string");
    }
  }
  return out;
}

}  // namespace

Result<std::string> JsonFieldRaw(std::string_view line, std::string_view key) {
  FieldScan scan{line};
  scan.SkipSpace();
  if (!scan.Consume('{')) {
    return Status::Corruption("reply is not a JSON object");
  }
  scan.SkipSpace();
  if (scan.Consume('}')) {
    return Status::NotFound("reply has no \"" + std::string(key) + "\"");
  }
  while (true) {
    scan.SkipSpace();
    size_t key_start = scan.pos;
    if (!scan.SkipString()) {
      return Status::Corruption("bad key in reply object");
    }
    // Keys in this protocol are plain ASCII identifiers, so the raw
    // span between the quotes compares directly.
    std::string_view found =
        line.substr(key_start + 1, scan.pos - key_start - 2);
    scan.SkipSpace();
    if (!scan.Consume(':')) {
      return Status::Corruption("missing ':' in reply object");
    }
    scan.SkipSpace();
    size_t value_start = scan.pos;
    if (!scan.SkipValue()) {
      return Status::Corruption("bad value in reply object");
    }
    if (found == key) {
      return std::string(line.substr(value_start, scan.pos - value_start));
    }
    scan.SkipSpace();
    if (scan.Consume(',')) continue;
    if (scan.Consume('}')) {
      return Status::NotFound("reply has no \"" + std::string(key) + "\"");
    }
    return Status::Corruption("expected ',' or '}' in reply object");
  }
}

Result<std::string> JsonFieldString(std::string_view line,
                                    std::string_view key) {
  SKETCHTREE_ASSIGN_OR_RETURN(std::string raw, JsonFieldRaw(line, key));
  return JsonUnescapeString(raw);
}

Result<double> JsonFieldNumber(std::string_view line, std::string_view key) {
  SKETCHTREE_ASSIGN_OR_RETURN(std::string raw, JsonFieldRaw(line, key));
  char* end = nullptr;
  double value = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0') {
    return Status::Corruption("reply field \"" + std::string(key) +
                              "\" is not a number");
  }
  return value;
}

Result<bool> JsonFieldBool(std::string_view line, std::string_view key) {
  SKETCHTREE_ASSIGN_OR_RETURN(std::string raw, JsonFieldRaw(line, key));
  if (raw == "true") return true;
  if (raw == "false") return false;
  return Status::Corruption("reply field \"" + std::string(key) +
                            "\" is not a boolean");
}

}  // namespace sketchtree
