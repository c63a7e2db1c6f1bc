#include "obs/trace.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace kea::obs {

#ifndef KEA_OBS_DISABLED
namespace {
// Tracing off by default: spans allocate (event strings, buffer growth),
// which is outside the always-on overhead budget.
std::atomic<bool> g_trace_enabled{false};
}  // namespace

bool TraceEnabled() { return g_trace_enabled.load(std::memory_order_relaxed); }
void EnableTracing() { g_trace_enabled.store(true, std::memory_order_relaxed); }
void DisableTracing() {
  g_trace_enabled.store(false, std::memory_order_relaxed);
}
#endif

// Hooks for metrics.cc's Disable()/Enable() combo switches.
void DisableTracingInternal() { DisableTracing(); }
void ResetTracingToDefault() { DisableTracing(); }

// ---------------------------------------------------------------------------
// Per-thread state. The buffer is shared_ptr'd from the tracer's registry so
// export can walk buffers of threads that have since exited; the per-buffer
// mutex makes the walk safe against a still-running owner. The scope
// context is a plain thread_local — only the owner touches it.

namespace {

struct ThreadScope {
  ScopeContext ctx;
  // The innermost open guard's child-time accumulator: a guard adds its
  // wall time here on close. Null at a thread's top level and after a
  // cross-thread handoff, since another thread's scope is not ours to bill.
  uint64_t* child_ns = nullptr;
};

thread_local ThreadScope t_scope;
thread_local std::shared_ptr<void> t_buf;  // really Tracer::ThreadBuf

std::atomic<uint32_t> g_next_tid{1};

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ScopeContext CurrentScope() { return t_scope.ctx; }

void SetThreadScope(ScopeContext ctx) { t_scope = {ctx, nullptr}; }

Tracer::Tracer() : epoch_ns_(SteadyNowNs()) {}

Tracer& Tracer::Get() {
  static Tracer* t = new Tracer();  // leaked: outlives static destructors
  return *t;
}

Tracer::ThreadBuf* Tracer::LocalBuf() {
  if (!t_buf) {
    auto buf = std::make_shared<ThreadBuf>();
    buf->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      bufs_.push_back(buf);
    }
    t_buf = buf;
  }
  return static_cast<ThreadBuf*>(t_buf.get());
}

uint64_t Tracer::BeginSpan(const char* name, Annotations args,
                           uint64_t parent_id, int64_t now_ns) {
  ThreadBuf* buf = LocalBuf();
  // Bounded buffers: once this thread's buffer is full, new spans are
  // dropped whole (no Begin recorded, id 0 so the guard records no End and
  // leaves the context alone — children re-parent to the enclosing recorded
  // span). End events bypass the cap so open spans always close.
  const size_t cap = max_events_per_thread_.load(std::memory_order_relaxed);
  if (cap != 0) {
    std::lock_guard<std::mutex> lock(buf->mu);
    if (buf->events.size() >= cap) {
      dropped_spans_.fetch_add(1, std::memory_order_relaxed);
      static Counter* dropped = Registry::Get().GetCounter(
          "obs.trace.dropped_spans", "", Kind::kTiming);
      dropped->Increment();
      return 0;
    }
  }
  const uint64_t id = next_span_.fetch_add(1, std::memory_order_relaxed);
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kBegin;
  ev.name = name;
  ev.span_id = id;
  ev.parent_id = parent_id;
  ev.ts_ns = static_cast<uint64_t>(now_ns - epoch_ns_);
  ev.tid = buf->tid;
  ev.args = std::move(args);
  std::lock_guard<std::mutex> lock(buf->mu);
  buf->events.push_back(std::move(ev));
  return id;
}

void Tracer::EndSpan(uint64_t span_id, const char* name, int64_t now_ns) {
  ThreadBuf* buf = LocalBuf();
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kEnd;
  ev.name = name;
  ev.span_id = span_id;
  ev.ts_ns = static_cast<uint64_t>(now_ns - epoch_ns_);
  ev.tid = buf->tid;
  std::lock_guard<std::mutex> lock(buf->mu);
  buf->events.push_back(std::move(ev));
}

// ---------------------------------------------------------------------------
// SpanGuard

void SpanGuard::Open(bool traced, Annotations args) {
  ThreadScope& t = t_scope;
  saved_ = t.ctx;
  saved_child_ns_ = t.child_ns;
  if (MetricsEnabled()) {
    node_ = PhaseProfiler::Get().Child(saved_.node, name_);
    node_->count.fetch_add(1, std::memory_order_relaxed);
    t.ctx.node = node_;
  }
  // Tracer first: its epoch must not postdate this span's start, so trace
  // timestamps (start - epoch) never go negative.
  Tracer* tracer = traced ? &Tracer::Get() : nullptr;
  start_ns_ = SteadyNowNs();
  if (tracer != nullptr) {
    id_ = tracer->BeginSpan(name_, std::move(args), saved_.span_id, start_ns_);
    if (id_ != 0) t.ctx.span_id = id_;
  }
  t.child_ns = &child_ns_;
  open_ = true;
}

void SpanGuard::Close() {
  const int64_t end_ns = SteadyNowNs();
  const uint64_t wall_ns =
      end_ns > start_ns_ ? static_cast<uint64_t>(end_ns - start_ns_) : 0;
  if (node_ != nullptr) {
    node_->self_ns.fetch_add(wall_ns > child_ns_ ? wall_ns - child_ns_ : 0,
                             std::memory_order_relaxed);
  }
  if (id_ != 0) Tracer::Get().EndSpan(id_, name_, end_ns);
  t_scope = {saved_, saved_child_ns_};
  if (saved_child_ns_ != nullptr) *saved_child_ns_ += wall_ns;
}

void Tracer::SetMaxEventsPerThread(size_t max_events) {
  max_events_per_thread_.store(max_events, std::memory_order_relaxed);
}

size_t Tracer::max_events_per_thread() const {
  return max_events_per_thread_.load(std::memory_order_relaxed);
}

uint64_t Tracer::dropped_span_count() const {
  return dropped_spans_.load(std::memory_order_relaxed);
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
  }
  next_span_.store(1, std::memory_order_relaxed);
  dropped_spans_.store(0, std::memory_order_relaxed);
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<ThreadBuf>> bufs = bufs_;
  std::sort(bufs.begin(), bufs.end(),
            [](const auto& a, const auto& b) { return a->tid < b->tid; });
  std::vector<TraceEvent> out;
  for (const auto& buf : bufs) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Chrome trace-event export

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FmtTsUs(uint64_t ts_ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ts_ns) / 1000.0);
  return buf;
}

}  // namespace

std::string Tracer::ExportChromeTrace() const {
  std::vector<TraceEvent> events = Events();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ",";
    first = false;
    const bool begin = ev.phase == TraceEvent::Phase::kBegin;
    out += "{\"name\":\"" + JsonEscape(ev.name) + "\",\"ph\":\"";
    out += begin ? 'B' : 'E';
    out += "\",\"ts\":" + FmtTsUs(ev.ts_ns) +
           ",\"pid\":1,\"tid\":" + std::to_string(ev.tid) + ",\"args\":{";
    out += "\"span\":\"" + std::to_string(ev.span_id) + "\"";
    if (begin) {
      out += ",\"parent\":\"" + std::to_string(ev.parent_id) + "\"";
      for (const auto& [k, v] : ev.args) {
        out += ",\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
      }
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

bool Tracer::WriteChromeTraceFile(const std::string& path,
                                  std::string* error) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  f << ExportChromeTrace();
  f.flush();
  if (!f.good()) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, true/false/null)
// — just enough to validate our own exports without a dependency.

namespace {

struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    bool ok = ParseValue(out) && (SkipWs(), pos_ == text_.size());
    if (!ok && error) {
      *error = "JSON parse error at byte " + std::to_string(pos_) +
               (error_.empty() ? "" : ": " + error_);
    }
    return ok;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Fail(const char* what) {
    if (error_.empty()) error_ = what;
    return false;
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end");
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->type = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  bool ParseKeyword(JsonValue* out) {
    auto match = [&](const char* kw) {
      size_t len = std::char_traits<char>::length(kw);
      if (text_.compare(pos_, len, kw) != 0) return false;
      pos_ += len;
      return true;
    };
    if (match("true")) {
      out->type = JsonValue::kBool;
      out->boolean = true;
      return true;
    }
    if (match("false")) {
      out->type = JsonValue::kBool;
      out->boolean = false;
      return true;
    }
    if (match("null")) {
      out->type = JsonValue::kNull;
      return true;
    }
    return Fail("bad keyword");
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("bad number");
    char* end = nullptr;
    std::string num = text_.substr(start, pos_ - start);
    out->type = JsonValue::kNumber;
    out->number = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Fail("bad number");
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return Fail("raw control char");
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Fail("bad escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // Validation only needs byte equality for ASCII; encode as UTF-8.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return Fail("expected array");
    out->type = JsonValue::kArray;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->array.push_back(std::move(v));
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected , or ]");
    }
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return Fail("expected object");
    out->type = JsonValue::kObject;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      std::string key;
      SkipWs();
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return Fail("expected :");
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->object.emplace_back(std::move(key), std::move(v));
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected , or }");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

TraceValidation Invalid(std::string why) {
  TraceValidation v;
  v.ok = false;
  v.error = std::move(why);
  return v;
}

}  // namespace

TraceValidation ValidateChromeTrace(const std::string& json) {
  JsonValue root;
  std::string parse_error;
  if (!JsonParser(json).Parse(&root, &parse_error)) return Invalid(parse_error);
  if (root.type != JsonValue::kObject) return Invalid("root is not an object");
  const JsonValue* events = root.Find("traceEvents");
  if (!events || events->type != JsonValue::kArray) {
    return Invalid("missing traceEvents array");
  }

  TraceValidation v;
  struct OpenSpan {
    std::string name;
    uint64_t span_id;
  };
  std::map<int64_t, std::vector<OpenSpan>> stacks;  // tid -> open spans
  std::map<int64_t, double> last_ts;
  std::map<uint64_t, bool> known_spans;
  std::map<std::string, size_t> names;

  // First pass: collect span ids so cross-thread parent references (a worker
  // span whose parent began on the dispatching thread) resolve.
  for (const JsonValue& ev : events->array) {
    const JsonValue* args = ev.Find("args");
    const JsonValue* span = args ? args->Find("span") : nullptr;
    if (span && span->type == JsonValue::kString) {
      known_spans[std::strtoull(span->str.c_str(), nullptr, 10)] = true;
    }
  }

  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& ev = events->array[i];
    auto at = "event " + std::to_string(i);
    if (ev.type != JsonValue::kObject) return Invalid(at + ": not an object");
    const JsonValue* name = ev.Find("name");
    const JsonValue* ph = ev.Find("ph");
    const JsonValue* ts = ev.Find("ts");
    const JsonValue* tid = ev.Find("tid");
    const JsonValue* args = ev.Find("args");
    if (!name || name->type != JsonValue::kString)
      return Invalid(at + ": missing name");
    if (!ph || ph->type != JsonValue::kString)
      return Invalid(at + ": missing ph");
    if (!ts || ts->type != JsonValue::kNumber || ts->number < 0)
      return Invalid(at + ": bad ts");
    if (!tid || tid->type != JsonValue::kNumber)
      return Invalid(at + ": missing tid");
    if (!args || args->type != JsonValue::kObject)
      return Invalid(at + ": missing args");
    const JsonValue* span = args->Find("span");
    if (!span || span->type != JsonValue::kString)
      return Invalid(at + ": missing args.span");
    const uint64_t span_id = std::strtoull(span->str.c_str(), nullptr, 10);
    const int64_t t = static_cast<int64_t>(tid->number);
    v.events += 1;

    auto ts_it = last_ts.find(t);
    if (ts_it != last_ts.end() && ev.Find("ts")->number < ts_it->second) {
      return Invalid(at + ": timestamps regress on tid " + std::to_string(t));
    }
    last_ts[t] = ts->number;

    auto& stack = stacks[t];
    if (ph->str == "B") {
      v.begins += 1;
      names[name->str] += 1;
      const JsonValue* parent = args->Find("parent");
      if (!parent || parent->type != JsonValue::kString)
        return Invalid(at + ": B without args.parent");
      const uint64_t parent_id =
          std::strtoull(parent->str.c_str(), nullptr, 10);
      if (!stack.empty() && parent_id != stack.back().span_id) {
        return Invalid(at + ": parent " + parent->str +
                       " is not the enclosing span " +
                       std::to_string(stack.back().span_id));
      }
      if (stack.empty() && parent_id != 0 && !known_spans[parent_id]) {
        return Invalid(at + ": parent " + parent->str + " unknown");
      }
      stack.push_back({name->str, span_id});
      v.max_depth = std::max(v.max_depth, stack.size());
    } else if (ph->str == "E") {
      v.ends += 1;
      if (stack.empty()) return Invalid(at + ": E with empty stack");
      if (stack.back().span_id != span_id || stack.back().name != name->str) {
        return Invalid(at + ": E does not match open span " +
                       std::to_string(stack.back().span_id));
      }
      stack.pop_back();
    } else {
      return Invalid(at + ": unsupported phase '" + ph->str + "'");
    }
  }

  for (const auto& [t, stack] : stacks) {
    if (!stack.empty()) {
      return Invalid("tid " + std::to_string(t) + " has " +
                     std::to_string(stack.size()) + " unclosed span(s)");
    }
  }
  v.threads = stacks.size();
  v.name_counts.assign(names.begin(), names.end());
  v.ok = true;
  return v;
}

// ---------------------------------------------------------------------------
// KEA_TRACE environment plumbing

bool EnableTracingFromEnv() {
  const char* path = std::getenv("KEA_TRACE");
  if (path == nullptr || path[0] == '\0') return false;
  EnableTracing();
  return true;
}

bool WriteTraceFromEnv(std::string* path_out, std::string* error) {
  const char* path = std::getenv("KEA_TRACE");
  if (path == nullptr || path[0] == '\0') return true;
  if (path_out) *path_out = path;
  if (!Tracer::Get().WriteChromeTraceFile(path, error)) return false;
  // The phase profile rides along next to the Chrome trace: feed the
  // .folded file to flamegraph.pl or speedscope.
  const std::string folded = std::string(path) + ".folded";
  if (!PhaseProfiler::Get().WriteCollapsedFile(folded)) {
    if (error) *error = "cannot write " + folded;
    return false;
  }
  return true;
}

}  // namespace kea::obs
