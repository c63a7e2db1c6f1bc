#ifndef KEA_OBS_TRACE_H_
#define KEA_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"

/// Scopes and span tracing (DESIGN.md "Observability"). A SpanGuard
/// (KEA_TRACE_SPAN) is the one scope primitive: while metrics are on it
/// feeds the phase trie (obs/profiler.h), and while tracing is on it also
/// records a begin/end event pair into a per-thread buffer; the merged
/// stream exports as Chrome trace-event JSON (open in Perfetto or
/// chrome://tracing).
///
/// Tracing is OFF by default — an untraced span allocates nothing. Every
/// timestamp in a trace is wall-clock derived, so traces are kTiming
/// artifacts by definition: they are never part of the deterministic exports
/// and never feed back into tuning decisions.
namespace kea::obs {

struct PhaseNode;  // obs/profiler.h

#ifdef KEA_OBS_DISABLED
inline constexpr bool TraceEnabled() { return false; }
inline void EnableTracing() {}
inline void DisableTracing() {}
#else
bool TraceEnabled();
void EnableTracing();
void DisableTracing();
#endif

/// Typed key/value annotations attached to a span's begin event.
using Annotations = std::vector<std::pair<std::string, std::string>>;

struct TraceEvent {
  enum class Phase { kBegin, kEnd };
  Phase phase = Phase::kBegin;
  std::string name;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  uint64_t ts_ns = 0;      // steady-clock ns since tracer epoch
  uint32_t tid = 0;        // dense tracer-assigned thread id, from 1
  Annotations args;
};

/// Where the calling thread stands in the scope tree: the phase-trie node of
/// its innermost open scope (nullptr = the root) and its innermost recorded
/// span (0 = none). Every SpanGuard saves and restores it; ThreadPool hands
/// the dispatching thread's context to its workers.
struct ScopeContext {
  PhaseNode* node = nullptr;
  uint64_t span_id = 0;
};

/// The calling thread's context, to hand to another thread.
ScopeContext CurrentScope();
/// Makes `ctx`, captured by CurrentScope() on another thread, the calling
/// thread's context: the scopes it opens next nest under ctx in the trie and
/// the trace. Their time is this thread's own, so it is not subtracted from
/// the self time of ctx's scope. Only for a thread with no scope open (a
/// pool worker between jobs); ScopeContext{} detaches it again.
void SetThreadScope(ScopeContext ctx);

class Tracer {
 public:
  static Tracer& Get();

  /// Per-thread buffer bound: once a thread's buffer holds this many
  /// events, further spans begun on it are DROPPED (counted in
  /// dropped_span_count() and the exported `obs.trace.dropped_spans`
  /// counter) so week-long traced runs cannot grow memory without bound.
  /// End events for already-open spans always append, so the trace stays
  /// well-formed (ValidateChromeTrace passes). 0 = unlimited.
  void SetMaxEventsPerThread(size_t max_events);
  size_t max_events_per_thread() const;
  uint64_t dropped_span_count() const;

  /// Drops all recorded events, restarts span ids from 1, and zeroes the
  /// dropped-span count. Only call with no spans open.
  void Clear();

  size_t event_count() const;

  /// All events, thread-major, in per-thread record order (within a thread
  /// the stream is well-nested by construction).
  std::vector<TraceEvent> Events() const;

  /// Chrome trace-event JSON: {"traceEvents":[...]}. Each span is a "B"/"E"
  /// pair with span/parent ids and annotations in "args".
  std::string ExportChromeTrace() const;

  /// Writes ExportChromeTrace() to `path`; false + *error on failure.
  bool WriteChromeTraceFile(const std::string& path,
                            std::string* error = nullptr) const;

 private:
  friend class SpanGuard;
  struct ThreadBuf {
    mutable std::mutex mu;
    uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  Tracer();
  ThreadBuf* LocalBuf();

  /// Appends a begin event at steady-clock time `now_ns`; returns the new
  /// span id, or 0 when the thread's buffer is full and the span is dropped.
  uint64_t BeginSpan(const char* name, Annotations args, uint64_t parent_id,
                     int64_t now_ns);
  void EndSpan(uint64_t span_id, const char* name, int64_t now_ns);

  mutable std::mutex mu_;  // guards bufs_
  std::vector<std::shared_ptr<ThreadBuf>> bufs_;
  std::atomic<uint64_t> next_span_{1};
  // Default cap: ~1M events/thread (order 100MB worst case) — far above any
  // test or example, low enough that an always-on weeklong run stays flat.
  std::atomic<size_t> max_events_per_thread_{1u << 20};
  std::atomic<uint64_t> dropped_spans_{0};
  int64_t epoch_ns_ = 0;
};

/// RAII scope, the one instrumentation primitive. Prefer the KEA_TRACE_SPAN
/// macro. While MetricsEnabled() the scope is recorded in the phase trie
/// (obs/profiler.h); while TraceEnabled() it is also recorded as a Chrome
/// trace B/E pair stamped with the same two clock reads. With both off it
/// costs two relaxed loads. `name` must outlive the guard.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) : name_(name) {
    const bool traced = TraceEnabled();
    if (traced || MetricsEnabled()) Open(traced, Annotations());
  }
  /// Lazy-annotation form used by KEA_TRACE_SPAN: `make_args` is only
  /// invoked when tracing is on, so annotation strings (std::to_string and
  /// friends) cost nothing on the untraced path.
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<Annotations, F&>>>
  SpanGuard(const char* name, F&& make_args) : name_(name) {
    const bool traced = TraceEnabled();
    if (traced || MetricsEnabled()) {
      Open(traced, traced ? make_args() : Annotations());
    }
  }
  ~SpanGuard() {
    if (open_) Close();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// The recorded span's id; 0 when tracing was off or the span was dropped.
  uint64_t id() const { return id_; }

 private:
  void Open(bool traced, Annotations args);
  void Close();

  const char* name_;
  bool open_ = false;
  PhaseNode* node_ = nullptr;  // null while metrics are off
  uint64_t id_ = 0;
  int64_t start_ns_ = 0;
  uint64_t child_ns_ = 0;  // wall time of same-thread scopes nested in this one
  ScopeContext saved_;
  uint64_t* saved_child_ns_ = nullptr;
};

#define KEA_OBS_CONCAT_INNER(a, b) a##b
#define KEA_OBS_CONCAT(a, b) KEA_OBS_CONCAT_INNER(a, b)
/// KEA_TRACE_SPAN("whatif.fit", {{"groups", "12"}}); — scopes the enclosing
/// block. The annotations are wrapped in a lambda so their construction is
/// skipped entirely when tracing is off.
#define KEA_TRACE_SPAN(name, ...)                                  \
  ::kea::obs::SpanGuard KEA_OBS_CONCAT(kea_trace_span_, __LINE__)( \
      name, [&]() -> ::kea::obs::Annotations {                     \
        return ::kea::obs::Annotations(__VA_ARGS__);               \
      })

// ---------------------------------------------------------------------------
// Trace validation: a small self-contained JSON parser + well-formedness
// checker, shared by obs_test and the `trace_check` CLI used in CI.

struct TraceValidation {
  bool ok = false;
  std::string error;
  size_t events = 0;
  size_t begins = 0;
  size_t ends = 0;
  size_t threads = 0;
  size_t max_depth = 0;
  /// Per-name begin counts, sorted by name.
  std::vector<std::pair<std::string, size_t>> name_counts;
};

/// Checks that `json` is syntactically valid JSON, has a traceEvents array,
/// every B has a matching same-thread E (same name and span id, LIFO order),
/// per-thread timestamps are non-decreasing, and every non-zero parent id
/// refers to a known span that is the enclosing one when the stack is
/// non-empty.
TraceValidation ValidateChromeTrace(const std::string& json);

/// Reads KEA_TRACE from the environment; when set and non-empty, enables
/// tracing and returns true. Call once at tool startup.
bool EnableTracingFromEnv();

/// When KEA_TRACE is set, writes the collected trace there, plus the phase
/// profiler's flamegraph-ready collapsed stacks to "<path>.folded" (feed to
/// flamegraph.pl / speedscope). Returns false (with *error) on write
/// failure, true otherwise (including "not set").
bool WriteTraceFromEnv(std::string* path_out = nullptr,
                       std::string* error = nullptr);

}  // namespace kea::obs

#endif  // KEA_OBS_TRACE_H_
