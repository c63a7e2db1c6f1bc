#ifndef KEA_OBS_PROFILER_H_
#define KEA_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// Always-on phase profiler (DESIGN.md "Observability v2").
///
/// One process-wide trie of scope paths ("whatif.fit;whatif.fit_group"),
/// fed by every obs::SpanGuard (KEA_TRACE_SPAN) while MetricsEnabled(): a
/// guard finds its child under the calling thread's current node, reads the
/// clock on entry and exit, and adds one entry and its self time (wall time
/// minus the same-thread scopes nested in it) to the node with two relaxed
/// atomic adds. The trie is shared by all threads, and ThreadPool hands the
/// dispatching thread's node to its workers, so a worker's scopes nest under
/// the scope that dispatched them and a path's self time is summed across
/// threads. A node is created once per distinct path and lives for the
/// process: nothing allocates after a path has been seen, and a thread that
/// exits leaves nothing behind.
///
/// Export is flamegraph-ready collapsed-stack text ("fit;mc.grid 1234"
/// — self nanoseconds per path, sorted), written next to the Chrome trace
/// by WriteTraceFromEnv. Self-overhead is reported from a startup
/// calibration of the per-scope cost times the observed scope count.
///
/// Wall-clock derived — never part of the deterministic exports.
namespace kea::obs {

/// One scope path. Never freed or moved once created. A scope bumps `count`
/// when it opens (so live snapshots count open scopes too) and adds its self
/// time to `self_ns` when it closes.
struct PhaseNode {
  std::string name;
  PhaseNode* parent = nullptr;
  PhaseNode* next_sibling = nullptr;              // fixed before publication
  std::atomic<PhaseNode*> first_child{nullptr};   // release-published
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> self_ns{0};
};

class PhaseProfiler {
 public:
  static PhaseProfiler& Get();

  /// The child of `parent` (nullptr = the root) named `name`, created on
  /// first use. Lock-free once the path exists. Thread-safe.
  PhaseNode* Child(PhaseNode* parent, const char* name);

  /// Collapsed-stack ("folded") export: one "path;leaf <self_ns>" line per
  /// path entered at least once, sorted by path.
  std::string CollapsedStack() const;
  /// Writes CollapsedStack() plus '#'-prefixed self-overhead trailer lines
  /// to `path`. Returns false on I/O failure.
  bool WriteCollapsedFile(const std::string& path) const;

  /// Total scopes entered and the calibrated per-scope cost — the
  /// profiler's own bill: overhead_ns ~= scopes * per-scope cost.
  uint64_t scope_count() const;
  double calibrated_scope_cost_ns() const;
  std::string SelfOverheadSummary() const;

  /// Zeroes every node's time and count. Nodes stay, so a thread inside a
  /// scope keeps a valid node; a path reappears in the export once entered
  /// again. Tests only.
  void ResetForTest();

 private:
  PhaseProfiler() = default;

  PhaseNode root_;  // name "" — never exported itself
  mutable std::mutex mu_;  // serializes node creation
  std::vector<std::unique_ptr<PhaseNode>> nodes_;  // guarded by mu_
  mutable std::atomic<uint64_t> calibrated_ns_bits_{0};  // double bits; 0 = not yet
};

}  // namespace kea::obs

#endif  // KEA_OBS_PROFILER_H_
