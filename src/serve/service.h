#ifndef KEA_SERVE_SERVICE_H_
#define KEA_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/session.h"
#include "apps/sku_designer.h"
#include "common/retry.h"
#include "common/retry_budget.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "core/whatif.h"
#include "obs/metrics.h"
#include "serve/overload.h"
#include "serve/request_queue.h"
#include "serve/whatif_cache.h"
#include "sim/types.h"

namespace kea::serve {

using TenantId = int;

/// Future-style handle for an admitted request. Wait() blocks until a worker
/// resolves the ticket and returns a copy of the result. Rejected requests
/// never produce a ticket — admission errors come back from Submit* itself.
template <typename T>
class Ticket {
 public:
  Ticket() : slot_(std::make_shared<Slot>()) {}

  /// Blocks until resolved; returns the handler's StatusOr verbatim.
  StatusOr<T> Wait() const {
    std::unique_lock<std::mutex> lock(slot_->mu);
    slot_->cv.wait(lock, [&] { return slot_->result.has_value(); });
    return *slot_->result;
  }

  /// Bounded Wait: blocks at most `timeout_ms` of wall time, then returns
  /// kDeadlineExceeded WITHOUT consuming the ticket — the request is still
  /// in flight and a later Wait/WaitFor/ready() can still pick the result
  /// up. This is the caller-side guard (how long am I willing to block);
  /// the request's own virtual-clock deadline (SubmitOptions::deadline_ms)
  /// is the service-side one and sheds the work itself.
  StatusOr<T> WaitFor(int64_t timeout_ms) const {
    std::unique_lock<std::mutex> lock(slot_->mu);
    if (!slot_->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [&] { return slot_->result.has_value(); })) {
      return Status::DeadlineExceeded(
          "ticket not resolved within " + std::to_string(timeout_ms) +
          "ms wait budget; request still in flight");
    }
    return *slot_->result;
  }

  /// WaitFor against an absolute steady-clock point.
  StatusOr<T> WaitUntil(std::chrono::steady_clock::time_point when) const {
    std::unique_lock<std::mutex> lock(slot_->mu);
    if (!slot_->cv.wait_until(lock, when,
                              [&] { return slot_->result.has_value(); })) {
      return Status::DeadlineExceeded(
          "ticket not resolved by wait deadline; request still in flight");
    }
    return *slot_->result;
  }

  bool ready() const {
    std::lock_guard<std::mutex> lock(slot_->mu);
    return slot_->result.has_value();
  }

 private:
  friend class TuningService;
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<StatusOr<T>> result;
  };

  void Set(StatusOr<T> result) const {
    std::lock_guard<std::mutex> lock(slot_->mu);
    if (slot_->result.has_value()) return;  // First resolution wins.
    slot_->result = std::move(result);
    slot_->cv.notify_all();
  }

  std::shared_ptr<Slot> slot_;
};

/// Per-submission overload-control parameters. Default-constructed ==
/// PR 6 behavior: no deadline, dispatch as soon as a worker is free.
struct SubmitOptions {
  /// Virtual-clock deadline. A request whose deadline passes while queued is
  /// shed with kDeadlineExceeded and never dispatched; one that arrives
  /// already expired is rejected at submission. kNoDeadlineMs (and overload
  /// control disabled) bypasses gating entirely.
  int64_t deadline_ms = kNoDeadlineMs;
  /// Declared virtual service cost; 0 = OverloadOptions::default_cost_ms.
  double cost_ms = 0.0;
};

/// "Refresh my models" request: refit the tenant's What-if engine on its
/// recent telemetry without running the LP or deploying.
struct FitRequest {
  core::WhatIfEngine::Options whatif;
  int lookback_hours = sim::kHoursPerWeek;
};

/// Hypothetical-tuning (SKU design) request. The seed isolates the design's
/// Monte-Carlo from everything else the service is doing: the same request
/// returns the same surface no matter which worker runs it or what other
/// tenants are submitting.
struct SkuDesignRequest {
  apps::SkuDesigner::Options options;
  uint64_t seed = 42;
};

/// Multi-tenant tuning front-end: each tenant owns an isolated KeaSession
/// (own RNG streams, own clock, own telemetry store); the service adds
/// admission control, per-tenant fairness, what-if batching, a memoized
/// what-if cache, and — when Options::overload.enabled — an overload-control
/// plane: end-to-end deadlines against a deterministic virtual clock,
/// CoDel-style adaptive shedding, per-tenant retry budgets and circuit
/// breakers, and a brownout degradation ladder (DESIGN.md "Overload
/// control").
///
/// Determinism contract: a tenant's request stream produces bit-identical
/// artifacts to replaying the same accepted requests against a solo
/// KeaSession, at any worker count. Under overload control the shed /
/// degrade / breaker decision trace is additionally bit-identical at any
/// worker count, provided the driver's schedule is deterministic: Submit*
/// calls in a fixed program order, AdvanceVirtualTime called from one thread
/// at quiescent points (WaitQuiescent between sweeps). Decisions depend only
/// on the virtual clock and virtual service capacity — never on wall time or
/// physical worker speed.
class TuningService {
 public:
  struct Options {
    /// Dedicated worker threads. 0 = no workers: requests queue until the
    /// caller drains them with RunPending() (single-threaded / test mode).
    /// Workers are plain threads, not a common::ThreadPool — the pool's
    /// parallel-for contract serves one job at a time, while service workers
    /// block on a shared queue indefinitely.
    int num_threads = 2;
    RequestQueue::Options queue;
    /// Entry bound for the shared what-if cache; 0 disables caching.
    size_t cache_capacity = 1024;
    /// Overload-control plane; disabled by default (bit-exact PR 6 service).
    OverloadOptions overload;
  };

  /// One AdvanceVirtualTime step: the queue sweep plus the ladder verdict.
  struct SweepReport {
    RequestQueue::SweepOutcome queue;
    BrownoutRung rung = BrownoutRung::kNormal;
    double pressure_ms = 0.0;
  };

  explicit TuningService(const Options& options);
  /// Shuts the queue down (unreleased requests resolve kUnavailable with a
  /// drain reason), joins workers, and drains anything still dispatchable.
  ~TuningService();

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Registers a tenant with its own fresh KeaSession. Thread-safe; returns
  /// the tenant id used in every Submit* call.
  StatusOr<TenantId> AddTenant(const std::string& name,
                               const apps::KeaSession::Config& config);

  /// Direct access to a tenant's session for setup and post-hoc inspection.
  /// Only safe while the tenant has no in-flight or queued requests.
  StatusOr<apps::KeaSession*> tenant_session(TenantId id);

  // -- Request submission. Each returns a ticket on admission or an error:
  //    kResourceExhausted when saturated or the retry budget is dry,
  //    kDeadlineExceeded when the deadline already passed, kUnavailable when
  //    the tenant's breaker is open or brownout refuses cold work, kNotFound
  //    for unknown tenants. Overload rejections carry a deterministic
  //    jittered "[retry_after_ms=N]" hint (see RetryAfterMs). Requests of
  //    one tenant execute in submission order.

  /// Advance the tenant's simulated cluster; resolves to the new clock.
  StatusOr<Ticket<sim::HourIndex>> SubmitSimulate(
      TenantId id, int hours, const SubmitOptions& submit = SubmitOptions());

  /// Refit the tenant's What-if engine; resolves to the new model epoch.
  StatusOr<Ticket<uint64_t>> SubmitFit(
      TenantId id, const FitRequest& request,
      const SubmitOptions& submit = SubmitOptions());

  /// Evaluate candidate configurations. Consecutive what-if submissions from
  /// one tenant (not split by another accepted request type) coalesce into
  /// one queue slot and are answered from one snapshot of the models and epochs.
  /// Resolves to an immutable shared payload: a cache hit hands back the
  /// cached response itself (zero-copy), a miss the freshly evaluated one.
  /// Under brownout the payload may be marked degraded (reduced sampling or
  /// a stale epoch), and rung 3 refuses cold evaluations with kUnavailable.
  /// No candidates, or uncertainty_samples above
  /// WhatIfEngine::kMaxUncertaintySamples, is InvalidArgument at submission.
  /// The request is moved into the batch and hashed once, here.
  StatusOr<Ticket<WhatIfResponsePtr>> SubmitWhatIf(
      TenantId id, WhatIfRequest request,
      const SubmitOptions& submit = SubmitOptions());

  /// Run a guarded tuning round (fit + LP + staged rollout).
  StatusOr<Ticket<apps::KeaSession::GuardedRound>> SubmitTuningRound(
      TenantId id, const apps::KeaSession::GuardedRoundOptions& options,
      const SubmitOptions& submit = SubmitOptions());

  /// Run hypothetical tuning (SKU design) on the tenant's telemetry.
  StatusOr<Ticket<apps::SkuDesigner::Result>> SubmitSkuDesign(
      TenantId id, const SkuDesignRequest& request,
      const SubmitOptions& submit = SubmitOptions());

  /// Drains and executes queued requests on the calling thread until the
  /// queue is momentarily empty; returns how many were executed. The
  /// num_threads == 0 driver; also usable alongside workers.
  size_t RunPending();

  // -- Overload-control plane (Options::overload.enabled).

  /// Advances the service's virtual clock and runs one deterministic
  /// overload sweep: pending handler outcomes feed the per-tenant breakers
  /// (in tenant-id order), expired requests are shed in queue, capacity is
  /// released, and the brownout ladder takes one step against the measured
  /// backlog pressure. Call from one driver thread at a time; interleave
  /// with WaitQuiescent() for a bit-identical decision trace.
  SweepReport AdvanceVirtualTime(int64_t now_ms);

  /// Blocks until every released request has been executed and no request
  /// is in flight — the barrier between a sweep and the next clock advance.
  void WaitQuiescent() { queue_.WaitQuiescent(); }

  const VirtualClock& clock() const { return clock_; }
  BrownoutRung brownout_rung() const {
    return static_cast<BrownoutRung>(rung_.load(std::memory_order_relaxed));
  }
  /// Breaker state for a tenant (kHealthy for unknown ids).
  CircuitBreaker::State breaker_state(TenantId id);
  /// SLO burn rates over the fast / slow windows, as of the last sweep.
  /// 0.0 while overload control is off (no tracker exists).
  double slo_fast_burn() const;
  double slo_slow_burn() const;
  /// Human-readable operational snapshot: rung, per-tenant breaker states,
  /// SLO burn, sojourn percentiles, cache hit ratio, queue depth/counters,
  /// shard-registry epochs, and profiler self-overhead. Safe to call any
  /// time; renders from the same instruments the Prometheus surface exports.
  std::string Statusz() const;
  /// The ordered overload decision log: one line per admission-time decision
  /// (fast-fail, budget rejection) and per sweep event (shed, release count,
  /// rung and breaker transitions). Bit-identical across worker counts under
  /// the determinism contract above; empty while the plane never engages.
  std::vector<std::string> overload_log() const;

  /// Null when Options::cache_capacity == 0.
  const WhatIfCache* cache() const { return cache_.get(); }
  RequestQueue::Counters queue_counters() const { return queue_.counters(); }
  size_t queue_depth() const { return queue_.depth(); }

 private:
  /// One staged (not yet drained) what-if item, with the request's
  /// ConfigHash taken at submission.
  struct StagedWhatIf {
    uint64_t item_id = 0;
    WhatIfRequest request;
    uint64_t config_hash = 0;
    Ticket<WhatIfResponsePtr> ticket;
  };

  struct Tenant {
    TenantId id = 0;
    std::string name;
    std::unique_ptr<apps::KeaSession> session;

    /// Guards the batching state below (never held while executing).
    std::mutex staging_mu;
    uint64_t next_batch = 1;
    uint64_t next_item = 1;
    /// Batch id currently accepting coalesced what-ifs; 0 = none open.
    uint64_t open_batch = 0;
    std::map<uint64_t, std::vector<StagedWhatIf>> staged;

    // -- Overload-control state, guarded by TuningService::overload_mu_.
    CircuitBreaker breaker;
    RetryBudget retry_budget;
    /// Jitter source for this tenant's retry_after_ms hints.
    RetryPolicy retry_hints;
    /// Consecutive rejections since the last acceptance; >0 marks the next
    /// submission as a retry, charged against the budget.
    uint64_t reject_streak = 0;
    uint64_t rejections = 0;  ///< Lifetime; the hint jitter's call index.
    /// Handler outcomes since the last sweep, completion (== submission)
    /// order; drained into the breaker by AdvanceVirtualTime.
    std::vector<bool> pending_outcomes;

    /// Per-tenant request/hit counters (kTiming).
    obs::Counter* requests = nullptr;
    obs::Counter* cache_hits = nullptr;

    Tenant(const CircuitBreaker::Options& breaker_options,
           const RetryBudget::Options& budget_options,
           const RetryPolicy::Options& hint_options)
        : breaker(breaker_options),
          retry_budget(budget_options),
          retry_hints(hint_options) {}
  };

  void WorkerLoop();
  /// Executes one popped request and releases the tenant slot.
  static void RunOne(RequestQueue* queue, int tenant_id,
                     const std::function<bool()>& work);

  Tenant* FindTenant(TenantId id);
  /// Overload admission gate: breaker fast-fail, retry-budget charge,
  /// brownout refusal of cold work. OK = proceed to the queue. Caller must
  /// treat any error as a rejection (already counted + logged).
  Status AdmitOverload(Tenant* t, bool cold_work);
  /// Folds a queue rejection into the tenant's retry state and appends the
  /// deterministic backoff hint.
  Status NoteRejected(Tenant* t, Status status);
  void NoteAccepted(Tenant* t);
  /// Builds the queue spec for an accepted submission.
  RequestQueue::PushSpec MakeSpec(const SubmitOptions& submit);
  /// Records a handler outcome for the tenant's breaker (overload mode).
  void RecordOutcome(Tenant* t, bool ok);

  /// Wraps `handler` with shutdown handling, epoch capture, and cache
  /// invalidation, then stages/enqueues it as a batch-sealing request.
  template <typename T, typename Handler>
  StatusOr<Ticket<T>> SubmitSealing(TenantId id, const SubmitOptions& submit,
                                    bool cold_work, Handler handler);

  /// Evaluates (or serves from cache) every what-if staged under `batch`,
  /// applying the brownout rung in force. Returns false only when the batch
  /// was resolved with the shutdown drain status (counts as cancelled).
  bool DrainWhatIfBatch(Tenant* t, uint64_t batch);

  const Options options_;
  RequestQueue queue_;
  std::unique_ptr<WhatIfCache> cache_;
  std::atomic<bool> aborting_{false};

  mutable std::mutex tenants_mu_;
  std::vector<std::unique_ptr<Tenant>> tenants_;

  // -- Overload-control plane. codel_/ladder_/last_sweep_ms_ are touched
  //    only by the (single) AdvanceVirtualTime driver; breakers, budgets,
  //    pending outcomes, and the log are shared with submit/worker threads
  //    under overload_mu_.
  VirtualClock clock_;
  CodelController codel_;
  BrownoutLadder ladder_;
  int64_t last_sweep_ms_ = 0;
  std::atomic<int> rung_{0};
  mutable std::mutex overload_mu_;
  std::vector<std::string> overload_log_;
  /// SLO plane (null while overload control is off). Fed releases and sheds
  /// under overload_mu_; read by statusz and the burn accessors.
  std::unique_ptr<obs::SloTracker> slo_;

  std::vector<std::thread> workers_;
};

}  // namespace kea::serve

#endif  // KEA_SERVE_SERVICE_H_
