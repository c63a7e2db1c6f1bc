#include "serve/service.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/random.h"
#include "obs/profiler.h"
#include "obs/shard.h"
#include "obs/trace.h"

namespace kea::serve {

namespace {

obs::Counter* BatchesCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.whatif_batches", "", obs::Kind::kTiming);
  return c;
}
obs::Counter* CoalescedCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.whatif_coalesced", "", obs::Kind::kTiming);
  return c;
}
obs::Counter* BreakerTripsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.breaker_trips", "", obs::Kind::kTiming);
  return c;
}
obs::Counter* BreakerFastFailCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.breaker_fastfail", "", obs::Kind::kTiming);
  return c;
}
obs::Counter* RetryBudgetExhaustedCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.retry_budget_exhausted", "", obs::Kind::kTiming);
  return c;
}
obs::Counter* BrownoutRefusalsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.brownout_refusals", "", obs::Kind::kTiming);
  return c;
}
obs::Counter* DegradedCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.degraded_responses", "", obs::Kind::kTiming);
  return c;
}
obs::Counter* BrownoutTransitionsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.brownout_transitions", "", obs::Kind::kTiming);
  return c;
}
obs::Gauge* RungGauge() {
  static obs::Gauge* g = obs::Registry::Get().GetGauge(
      "serve.brownout_rung", "", obs::Kind::kTiming);
  return g;
}

// SLO plane instruments (kTiming: sojourns are virtual-clock artifacts of a
// particular driver schedule, not logical event counts).
obs::Histogram* SojournHistogram() {
  static obs::Histogram* h = obs::Registry::Get().GetHistogram(
      "serve.sojourn_ms", "", obs::ExponentialBuckets(1.0, 2.0, 16),
      obs::Kind::kTiming);
  return h;
}
obs::Gauge* FastBurnGauge() {
  static obs::Gauge* g = obs::Registry::Get().GetGauge(
      "serve.slo_fast_burn", "", obs::Kind::kTiming);
  return g;
}
obs::Gauge* SlowBurnGauge() {
  static obs::Gauge* g = obs::Registry::Get().GetGauge(
      "serve.slo_slow_burn", "", obs::Kind::kTiming);
  return g;
}
obs::Counter* SloEscalationsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.slo_escalations", "", obs::Kind::kTiming);
  return c;
}

}  // namespace

TuningService::TuningService(const Options& options)
    : options_(options),
      queue_(options.queue),
      codel_(options.overload.codel),
      ladder_(options.overload.brownout) {
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<WhatIfCache>(options_.cache_capacity);
  }
  if (options_.overload.enabled) {
    // Always track (statusz shows burn either way); only
    // slo_guard.enforce lets the tracker move the rung.
    slo_ = std::make_unique<obs::SloTracker>(options_.overload.slo_guard.slo);
  }
  workers_.reserve(options_.num_threads > 0 ? options_.num_threads : 0);
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TuningService::~TuningService() {
  // From here on, handlers resolve their tickets with kUnavailable instead
  // of touching sessions that are about to be destroyed.
  aborting_.store(true, std::memory_order_relaxed);
  // Shutdown sheds never-released (gated) entries with the drain reason;
  // released/immediate entries stay poppable for the workers below.
  queue_.Shutdown();
  for (auto& w : workers_) w.join();
  // With num_threads == 0 (or a shutdown race) requests may still be queued;
  // drain them so no Wait() blocks forever.
  RunPending();
}

void TuningService::RunOne(RequestQueue* queue, int tenant_id,
                           const std::function<bool()>& work) {
  KEA_TRACE_SPAN("serve.dispatch");
  const bool executed = work();
  queue->Done(tenant_id, executed);
}

void TuningService::WorkerLoop() {
  int tenant_id = 0;
  std::function<bool()> work;
  while (queue_.PopBlocking(&tenant_id, &work)) {
    RunOne(&queue_, tenant_id, work);
  }
}

size_t TuningService::RunPending() {
  size_t executed = 0;
  int tenant_id = 0;
  std::function<bool()> work;
  while (queue_.TryPop(&tenant_id, &work)) {
    RunOne(&queue_, tenant_id, work);
    ++executed;
  }
  return executed;
}

StatusOr<TenantId> TuningService::AddTenant(
    const std::string& name, const apps::KeaSession::Config& config) {
  KEA_ASSIGN_OR_RETURN(std::unique_ptr<apps::KeaSession> session,
                       apps::KeaSession::Create(config));
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const TenantId id = static_cast<TenantId>(tenants_.size());
  // Per-tenant jitter substream: hints are deterministic yet decorrelated
  // across tenants, so synchronized rejections don't produce synchronized
  // retries.
  RetryPolicy::Options hints = options_.overload.retry_hints;
  hints.seed = MixSeed(hints.seed, static_cast<uint64_t>(id));
  auto tenant = std::make_unique<Tenant>(options_.overload.breaker,
                                         options_.overload.retry_budget, hints);
  tenant->id = id;
  tenant->name = name;
  tenant->session = std::move(session);
  const std::string labels = "tenant=" + name;
  tenant->requests = obs::Registry::Get().GetCounter(
      "serve.tenant_requests", labels, obs::Kind::kTiming);
  tenant->cache_hits = obs::Registry::Get().GetCounter(
      "serve.tenant_cache_hits", labels, obs::Kind::kTiming);
  tenants_.push_back(std::move(tenant));
  return id;
}

TuningService::Tenant* TuningService::FindTenant(TenantId id) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  if (id < 0 || static_cast<size_t>(id) >= tenants_.size()) return nullptr;
  return tenants_[id].get();
}

StatusOr<apps::KeaSession*> TuningService::tenant_session(TenantId id) {
  Tenant* t = FindTenant(id);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant " + std::to_string(id));
  }
  return t->session.get();
}

// ---------------------------------------------------------------------------
// Overload admission

Status TuningService::AdmitOverload(Tenant* t, bool cold_work) {
  if (!options_.overload.enabled) return Status::OK();
  const int64_t now = clock_.now_ms();
  std::lock_guard<std::mutex> lock(overload_mu_);
  const CircuitBreaker::State before = t->breaker.state();
  if (!t->breaker.AllowRequest(now)) {
    ++t->rejections;
    ++t->reject_streak;
    queue_.NoteExternalRejection();
    BreakerFastFailCounter()->Increment();
    // Tell the client exactly when probation opens; never a guess.
    const int64_t hint = std::max<int64_t>(t->breaker.open_until_ms() - now, 1);
    overload_log_.push_back("t=" + std::to_string(now) + " tenant=" + t->name +
                            " fast-fail breaker=" +
                            CircuitBreaker::StateName(t->breaker.state()));
    return WithRetryAfter(
        Status::Unavailable("tenant circuit breaker open (" +
                            std::string(CircuitBreaker::StateName(
                                t->breaker.state())) +
                            "); handlers keep failing or timing out"),
        hint);
  }
  if (t->breaker.state() != before) {
    overload_log_.push_back("t=" + std::to_string(now) + " tenant=" + t->name +
                            " breaker " + CircuitBreaker::StateName(before) +
                            "->" +
                            CircuitBreaker::StateName(t->breaker.state()));
  }
  if (t->reject_streak > 0 && !t->retry_budget.TryConsume(now)) {
    ++t->rejections;
    ++t->reject_streak;
    queue_.NoteExternalRejection();
    RetryBudgetExhaustedCounter()->Increment();
    overload_log_.push_back("t=" + std::to_string(now) + " tenant=" + t->name +
                            " retry-budget-exhausted streak=" +
                            std::to_string(t->reject_streak));
    return WithRetryAfter(
        Status::ResourceExhausted(
            "per-tenant retry budget exhausted; stop retrying and back off"),
        static_cast<int64_t>(options_.overload.retry_hints.max_backoff_ms));
  }
  if (cold_work &&
      rung_.load(std::memory_order_relaxed) >=
          static_cast<int>(BrownoutRung::kNoColdWork)) {
    ++t->rejections;
    ++t->reject_streak;
    queue_.NoteExternalRejection();
    BrownoutRefusalsCounter()->Increment();
    const int64_t hint = static_cast<int64_t>(
        t->retry_hints.BackoffMs(t->rejections,
                                 static_cast<int>(std::min<uint64_t>(
                                     t->reject_streak, 8))));
    overload_log_.push_back("t=" + std::to_string(now) + " tenant=" + t->name +
                            " brownout-refuse-cold");
    return WithRetryAfter(
        Status::Unavailable("brownout: cold fits refused (rung NO_COLD_WORK)"),
        hint);
  }
  return Status::OK();
}

Status TuningService::NoteRejected(Tenant* t, Status status) {
  if (!options_.overload.enabled) return status;
  const int64_t now = clock_.now_ms();
  std::lock_guard<std::mutex> lock(overload_mu_);
  ++t->rejections;
  ++t->reject_streak;
  const int64_t hint = static_cast<int64_t>(t->retry_hints.BackoffMs(
      t->rejections,
      static_cast<int>(std::min<uint64_t>(t->reject_streak, 8))));
  overload_log_.push_back("t=" + std::to_string(now) + " tenant=" + t->name +
                          " rejected code=" +
                          StatusCodeToString(status.code()) + " streak=" +
                          std::to_string(t->reject_streak));
  return WithRetryAfter(std::move(status), hint);
}

void TuningService::NoteAccepted(Tenant* t) {
  if (!options_.overload.enabled) return;
  std::lock_guard<std::mutex> lock(overload_mu_);
  t->reject_streak = 0;
}

RequestQueue::PushSpec TuningService::MakeSpec(const SubmitOptions& submit) {
  RequestQueue::PushSpec spec;
  spec.gated = options_.overload.enabled;
  spec.deadline_ms = submit.deadline_ms;
  spec.cost_ms = submit.cost_ms > 0.0 ? submit.cost_ms
                                      : options_.overload.default_cost_ms;
  return spec;
}

void TuningService::RecordOutcome(Tenant* t, bool ok) {
  if (!options_.overload.enabled) return;
  std::lock_guard<std::mutex> lock(overload_mu_);
  t->pending_outcomes.push_back(ok);
}

// ---------------------------------------------------------------------------
// Submission

template <typename T, typename Handler>
StatusOr<Ticket<T>> TuningService::SubmitSealing(TenantId id,
                                                 const SubmitOptions& submit,
                                                 bool cold_work,
                                                 Handler handler) {
  Tenant* t = FindTenant(id);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant " + std::to_string(id));
  }
  KEA_RETURN_IF_ERROR(AdmitOverload(t, cold_work));
  Ticket<T> ticket;
  auto work = [this, t, ticket, handler]() -> bool {
    if (aborting_.load(std::memory_order_relaxed)) {
      ticket.Set(Status::Unavailable(
          "service shutting down; request drained without execution"));
      return false;
    }
    // Epoch capture brackets the handler: any model refit or fleet change it
    // caused invalidates the tenant's cached what-if answers.
    const uint64_t model_before = t->session->model_epoch();
    const uint64_t deploy_before = t->session->deploy_epoch();
    StatusOr<T> result = handler(t->session.get());
    // Epoch-keyed entries can never serve a stale answer as fresh, so the
    // purge is memory hygiene, not correctness. With the overload plane
    // enabled the old-epoch entries are deliberately kept (bounded by the
    // LRU): they are exactly what brownout rung 2 serves, marked degraded.
    if (cache_ != nullptr && !options_.overload.enabled &&
        (t->session->model_epoch() != model_before ||
         t->session->deploy_epoch() != deploy_before)) {
      cache_->InvalidateTenant(t->id);
    }
    RecordOutcome(t, result.ok());
    ticket.Set(std::move(result));
    return true;
  };
  RequestQueue::PushSpec spec = MakeSpec(submit);
  spec.work = std::move(work);
  spec.shed = [ticket](const Status& status) { ticket.Set(status); };
  // Push under the staging lock so the seal below cannot interleave with a
  // concurrent SubmitWhatIf staging into the batch this request outruns.
  std::lock_guard<std::mutex> lock(t->staging_mu);
  Status pushed = queue_.Push(t->id, std::move(spec));
  if (!pushed.ok()) return NoteRejected(t, std::move(pushed));
  NoteAccepted(t);
  // Seal: later what-ifs open a new batch, whose drain request is enqueued
  // after this one — so they observe this request's effects, exactly as a
  // solo session would.
  t->open_batch = 0;
  t->requests->Increment();
  return ticket;
}

StatusOr<Ticket<sim::HourIndex>> TuningService::SubmitSimulate(
    TenantId id, int hours, const SubmitOptions& submit) {
  return SubmitSealing<sim::HourIndex>(
      id, submit, /*cold_work=*/false,
      [hours](apps::KeaSession* s) -> StatusOr<sim::HourIndex> {
        KEA_RETURN_IF_ERROR(s->Simulate(hours));
        return s->now();
      });
}

StatusOr<Ticket<uint64_t>> TuningService::SubmitFit(
    TenantId id, const FitRequest& request, const SubmitOptions& submit) {
  return SubmitSealing<uint64_t>(
      id, submit, /*cold_work=*/true,
      [request](apps::KeaSession* s) -> StatusOr<uint64_t> {
        KEA_RETURN_IF_ERROR(
            s->FitWhatIfEngine(request.whatif, request.lookback_hours));
        return s->model_epoch();
      });
}

StatusOr<Ticket<apps::KeaSession::GuardedRound>>
TuningService::SubmitTuningRound(
    TenantId id, const apps::KeaSession::GuardedRoundOptions& options,
    const SubmitOptions& submit) {
  return SubmitSealing<apps::KeaSession::GuardedRound>(
      id, submit, /*cold_work=*/true,
      [options](apps::KeaSession* s) { return s->RunGuardedTuningRound(options); });
}

StatusOr<Ticket<apps::SkuDesigner::Result>> TuningService::SubmitSkuDesign(
    TenantId id, const SkuDesignRequest& request, const SubmitOptions& submit) {
  return SubmitSealing<apps::SkuDesigner::Result>(
      id, submit, /*cold_work=*/true, [request](apps::KeaSession* s) {
        // A request-owned RNG: the design is a pure function of (telemetry,
        // options, seed), independent of scheduling and of other requests.
        Rng rng(request.seed);
        apps::SkuDesigner designer(request.options);
        return designer.Design(s->store(), nullptr, &rng);
      });
}

StatusOr<Ticket<WhatIfResponsePtr>> TuningService::SubmitWhatIf(
    TenantId id, WhatIfRequest request, const SubmitOptions& submit) {
  Tenant* t = FindTenant(id);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant " + std::to_string(id));
  }
  if (request.candidates.empty()) {
    return Status::InvalidArgument("what-if request has no candidates");
  }
  if (request.uncertainty_samples > core::WhatIfEngine::kMaxUncertaintySamples) {
    return Status::InvalidArgument(
        "what-if request asks for more than " +
        std::to_string(core::WhatIfEngine::kMaxUncertaintySamples) +
        " uncertainty samples");
  }
  KEA_RETURN_IF_ERROR(AdmitOverload(t, /*cold_work=*/false));
  Ticket<WhatIfResponsePtr> ticket;
  const uint64_t config_hash = ConfigHash(request);
  std::lock_guard<std::mutex> lock(t->staging_mu);
  const bool opened = t->open_batch == 0;
  if (opened) t->open_batch = t->next_batch++;
  const uint64_t batch = t->open_batch;
  const uint64_t item_id = t->next_item++;
  t->staged[batch].push_back(StagedWhatIf{item_id, std::move(request), config_hash, ticket});
  // Every admitted what-if consumes one queue slot (admission control sees
  // the true request rate); the first drain to run answers the whole batch
  // and the remaining slots become no-ops.
  const uint64_t b = batch;
  RequestQueue::PushSpec spec = MakeSpec(submit);
  spec.work = [this, t, b]() -> bool { return DrainWhatIfBatch(t, b); };
  // Shedding this slot un-stages exactly this submission: coalesced
  // neighbors keep their own slots and are answered by whichever of them
  // drains first.
  spec.shed = [t, b, item_id, ticket](const Status& status) {
    {
      std::lock_guard<std::mutex> staging_lock(t->staging_mu);
      auto it = t->staged.find(b);
      if (it != t->staged.end()) {
        auto& items = it->second;
        for (auto i = items.begin(); i != items.end(); ++i) {
          if (i->item_id == item_id) {
            items.erase(i);
            break;
          }
        }
        if (items.empty()) t->staged.erase(it);
      }
    }
    ticket.Set(status);
  };
  Status pushed = queue_.Push(t->id, std::move(spec));
  if (!pushed.ok()) {
    // Roll back only this submission; earlier coalesced entries keep their
    // already-enqueued drain.
    auto& staged = t->staged[batch];
    staged.pop_back();
    if (staged.empty()) t->staged.erase(batch);
    if (opened) t->open_batch = 0;
    return NoteRejected(t, std::move(pushed));
  }
  NoteAccepted(t);
  t->requests->Increment();
  return ticket;
}

bool TuningService::DrainWhatIfBatch(Tenant* t, uint64_t batch) {
  std::vector<StagedWhatIf> items;
  {
    std::lock_guard<std::mutex> lock(t->staging_mu);
    auto it = t->staged.find(batch);
    if (it != t->staged.end()) {
      items = std::move(it->second);
      t->staged.erase(it);
    }
    // The batch is executing now; later what-ifs must start a new one.
    if (t->open_batch == batch) t->open_batch = 0;
  }
  if (items.empty()) return true;  // Already answered by an earlier drain slot.
  if (aborting_.load(std::memory_order_relaxed)) {
    for (const auto& item : items) {
      item.ticket.Set(Status::Unavailable(
          "service shutting down; request drained without execution"));
    }
    return false;
  }
  BatchesCounter()->Increment();
  CoalescedCounter()->Increment(items.size() - 1);

  const core::WhatIfEngine* engine = t->session->whatif_engine();
  if (engine == nullptr) {
    for (const auto& item : items) {
      RecordOutcome(t, false);
      item.ticket.Set(
          Status::FailedPrecondition("no fitted What-if engine; submit a fit "
                                     "or tuning round first"));
    }
    return true;
  }
  // The rung in force for this whole batch: read once, so a sweep landing
  // mid-drain cannot split the batch across fidelity levels.
  const int rung = rung_.load(std::memory_order_relaxed);
  const bool browning = options_.overload.enabled && rung > 0;
  // One snapshot answers the whole batch: the epochs and the model digest.
  const uint64_t model_epoch = t->session->model_epoch();
  const uint64_t deploy_epoch = t->session->deploy_epoch();
  const uint64_t model_hash = engine->ModelHash();
  for (const auto& item : items) {
    // The key of the request as asked — brownout fidelity cuts never change
    // it, so a full-fidelity cached answer is always preferred and stale
    // serving matches what the client actually queried.
    WhatIfCacheKey key;
    key.tenant = t->id;
    key.model_epoch = model_epoch;
    key.deploy_epoch = deploy_epoch;
    key.model_hash = model_hash;
    key.config_hash = item.config_hash;
    if (cache_ != nullptr) {
      WhatIfResponsePtr hit = cache_->Lookup(key);
      if (hit != nullptr) {
        t->cache_hits->Increment();
        RecordOutcome(t, true);
        item.ticket.Set(std::move(hit));
        continue;
      }
    }
    // Rung 1+: cold evaluations trade error-bar fidelity for capacity. The
    // clamped variant is a distinct query with its own cache line; cached
    // content is always unmarked (it is the exact answer to the clamped
    // query) and degradation is stamped on a pointer-distinct copy at serve
    // time.
    // Only a clamp copies the request; otherwise it is evaluated as staged.
    std::optional<WhatIfRequest> clamped_request;
    if (browning && rung >= static_cast<int>(BrownoutRung::kReducedSampling) &&
        item.request.uncertainty_samples > options_.overload.brownout_samples) {
      clamped_request = item.request;
      clamped_request->uncertainty_samples = options_.overload.brownout_samples;
    }
    const bool clamped = clamped_request.has_value();
    const WhatIfRequest& effective = clamped ? *clamped_request : item.request;
    WhatIfCacheKey clamped_key = key;
    if (clamped) {
      clamped_key.config_hash = ConfigHash(effective);
      if (cache_ != nullptr) {
        WhatIfResponsePtr hit = cache_->Lookup(clamped_key);
        if (hit != nullptr) {
          t->cache_hits->Increment();
          DegradedCounter()->Increment();
          RecordOutcome(t, true);
          item.ticket.Set(MakeDegradedCopy(*hit, rung, "reduced sampling"));
          continue;
        }
      }
    }
    // Rung 2+: a fresh-epoch miss may be answered one epoch back, marked.
    if (browning && rung >= static_cast<int>(BrownoutRung::kStaleCache) &&
        cache_ != nullptr) {
      WhatIfResponsePtr stale =
          cache_->LookupStale(key, options_.overload.stale_epoch_lag);
      if (stale != nullptr) {
        DegradedCounter()->Increment();
        RecordOutcome(t, true);
        item.ticket.Set(MakeDegradedCopy(*stale, rung, "stale epoch"));
        continue;
      }
    }
    // Rung 3: no cold evaluation at all.
    if (browning && rung >= static_cast<int>(BrownoutRung::kNoColdWork)) {
      BrownoutRefusalsCounter()->Increment();
      item.ticket.Set(WithRetryAfter(
          Status::Unavailable(
              "brownout: cold what-if evaluation refused (rung NO_COLD_WORK)"),
          static_cast<int64_t>(options_.overload.retry_hints.max_backoff_ms)));
      continue;
    }
    StatusOr<WhatIfResponse> cold = EvaluateWhatIfRequest(*engine, effective);
    if (!cold.ok()) {
      RecordOutcome(t, false);
      item.ticket.Set(cold.status());
      continue;
    }
    auto payload =
        std::make_shared<const WhatIfResponse>(std::move(cold).value());
    if (cache_ != nullptr) {
      cache_->Insert(clamped ? clamped_key : key, payload);
    }
    RecordOutcome(t, true);
    if (clamped) {
      DegradedCounter()->Increment();
      item.ticket.Set(MakeDegradedCopy(*payload, rung, "reduced sampling"));
    } else {
      item.ticket.Set(std::move(payload));
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// The overload sweep

TuningService::SweepReport TuningService::AdvanceVirtualTime(int64_t now_ms) {
  clock_.AdvanceTo(now_ms);
  const int64_t now = clock_.now_ms();
  std::vector<Tenant*> tenants;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenants.reserve(tenants_.size());
    for (const auto& t : tenants_) tenants.push_back(t.get());
  }
  // Phase 1 — handler outcomes since the last sweep feed the breakers, per
  // tenant in id order. Per-tenant order is completion order == submission
  // order (the queue serializes each tenant), so the fold is deterministic.
  {
    std::lock_guard<std::mutex> lock(overload_mu_);
    for (Tenant* t : tenants) {
      for (bool ok : t->pending_outcomes) {
        const CircuitBreaker::State before = t->breaker.state();
        t->breaker.RecordOutcome(ok, now);
        const CircuitBreaker::State after = t->breaker.state();
        if (after != before) {
          if (after == CircuitBreaker::State::kTripped) {
            BreakerTripsCounter()->Increment();
          }
          overload_log_.push_back(
              "t=" + std::to_string(now) + " tenant=" + t->name + " breaker " +
              CircuitBreaker::StateName(before) + "->" +
              CircuitBreaker::StateName(after));
        }
      }
      t->pending_outcomes.clear();
    }
  }
  auto record_shed = [&](const std::pair<int, uint64_t>& shed,
                         const char* kind) {
    // Caller holds overload_mu_.
    Tenant* t = tenants[static_cast<size_t>(shed.first)];
    const CircuitBreaker::State before = t->breaker.state();
    t->breaker.RecordShed(now);
    // A shed is an SLO error event: the client never got an answer.
    if (slo_) slo_->Record(0.0, /*error=*/true, now);
    const CircuitBreaker::State after = t->breaker.state();
    overload_log_.push_back("t=" + std::to_string(now) + " tenant=" +
                            t->name + " " + kind + " id=" +
                            std::to_string(shed.second));
    if (after != before) {
      if (after == CircuitBreaker::State::kTripped) {
        BreakerTripsCounter()->Increment();
      }
      overload_log_.push_back(
          "t=" + std::to_string(now) + " tenant=" + t->name + " breaker " +
          CircuitBreaker::StateName(before) + "->" +
          CircuitBreaker::StateName(after));
    }
  };
  // Phase 2 — deadline expiry only (zero capacity): the ladder must see the
  // live backlog, purged of entries that will never be served.
  const double dt = static_cast<double>(now - last_sweep_ms_);
  last_sweep_ms_ = now;
  SweepReport report;
  report.queue = queue_.AdvanceVirtualTime(now, 0.0, nullptr);
  // Phase 3 — expiry sheds feed the breakers, and the ladder takes one step
  // against the measured pressure. The rung is published BEFORE any entry is
  // released: a worker woken by the release pass below must observe the rung
  // this sweep decided, never last sweep's (that race would make drain-time
  // brownout decisions depend on worker timing).
  {
    std::lock_guard<std::mutex> lock(overload_mu_);
    for (const auto& shed : report.queue.shed_deadline) {
      record_shed(shed, "shed_deadline");
    }
    report.pressure_ms =
        queue_.unreleased_cost_ms() /
        std::max(options_.overload.virtual_workers, 1e-9);
    const BrownoutRung before_rung = ladder_.rung();
    const BrownoutRung ladder_rung = ladder_.Update(report.pressure_ms);
    report.rung = ladder_rung;
    if (ladder_rung != before_rung) {
      BrownoutTransitionsCounter()->Increment();
      overload_log_.push_back(
          "t=" + std::to_string(now) + " brownout " + RungName(before_rung) +
          "->" + RungName(ladder_rung) + " pressure_ms=" +
          std::to_string(static_cast<int64_t>(report.pressure_ms)));
    }
    // SLO guard: a multiwindow burn alert (fed by virtual-clock sojourns
    // and sheds through THIS sweep's deadline expiries) escalates the
    // published rung one step past the ladder's pressure verdict. The
    // ladder's own state is untouched, so its hysteresis/dwell discipline
    // resumes the moment the burn cools. Off by default: with enforce
    // unset this block emits nothing and the decision trace is byte-
    // identical to the pressure-only plane.
    if (slo_ != nullptr && options_.overload.slo_guard.enforce &&
        ladder_rung < BrownoutRung::kNoColdWork && slo_->Alerting(now)) {
      report.rung =
          static_cast<BrownoutRung>(static_cast<int>(ladder_rung) + 1);
      SloEscalationsCounter()->Increment();
      char burn[96];
      std::snprintf(burn, sizeof(burn),
                    " fast_burn=%.2f slow_burn=%.2f", slo_->FastBurn(now),
                    slo_->SlowBurn(now));
      overload_log_.push_back("t=" + std::to_string(now) + " slo_escalate " +
                              RungName(ladder_rung) + "->" +
                              RungName(report.rung) + burn);
    }
    rung_.store(static_cast<int>(report.rung), std::memory_order_relaxed);
    RungGauge()->Set(static_cast<double>(static_cast<int>(report.rung)));
  }
  // Phase 4 — capacity release with the CoDel controller consulted at each
  // would-be dispatch. Virtual capacity accrues with virtual time, decoupled
  // from physical workers.
  RequestQueue::SweepOutcome release = queue_.AdvanceVirtualTime(
      now, options_.overload.virtual_workers * dt, &codel_);
  report.queue.released = release.released;
  report.queue.leftover_capacity_ms = release.leftover_capacity_ms;
  report.queue.releases = std::move(release.releases);
  for (const auto& shed : release.shed_deadline) {
    report.queue.shed_deadline.push_back(shed);
  }
  report.queue.shed_codel = std::move(release.shed_codel);
  // Phase 5 — CoDel sheds are failure outcomes for their tenants' breakers.
  {
    std::lock_guard<std::mutex> lock(overload_mu_);
    for (const auto& shed : report.queue.shed_codel) {
      record_shed(shed, "shed_codel");
    }
    // Releases feed the SLO plane: sojourn against the virtual clock, in
    // release order (deterministic). Published burn gauges are what
    // statusz and the Prometheus surface show operators.
    if (slo_ != nullptr) {
      for (const auto& r : report.queue.releases) {
        slo_->Record(static_cast<double>(r.sojourn_ms), /*error=*/false, now);
        SojournHistogram()->Observe(static_cast<double>(r.sojourn_ms));
      }
      FastBurnGauge()->Set(slo_->FastBurn(now));
      SlowBurnGauge()->Set(slo_->SlowBurn(now));
    }
  }
  return report;
}

CircuitBreaker::State TuningService::breaker_state(TenantId id) {
  Tenant* t = FindTenant(id);
  if (t == nullptr) return CircuitBreaker::State::kHealthy;
  std::lock_guard<std::mutex> lock(overload_mu_);
  return t->breaker.state();
}

std::vector<std::string> TuningService::overload_log() const {
  std::lock_guard<std::mutex> lock(overload_mu_);
  return overload_log_;
}

double TuningService::slo_fast_burn() const {
  std::lock_guard<std::mutex> lock(overload_mu_);
  return slo_ == nullptr ? 0.0 : slo_->FastBurn(clock_.now_ms());
}

double TuningService::slo_slow_burn() const {
  std::lock_guard<std::mutex> lock(overload_mu_);
  return slo_ == nullptr ? 0.0 : slo_->SlowBurn(clock_.now_ms());
}

std::string TuningService::Statusz() const {
  char line[512];
  std::string out;
  out += "=== kea::serve statusz ===\n";
  std::snprintf(line, sizeof(line), "virtual_now_ms: %lld\n",
                static_cast<long long>(clock_.now_ms()));
  out += line;
  out += "brownout_rung: ";
  out += RungName(
      static_cast<BrownoutRung>(rung_.load(std::memory_order_relaxed)));
  out += "\n";
  {
    std::lock_guard<std::mutex> tenants_lock(tenants_mu_);
    std::lock_guard<std::mutex> lock(overload_mu_);
    auto mode_name = [](apps::KeaSession::DurabilityMode m) {
      switch (m) {
        case apps::KeaSession::DurabilityMode::kOff:
          return "OFF";
        case apps::KeaSession::DurabilityMode::kDurable:
          return "DURABLE";
        case apps::KeaSession::DurabilityMode::kDegraded:
          return "DEGRADED";
      }
      return "UNKNOWN";
    };
    for (const auto& t : tenants_) {
      std::snprintf(line, sizeof(line),
                    "tenant[%d] %s: breaker=%s trips=%llu fast_fails=%llu "
                    "durability=%s\n",
                    t->id, t->name.c_str(),
                    CircuitBreaker::StateName(t->breaker.state()),
                    static_cast<unsigned long long>(t->breaker.trips()),
                    static_cast<unsigned long long>(t->breaker.fast_fails()),
                    mode_name(t->session->durability_mode()));
      out += line;
      if (t->session->durability_mode() ==
          apps::KeaSession::DurabilityMode::kDegraded) {
        out += "  degraded_reason: " +
               t->session->degraded_reason().message() + "\n";
      }
    }
    if (slo_ != nullptr) {
      out += "slo: " + slo_->Describe(clock_.now_ms()) + "\n";
    } else {
      out += "slo: (overload control off)\n";
    }
  }
  obs::Histogram* h = SojournHistogram();
  std::snprintf(line, sizeof(line),
                "sojourn_ms: p50=%.1f p95=%.1f p99=%.1f count=%llu\n",
                h->Quantile(0.50), h->Quantile(0.95), h->Quantile(0.99),
                static_cast<unsigned long long>(h->count()));
  out += line;
  if (cache_ != nullptr) {
    const WhatIfCache::Stats cs = cache_->stats();
    const uint64_t lookups = cs.hits + cs.misses;
    std::snprintf(line, sizeof(line),
                  "whatif_cache: size=%zu/%zu hit_ratio=%.3f stale_hits=%llu "
                  "evictions=%llu\n",
                  cache_->size(), cache_->capacity(),
                  lookups == 0 ? 0.0
                               : static_cast<double>(cs.hits) /
                                     static_cast<double>(lookups),
                  static_cast<unsigned long long>(cs.stale_hits),
                  static_cast<unsigned long long>(cs.evictions));
    out += line;
  } else {
    out += "whatif_cache: (disabled)\n";
  }
  const RequestQueue::Counters qc = queue_.counters();
  std::snprintf(line, sizeof(line),
                "queue: depth=%zu submitted=%llu accepted=%llu rejected=%llu "
                "completed=%llu shed_deadline=%llu shed_codel=%llu\n",
                queue_.depth(), static_cast<unsigned long long>(qc.submitted),
                static_cast<unsigned long long>(qc.accepted),
                static_cast<unsigned long long>(qc.rejected),
                static_cast<unsigned long long>(qc.completed),
                static_cast<unsigned long long>(qc.shed_deadline),
                static_cast<unsigned long long>(qc.shed_codel));
  out += line;
  obs::ShardRegistry& shards = obs::ShardRegistry::Get();
  std::snprintf(line, sizeof(line),
                "obs_shards: slots=%zu live_threads=%zu epochs=%llu\n",
                shards.slot_count(), shards.live_shard_count(),
                static_cast<unsigned long long>(shards.epochs()));
  out += line;
  // Scope count only: the calibrated per-scope cost is a wall-clock
  // measurement (SelfOverheadSummary / the collapsed-stack trailer carry
  // it), and statusz must stay run-twice diffable for a fixed driver
  // schedule.
  std::snprintf(line, sizeof(line), "profiler: scopes=%llu\n",
                static_cast<unsigned long long>(
                    obs::PhaseProfiler::Get().scope_count()));
  out += line;
  // Durability panel: the self-healing storage plane's global tallies
  // (retries absorbed, scrub salvages, generation fallbacks, degraded-mode
  // round trips, telemetry segment appends and rewrites) — deterministic
  // counters, so statusz stays diffable.
  obs::Registry& registry = obs::Registry::Get();
  std::snprintf(
      line, sizeof(line),
      "durability: retries=%llu retries_exhausted=%llu scrub_repairs=%llu "
      "generations_discarded=%llu degraded_entries=%llu "
      "degraded_restores=%llu segment_append_bytes=%llu "
      "segment_rewrites=%llu\n",
      static_cast<unsigned long long>(registry.CounterValue("durability.retries")),
      static_cast<unsigned long long>(
          registry.CounterValue("durability.retries_exhausted")),
      static_cast<unsigned long long>(
          registry.CounterValue("durability.scrub_repairs")),
      static_cast<unsigned long long>(
          registry.CounterValue("durability.generations_discarded")),
      static_cast<unsigned long long>(
          registry.CounterValue("durability.degraded_entries")),
      static_cast<unsigned long long>(
          registry.CounterValue("durability.degraded_restores")),
      static_cast<unsigned long long>(
          registry.CounterValue("durability.segment_append_bytes")),
      static_cast<unsigned long long>(
          registry.CounterValue("durability.segment_rewrites")));
  out += line;
  return out;
}

}  // namespace kea::serve
