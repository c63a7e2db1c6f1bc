// serve_mix: read-heavy multi-tenant serving with writes beside the reads.
// Two clients, each owning four tenants in round-robin, wait on every ticket
// (a closed loop). What-ifs draw Zipf(1.1) from a per-tenant pool of 256
// grids, and every 40th request of a tenant is a refresh (simulate a day,
// refit) that moves its model epoch, so that tenant's cached answers go
// stale. Between refits the tenants ask more distinct grids than the cache
// holds, so eviction shows as well as invalidation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/kea_bench/harness.h"
#include "common/random.h"
#include "serve/service.h"

namespace kea::bench {
namespace {

using serve::TenantId;
using serve::TuningService;

struct ServeWorkload {
  int tenants = 8;
  int machines = 250;
  int clients = 2;
  int workers = 2;
  /// Below the ~160 distinct grids the tenants ask between refits, so LRU
  /// eviction shows beside epoch invalidation.
  size_t cache_capacity = 128;
  int pool_grids = 256;
  int candidates = 16;
  int samples = 256;
  double zipf_s = 1.1;
  int refresh_every = 40;
  int refresh_hours = 24;
  /// Schedule length per requested second (reference-host throughput).
  double requests_per_second = 250.0;
};

ServeWorkload Describe(const Options& options) {
  ServeWorkload w;
  if (options.smoke) {
    w.machines = 60;
    w.refresh_every = 4;
  }
  return w;
}

/// One request: a what-if on pool grid `grid` of `tenant`, or a refresh
/// (grid < 0).
struct Op {
  int tenant = 0;
  int grid = -1;
};

/// Every client's request sequence, drawn from the seed before the run.
std::vector<std::vector<Op>> Schedule(const ServeWorkload& w, uint64_t seed,
                                      int requests) {
  std::vector<double> cdf;
  double total = 0.0;
  for (int k = 1; k <= w.pool_grids; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), w.zipf_s);
    cdf.push_back(total);
  }
  std::vector<Rng> draws;
  for (int t = 0; t < w.tenants; ++t) draws.emplace_back(MixSeed(seed, t));
  std::vector<int> served(w.tenants, 0);
  const int per_client = w.tenants / w.clients;
  std::vector<std::vector<Op>> clients(w.clients);
  for (int i = 0; i < requests; ++i) {
    const int c = i % w.clients;
    Op op;
    op.tenant = c * per_client + (i / w.clients) % per_client;
    if (++served[op.tenant] % w.refresh_every != 0) {
      const double u = draws[op.tenant].Uniform() * total;
      op.grid = static_cast<int>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                 cdf.begin());
      op.grid = std::min(op.grid, w.pool_grids - 1);
    }
    clients[c].push_back(op);
  }
  return clients;
}

struct Fleet {
  std::unique_ptr<TuningService> service;
  std::vector<TenantId> ids;
  std::vector<Grid> bases;  ///< Mean max_containers per group, per tenant.
};

serve::FitRequest RefitRequest() {
  serve::FitRequest fit;
  fit.whatif.num_threads = 1;
  fit.lookback_hours = sim::kHoursPerWeek;
  return fit;
}

template <typename T>
Status Resolve(TuningService* service, bool drain,
               const StatusOr<serve::Ticket<T>>& ticket) {
  if (!ticket.ok()) return ticket.status();
  if (drain) service->RunPending();
  return ticket->Wait().status();
}

/// The service with every tenant provisioned: a week of telemetry and a fit.
/// `workers` == 0 runs the service in drain mode.
StatusOr<Fleet> SetUp(const ServeWorkload& w, const Options& options,
                      int workers) {
  Fleet fleet;
  TuningService::Options service_options;
  service_options.num_threads = workers;
  service_options.cache_capacity = w.cache_capacity;
  fleet.service = std::make_unique<TuningService>(service_options);
  TuningService& service = *fleet.service;
  const bool drain = workers == 0;
  for (int t = 0; t < w.tenants; ++t) {
    apps::KeaSession::Config config;
    config.machines = w.machines;
    config.seed = MixSeed(options.seed, 100 + t);
    KEA_ASSIGN_OR_RETURN(TenantId id,
                         service.AddTenant(std::to_string(t), config));
    fleet.ids.push_back(id);
  }
  std::vector<StatusOr<serve::Ticket<sim::HourIndex>>> weeks;
  std::vector<StatusOr<serve::Ticket<uint64_t>>> fits;
  for (TenantId id : fleet.ids) {
    weeks.push_back(service.SubmitSimulate(id, sim::kHoursPerWeek));
    fits.push_back(service.SubmitFit(id, RefitRequest()));
  }
  for (const auto& week : weeks) {
    KEA_RETURN_IF_ERROR(Resolve(&service, drain, week));
  }
  for (const auto& fit : fits) {
    KEA_RETURN_IF_ERROR(Resolve(&service, drain, fit));
  }
  for (TenantId id : fleet.ids) {
    KEA_ASSIGN_OR_RETURN(apps::KeaSession * session,
                         service.tenant_session(id));
    std::map<sim::MachineGroupKey, std::pair<double, int>> sums;
    for (const sim::Machine& m : session->cluster().machines()) {
      auto& [sum, n] = sums[m.group()];
      sum += m.max_containers;
      ++n;
    }
    Grid base;
    for (const auto& [key, sum_n] : sums) {
      base[key] = sum_n.first / sum_n.second;
    }
    fleet.bases.push_back(std::move(base));
  }
  return fleet;
}

serve::WhatIfRequest PoolRequest(const ServeWorkload& w, const Grid& base,
                                 int grid) {
  serve::WhatIfRequest request;
  request.candidates = MakeGrid(base, w.candidates, grid + 1);
  request.uncertainty_samples = w.samples;
  return request;
}

void AddResponse(const serve::WhatIfResponse& response, Digest* digest) {
  digest->Add(response.best_index);
  digest->Add(response.candidates.size());
  for (const core::WhatIfResult& result : response.candidates) {
    digest->AddDouble(result.cluster_latency_s);
    digest->AddDouble(result.cluster_latency_stderr_s);
    for (const auto& [key, g] : result.groups) {
      digest->Add(static_cast<uint64_t>(key.sc));
      digest->Add(static_cast<uint64_t>(key.sku));
      digest->AddDouble(g.containers);
      digest->AddDouble(g.utilization);
      digest->AddDouble(g.tasks_per_hour);
      digest->AddDouble(g.latency_s);
      digest->AddDouble(g.latency_stderr_s);
    }
  }
}

/// One client's record of its requests, timed on the pass's HostSpeed clock.
struct ClientLog {
  std::vector<Span> whatifs;
  std::vector<double> hit_ms;  ///< Drain mode only; wall time.
  std::vector<Span> refreshes;
  Digest digest;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Simulates a day of the tenant and refits it, waiting for both.
Status Refresh(TuningService* service, const ServeWorkload& w, TenantId id,
               bool drain, const HostSpeed& clock, ClientLog* log) {
  obs::SpanGuard root("bench.refresh");
  Span span;
  span.begin_ms = clock.now_ms();
  StatusOr<serve::Ticket<sim::HourIndex>> simulated =
      service->SubmitSimulate(id, w.refresh_hours);
  if (drain && simulated.ok()) {
    obs::SpanGuard span("sim.run");
    service->RunPending();
  }
  StatusOr<serve::Ticket<uint64_t>> fitted =
      service->SubmitFit(id, RefitRequest());
  if (drain && fitted.ok()) {
    obs::SpanGuard span("core.fit");
    service->RunPending();
  }
  StatusOr<sim::HourIndex> hour =
      simulated.ok() ? simulated->Wait() : simulated.status();
  StatusOr<uint64_t> epoch = fitted.ok() ? fitted->Wait() : fitted.status();
  span.end_ms = clock.now_ms();
  KEA_RETURN_IF_ERROR(hour.status());
  KEA_RETURN_IF_ERROR(epoch.status());
  log->refreshes.push_back(span);
  log->digest.Add(static_cast<uint64_t>(hour.value()));
  log->digest.Add(epoch.value());
  return Status::OK();
}

/// Asks a what-if and waits for the answer. In drain mode the span is
/// charged to serve.hit or core.evaluate by whether the cache answered.
Status WhatIf(TuningService* service, const serve::WhatIfRequest& request,
              TenantId id, bool drain, const HostSpeed& clock,
              std::map<uint64_t, std::string>* relabel, ClientLog* log) {
  const uint64_t hits_before = drain ? service->cache()->stats().hits : 0;
  obs::SpanGuard root("bench.whatif");
  Span span;
  span.begin_ms = clock.now_ms();
  StatusOr<serve::Ticket<serve::WhatIfResponsePtr>> ticket =
      service->SubmitWhatIf(id, request);
  if (drain && ticket.ok()) service->RunPending();
  StatusOr<serve::WhatIfResponsePtr> answer =
      ticket.ok() ? ticket->Wait() : ticket.status();
  span.end_ms = clock.now_ms();
  if (drain) {
    const bool hit = service->cache()->stats().hits > hits_before;
    if (relabel != nullptr) {
      (*relabel)[root.id()] = hit ? "serve.hit" : "core.evaluate";
    }
    if (hit && answer.ok()) log->hit_ms.push_back(span.wall_ms());
  }
  KEA_RETURN_IF_ERROR(answer.status());
  log->whatifs.push_back(span);
  AddResponse(*answer.value(), &log->digest);
  return Status::OK();
}

/// Runs one request of a client's sequence and waits for it; in drain mode
/// the calling thread executes it.
void Play(Fleet* fleet, const ServeWorkload& w, const Op& op, bool drain,
          const HostSpeed& clock, std::map<uint64_t, std::string>* relabel,
          ClientLog* log) {
  const TenantId id = fleet->ids[op.tenant];
  ++log->attempted;
  const Status status =
      op.grid < 0
          ? Refresh(fleet->service.get(), w, id, drain, clock, log)
          : WhatIf(fleet->service.get(),
                   PoolRequest(w, fleet->bases[op.tenant], op.grid), id, drain,
                   clock, relabel, log);
  if (!status.ok()) {
    ++log->failed;
    std::fprintf(stderr, "request for tenant %d failed: %s\n", op.tenant,
                 status.ToString().c_str());
  }
}

struct Pass {
  std::vector<ClientLog> logs;
  Span loop;
  uint64_t digest = 0;
};

/// Plays every client's sequence: each on its own thread (the calling thread
/// is client 0) against the service's workers, or — in drain mode — merged
/// in order on the calling thread. With threads, the calling thread samples
/// the host's speed every few requests of its own; a drain-mode pass feeds
/// only the per-layer figures, which are shares of its own wall time.
Pass PlayAll(Fleet* fleet, const ServeWorkload& w,
             const std::vector<std::vector<Op>>& ops, bool drain,
             HostSpeed* speed, std::map<uint64_t, std::string>* relabel) {
  constexpr size_t kSampleEvery = 8;
  Pass pass;
  pass.logs.resize(ops.size());
  if (!drain) speed->Sample();
  pass.loop.begin_ms = speed->now_ms();
  if (drain) {
    for (size_t i = 0; i < ops[0].size(); ++i) {
      for (size_t c = 0; c < ops.size(); ++c) {
        if (i < ops[c].size()) {
          Play(fleet, w, ops[c][i], true, *speed, relabel, &pass.logs[c]);
        }
      }
    }
  } else {
    std::vector<std::thread> others;
    for (size_t c = 1; c < ops.size(); ++c) {
      others.emplace_back([&, c] {
        for (const Op& op : ops[c]) {
          Play(fleet, w, op, false, *speed, nullptr, &pass.logs[c]);
        }
      });
    }
    for (size_t i = 0; i < ops[0].size(); ++i) {
      if (i > 0 && i % kSampleEvery == 0) speed->Sample();
      Play(fleet, w, ops[0][i], false, *speed, nullptr, &pass.logs[0]);
    }
    for (std::thread& t : others) t.join();
  }
  pass.loop.end_ms = speed->now_ms();
  if (!drain) speed->Sample();
  Digest digest;
  for (const ClientLog& log : pass.logs) digest.Add(log.digest.value());
  pass.digest = digest.value();
  return pass;
}

/// At quiescence, resubmits eight pool grids per tenant: each answer must be
/// bit-identical to evaluating the tenant's current engine directly.
void CheckAnswers(Fleet* fleet, const ServeWorkload& w, bool drain,
                  Result* result) {
  TuningService& service = *fleet->service;
  for (size_t t = 0; t < fleet->ids.size(); ++t) {
    for (int grid = 0; grid < 8; ++grid) {
      const serve::WhatIfRequest request =
          PoolRequest(w, fleet->bases[t], grid);
      StatusOr<serve::Ticket<serve::WhatIfResponsePtr>> ticket =
          service.SubmitWhatIf(fleet->ids[t], request);
      if (drain && ticket.ok()) service.RunPending();
      StatusOr<serve::WhatIfResponsePtr> served =
          ticket.ok() ? ticket->Wait() : ticket.status();
      StatusOr<apps::KeaSession*> session =
          service.tenant_session(fleet->ids[t]);
      StatusOr<serve::WhatIfResponse> direct =
          session.ok() && session.value()->whatif_engine() != nullptr
              ? serve::EvaluateWhatIfRequest(
                    *session.value()->whatif_engine(), request)
              : StatusOr<serve::WhatIfResponse>(
                    Status::FailedPrecondition("tenant has no engine"));
      bool same = served.ok() && direct.ok();
      if (same) {
        Digest a, b;
        AddResponse(*served.value(), &a);
        AddResponse(direct.value(), &b);
        same = a.value() == b.value();
      }
      result->Check(same, "served what-if for tenant " + std::to_string(t) +
                              " differs from direct EvaluateWhatIf");
    }
  }
}

template <typename T>
std::vector<T> Concat(const Pass& pass, std::vector<T> ClientLog::*field) {
  std::vector<T> all;
  for (const ClientLog& log : pass.logs) {
    all.insert(all.end(), (log.*field).begin(), (log.*field).end());
  }
  return all;
}

void Count(const Pass& pass, Result* result) {
  for (const ClientLog& log : pass.logs) {
    result->attempted += log.attempted;
    result->failed += log.failed;
  }
}

}  // namespace

Result RunServeMix(const Options& options) {
  const ServeWorkload w = Describe(options);
  const int requests =
      options.smoke ? 50
                    : std::max(w.tenants * w.refresh_every,
                               static_cast<int>(options.seconds *
                                                w.requests_per_second));
  const std::vector<std::vector<Op>> ops = Schedule(w, options.seed, requests);
  Result result;

  // Untraced runs use the service's worker threads; a traced run compares a
  // drain-mode pass with tracing off against the same pass with it on.
  const int workers = options.trace ? 0 : w.workers;
  HostSpeed speed;
  std::vector<Span> setups;
  StatusOr<Fleet> made = SetUpRepeatedly<Fleet>(
      options, [&](int) { return SetUp(w, options, workers); }, &speed,
      &setups);
  if (!made.ok()) {
    result.Check(false, "set-up failed: " + made.status().ToString());
    return result;
  }
  std::optional<Fleet> fleet = std::move(made).value();

  Pass plain = PlayAll(&*fleet, w, ops, workers == 0, &speed, nullptr);
  Count(plain, &result);
  const serve::WhatIfCache::Stats stats = fleet->service->cache()->stats();
  CheckAnswers(&*fleet, w, workers == 0, &result);
  result.digest = plain.digest;
  result.Detail("requests", requests, "count");
  result.Detail("hit_ratio",
                static_cast<double>(stats.hits) / (stats.hits + stats.misses),
                "ratio");
  if (!options.trace) {
    AddEndToEnd(speed, setups, Concat(plain, &ClientLog::whatifs),
                Concat(plain, &ClientLog::refreshes), {plain.loop}, &result);
    return result;
  }

  fleet.reset();
  made = SetUp(w, options, 0);
  if (!made.ok()) {
    result.Check(false, "set-up failed: " + made.status().ToString());
    return result;
  }
  fleet = std::move(made).value();
  const serve::WhatIfCache::Stats before = fleet->service->cache()->stats();
  const serve::RequestQueue::Counters queued_before =
      fleet->service->queue_counters();
  std::map<uint64_t, std::string> relabel;
  obs::Tracer::Get().Clear();
  obs::EnableTracing();
  Pass traced = PlayAll(&*fleet, w, ops, true, &speed, &relabel);
  obs::DisableTracing();
  Count(traced, &result);
  result.Check(traced.digest == plain.digest,
               "traced serve digest differs from the untraced one");
  const serve::WhatIfCache::Stats after = fleet->service->cache()->stats();
  const serve::RequestQueue::Counters queued =
      fleet->service->queue_counters();
  CheckAnswers(&*fleet, w, true, &result);

  LayerFigures f;
  f.layers = LayerTimes(obs::Tracer::Get().Events(), relabel);
  f.wall_ms = traced.loop.wall_ms();
  f.untraced_wall_ms = plain.loop.wall_ms();
  size_t refreshes = 0;
  for (const std::vector<Op>& client : ops) {
    for (const Op& op : client) refreshes += op.grid < 0;
  }
  f.machine_hours = static_cast<double>(refreshes) * w.refresh_hours *
                    w.machines;
  StatusOr<apps::KeaSession*> first =
      fleet->service->tenant_session(fleet->ids[0]);
  if (first.ok() && first.value()->whatif_engine() != nullptr) {
    Probe(*first.value()->whatif_engine(), first.value()->store(),
          first.value()->fit_window(), &f);
  }
  const double lookups = static_cast<double>(after.hits - before.hits) +
                         static_cast<double>(after.misses - before.misses);
  f.hit_ratio = static_cast<double>(after.hits - before.hits) / lookups;
  f.evictions = static_cast<double>(after.evictions - before.evictions);
  f.rejected_frac =
      static_cast<double>(queued.rejected - queued_before.rejected) /
      static_cast<double>(queued.submitted - queued_before.submitted);
  AddLayerMetrics(f, &result);
  const std::vector<double> hit_ms = Concat(traced, &ClientLog::hit_ms);
  result.Detail("serve.hit_us_p50", Median(hit_ms) * 1e3, "us", hit_ms.size());
  WriteTrace(options.trace_file, &result);
  return result;
}

}  // namespace kea::bench
