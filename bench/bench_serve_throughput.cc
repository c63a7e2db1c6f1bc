// Measures the kea::serve serving layer: (1) the memoized what-if cache —
// cold evaluation versus warm hit latency on the same 64-candidate grid
// sweep, where the bar is a >=10x warm speedup with bit-identical payloads
// (bit-identity itself is proven in whatif_cache_test; this bench quantifies
// the latency win) — (2) what a cold grid costs against a cold one-candidate
// query, and how many normals the cold probes drew: each group key's stream
// is drawn once per process, so the count is 3 x samples x groups however
// many probes and candidates ran — and (3) sustained multi-tenant
// throughput: queries/sec and cache-hit ratio as the tenant count grows on a
// fixed 4-worker service. Writes BENCH_serve_throughput.json for the CI
// serve job.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace {

using Clock = std::chrono::steady_clock;
using kea::serve::Ticket;
using kea::serve::TuningService;
using kea::serve::WhatIfRequest;
using kea::serve::WhatIfResponsePtr;

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

[[noreturn]] void Die(const kea::Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T WaitOrDie(const kea::StatusOr<Ticket<T>>& ticket) {
  if (!ticket.ok()) Die(ticket.status());
  auto result = ticket.value().Wait();
  if (!result.ok()) Die(result.status());
  return std::move(result).value();
}

/// Mean configured max_containers per machine group — the anchor all query
/// grids scale from (same idiom as serve_test).
std::map<kea::sim::MachineGroupKey, double> BaseContainers(
    const kea::sim::Cluster& cluster) {
  std::map<kea::sim::MachineGroupKey, std::pair<double, int>> acc;
  for (const kea::sim::Machine& m : cluster.machines()) {
    auto& [sum, n] = acc[kea::sim::MachineGroupKey{m.sc, m.sku}];
    sum += static_cast<double>(m.max_containers);
    ++n;
  }
  std::map<kea::sim::MachineGroupKey, double> base;
  for (const auto& [key, sn] : acc) base[key] = sn.first / sn.second;
  return base;
}

/// A `candidates`-point grid around `base`; `salt` perturbs every candidate
/// so distinct salts produce distinct cache keys.
WhatIfRequest MakeQuery(const std::map<kea::sim::MachineGroupKey, double>& base,
                        int candidates, int salt) {
  WhatIfRequest request;
  for (int c = 0; c < candidates; ++c) {
    std::map<kea::sim::MachineGroupKey, double> candidate;
    const double scale = 0.80 + 0.004 * c + 0.0001 * salt;
    for (const auto& [key, b] : base) candidate[key] = b * scale;
    request.candidates.push_back(std::move(candidate));
  }
  return request;
}

/// Adds a tenant, simulates a week of telemetry and fits its what-if engine;
/// returns the tenant id and its query anchor.
std::pair<kea::serve::TenantId, std::map<kea::sim::MachineGroupKey, double>>
ProvisionTenant(TuningService* service, int index, int machines) {
  kea::apps::KeaSession::Config config;
  config.machines = machines;
  config.seed = 100 + static_cast<uint64_t>(index);
  auto id = service->AddTenant("t" + std::to_string(index), config);
  if (!id.ok()) Die(id.status());
  auto simulate = service->SubmitSimulate(id.value(), kea::sim::kHoursPerWeek);
  service->RunPending();
  WaitOrDie(simulate);
  kea::serve::FitRequest fit;
  fit.whatif.num_threads = 1;
  auto fitted = service->SubmitFit(id.value(), fit);
  service->RunPending();
  WaitOrDie(fitted);
  auto session = service->tenant_session(id.value());
  if (!session.ok()) Die(session.status());
  return {id.value(), BaseContainers(session.value()->cluster())};
}

}  // namespace

int main() {
  using namespace kea;
  bench::PrintBanner(
      "kea::serve throughput - what-if cache latency and tenant scaling",
      "warm hits >=10x faster than cold; ~90% hit ratio at steady state");

  // -------------------------------------------------------------------------
  // Cache latency probe: drain-mode service (num_threads = 0) so each timing
  // covers exactly one submit + drain + wait with no scheduler noise.
  const int kProbeReps = 128;
  const int kProbeCandidates = 64;
  double cold_us, cold_one_us, warm_us;
  uint64_t normal_draws = 0;
  size_t probe_groups = 0;
  {
    TuningService::Options options;
    options.num_threads = 0;
    options.cache_capacity = 4096;
    options.queue.capacity = 1024;
    options.queue.per_tenant = 512;
    TuningService service(options);
    auto [id, base] = ProvisionTenant(&service, 0, 300);

    // Cold misses at `candidates` per query; each salt is a distinct key.
    auto time_cold = [&service, id, &base](int candidates) {
      std::vector<double> us;
      for (int rep = 0; rep < kProbeReps; ++rep) {
        WhatIfRequest query = MakeQuery(base, candidates, rep + 1);
        auto start = Clock::now();
        auto ticket = service.SubmitWhatIf(id, query);
        service.RunPending();
        WaitOrDie(ticket);
        us.push_back(UsSince(start));
      }
      return Median(us);
    };
    cold_us = time_cold(kProbeCandidates);
    cold_one_us = time_cold(1);
    // The probes are the process's first what-ifs, at the default sample
    // count, so every normal drawn so far was drawn for them.
    normal_draws = obs::Registry::Get().CounterValue("whatif.normal_draws");
    auto session = service.tenant_session(id);
    if (!session.ok()) Die(session.status());
    probe_groups = session.value()->whatif_engine()->models().size();

    WhatIfRequest repeated = MakeQuery(base, kProbeCandidates, 0);
    {
      auto prime = service.SubmitWhatIf(id, repeated);  // the one cold miss
      service.RunPending();
      WaitOrDie(prime);
    }
    std::vector<double> warm;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      auto start = Clock::now();
      auto ticket = service.SubmitWhatIf(id, repeated);
      service.RunPending();
      WaitOrDie(ticket);
      warm.push_back(UsSince(start));
    }
    warm_us = Median(warm);
  }
  const double warm_speedup = warm_us > 0.0 ? cold_us / warm_us : 0.0;
  const double grid_cost_ratio = cold_one_us > 0.0 ? cold_us / cold_one_us : 0.0;

  std::string speedup_label = bench::Fmt(warm_speedup, 1);
  speedup_label += "x";
  bench::PrintRow({"path", "median us", "speedup"}, 14);
  bench::PrintRow({"cold", bench::Fmt(cold_us, 1), "1.0x"}, 14);
  bench::PrintRow({"warm hit", bench::Fmt(warm_us, 1), speedup_label}, 14);
  std::printf("\ncold 1-candidate query: %.1f us; a %d-candidate grid costs "
              "%.1fx that\n",
              cold_one_us, kProbeCandidates, grid_cost_ratio);
  std::printf("normals drawn by %d cold probes: %llu for %zu groups "
              "(3 x %d samples x groups = %llu)\n",
              2 * kProbeReps, static_cast<unsigned long long>(normal_draws),
              probe_groups, WhatIfRequest().uncertainty_samples,
              static_cast<unsigned long long>(
                  3ULL * WhatIfRequest().uncertainty_samples * probe_groups));

  // -------------------------------------------------------------------------
  // Tenant scaling: a 4-worker service; each tenant fires 300 queries cycling
  // 30 distinct grids, so at steady state 9 in 10 lookups hit the cache.
  const int kWorkers = 4;
  const int kQueriesPerTenant = 300;
  const int kDistinctGrids = 30;
  struct SweepPoint {
    int tenants;
    double qps;
    double hit_ratio;
  };
  std::vector<SweepPoint> sweep;
  std::printf("\n");
  bench::PrintRow({"tenants", "queries/sec", "hit ratio"}, 14);
  for (int tenants : {1, 2, 4, 8}) {
    TuningService::Options options;
    options.num_threads = kWorkers;
    options.cache_capacity = 4096;
    options.queue.capacity = 4096;
    options.queue.per_tenant = 512;
    TuningService service(options);

    std::vector<serve::TenantId> ids;
    std::vector<std::map<sim::MachineGroupKey, double>> bases;
    for (int i = 0; i < tenants; ++i) {
      auto [id, base] = ProvisionTenant(&service, i, 150);
      ids.push_back(id);
      bases.push_back(std::move(base));
    }

    const auto before = service.cache()->stats();
    auto start = Clock::now();
    std::vector<std::thread> drivers;
    for (int t = 0; t < tenants; ++t) {
      drivers.emplace_back([&service, &ids, &bases, t] {
        std::vector<Ticket<WhatIfResponsePtr>> pending;
        pending.reserve(kQueriesPerTenant);
        for (int q = 0; q < kQueriesPerTenant; ++q) {
          WhatIfRequest query = MakeQuery(bases[t], 8, q % kDistinctGrids);
          auto ticket = service.SubmitWhatIf(ids[t], query);
          if (!ticket.ok()) Die(ticket.status());
          pending.push_back(ticket.value());
        }
        for (const auto& ticket : pending) {
          auto result = ticket.Wait();
          if (!result.ok()) Die(result.status());
        }
      });
    }
    for (auto& d : drivers) d.join();
    const double elapsed_s = UsSince(start) / 1e6;
    const auto after = service.cache()->stats();

    const double total = static_cast<double>(tenants) * kQueriesPerTenant;
    const double hits = static_cast<double>(after.hits - before.hits);
    SweepPoint point{tenants, total / elapsed_s, hits / total};
    sweep.push_back(point);
    bench::PrintRow({std::to_string(tenants), bench::Fmt(point.qps, 0),
                     bench::Pct(point.hit_ratio, 1)},
                    14);
  }

  FILE* out = std::fopen("BENCH_serve_throughput.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serve_throughput.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "%s,\n"
               "  \"probe_candidates\": %d,\n"
               "  \"probe_reps\": %d,\n"
               "  \"probe_samples\": %d,\n"
               "  \"cold_us_median\": %.2f,\n"
               "  \"cold_one_us_median\": %.2f,\n"
               "  \"grid_cost_ratio\": %.2f,\n"
               "  \"normal_draws\": %llu,\n"
               "  \"probe_groups\": %zu,\n"
               "  \"warm_us_median\": %.2f,\n"
               "  \"warm_speedup\": %.2f,\n"
               "  \"workers\": %d,\n"
               "  \"queries_per_tenant\": %d,\n"
               "  \"tenant_sweep\": [",
               bench::HostJsonFields().c_str(), kProbeCandidates, kProbeReps,
               WhatIfRequest().uncertainty_samples, cold_us, cold_one_us,
               grid_cost_ratio, static_cast<unsigned long long>(normal_draws),
               probe_groups, warm_us, warm_speedup, kWorkers,
               kQueriesPerTenant);
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::fprintf(out,
                 "%s\n    {\"tenants\": %d, \"qps\": %.1f, "
                 "\"hit_ratio\": %.4f}",
                 i == 0 ? "" : ",", sweep[i].tenants, sweep[i].qps,
                 sweep[i].hit_ratio);
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_serve_throughput.json\n");
  return 0;
}
