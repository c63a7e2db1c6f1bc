// Measures the kea::obs v2 sharded-instrument hot path under write
// contention on the workload the design actually serves: per-tenant labelled
// counters (kea::serve keeps one `requests` counter per tenant). The sharded
// design resolves the instrument ONCE — the Counter* is cached at tenant
// registration and every increment is a relaxed fetch_add on thread-local
// shard storage. The design it replaces, a mutexed registry, must resolve
// (name, labels) under the global registry lock on every increment; since
// the tenant varies at runtime, the label string is built per call. The
// third column is a single shared atomic — the no-registry lower bound that
// shows what cross-thread cache-line sharing costs on multicore hosts. The
// fourth is the unsharded alternative: one relaxed atomic per tenant
// counter, each on its own 64-byte line, resolved once like the sharded
// path, with the same i % 8 tenant pattern.
//
// The CI bar is sharded >= 10x the mutexed-registry baseline at 8
// threads; the run also proves conservation (aggregate over all tenant
// counters == threads * ops) so the speed never comes at the cost of
// dropped increments. Writes BENCH_obs_contention.json, with the host's
// hardware thread count as `nproc`: a thread count above it measures
// time-slicing, not contention.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/shard.h"

namespace {

using Clock = std::chrono::steady_clock;

// Fast modes run more ops per pass so each timed pass lasts long enough
// (hundreds of ms) that scheduler granularity on oversubscribed hosts
// cannot swing the measurement; the slow mutexed mode would take too long
// at that count, and at ~70ns/op it is already self-averaging.
constexpr uint64_t kShardedOpsPerThread = 4'000'000;
constexpr uint64_t kMutexedOpsPerThread = 1'000'000;
constexpr uint64_t kTenants = 8;

/// The design the sharded path replaces: a registry whose every increment
/// resolves the instrument by (name, labels) under the global registry lock
/// — the classic "one mutex around a map" metrics registry, keyed exactly
/// like obs::Registry (a (name, labels) pair). Labelled call sites pay key
/// construction per increment because the label value varies at runtime;
/// the sharded design instead caches one Counter* per label value.
struct MutexedRegistry {
  using Key = std::pair<std::string, std::string>;  // (name, labels)
  std::mutex mu;
  std::map<Key, uint64_t> counters;
  void Increment(const std::string& name, std::string labels) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = counters.find(Key(name, labels));
    if (it == counters.end()) {
      it = counters.emplace(Key(name, std::move(labels)), 0).first;
    }
    ++it->second;
  }
};

/// Runs `threads` workers calling `op(i)` `ops` times each; returns
/// million-ops/sec. A start barrier keeps thread creation out of the timing.
template <typename Op>
double RunContendedOnce(int threads, uint64_t ops, Op op) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < ops; ++i) op(i);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double total_ops =
      static_cast<double>(threads) * static_cast<double>(ops);
  return total_ops / elapsed_s / 1e6;
}

/// Best of two passes: the first also serves as warm-up (first-touch shard
/// chunk allocation, cold branch predictors), and taking the max filters
/// scheduler noise on oversubscribed hosts.
template <typename Op>
double RunContended(int threads, uint64_t ops, Op op) {
  const double a = RunContendedOnce(threads, ops, op);
  const double b = RunContendedOnce(threads, ops, op);
  return a > b ? a : b;
}

}  // namespace

int main() {
  using namespace kea;
  bench::PrintBanner(
      "kea::obs contention - sharded per-tenant counters vs mutexed registry",
      "sharded >= 10x mutexed at 8 threads; aggregate conserves every op");

  // The sharded design's answer to labelled instruments: resolve once at
  // tenant registration, cache the Counter*, increment through the cache —
  // exactly what TuningService::AddTenant does.
  obs::Counter* tenant_counters[kTenants];
  for (uint64_t t = 0; t < kTenants; ++t) {
    tenant_counters[t] = obs::Registry::Get().GetCounter(
        "bench.tenant_requests", "tenant=" + std::to_string(t),
        obs::Kind::kTiming);
  }

  struct Point {
    int threads;
    double sharded_mops;
    double mutexed_mops;
    double atomic_mops;
    double padded_mops;
    double speedup;
  };
  std::vector<Point> points;
  bool conserved = true;

  auto aggregate = [&] {
    uint64_t total = 0;
    for (uint64_t t = 0; t < kTenants; ++t) {
      total += tenant_counters[t]->value();
    }
    return total;
  };

  bench::PrintRow({"threads", "sharded Mops", "mutexed Mops", "atomic Mops",
                   "padded Mops", "speedup"},
                  14);
  for (int threads : {1, 2, 4, 8}) {
    const uint64_t before = aggregate();
    const double sharded_mops =
        RunContended(threads, kShardedOpsPerThread, [&](uint64_t i) {
          tenant_counters[i % kTenants]->Increment();
        });
    // Aggregation must conserve: fold every live shard and compare (the
    // measured point is the best of two passes, so two passes of ops ran).
    obs::ShardRegistry::Get().AdvanceEpoch();
    const uint64_t expect =
        before + 2 * static_cast<uint64_t>(threads) * kShardedOpsPerThread;
    if (aggregate() != expect) {
      conserved = false;
      std::fprintf(stderr, "CONSERVATION VIOLATED at %d threads: %llu != %llu\n",
                   threads, static_cast<unsigned long long>(aggregate()),
                   static_cast<unsigned long long>(expect));
    }

    MutexedRegistry mutexed;
    const double mutexed_mops =
        RunContended(threads, kMutexedOpsPerThread, [&](uint64_t i) {
          mutexed.Increment("bench.tenant_requests",
                            "tenant=" + std::to_string(i % kTenants));
        });

    std::atomic<uint64_t> shared{0};
    const double atomic_mops =
        RunContended(threads, kShardedOpsPerThread, [&](uint64_t) {
          shared.fetch_add(1, std::memory_order_relaxed);
        });

    struct alignas(64) PaddedCounter {
      std::atomic<uint64_t> value{0};
    };
    PaddedCounter padded[kTenants];
    const double padded_mops =
        RunContended(threads, kShardedOpsPerThread, [&](uint64_t i) {
          padded[i % kTenants].value.fetch_add(1, std::memory_order_relaxed);
        });

    const double speedup =
        mutexed_mops > 0.0 ? sharded_mops / mutexed_mops : 0.0;
    points.push_back({threads, sharded_mops, mutexed_mops, atomic_mops,
                      padded_mops, speedup});
    std::string speedup_label = bench::Fmt(speedup, 1);
    speedup_label += "x";
    bench::PrintRow({std::to_string(threads), bench::Fmt(sharded_mops, 1),
                     bench::Fmt(mutexed_mops, 1), bench::Fmt(atomic_mops, 1),
                     bench::Fmt(padded_mops, 1), speedup_label},
                    14);
  }

  const double speedup_at_8 = points.back().speedup;
  std::printf("\nconservation: %s; speedup at 8 threads: %.1fx\n",
              conserved ? "ok (aggregate == threads * ops at every point)"
                        : "VIOLATED",
              speedup_at_8);

  FILE* out = std::fopen("BENCH_obs_contention.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_obs_contention.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"nproc\": %u,\n"
               "  \"sharded_ops_per_thread\": %llu,\n"
               "  \"tenants\": %llu,\n"
               "  \"conserved\": %s,\n"
               "  \"speedup_at_8_threads\": %.2f,\n"
               "  \"sweep\": [",
               std::thread::hardware_concurrency(),
               static_cast<unsigned long long>(kShardedOpsPerThread),
               static_cast<unsigned long long>(kTenants),
               conserved ? "true" : "false", speedup_at_8);
  for (size_t i = 0; i < points.size(); ++i) {
    std::fprintf(out,
                 "%s\n    {\"threads\": %d, \"sharded_mops\": %.2f, "
                 "\"mutexed_mops\": %.2f, \"atomic_mops\": %.2f, "
                 "\"padded_mops\": %.2f, \"speedup\": %.2f}",
                 i == 0 ? "" : ",", points[i].threads, points[i].sharded_mops,
                 points[i].mutexed_mops, points[i].atomic_mops,
                 points[i].padded_mops, points[i].speedup);
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_obs_contention.json\n");
  return conserved ? 0 : 1;
}
