#ifndef KEA_SERVE_WHATIF_CACHE_H_
#define KEA_SERVE_WHATIF_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/whatif.h"
#include "sim/types.h"

namespace kea::serve {

/// One what-if query: a set of candidate per-group container configurations
/// to evaluate against the tenant's current models. The service coalesces
/// compatible requests into one sweep and memoizes the response.
struct WhatIfRequest {
  std::vector<std::map<sim::MachineGroupKey, double>> candidates;
  /// Monte Carlo samples for the per-candidate error bars (see
  /// WhatIfEngine::EvaluateGrid). Part of the cache key: requests that ask
  /// for different sampling depths are different queries. 0 disables; above
  /// WhatIfEngine::kMaxUncertaintySamples (65,536) the request is rejected
  /// with InvalidArgument.
  int uncertainty_samples = 256;
};

/// Per-candidate evaluation plus the index of the lowest-latency candidate
/// (ties break to the lowest index, keeping the payload deterministic).
/// Under brownout the service may answer with reduced fidelity; such
/// responses are explicitly marked so a client can tell a degraded answer
/// from a full-service one (DESIGN.md "Overload control").
struct WhatIfResponse {
  std::vector<core::WhatIfResult> candidates;
  size_t best_index = 0;
  /// True when this answer was produced under a brownout rung: fewer
  /// Monte-Carlo samples than requested, or served from a stale epoch.
  bool degraded = false;
  /// The brownout rung in force when the answer was produced (0 = none).
  int degraded_rung = 0;
  /// Human-readable degradation cause ("reduced sampling", "stale epoch").
  std::string degraded_reason;
};

/// Responses flow through the cache and tickets as immutable shared payloads:
/// a hit hands back the cached object itself instead of copying a potentially
/// large candidate sweep, which is what makes warm hits an order of magnitude
/// cheaper than recomputation (see bench_serve_throughput). Holders keep the
/// payload alive across eviction and invalidation.
using WhatIfResponsePtr = std::shared_ptr<const WhatIfResponse>;

/// Order-sensitive digest of the request's candidate grids; the config
/// component of the cache key. FNV-1a folding each 64-bit word in one step,
/// after a SplitMix64 finalizer spreads the word over all 64 bits; doubles
/// hash their IEEE-754 bit pattern. Computed on every request and never
/// persisted, so its bits may change freely.
uint64_t ConfigHash(const WhatIfRequest& request);

/// Evaluates every candidate against `engine` in one WhatIfEngine::EvaluateGrid
/// call, so the request's candidates share each group's uncertainty draws.
/// This is the single evaluation path shared by the service's cold path and
/// by solo baselines, so a cache hit is bit-identical to recomputation by
/// construction: the cached payload was produced by this exact function.
StatusOr<WhatIfResponse> EvaluateWhatIfRequest(const core::WhatIfEngine& engine,
                                               const WhatIfRequest& request);

/// Copies `base` and stamps the degradation markers. Cached payloads are
/// immutable and shared, so a degraded serving is always a fresh allocation,
/// pointer-distinct from the entry it was derived from.
WhatIfResponsePtr MakeDegradedCopy(const WhatIfResponse& base, int rung,
                                   std::string reason);

/// Full cache key: (tenant, model version, applied-config version, model
/// digest, request digest). The epochs make invalidation exact — any refit,
/// deployment, or health trip bumps one of them — and model_hash, a digest
/// of everything EvaluateGrid reads from the models, guards against an
/// epoch counter that stayed put while the models changed. The answer is a
/// pure function of (models, request), so nothing else belongs in the key.
struct WhatIfCacheKey {
  int tenant = 0;
  uint64_t model_epoch = 0;
  uint64_t deploy_epoch = 0;
  uint64_t model_hash = 0;
  uint64_t config_hash = 0;

  bool operator==(const WhatIfCacheKey&) const = default;
  bool operator<(const WhatIfCacheKey& o) const {
    return std::tie(tenant, model_epoch, deploy_epoch, model_hash,
                    config_hash) <
           std::tie(o.tenant, o.model_epoch, o.deploy_epoch, o.model_hash,
                    o.config_hash);
  }
};

/// Bounded, thread-safe LRU cache of what-if responses. Entries are shared
/// immutable snapshots — a hit returns the cached payload without copying it,
/// and the snapshot stays valid after eviction for as long as someone holds
/// the pointer. Explicit invalidation is per tenant (InvalidateTenant);
/// implicit invalidation is the epoch fields of the key, which simply stop
/// matching.
class WhatIfCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stale_hits = 0;  ///< LookupStale matches (brownout rung >= 2).
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  explicit WhatIfCache(size_t capacity);

  /// Returns the cached response (refreshing its LRU position), or nullptr
  /// on miss. The returned payload is never copied and never mutated.
  WhatIfResponsePtr Lookup(const WhatIfCacheKey& key);

  /// Brownout fallback (rung >= 2): on a fresh-epoch miss, returns the best
  /// entry for the same (tenant, config_hash) whose epochs lag `key`'s by at
  /// most `max_epoch_lag` — the answer the service gave for this exact query
  /// one refit/deploy ago. model_hash is allowed to differ (it legitimately
  /// moved with the epoch). Returns the cached
  /// payload itself; the service marks degradation on a pointer-distinct
  /// copy (MakeDegradedCopy), never on the cached object. InvalidateTenant
  /// drops these entries like any other — once a tenant is invalidated no
  /// stale answer survives to be served.
  WhatIfResponsePtr LookupStale(const WhatIfCacheKey& key, int max_epoch_lag);

  /// Inserts (or refreshes) the entry, evicting the least-recently-used
  /// entry when over capacity. `response` must not be null.
  void Insert(const WhatIfCacheKey& key, WhatIfResponsePtr response);

  /// Drops every entry belonging to `tenant`; returns how many were dropped.
  /// Called by the service after any request that may have mutated the
  /// tenant's models or fleet state.
  size_t InvalidateTenant(int tenant);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  Stats stats() const;

 private:
  using LruList = std::list<std::pair<WhatIfCacheKey, WhatIfResponsePtr>>;

  const size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recent.
  std::map<WhatIfCacheKey, LruList::iterator> index_;
  Stats stats_;
};

}  // namespace kea::serve

#endif  // KEA_SERVE_WHATIF_CACHE_H_
