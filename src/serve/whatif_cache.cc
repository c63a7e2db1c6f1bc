#include "serve/whatif_cache.h"

#include <bit>

#include "common/random.h"
#include "obs/metrics.h"

namespace kea::serve {

namespace {

// Cache traffic depends on arrival interleaving, so every serve instrument
// is kTiming: never part of the deterministic exports.
obs::Counter* HitsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.cache_hits", "", obs::Kind::kTiming);
  return c;
}
obs::Counter* MissesCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.cache_misses", "", obs::Kind::kTiming);
  return c;
}
obs::Counter* EvictionsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.cache_evictions", "", obs::Kind::kTiming);
  return c;
}
obs::Counter* InvalidatedCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "serve.cache_invalidated", "", obs::Kind::kTiming);
  return c;
}

// Each word passes through a SplitMix64 finalizer before its FNV step. The
// multiply alone only carries upward, so two words' flipped sign bits would
// cancel, and values that share their low bits (powers of two, small
// integers) would collide. The finalizer reads only the word, so it overlaps
// with the chain of steps instead of lengthening it.
inline void HashU64(uint64_t v, uint64_t* h) {
  *h ^= MixSeed(v, 0);
  *h *= 0x100000001b3ULL;
}
inline void HashDouble(double v, uint64_t* h) {
  HashU64(std::bit_cast<uint64_t>(v), h);
}

}  // namespace

uint64_t ConfigHash(const WhatIfRequest& request) {
  uint64_t h = 0xcbf29ce484222325ULL;
  HashU64(static_cast<uint64_t>(static_cast<int64_t>(request.uncertainty_samples)), &h);
  HashU64(request.candidates.size(), &h);
  for (const auto& candidate : request.candidates) {
    HashU64(candidate.size(), &h);
    for (const auto& [key, containers] : candidate) {
      HashU64(static_cast<uint64_t>(static_cast<int64_t>(key.sc)), &h);
      HashU64(static_cast<uint64_t>(static_cast<int64_t>(key.sku)), &h);
      HashDouble(containers, &h);
    }
  }
  return h;
}

StatusOr<WhatIfResponse> EvaluateWhatIfRequest(const core::WhatIfEngine& engine,
                                               const WhatIfRequest& request) {
  if (request.candidates.empty()) {
    return Status::InvalidArgument("what-if request has no candidates");
  }
  WhatIfResponse response;
  KEA_ASSIGN_OR_RETURN(
      response.candidates,
      engine.EvaluateGrid(request.candidates, request.uncertainty_samples));
  for (size_t i = 1; i < response.candidates.size(); ++i) {
    if (response.candidates[i].cluster_latency_s <
        response.candidates[response.best_index].cluster_latency_s) {
      response.best_index = i;
    }
  }
  return response;
}

WhatIfResponsePtr MakeDegradedCopy(const WhatIfResponse& base, int rung,
                                   std::string reason) {
  auto copy = std::make_shared<WhatIfResponse>(base);
  copy->degraded = true;
  copy->degraded_rung = rung;
  copy->degraded_reason = std::move(reason);
  return copy;
}

WhatIfCache::WhatIfCache(size_t capacity) : capacity_(capacity) {}

WhatIfResponsePtr WhatIfCache::Lookup(const WhatIfCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    MissesCounter()->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  HitsCounter()->Increment();
  return it->second->second;
}

WhatIfResponsePtr WhatIfCache::LookupStale(const WhatIfCacheKey& key,
                                           int max_epoch_lag) {
  std::lock_guard<std::mutex> lock(mu_);
  // Linear scan: the cache is bounded and stale serving only runs under
  // brownout, where shedding has already cut the request rate.
  const WhatIfCacheKey* best = nullptr;
  WhatIfResponsePtr found;
  for (const auto& [entry_key, response] : lru_) {
    if (entry_key.tenant != key.tenant) continue;
    if (entry_key.config_hash != key.config_hash) continue;
    // Strictly older, within the lag window, on both epoch axes.
    if (entry_key.model_epoch > key.model_epoch ||
        entry_key.deploy_epoch > key.deploy_epoch) {
      continue;
    }
    if (entry_key.model_epoch == key.model_epoch &&
        entry_key.deploy_epoch == key.deploy_epoch) {
      continue;  // the fresh key; Lookup already missed it semantically
    }
    if (key.model_epoch - entry_key.model_epoch >
            static_cast<uint64_t>(max_epoch_lag) ||
        key.deploy_epoch - entry_key.deploy_epoch >
            static_cast<uint64_t>(max_epoch_lag)) {
      continue;
    }
    if (best == nullptr || *best < entry_key) {  // freshest eligible wins
      best = &entry_key;
      found = response;
    }
  }
  if (found != nullptr) ++stats_.stale_hits;
  return found;
}

void WhatIfCache::Insert(const WhatIfCacheKey& key, WhatIfResponsePtr response) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(response);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(response));
  index_[key] = lru_.begin();
  ++stats_.insertions;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    EvictionsCounter()->Increment();
  }
}

size_t WhatIfCache::InvalidateTenant(int tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first.tenant == tenant) {
      index_.erase(it->first);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidations += dropped;
  InvalidatedCounter()->Increment(dropped);
  return dropped;
}

size_t WhatIfCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

WhatIfCache::Stats WhatIfCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace kea::serve
