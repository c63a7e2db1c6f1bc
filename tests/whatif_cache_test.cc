#include "serve/whatif_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/session.h"
#include "obs/metrics.h"
#include "reference_whatif.h"
#include "serve/service.h"

namespace kea::serve {
namespace {

// ---------------------------------------------------------------------------
// Cache properties

WhatIfCacheKey MakeKey(int tenant, uint64_t salt = 0) {
  WhatIfCacheKey key;
  key.tenant = tenant;
  key.model_epoch = 3;
  key.deploy_epoch = 2;
  key.model_hash = 0xabcdef0123456789ULL + salt;
  key.config_hash = 44 + salt;
  return key;
}

WhatIfResponse MakeResponse(double seed) {
  WhatIfResponse r;
  core::WhatIfResult result;
  core::GroupWhatIf gw;
  // Values with non-terminating binary expansions: any rounding or
  // re-computation in the cache path would change the bit pattern.
  gw.containers = seed + 0.1 + 0.2;
  gw.utilization = seed / 3.0;
  gw.tasks_per_hour = seed * (1.0 / 7.0);
  gw.latency_s = seed + 1e-300;  // subnormal-adjacent tail
  result.groups[sim::MachineGroupKey{0, 1}] = gw;
  result.cluster_latency_s = gw.latency_s;
  r.candidates.push_back(result);
  r.best_index = 0;
  return r;
}

WhatIfResponsePtr MakeResponsePtr(double seed) {
  return std::make_shared<const WhatIfResponse>(MakeResponse(seed));
}

void ExpectBitIdentical(const WhatIfResponse& a, const WhatIfResponse& b) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  EXPECT_EQ(a.best_index, b.best_index);
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.candidates[i].cluster_latency_s),
              std::bit_cast<uint64_t>(b.candidates[i].cluster_latency_s));
    ASSERT_EQ(a.candidates[i].groups.size(), b.candidates[i].groups.size());
    auto bi = b.candidates[i].groups.begin();
    for (const auto& [key, gw] : a.candidates[i].groups) {
      EXPECT_EQ(key, bi->first);
      EXPECT_EQ(std::bit_cast<uint64_t>(gw.containers),
                std::bit_cast<uint64_t>(bi->second.containers));
      EXPECT_EQ(std::bit_cast<uint64_t>(gw.utilization),
                std::bit_cast<uint64_t>(bi->second.utilization));
      EXPECT_EQ(std::bit_cast<uint64_t>(gw.tasks_per_hour),
                std::bit_cast<uint64_t>(bi->second.tasks_per_hour));
      EXPECT_EQ(std::bit_cast<uint64_t>(gw.latency_s),
                std::bit_cast<uint64_t>(bi->second.latency_s));
      ++bi;
    }
  }
}

TEST(WhatIfCacheTest, HitReturnsBitIdenticalPayload) {
  WhatIfCache cache(8);
  const WhatIfCacheKey key = MakeKey(0);
  const WhatIfResponsePtr cold = MakeResponsePtr(0.7);
  cache.Insert(key, cold);
  WhatIfResponsePtr hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  ExpectBitIdentical(*cold, *hit);
  // Zero-copy: a hit is the inserted object itself, not a copy of it.
  EXPECT_EQ(hit.get(), cold.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(WhatIfCacheTest, DistinctKeyFieldsNeverAlias) {
  WhatIfCache cache(32);
  const WhatIfCacheKey base = MakeKey(0);
  cache.Insert(base, MakeResponsePtr(1.0));

  std::vector<WhatIfCacheKey> variants(5, base);
  variants[0].tenant = 1;
  variants[1].model_epoch += 1;
  variants[2].deploy_epoch += 1;
  variants[3].model_hash += 1;
  variants[4].config_hash += 1;
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_EQ(cache.Lookup(variants[i]), nullptr) << "variant " << i;
  }
  // The original is untouched.
  EXPECT_NE(cache.Lookup(base), nullptr);
}

TEST(WhatIfCacheTest, BoundedLruEvictionWithRefresh) {
  WhatIfCache cache(2);
  const WhatIfCacheKey k1 = MakeKey(0, 1), k2 = MakeKey(0, 2), k3 = MakeKey(0, 3);
  cache.Insert(k1, MakeResponsePtr(1.0));
  cache.Insert(k2, MakeResponsePtr(2.0));
  EXPECT_EQ(cache.size(), 2u);
  // Refresh k1 so k2 is now least recently used.
  EXPECT_NE(cache.Lookup(k1), nullptr);
  cache.Insert(k3, MakeResponsePtr(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup(k1), nullptr);
  EXPECT_EQ(cache.Lookup(k2), nullptr);
  WhatIfResponsePtr hit3 = cache.Lookup(k3);
  ASSERT_NE(hit3, nullptr);
  // Eviction never corrupts surviving payloads.
  ExpectBitIdentical(MakeResponse(3.0), *hit3);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().insertions, 3u);
}

TEST(WhatIfCacheTest, InvalidateTenantDropsOnlyThatTenant) {
  WhatIfCache cache(8);
  cache.Insert(MakeKey(0, 1), MakeResponsePtr(1.0));
  cache.Insert(MakeKey(0, 2), MakeResponsePtr(2.0));
  cache.Insert(MakeKey(1, 1), MakeResponsePtr(3.0));
  EXPECT_EQ(cache.InvalidateTenant(0), 2u);
  EXPECT_EQ(cache.Lookup(MakeKey(0, 1)), nullptr);
  EXPECT_EQ(cache.Lookup(MakeKey(0, 2)), nullptr);
  EXPECT_NE(cache.Lookup(MakeKey(1, 1)), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.InvalidateTenant(7), 0u);
}

// Returns MakeKey(tenant) with the epoch axes overridden: the shape of the
// stale-epoch queries the brownout ladder's rung 2 issues.
WhatIfCacheKey EpochKey(int tenant, uint64_t model_epoch,
                        uint64_t deploy_epoch) {
  WhatIfCacheKey key = MakeKey(tenant);
  key.model_epoch = model_epoch;
  key.deploy_epoch = deploy_epoch;
  return key;
}

TEST(WhatIfCacheTest, LookupStaleServesOnlyStrictlyOlderEpochsWithinLag) {
  WhatIfCache cache(8);
  // The tenant's answer for this exact query, one and three refits ago.
  cache.Insert(EpochKey(0, 2, 2), MakeResponsePtr(1.0));
  cache.Insert(EpochKey(0, 4, 4), MakeResponsePtr(2.0));

  // The exact-epoch entry is NOT a stale hit: Lookup's job, not LookupStale's.
  EXPECT_EQ(cache.LookupStale(EpochKey(0, 4, 4), 1), nullptr);
  // Newer entries never serve an older query.
  EXPECT_EQ(cache.LookupStale(EpochKey(0, 1, 1), 1), nullptr);
  // Beyond the lag window: refusing is better than answering from antiquity.
  EXPECT_EQ(cache.LookupStale(EpochKey(0, 6, 6), 1), nullptr);
  EXPECT_EQ(cache.stats().stale_hits, 0u);

  // Within the window: the epoch-4 answer serves an epoch-5 query, and it is
  // the cached payload itself (marking happens on a copy, never in place).
  const WhatIfResponsePtr stale = cache.LookupStale(EpochKey(0, 5, 5), 1);
  ASSERT_NE(stale, nullptr);
  ExpectBitIdentical(MakeResponse(2.0), *stale);
  EXPECT_FALSE(stale->degraded);
  EXPECT_EQ(cache.stats().stale_hits, 1u);

  // Both axes must lag: a model refit without a redeploy still disqualifies
  // an entry whose deploy epoch is ahead of the query's.
  EXPECT_EQ(cache.LookupStale(EpochKey(0, 5, 3), 1), nullptr);
  // Another tenant's identical query never crosses the isolation boundary.
  EXPECT_EQ(cache.LookupStale(EpochKey(1, 5, 5), 1), nullptr);
}

TEST(WhatIfCacheTest, LookupStalePrefersTheFreshestEligibleEntry) {
  WhatIfCache cache(8);
  cache.Insert(EpochKey(0, 3, 3), MakeResponsePtr(3.0));
  cache.Insert(EpochKey(0, 4, 4), MakeResponsePtr(4.0));
  const WhatIfResponsePtr stale = cache.LookupStale(EpochKey(0, 5, 5), 2);
  ASSERT_NE(stale, nullptr);
  ExpectBitIdentical(MakeResponse(4.0), *stale);
}

TEST(WhatIfCacheTest, MakeDegradedCopyIsPointerDistinctAndMarked) {
  const WhatIfResponsePtr cached = MakeResponsePtr(0.7);
  const WhatIfResponsePtr degraded = MakeDegradedCopy(*cached, 2, "stale epoch");
  ASSERT_NE(degraded, nullptr);
  // A fresh allocation: the shared cached payload was not written through.
  EXPECT_NE(degraded.get(), cached.get());
  EXPECT_FALSE(cached->degraded);
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->degraded_rung, 2);
  EXPECT_EQ(degraded->degraded_reason, "stale epoch");
  // The payload content itself is the cached answer, bit for bit.
  ExpectBitIdentical(*cached, *degraded);
}

TEST(WhatIfCacheTest, NoStaleAnswerSurvivesInvalidateTenant) {
  WhatIfCache cache(8);
  cache.Insert(EpochKey(0, 2, 2), MakeResponsePtr(1.0));
  ASSERT_NE(cache.LookupStale(EpochKey(0, 3, 3), 1), nullptr);
  cache.InvalidateTenant(0);
  EXPECT_EQ(cache.LookupStale(EpochKey(0, 3, 3), 1), nullptr)
      << "an invalidated tenant must never be served a stale answer";
}

TEST(ConfigHashTest, SensitiveToCandidatesAndValues) {
  WhatIfRequest a, b;
  a.candidates.push_back({{sim::MachineGroupKey{0, 0}, 8.0}});
  b.candidates.push_back({{sim::MachineGroupKey{0, 0}, 8.0}});
  EXPECT_EQ(ConfigHash(a), ConfigHash(b));
  b.candidates[0][sim::MachineGroupKey{0, 0}] = 8.0 + 1e-12;
  EXPECT_NE(ConfigHash(a), ConfigHash(b));
  WhatIfRequest c = a;
  c.candidates.push_back(c.candidates[0]);
  EXPECT_NE(ConfigHash(a), ConfigHash(c));
  WhatIfRequest d = a;
  d.candidates[0][sim::MachineGroupKey{0, 1}] = 8.0;
  EXPECT_NE(ConfigHash(a), ConfigHash(d));
  // Sampling depth changes the payload (error bars), so it must change the
  // key too.
  WhatIfRequest e = a;
  e.uncertainty_samples = a.uncertainty_samples + 1;
  EXPECT_NE(ConfigHash(a), ConfigHash(e));
}

// A hash collision returns another request's payload as a hit, so every bit
// of every word must reach the whole hash. A fold that only multiplies
// carries upward: two flipped sign bits cancel, and values that share their
// low bits (powers of two, small integers) land in a few thousand hashes.
TEST(ConfigHashTest, TwoGroupGridsNeverCollide) {
  auto request = [](double a, double b) {
    WhatIfRequest r;
    r.candidates.push_back(
        {{sim::MachineGroupKey{0, 0}, a}, {sim::MachineGroupKey{1, 0}, b}});
    return r;
  };
  EXPECT_NE(ConfigHash(request(8.0, 16.0)), ConfigHash(request(-8.0, -16.0)));
  std::set<double> values;
  for (int e = -16; e <= 16; ++e) {
    values.insert(std::ldexp(1.0, e));
    values.insert(-std::ldexp(1.0, e));
  }
  for (int i = 0; i < 128; ++i) values.insert(i);
  std::set<uint64_t> hashes;
  for (double a : values) {
    for (double b : values) hashes.insert(ConfigHash(request(a, b)));
  }
  EXPECT_EQ(hashes.size(), values.size() * values.size());
}

// The error bars are part of the cached payload, so they must be a pure
// function of (models, candidate): re-evaluating the same candidate gives
// bit-identical stderr values, and disabling sampling zeroes them.
TEST(WhatIfUncertaintyTest, ErrorBarsAreDeterministicAndOptional) {
  apps::KeaSession::Config config;
  config.machines = 150;
  auto session = apps::KeaSession::Create(config);
  ASSERT_TRUE(session.ok());
  apps::KeaSession& s = *session.value();
  ASSERT_TRUE(s.Simulate(sim::kHoursPerWeek).ok());
  core::WhatIfEngine::Options fit_options;
  fit_options.num_threads = 1;
  ASSERT_TRUE(s.FitWhatIfEngine(fit_options, sim::kHoursPerWeek).ok());
  const core::WhatIfEngine* engine = s.whatif_engine();
  ASSERT_NE(engine, nullptr);

  std::map<sim::MachineGroupKey, double> candidate;
  for (const auto& [key, gm] : engine->models()) {
    candidate[key] = gm.current_containers + 1.0;
  }

  auto a = engine->EvaluateWhatIf(candidate, 64);
  auto b = engine->EvaluateWhatIf(candidate, 64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a.value().cluster_latency_stderr_s, 0.0);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.value().cluster_latency_stderr_s),
            std::bit_cast<uint64_t>(b.value().cluster_latency_stderr_s));
  for (const auto& [key, gw] : a.value().groups) {
    const auto& other = b.value().groups.at(key);
    EXPECT_GT(gw.latency_stderr_s, 0.0) << sim::GroupLabel(key);
    EXPECT_EQ(std::bit_cast<uint64_t>(gw.latency_stderr_s),
              std::bit_cast<uint64_t>(other.latency_stderr_s));
  }

  // Point predictions are independent of the sampling depth.
  auto off = engine->EvaluateWhatIf(candidate, 0);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.value().cluster_latency_stderr_s, 0.0);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.value().cluster_latency_s),
            std::bit_cast<uint64_t>(off.value().cluster_latency_s));
}

// A week of telemetry on 150 machines, fitted single-threaded: the engine the
// common-random-numbers tests below evaluate against.
std::unique_ptr<apps::KeaSession> FittedSession() {
  apps::KeaSession::Config config;
  config.machines = 150;
  auto session = apps::KeaSession::Create(config);
  if (!session.ok()) return nullptr;
  std::unique_ptr<apps::KeaSession> s = std::move(session).value();
  core::WhatIfEngine::Options fit_options;
  fit_options.num_threads = 1;
  if (!s->Simulate(sim::kHoursPerWeek).ok() ||
      !s->FitWhatIfEngine(fit_options, sim::kHoursPerWeek).ok()) {
    return nullptr;
  }
  return s;
}

using Allocation = std::map<sim::MachineGroupKey, double>;

// `n` candidates that scale every group's operating point by 0.8 .. 1.175,
// the shape of a serving request's grid.
std::vector<Allocation> ScaledGrid(const core::WhatIfEngine& engine, int n) {
  std::vector<Allocation> grid(n);
  for (int c = 0; c < n; ++c) {
    for (const auto& [key, gm] : engine.models()) {
      grid[c][key] = gm.current_containers * (0.8 + 0.025 * c);
    }
  }
  return grid;
}

void ExpectSameBits(const core::WhatIfResult& a, const core::WhatIfResult& b) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a.cluster_latency_s),
            std::bit_cast<uint64_t>(b.cluster_latency_s));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.cluster_latency_stderr_s),
            std::bit_cast<uint64_t>(b.cluster_latency_stderr_s));
  ASSERT_EQ(a.groups.size(), b.groups.size());
  auto bi = b.groups.begin();
  for (const auto& [key, gw] : a.groups) {
    EXPECT_EQ(key, bi->first);
    for (auto field : {&core::GroupWhatIf::containers,
                       &core::GroupWhatIf::utilization,
                       &core::GroupWhatIf::tasks_per_hour,
                       &core::GroupWhatIf::latency_s,
                       &core::GroupWhatIf::latency_stderr_s}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(gw.*field),
                std::bit_cast<uint64_t>(bi->second.*field))
          << sim::GroupLabel(key);
    }
    ++bi;
  }
}

// Common random numbers: a group's noise is seeded by its key alone, so every
// candidate of a grid perturbs a group with the same draws. A group's latency
// spread, sqrt(f_slope^2 * g_rmse^2 + f_rmse^2), does not depend on the
// candidate, so its estimate must agree across the grid up to rounding.
TEST(WhatIfUncertaintyTest, GroupErrorBarsAgreeAcrossAGrid) {
  std::unique_ptr<apps::KeaSession> s = FittedSession();
  ASSERT_NE(s, nullptr);
  const core::WhatIfEngine& engine = *s->whatif_engine();
  auto results = engine.EvaluateGrid(ScaledGrid(engine, 16), 256);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 16u);
  for (const auto& [key, first] : results->front().groups) {
    ASSERT_GT(first.latency_stderr_s, 0.0) << sim::GroupLabel(key);
    for (const core::WhatIfResult& r : *results) {
      const double stderr_s = r.groups.at(key).latency_stderr_s;
      EXPECT_LE(std::abs(stderr_s - first.latency_stderr_s),
                1e-12 * first.latency_stderr_s)
          << sim::GroupLabel(key);
    }
  }
}

// An answer is a pure function of (models, candidate, samples): a grid call
// returns exactly the bits of one-candidate calls, whichever groups the other
// candidates name and however often a candidate repeats.
TEST(WhatIfUncertaintyTest, GridAnswersEqualOneCandidateCalls) {
  std::unique_ptr<apps::KeaSession> s = FittedSession();
  ASSERT_NE(s, nullptr);
  const core::WhatIfEngine& engine = *s->whatif_engine();
  const std::vector<Allocation> scaled = ScaledGrid(engine, 4);
  // Different group subsets: everything, every other group, the rest, and a
  // single group.
  std::vector<Allocation> subsets(4);
  size_t i = 0;
  for (const auto& [key, m] : scaled[1]) {
    subsets[0][key] = m;
    subsets[1 + i % 2][key] = scaled[2].at(key);
    if (i == 0) subsets[3][key] = scaled[3].at(key);
    ++i;
  }
  ASSERT_FALSE(subsets[2].empty());
  const std::vector<Allocation> repeated = {scaled[0], scaled[3], scaled[0]};
  for (const std::vector<Allocation>& grid : {subsets, repeated}) {
    auto results = engine.EvaluateGrid(grid, 256);
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_EQ(results->size(), grid.size());
    for (size_t c = 0; c < grid.size(); ++c) {
      auto solo = engine.EvaluateWhatIf(grid[c], 256);
      ASSERT_TRUE(solo.ok()) << solo.status();
      ExpectSameBits((*results)[c], solo.value());
    }
  }
}

// The shared draws keep each candidate's marginal distribution: at 65,536
// samples every group's latency stderr lies within 4 standard errors of the
// analytic value, and the 256-sample cluster stderr lies within 4 standard
// errors of the 65,536-sample one. The standard error of a sample standard
// deviation over n draws is about sd / sqrt(2n).
TEST(WhatIfUncertaintyTest, ErrorBarsMatchTheirAnalyticValue) {
  std::unique_ptr<apps::KeaSession> s = FittedSession();
  ASSERT_NE(s, nullptr);
  const core::WhatIfEngine& engine = *s->whatif_engine();
  const Allocation candidate = ScaledGrid(engine, 1).front();
  constexpr int kDeep = core::WhatIfEngine::kMaxUncertaintySamples;
  auto deep = engine.EvaluateWhatIf(candidate, kDeep);
  auto shallow = engine.EvaluateWhatIf(candidate, 256);
  ASSERT_TRUE(deep.ok()) << deep.status();
  ASSERT_TRUE(shallow.ok()) << shallow.status();
  const double deep_tolerance = 4.0 / std::sqrt(2.0 * kDeep);
  for (const auto& [key, gm] : engine.models()) {
    const double slope = gm.f.coefficients()[0];
    const double analytic =
        std::sqrt(slope * slope * gm.g_fit.rmse * gm.g_fit.rmse +
                  gm.f_fit.rmse * gm.f_fit.rmse);
    ASSERT_GT(analytic, 0.0) << sim::GroupLabel(key);
    EXPECT_NEAR(deep->groups.at(key).latency_stderr_s / analytic, 1.0,
                deep_tolerance)
        << sim::GroupLabel(key);
  }
  ASSERT_GT(deep->cluster_latency_stderr_s, 0.0);
  EXPECT_NEAR(shallow->cluster_latency_stderr_s / deep->cluster_latency_stderr_s,
              1.0, 4.0 / std::sqrt(2.0 * 256));
}

// The sample count arrives from outside the program. Above the bound it is
// refused before anything is allocated, by the engine and at submission.
TEST(WhatIfUncertaintyTest, SampleCountIsBounded) {
  constexpr int kMax = core::WhatIfEngine::kMaxUncertaintySamples;
  ASSERT_EQ(kMax, 65536);
  std::unique_ptr<apps::KeaSession> s = FittedSession();
  ASSERT_NE(s, nullptr);
  const std::vector<Allocation> grid = ScaledGrid(*s->whatif_engine(), 1);
  auto over = s->whatif_engine()->EvaluateGrid(grid, kMax + 1);
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(s->whatif_engine()->EvaluateGrid(grid, kMax).ok());

  TuningService::Options options;
  options.num_threads = 0;
  TuningService service(options);
  auto id = service.AddTenant("bounded", [] {
    apps::KeaSession::Config config;
    config.machines = 150;
    return config;
  }());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.SubmitSimulate(id.value(), sim::kHoursPerWeek).ok());
  service.RunPending();
  FitRequest fit;
  fit.whatif.num_threads = 1;
  ASSERT_TRUE(service.SubmitFit(id.value(), fit).ok());
  service.RunPending();
  WhatIfRequest request;
  request.candidates = grid;
  request.uncertainty_samples = kMax + 1;
  auto refused = service.SubmitWhatIf(id.value(), request);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  request.uncertainty_samples = kMax;
  auto accepted = service.SubmitWhatIf(id.value(), request);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  service.RunPending();
  auto answer = accepted.value().Wait();
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_GT(answer.value()->candidates.front().cluster_latency_stderr_s, 0.0);
}

// ---------------------------------------------------------------------------
// The process-wide draw table and the interleaved error-bar sums. Each test
// builds its engines on group keys (sc >= 1000) that no other test in this
// binary draws, so the table starts cold for them whatever ran before.

// `groups` synthetic groups with keys {sc_base + i, i % 3}; `tilt` moves
// every slope, so two engines on the same keys answer differently.
core::WhatIfEngine SyntheticEngine(int sc_base, int groups, double tilt = 0.0) {
  std::map<sim::MachineGroupKey, core::GroupModels> models;
  for (int i = 0; i < groups; ++i) {
    core::GroupModels gm;
    gm.group = sim::MachineGroupKey{sc_base + i, i % 3};
    gm.num_machines = 10 + 7 * i;
    gm.g = ml::LinearModel(0.05 + 0.01 * i, {0.02 + 0.001 * i + tilt});
    gm.h = ml::LinearModel(50.0 + i, {100.0 - 3.0 * i + 10.0 * tilt});
    gm.f = ml::LinearModel(10.0 + 0.5 * i, {30.0 + i + 5.0 * tilt});
    gm.g_fit.rmse = 0.03 + 0.002 * i;
    gm.h_fit.rmse = 5.0 + 0.3 * i;
    gm.f_fit.rmse = 2.0 + 0.1 * i;
    gm.current_containers = 20.0 + i;
    models[gm.group] = std::move(gm);
  }
  return core::WhatIfEngine::FromModels(std::move(models));
}

// `n` candidates over the engine's groups. Candidate c names every group
// when c is even and only the first c % groups + 1 of them when odd, so a
// candidate's group count fills the interleave width, leaves a partial
// batch, or both.
std::vector<Allocation> MixedGrid(const core::WhatIfEngine& engine, int n) {
  std::vector<Allocation> grid(n);
  const int groups = static_cast<int>(engine.models().size());
  for (int c = 0; c < n; ++c) {
    int named = 0;
    for (const auto& [key, gm] : engine.models()) {
      if (c % 2 == 1 && named > c % groups) break;
      grid[c][key] = gm.current_containers * (0.7 + 0.037 * c);
      ++named;
    }
  }
  return grid;
}

void ExpectReferenceBits(const core::WhatIfEngine& engine,
                         const std::vector<Allocation>& grid, int samples) {
  SCOPED_TRACE("samples " + std::to_string(samples) + ", candidates " +
               std::to_string(grid.size()));
  auto got = engine.EvaluateGrid(grid, samples);
  auto want = core::ReferenceEvaluateGrid(engine, grid, samples);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_EQ(got->size(), want->size());
  for (size_t c = 0; c < got->size(); ++c) {
    ExpectSameBits((*got)[c], (*want)[c]);
  }
}

uint64_t NormalDraws() {
  return obs::Registry::Get().CounterValue("whatif.normal_draws");
}

// Sample counts that grow, shrink and grow again: each answer equals the
// reference that draws afresh per call, and the table draws each key's
// stream once, only as far as the largest count asked. Past what the table
// keeps, every call draws the tail again.
TEST(WhatIfDrawTableTest, EveryAnswerMatchesTheDrawPerCallReference) {
  constexpr int kGroups = 5;  // not a multiple of the interleave width
  constexpr uint64_t kKept = core::WhatIfEngine::kKeptUncertaintySamples;
  const core::WhatIfEngine engine = SyntheticEngine(1000, kGroups);
  uint64_t kept = 0;  // samples the table holds per key so far
  for (int samples : {32, 256, 64, 1, 0, 4096, 4500}) {
    for (int candidates : {1, 3, 16}) {
      const uint64_t before = NormalDraws();
      ExpectReferenceBits(engine, MixedGrid(engine, candidates), samples);
      const uint64_t n = static_cast<uint64_t>(samples);
      const uint64_t table = std::min(n, kKept);
      const uint64_t grown = table > kept ? table - kept : 0;
      const uint64_t tail = n > kKept ? n - kKept : 0;
      EXPECT_EQ(NormalDraws() - before, 3 * (grown + tail) * kGroups)
          << "samples " << samples << ", candidates " << candidates;
      kept += grown;
    }
  }
}

// Engines with different models on the same group keys share the keys'
// draws, and neither's answers depend on what the other asked.
TEST(WhatIfDrawTableTest, EnginesSharingGroupKeysMatchTheReference) {
  const core::WhatIfEngine a = SyntheticEngine(1100, 6);
  const core::WhatIfEngine b = SyntheticEngine(1100, 6, 0.01);
  const std::vector<Allocation> grid_a = MixedGrid(a, 3);
  const std::vector<Allocation> grid_b = MixedGrid(b, 16);
  ExpectReferenceBits(a, grid_a, 64);
  ExpectReferenceBits(b, grid_b, 128);
  ExpectReferenceBits(a, grid_a, 128);
  ExpectReferenceBits(b, grid_b, 64);
  ExpectReferenceBits(a, grid_a, 100);
  auto from_a = a.EvaluateGrid(grid_a, 128);
  auto from_b = b.EvaluateGrid(grid_a, 128);
  ASSERT_TRUE(from_a.ok());
  ASSERT_TRUE(from_b.ok());
  EXPECT_NE(std::bit_cast<uint64_t>(from_a->front().cluster_latency_s),
            std::bit_cast<uint64_t>(from_b->front().cluster_latency_s));
}

// Eight threads start together on keys the table has never drawn and ask
// mixed sample counts, one past what the table keeps, so they race to extend
// and publish the same streams. Every answer still equals the reference.
TEST(WhatIfDrawTableTest, ConcurrentColdExtensionsMatchTheReference) {
  constexpr int kThreads = 8;
  const core::WhatIfEngine a = SyntheticEngine(1200, 7);
  const core::WhatIfEngine b = SyntheticEngine(1200, 5, 0.02);
  const std::vector<int> counts = {16, 300, 1, 64, 1024, 0, 512, 4200};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (size_t k = 0; k < counts.size(); ++k) {
        const core::WhatIfEngine& engine = (t + k) % 2 == 0 ? a : b;
        ExpectReferenceBits(engine, MixedGrid(engine, 1 + (t + 3 * k) % 5),
                            counts[(t + k) % counts.size()]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// The key guards the cache with ModelHash alone, so it must see every model
// field EvaluateGrid reads: here each fit RMSE, which scales the error bars.
TEST(ModelHashTest, CoversTheFitRmses) {
  const core::WhatIfEngine base = SyntheticEngine(1300, 3);
  EXPECT_EQ(base.ModelHash(), SyntheticEngine(1300, 3).ModelHash());
  for (auto fit : {&core::GroupModels::g_fit, &core::GroupModels::h_fit,
                   &core::GroupModels::f_fit}) {
    std::map<sim::MachineGroupKey, core::GroupModels> models = base.models();
    (models.begin()->second.*fit).rmse *= 1.5;
    const core::WhatIfEngine moved =
        core::WhatIfEngine::FromModels(std::move(models));
    EXPECT_NE(moved.ModelHash(), base.ModelHash());
  }
}

// ---------------------------------------------------------------------------
// Session epochs: the invalidation signals the cache key is built from.

TEST(SessionEpochTest, FitRoundsRollbackAndResumeAdvanceEpochs) {
  apps::KeaSession::Config config;
  config.machines = 300;
  auto session = apps::KeaSession::Create(config);
  ASSERT_TRUE(session.ok());
  apps::KeaSession& s = *session.value();
  EXPECT_EQ(s.model_epoch(), 0u);
  EXPECT_EQ(s.deploy_epoch(), 0u);

  ASSERT_TRUE(s.Simulate(sim::kHoursPerWeek).ok());
  EXPECT_EQ(s.model_epoch(), 0u) << "clean telemetry must not bump epochs";

  core::WhatIfEngine::Options fit_options;
  fit_options.num_threads = 1;
  ASSERT_TRUE(s.FitWhatIfEngine(fit_options, sim::kHoursPerWeek).ok());
  EXPECT_EQ(s.model_epoch(), 1u);
  EXPECT_EQ(s.deploy_epoch(), 0u);
  ASSERT_NE(s.whatif_engine(), nullptr);
  EXPECT_EQ(s.fit_window().first, 0);
  EXPECT_EQ(s.fit_window().second, sim::kHoursPerWeek);

  auto round = s.RunYarnTuningRound(apps::YarnConfigTuner::Options(),
                                    sim::kHoursPerWeek, 1);
  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_FALSE(round->applied.empty());
  EXPECT_EQ(s.model_epoch(), 2u);
  EXPECT_EQ(s.deploy_epoch(), 1u);

  ASSERT_TRUE(s.RollbackLastDeployment().ok());
  EXPECT_EQ(s.deploy_epoch(), 2u);

  apps::KeaSession::GuardedRoundOptions guarded;
  guarded.lookback_hours = sim::kHoursPerWeek;
  guarded.rollout.wave_fractions = {0.5, 1.0};
  guarded.rollout.observe_hours_per_wave = 6;
  guarded.rollout.baseline_hours = 12;
  auto gr = s.RunGuardedTuningRound(guarded);
  ASSERT_TRUE(gr.ok()) << gr.status();
  EXPECT_EQ(s.model_epoch(), 3u);
  if (gr->rollout.outcome != core::GuardrailedRollout::Outcome::kNoChange) {
    EXPECT_EQ(s.deploy_epoch(), 3u);
  } else {
    EXPECT_EQ(s.deploy_epoch(), 2u);
  }
}

TEST(SessionEpochTest, EpochsSurviveCheckpointResume) {
  const std::string dir =
      ::testing::TempDir() + "/whatif_cache_epoch_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  apps::KeaSession::Config config;
  config.machines = 150;
  auto session = apps::KeaSession::Create(config);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->EnableDurability(dir).ok());
  ASSERT_TRUE(session.value()->Simulate(sim::kHoursPerWeek).ok());
  core::WhatIfEngine::Options fit_options;
  fit_options.num_threads = 1;
  ASSERT_TRUE(
      session.value()->FitWhatIfEngine(fit_options, sim::kHoursPerWeek).ok());
  const uint64_t model_epoch = session.value()->model_epoch();
  const uint64_t deploy_epoch = session.value()->deploy_epoch();
  EXPECT_EQ(model_epoch, 1u);

  auto resumed = apps::KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed.value()->model_epoch(), model_epoch);
  EXPECT_EQ(resumed.value()->deploy_epoch(), deploy_epoch);
  EXPECT_EQ(resumed.value()->now(), sim::kHoursPerWeek);
}

// A model-health trip means the fitted models are no longer trusted: the
// session must advance model_epoch so every cached what-if for the old
// models stops matching.
TEST(SessionEpochTest, ModelHealthTripBumpsModelEpoch) {
  apps::KeaSession::Config config;
  config.machines = 100;
  auto session = apps::KeaSession::Create(config);
  ASSERT_TRUE(session.ok());
  apps::KeaSession& s = *session.value();

  apps::KeaSession::SelfHealingConfig healing;
  // Hair trigger: feed raw hourly aggregates (no seasonal priming week) into
  // detectors that alarm on the first post-warmup wiggle.
  healing.drift.seasonal_period_hours = 0;
  healing.drift.page_hinkley.warmup = 3;
  healing.drift.page_hinkley.delta = 0.0;
  healing.drift.page_hinkley.lambda = 1e-6;
  healing.drift.page_hinkley.min_stddev = 1e-9;
  ASSERT_TRUE(s.EnableSelfHealing(healing).ok());

  const uint64_t before = s.model_epoch();
  ASSERT_TRUE(s.Simulate(96).ok());
  ASSERT_NE(s.model_health(), nullptr);
  ASSERT_TRUE(s.model_health()->in_safe_mode())
      << "hair-trigger detector failed to trip";
  EXPECT_GT(s.model_epoch(), before);
}

// ---------------------------------------------------------------------------
// End-to-end invalidation through the service (manual-drain mode).

TEST(ServiceInvalidationTest, MutatingRequestsInvalidateExactlyThatTenant) {
  TuningService::Options options;
  options.num_threads = 0;  // every request drained by RunPending
  TuningService service(options);
  auto id = service.AddTenant("solo", [] {
    apps::KeaSession::Config config;
    config.machines = 150;
    return config;
  }());
  ASSERT_TRUE(id.ok());

  auto drain = [&](auto ticket_or) {
    EXPECT_TRUE(ticket_or.ok()) << ticket_or.status();
    service.RunPending();
    auto result = ticket_or.value().Wait();
    EXPECT_TRUE(result.ok()) << result.status();
    return result;
  };

  drain(service.SubmitSimulate(id.value(), sim::kHoursPerWeek));
  FitRequest fit;
  fit.whatif.num_threads = 1;
  drain(service.SubmitFit(id.value(), fit));

  WhatIfRequest query;
  query.candidates.push_back({});
  {
    auto session = service.tenant_session(id.value());
    ASSERT_TRUE(session.ok());
    for (const sim::Machine& m : session.value()->cluster().machines()) {
      query.candidates[0][sim::MachineGroupKey{m.sc, m.sku}] =
          static_cast<double>(m.max_containers);
    }
  }

  ASSERT_NE(service.cache(), nullptr);
  auto cold = drain(service.SubmitWhatIf(id.value(), query));
  EXPECT_EQ(service.cache()->stats().hits, 0u);
  EXPECT_EQ(service.cache()->stats().misses, 1u);

  auto warm = drain(service.SubmitWhatIf(id.value(), query));
  EXPECT_EQ(service.cache()->stats().hits, 1u);
  ExpectBitIdentical(*cold.value(), *warm.value());
  // The hit resolves with the very payload the cold miss inserted.
  EXPECT_EQ(cold.value().get(), warm.value().get());

  // A tuning round refits and deploys: both epochs move, the entry dies.
  apps::KeaSession::GuardedRoundOptions guarded;
  guarded.lookback_hours = sim::kHoursPerWeek;
  guarded.tuner.whatif.num_threads = 1;
  guarded.rollout.wave_fractions = {0.5, 1.0};
  guarded.rollout.observe_hours_per_wave = 6;
  guarded.rollout.baseline_hours = 12;
  drain(service.SubmitTuningRound(id.value(), guarded));
  EXPECT_GE(service.cache()->stats().invalidations, 1u);

  auto recold = drain(service.SubmitWhatIf(id.value(), query));
  EXPECT_EQ(service.cache()->stats().misses, 2u)
      << "post-round query must miss: the models changed";
  ASSERT_TRUE(recold.ok());
}

}  // namespace
}  // namespace kea::serve
