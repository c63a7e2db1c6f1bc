// Test-only reference for core::WhatIfEngine::EvaluateGrid: every call draws
// each group's standard normals afresh from its key-seeded stream, and each
// error bar is one serial standard-deviation pass -- the formulation that
// EvaluateGrid's process-wide draw table and interleaved sums must reproduce
// bit for bit.

#ifndef KEA_TESTS_REFERENCE_WHATIF_H_
#define KEA_TESTS_REFERENCE_WHATIF_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/whatif.h"

namespace kea::core {

/// FNV-1a over the group key's bytes: the seed of the group's noise stream.
inline uint64_t ReferenceSampleSeed(const sim::MachineGroupKey& key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<uint64_t>(static_cast<int64_t>(key.sc)));
  mix(static_cast<uint64_t>(static_cast<int64_t>(key.sku)));
  return h;
}

/// The first 3n draws of the group's stream; sample s reads draws 3s, 3s+1
/// and 3s+2 as g[s], h[s] and f[s].
struct ReferenceDraws {
  std::vector<double> g, h, f;
};

inline ReferenceDraws ReferenceDrawNormals(const sim::MachineGroupKey& key,
                                           size_t samples) {
  Rng rng(ReferenceSampleSeed(key));
  ReferenceDraws z;
  z.g.resize(samples);
  z.h.resize(samples);
  z.f.resize(samples);
  for (size_t s = 0; s < samples; ++s) {
    z.g[s] = rng.Gaussian();
    z.h[s] = rng.Gaussian();
    z.f[s] = rng.Gaussian();
  }
  return z;
}

inline double ReferenceStddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

inline StatusOr<std::vector<WhatIfResult>> ReferenceEvaluateGrid(
    const WhatIfEngine& engine,
    std::span<const std::map<sim::MachineGroupKey, double>> grid,
    int uncertainty_samples) {
  const size_t samples =
      uncertainty_samples > 0 ? static_cast<size_t>(uncertainty_samples) : 0;
  std::map<sim::MachineGroupKey, ReferenceDraws> draws;
  std::vector<double> mc_weighted(samples), mc_weight(samples);
  std::vector<double> mc_latency(samples);
  std::vector<WhatIfResult> results;
  for (const auto& containers_per_machine : grid) {
    WhatIfResult result;
    double weighted = 0.0, weight = 0.0;
    std::fill(mc_weighted.begin(), mc_weighted.end(), 0.0);
    std::fill(mc_weight.begin(), mc_weight.end(), 0.0);
    for (const auto& [key, m_k] : containers_per_machine) {
      auto found = engine.models().find(key);
      if (found == engine.models().end()) {
        return Status::NotFound("no calibrated models for group " +
                                sim::GroupLabel(key));
      }
      const GroupModels* gm = &found->second;
      GroupWhatIf gw;
      gw.containers = m_k;
      gw.utilization = gm->g.Predict1D(m_k);
      gw.tasks_per_hour = gm->h.Predict1D(gw.utilization);
      gw.latency_s = gm->f.Predict1D(gw.utilization);
      double n_k = static_cast<double>(gm->num_machines);
      weighted += gw.latency_s * gw.tasks_per_hour * n_k;
      weight += gw.tasks_per_hour * n_k;
      if (samples > 0) {
        auto [it, fresh] = draws.try_emplace(key);
        if (fresh) it->second = ReferenceDrawNormals(key, samples);
        const ReferenceDraws& z = it->second;
        const double g_rmse = gm->g_fit.rmse;
        const double h0 = gm->h.intercept(), h1 = gm->h.coefficients()[0];
        const double h_rmse = gm->h_fit.rmse;
        const double f0 = gm->f.intercept(), f1 = gm->f.coefficients()[0];
        const double f_rmse = gm->f_fit.rmse;
        for (size_t s = 0; s < samples; ++s) {
          const double util = gw.utilization + g_rmse * z.g[s];
          const double tasks =
              std::max(h0 + h1 * util + h_rmse * z.h[s], 1e-9);
          const double latency = f0 + f1 * util + f_rmse * z.f[s];
          mc_latency[s] = latency;
          mc_weighted[s] += latency * tasks * n_k;
          mc_weight[s] += tasks * n_k;
        }
        gw.latency_stderr_s = ReferenceStddev(mc_latency);
      }
      result.groups[key] = gw;
    }
    if (weight <= 0.0) {
      return Status::FailedPrecondition("predicted zero task throughput");
    }
    result.cluster_latency_s = weighted / weight;
    if (samples > 0) {
      for (size_t s = 0; s < samples; ++s) {
        mc_latency[s] = mc_weighted[s] / mc_weight[s];
      }
      result.cluster_latency_stderr_s = ReferenceStddev(mc_latency);
    }
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace kea::core

#endif  // KEA_TESTS_REFERENCE_WHATIF_H_
