// Google-benchmark microbenchmarks for KEA's computational kernels: the
// simplex solver, the regressors, the fluid simulation engine, the
// discrete-event job engine, and keyed random substreams. These bound the
// cost of a daily tuning pass.

#include <benchmark/benchmark.h>

#include <cmath>
#include <random>

#include "apps/yarn_tuner.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "core/whatif.h"
#include "ml/forecast.h"
#include "ml/mlp.h"
#include "ml/regression.h"
#include "obs/metrics.h"
#include "opt/lp.h"

namespace {

using namespace kea;

void BM_SimplexYarnShapedLp(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  opt::LpProblem lp(k, opt::LpDirection::kMaximize);
  for (size_t i = 0; i < k; ++i) {
    (void)lp.SetObjectiveCoefficient(i, 100.0 + static_cast<double>(i));
    (void)lp.SetBounds(i, 5.0, 20.0);
  }
  opt::LpConstraint latency;
  latency.coefficients.assign(k, 1.0);
  latency.sense = opt::ConstraintSense::kLessEqual;
  latency.rhs = 12.0 * static_cast<double>(k);
  (void)lp.AddConstraint(latency);
  opt::SimplexSolver solver;
  for (auto _ : state) {
    auto solution = solver.Solve(lp);
    benchmark::DoNotOptimize(solution);
  }
}
BENCHMARK(BM_SimplexYarnShapedLp)->Arg(6)->Arg(12)->Arg(24)->Arg(48);

void BM_HuberFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  ml::Vector x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(0, 10);
    y[i] = 2.0 + 3.0 * x[i] + rng.Gaussian(0, 0.5);
  }
  ml::Dataset data = ml::MakeDataset1D(x, y);
  ml::HuberRegressor regressor;
  for (auto _ : state) {
    auto model = regressor.Fit(data);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_HuberFit)->Arg(1000)->Arg(10000)->Arg(50000);

// The What-if Engine's fit at the busy-row counts of its groups (400
// machines, 168-hour window), with a tenth of the targets gross outliers so
// IRLS reweights for several iterations; items are rows.
void BM_HuberFitContaminated(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  ml::Vector x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(0, 10);
    y[i] = 2.0 + 3.0 * x[i] + rng.Gaussian(0, 0.5);
    if (rng.Uniform(0, 1) < 0.1) y[i] += rng.Uniform(20, 60);
  }
  ml::Dataset data = ml::MakeDataset1D(x, y);
  ml::HuberRegressor regressor;
  for (auto _ : state) {
    auto model = regressor.Fit(data);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_HuberFitContaminated)->Arg(3360)->Arg(8400);

void BM_OlsFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  ml::Vector x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(0, 10);
    y[i] = 2.0 + 3.0 * x[i] + rng.Gaussian(0, 0.5);
  }
  ml::Dataset data = ml::MakeDataset1D(x, y);
  ml::LinearRegressor regressor;
  for (auto _ : state) {
    auto model = regressor.Fit(data);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_OlsFit)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_FluidEngineHour(benchmark::State& state) {
  bench::BenchEnv env = bench::BenchEnv::Make(static_cast<int>(state.range(0)));
  int hour = 0;
  for (auto _ : state) {
    env.store.Clear();
    (void)env.engine->Run(hour++, 1, &env.store);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FluidEngineHour)->Arg(1000)->Arg(5000)->Arg(20000);

// Also reports IRLS iterations per Huber fit (three fits per fitted group)
// and the share of row-iterations whose weight the kernel recomputed, from
// the fit's deterministic counters: properties of the data, the stopping
// rule and the kernel, not of the host, so CI gates them.
void BM_WhatIfFit(benchmark::State& state) {
  bench::BenchEnv env = bench::BenchEnv::Make(500);
  env.Run(0, static_cast<int>(state.range(0)));
  const obs::Registry& registry = obs::Registry::Get();
  const auto since = [&registry](const char* name) {
    const uint64_t before = registry.CounterValue(name);
    return [&registry, name, before] {
      return static_cast<double>(registry.CounterValue(name) - before);
    };
  };
  const auto iterations = since("whatif.irls_iterations");
  const auto groups = since("whatif.groups_fitted");
  const auto rows_reweighted = since("whatif.irls_rows_reweighted");
  const auto row_iterations = since("whatif.irls_row_iterations");
  for (auto _ : state) {
    auto engine = core::WhatIfEngine::Fit(env.store, nullptr,
                                          core::WhatIfEngine::Options());
    benchmark::DoNotOptimize(engine);
  }
  if (groups() > 0) {
    state.counters["irls_iterations_per_fit"] = iterations() / (3 * groups());
    state.counters["irls_reweighted_share"] = rows_reweighted() / row_iterations();
  }
}
BENCHMARK(BM_WhatIfFit)->Arg(48)->Arg(168);

void BM_JobSimulatorHour(benchmark::State& state) {
  bench::BenchEnv env = bench::BenchEnv::Make(200);
  sim::JobSimulator::Options options;
  options.seed = 3;
  for (auto _ : state) {
    sim::JobSimulator job_sim(&env.model, &env.cluster, &env.workload, options);
    auto result = job_sim.Run(sim::BenchmarkJobTemplates(), sim::kSecondsPerHour);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_JobSimulatorHour);

void BM_SeasonalForecastFit(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> series;
  const int weeks = static_cast<int>(state.range(0));
  for (int t = 0; t < weeks * 168; ++t) {
    series.push_back((1000.0 + 0.5 * t) *
                     (1.0 + 0.15 * std::sin(2 * 3.14159 * (t % 168) / 168.0)) *
                     rng.LogNormal(0.0, 0.03));
  }
  for (auto _ : state) {
    auto f = ml::SeasonalTrendForecaster::Fit(series);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_SeasonalForecastFit)->Arg(4)->Arg(12)->Arg(52);

void BM_MlpFit(benchmark::State& state) {
  Rng rng(5);
  const size_t n = static_cast<size_t>(state.range(0));
  ml::Vector x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(0, 10);
    y[i] = 2.0 + 3.0 * x[i] + rng.Gaussian(0, 0.5);
  }
  ml::Dataset data = ml::MakeDataset1D(x, y);
  ml::MlpRegressor::Options options;
  options.epochs = 50;
  ml::MlpRegressor mlp(options);
  for (auto _ : state) {
    auto model = mlp.Fit(data);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_MlpFit)->Arg(1000)->Arg(5000);

void BM_FullObservationalTuningPass(benchmark::State& state) {
  bench::BenchEnv env = bench::BenchEnv::Make(1000);
  env.Run(0, sim::kHoursPerWeek);
  apps::YarnConfigTuner tuner;
  for (auto _ : state) {
    auto plan = tuner.Propose(env.store, nullptr, env.cluster);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_FullObservationalTuningPass);

// A keyed substream's per-record pattern, as the fault injectors use it: a
// fresh stream and one decision.
void BM_RngKeyedDraw(benchmark::State& state) {
  uint64_t key = 0;
  for (auto _ : state) {
    Rng rng(MixSeed(7, key++));
    benchmark::DoNotOptimize(rng.Bernoulli(0.02));
  }
}
BENCHMARK(BM_RngKeyedDraw);

// Its twin on the generator Rng held before: std::mt19937_64 with the two
// distribution objects Rng held.
void BM_StdRngKeyedDraw(benchmark::State& state) {
  uint64_t key = 0;
  for (auto _ : state) {
    std::mt19937_64 engine(MixSeed(7, key++));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::normal_distribution<double> normal(0.0, 1.0);
    benchmark::DoNotOptimize(normal);
    benchmark::DoNotOptimize(unit(engine) < 0.02);
  }
}
BENCHMARK(BM_StdRngKeyedDraw);

// The fault injectors' per-record pattern as they run it: eight keyed
// streams seeded side by side into reused lanes, one decision each. An
// iteration is eight streams.
void BM_RngKeyedBatch(benchmark::State& state) {
  Rng lanes[Rng::kSeedLanes];
  uint64_t seeds[Rng::kSeedLanes];
  uint64_t key = 0;
  for (auto _ : state) {
    for (uint64_t& seed : seeds) seed = MixSeed(7, key++);
    Rng::SeedMany(seeds, lanes, Rng::kSeedLanes);
    for (Rng& lane : lanes) benchmark::DoNotOptimize(lane.Bernoulli(0.02));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * Rng::kSeedLanes));
}
BENCHMARK(BM_RngKeyedBatch);

// The fluid engine's noise draws, each beside the std distribution it
// reproduces bit for bit. Report only.
void BM_RngGaussian(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Gaussian());
}
BENCHMARK(BM_RngGaussian);

void BM_StdRngGaussian(benchmark::State& state) {
  std::mt19937_64 engine(7);
  std::normal_distribution<double> normal(0.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(normal(engine));
}
BENCHMARK(BM_StdRngGaussian);

void BM_RngLogNormal(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.LogNormal(0.0, 0.2));
}
BENCHMARK(BM_RngLogNormal);

void BM_StdRngLogNormal(benchmark::State& state) {
  std::mt19937_64 engine(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::lognormal_distribution<double>(0.0, 0.2)(engine));
  }
}
BENCHMARK(BM_StdRngLogNormal);

// A fresh stream read far past its first block, as a what-if group's noise
// table reads one.
void BM_RngFreshStream(benchmark::State& state) {
  const int64_t draws = state.range(0);
  uint64_t key = 0;
  for (auto _ : state) {
    Rng rng(MixSeed(7, key++));
    double sum = 0.0;
    for (int64_t i = 0; i < draws; ++i) sum += rng.Uniform();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * draws);
}
BENCHMARK(BM_RngFreshStream)->Arg(1000);

void BM_StdRngFreshStream(benchmark::State& state) {
  const int64_t draws = state.range(0);
  uint64_t key = 0;
  for (auto _ : state) {
    std::mt19937_64 engine(MixSeed(7, key++));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    double sum = 0.0;
    for (int64_t i = 0; i < draws; ++i) sum += unit(engine);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * draws);
}
BENCHMARK(BM_StdRngFreshStream)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
