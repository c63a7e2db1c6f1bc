#include "opt/montecarlo.h"

#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kea::opt {

namespace {

// Deterministic: one grid call, num_candidates cells, candidates*iterations
// draws — totals identical at any thread count.
obs::Counter* GridCallsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("mc.grid_calls");
  return c;
}
obs::Counter* CandidatesCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("mc.candidates");
  return c;
}
obs::Counter* DrawsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("mc.draws");
  return c;
}

}  // namespace

StatusOr<MonteCarloEstimate> EstimateExpectation(
    const std::function<double(Rng*)>& sample, int iterations, Rng* rng) {
  if (iterations < 2) {
    return Status::InvalidArgument("Monte-Carlo needs >= 2 iterations");
  }
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  // Welford's online mean/variance.
  double mean = 0.0;
  double m2 = 0.0;
  for (int i = 0; i < iterations; ++i) {
    double x = sample(rng);
    double delta = x - mean;
    mean += delta / static_cast<double>(i + 1);
    m2 += delta * (x - mean);
  }
  MonteCarloEstimate e;
  e.iterations = iterations;
  e.mean = mean;
  double variance = m2 / static_cast<double>(iterations - 1);
  e.stddev = std::sqrt(variance);
  e.standard_error = e.stddev / std::sqrt(static_cast<double>(iterations));
  return e;
}

StatusOr<GridEstimate> EstimateOverGrid(
    size_t num_candidates, const std::function<double(size_t, Rng*)>& sample,
    int iterations_per_candidate, Rng* rng, const GridOptions& options) {
  if (num_candidates == 0) return Status::InvalidArgument("empty candidate grid");
  if (rng == nullptr) return Status::InvalidArgument("null rng");
  if (iterations_per_candidate < 2) {
    return Status::InvalidArgument("Monte-Carlo needs >= 2 iterations");
  }

  KEA_TRACE_SPAN("mc.grid",
                 {{"candidates", std::to_string(num_candidates)},
                  {"iterations", std::to_string(iterations_per_candidate)}});
  GridCallsCounter()->Increment();
  CandidatesCounter()->Increment(num_candidates);
  DrawsCounter()->Increment(num_candidates *
                            static_cast<uint64_t>(iterations_per_candidate));

  // One parent draw keys this call's substream family; candidate i then draws
  // only from substream i of that key, so its estimate depends on the logical
  // index and never on which thread ran it or in what order.
  Rng substream_base(rng->engine()());

  GridEstimate grid;
  grid.estimates.assign(num_candidates, MonteCarloEstimate{});
  std::vector<Status> failures(num_candidates, Status::OK());
  common::ThreadPool::Run(options.num_threads, num_candidates, [&](size_t i) {
    KEA_TRACE_SPAN("mc.candidate", {{"index", std::to_string(i)}});
    Rng substream = substream_base.Split(i);
    auto bound = [&sample, i](Rng* r) { return sample(i, r); };
    StatusOr<MonteCarloEstimate> e =
        EstimateExpectation(bound, iterations_per_candidate, &substream);
    if (e.ok()) {
      grid.estimates[i] = e.value();
    } else {
      failures[i] = e.status();
    }
  });
  for (const Status& s : failures) KEA_RETURN_IF_ERROR(s);

  for (size_t i = 1; i < num_candidates; ++i) {
    if (grid.estimates[i].mean < grid.estimates[grid.best_index].mean) {
      grid.best_index = i;
    }
  }
  return grid;
}

}  // namespace kea::opt
