#ifndef KEA_BENCH_KEA_BENCH_HARNESS_H_
#define KEA_BENCH_KEA_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/whatif.h"
#include "obs/trace.h"
#include "sim/cluster.h"
#include "telemetry/store.h"

namespace kea::bench {

using Clock = std::chrono::steady_clock;
using Grid = std::map<sim::MachineGroupKey, double>;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> xs, double q);
inline double Median(std::vector<double> xs) {
  return Quantile(std::move(xs), 0.5);
}

/// The highest of p99 / p75 / p50 that leaves at least ten of `n` samples
/// above it. p90 is skipped: on a shared host a tenth of a run's samples is
/// about what one stall of the host slows, so p90 follows the host, not the
/// program.
double TailQuantile(size_t n);

/// Host-speed calibration. The reference host shares its cores with other
/// machines' work, and its speed swings by 1.4-2x for tens of seconds at a
/// time as that work comes and goes; every layer of a run slows together.
/// A run therefore times a fixed kernel between its operations and reports
/// each timing in reference-host milliseconds: the wall time scaled by the
/// kernel's calm reference time over its time measured next to the timing.
/// The kernel (floating point and byte appends, see harness.cc) calls
/// nothing in src/, so no change to the program moves it. Raw wall times go
/// to the --out file beside the scaled ones.
class HostSpeed {
 public:
  /// The kernel's median time on the reference host in a calm period.
  static constexpr double kReferenceMs = 2.0;

  HostSpeed() : start_(Clock::now()) {}

  /// Milliseconds since construction: the clock every timing is placed on.
  double now_ms() const { return MsSince(start_); }
  /// Times the kernel once. Not thread-safe; one thread samples, and the
  /// Scale calls come after the sampling ends.
  void Sample();
  /// Reference time over the median of the kernel samples nearest `at_ms`;
  /// 1 with no samples.
  double Scale(double at_ms) const;
  /// Wall time from `begin_ms` to `end_ms`, scaled piece by piece between
  /// kernel samples.
  double ScaledSpan(double begin_ms, double end_ms) const;
  const std::vector<std::pair<double, double>>& samples() const {
    return samples_;
  }

 private:
  Clock::time_point start_;
  /// (time of the sample's midpoint, kernel ms), in time order.
  std::vector<std::pair<double, double>> samples_;
  uint64_t checksum_ = 0;
};

/// One timed operation on a HostSpeed clock.
struct Span {
  double begin_ms = 0.0;
  double end_ms = 0.0;
  double wall_ms() const { return end_ms - begin_ms; }
  double scaled_ms(const HostSpeed& speed) const {
    return speed.ScaledSpan(begin_ms, end_ms);
  }
};

/// FNV-1a over 64-bit words; doubles hash their IEEE-754 bit pattern.
class Digest {
 public:
  void Add(uint64_t v);
  void AddDouble(double v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// `candidates` what-if configurations around `base`, each a uniform scale
/// of every group's container count; `salt` shifts every scale so distinct
/// salts give distinct grids.
std::vector<Grid> MakeGrid(const Grid& base, int candidates, int salt);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// How a run was asked to go. `seconds` sets the length of the schedule (the
/// number of rounds, or of serve_mix requests) through a rate measured on
/// the reference host, so the same seconds always mean the same work, and
/// two builds are compared on identical schedules.
struct Options {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  /// Scratch space for durable state; must exist.
  std::string work_dir = ".bench_run";
  /// Where a traced run writes its Chrome trace.
  std::string trace_file;
};

/// What one run reports. An untraced run's `metrics` are the end-to-end
/// metrics, a traced run's the per-layer ones. `details` are supporting
/// figures that go only to the --out file.
struct Result {
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void Detail(const std::string& name, double value, const std::string& unit,
              size_t samples = 1) {
    details.push_back({name, value, unit, samples});
  }
};

/// Sets up with `set_up(k)` and keeps the last result, timing each set-up on
/// `speed`'s clock with a kernel sample before it and after the last. An
/// untraced run sets up at least five times and until 3 s have gone into it
/// (at most 60 times), so setup_s is a median of several; a traced or smoke
/// run sets up once. Each set-up is destroyed before the next starts.
template <typename T, typename SetUpFn>
StatusOr<T> SetUpRepeatedly(const Options& options, const SetUpFn& set_up,
                            HostSpeed* speed, std::vector<Span>* setups) {
  std::optional<T> kept;
  double spent_ms = 0.0;
  for (int k = 0;; ++k) {
    kept.reset();
    speed->Sample();
    Span span;
    span.begin_ms = speed->now_ms();
    StatusOr<T> made = set_up(k);
    span.end_ms = speed->now_ms();
    setups->push_back(span);
    spent_ms += span.wall_ms();
    if (!made.ok()) return made.status();
    kept = std::move(made).value();
    if (options.trace || options.smoke || k + 1 >= 60 ||
        (k + 1 >= 5 && spent_ms >= 3000.0)) {
      speed->Sample();
      return std::move(*kept);
    }
  }
}

/// Runs round_clean, round_dirty or round_durable.
Result RunRounds(const Options& options);
/// Runs serve_mix.
Result RunServeMix(const Options& options);

/// The end-to-end metrics every untraced run reports (peak_rss_mb is added
/// at exit), in reference-host time (see HostSpeed); the wall-clock figures
/// go to the details. The blocking operation is a tuning round or a what-if,
/// the refresh a between-round collect or a tenant's simulate + refit.
/// ops_per_s counts the ops over `busy`, the spans the measured loop kept
/// the host busy.
void AddEndToEnd(const HostSpeed& speed, const std::vector<Span>& setups,
                 const std::vector<Span>& ops,
                 const std::vector<Span>& refreshes,
                 const std::vector<Span>& busy, Result* result);

// ---- Per-layer metrics of a traced run.

/// Bench span names that charge their self time to a layer. Root spans
/// ("bench.*") wrap one operation for the trace and charge nothing, and
/// in-program spans are transparent: a layer span's self time is its
/// duration minus that of its nearest layer-span descendants.
const std::vector<std::string>& LayerNames();

struct LayerTime {
  double self_ms = 0.0;
  /// Inclusive duration of each span charged to the layer.
  std::vector<double> calls_ms;
};

/// Self time per layer over the tracer's events. `relabel` charges single
/// spans (by span id) to a layer known only after they ended.
std::map<std::string, LayerTime> LayerTimes(
    const std::vector<obs::TraceEvent>& events,
    const std::map<uint64_t, std::string>& relabel = {});

/// Everything a traced run reports. A workload leaves at their defaults the
/// figures of layers it never calls.
struct LayerFigures {
  std::map<std::string, LayerTime> layers;
  double wall_ms = 0.0;           ///< Traced measured loop.
  double untraced_wall_ms = 0.0;  ///< The same schedule, untraced.
  double machine_hours = 0.0;     ///< Simulated inside the measured loop.
  double evaluate_us_per_candidate = 0.0;
  double group_ms = 0.0;
  double accept_frac = 1.0;
  double window_frac = 0.0;
  double rollback_frac = 0.0;
  double checkpoints_per_round = 0.0;
  double checkpoint_mb = 0.0;
  double write_mb_per_round = 0.0;
  double write_amp = 0.0;
  double storage_ops_per_round = 0.0;
  double hit_ratio = 0.0;
  double evictions = 0.0;
  double rejected_frac = 0.0;
};

/// Probe calls on the final models, outside the measured loop:
/// EvaluateWhatIf over a 16-candidate grid with 256 uncertainty samples, and
/// GroupByKey over the fit window.
void Probe(const core::WhatIfEngine& engine,
           const telemetry::TelemetryStore& store,
           std::pair<sim::HourIndex, sim::HourIndex> fit_window,
           LayerFigures* figures);

void AddLayerMetrics(const LayerFigures& figures, Result* result);

/// Validates the recorded trace, writes it to `path`, and records the check.
void WriteTrace(const std::string& path, Result* result);

}  // namespace kea::bench

#endif  // KEA_BENCH_KEA_BENCH_HARNESS_H_
