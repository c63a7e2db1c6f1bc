#include "bench/kea_bench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>

#include "telemetry/perf_monitor.h"

namespace kea::bench {

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double TailQuantile(size_t n) {
  for (double q : {0.99, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

namespace {

constexpr size_t kKernelWords = size_t{1} << 16;

/// The calibration kernel's input: 512 KB of pseudo-random words.
const std::vector<uint64_t>& KernelTable() {
  static const std::vector<uint64_t> table = [] {
    std::vector<uint64_t> words(kKernelWords);
    uint64_t x = 0;
    for (uint64_t& w : words) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      w = z ^ (z >> 31);
    }
    return words;
  }();
  return table;
}

/// One pass of the calibration kernel, in ms: a Huber-style loss over the
/// table, then the table appended word by word to a growing byte string.
/// Both stay in a core's own caches. Of the kernels tried against fixed
/// Fit, Checkpoint and EvaluateWhatIf calls over five minutes on the
/// reference host, this pair tracked all three best; kernels that miss the
/// caches slowed less than the program when the host slowed. The result goes
/// to `checksum` so that none of the work can be optimised away.
double KernelMs(uint64_t* checksum) {
  constexpr size_t kSteps = 100000;
  const std::vector<uint64_t>& table = KernelTable();
  const Clock::time_point start = Clock::now();
  double loss = 0.0;
  for (size_t k = 0; k < kSteps; ++k) {
    const double r =
        static_cast<double>(table[k % kKernelWords] & 0xffff) / 65536.0 - 0.5;
    loss += std::abs(r) < 0.3 ? r * r : 0.6 * std::abs(r) - 0.09;
    loss += std::log1p(r * r);
  }
  std::string bytes;
  for (size_t k = 0; k < kSteps; ++k) {
    bytes.append(reinterpret_cast<const char*>(&table[k % kKernelWords]),
                 sizeof(uint64_t));
  }
  *checksum += bytes.size() + static_cast<uint64_t>(loss) +
               static_cast<unsigned char>(bytes[kSteps]);
  return MsSince(start);
}

}  // namespace

void HostSpeed::Sample() {
  const double begin = now_ms();
  const double ms = KernelMs(&checksum_);
  samples_.emplace_back(begin + ms / 2.0, ms);
}

double HostSpeed::Scale(double at_ms) const {
  if (samples_.empty()) return 1.0;
  // The five samples nearest in time: one sample is a few ms of a host whose
  // speed also flickers from one tenth of a second to the next.
  constexpr size_t kNearest = 5;
  const size_t n = samples_.size();
  const size_t pos = static_cast<size_t>(
      std::lower_bound(samples_.begin(), samples_.end(),
                       std::make_pair(at_ms, 0.0)) -
      samples_.begin());
  const size_t take = std::min(kNearest, n);
  size_t lo = pos >= take / 2 ? pos - take / 2 : 0;
  lo = std::min(lo, n - take);
  std::vector<double> near;
  for (size_t i = lo; i < lo + take; ++i) near.push_back(samples_[i].second);
  return kReferenceMs / Median(std::move(near));
}

double HostSpeed::ScaledSpan(double begin_ms, double end_ms) const {
  double scaled = 0.0;
  double from = begin_ms;
  for (const auto& [at, ms] : samples_) {
    if (at <= from || at >= end_ms) continue;
    scaled += (at - from) * Scale((at + from) / 2.0);
    from = at;
  }
  return scaled + (end_ms - from) * Scale((end_ms + from) / 2.0);
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::AddDouble(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

std::vector<Grid> MakeGrid(const Grid& base, int candidates, int salt) {
  std::vector<Grid> grid;
  for (int c = 0; c < candidates; ++c) {
    const double scale = 0.80 + 0.025 * c + 0.0001 * salt;
    Grid candidate;
    for (const auto& [key, containers] : base) {
      candidate[key] = containers * scale;
    }
    grid.push_back(std::move(candidate));
  }
  return grid;
}

namespace {

constexpr int kProbeReps = 5;

std::vector<double> Times(const std::vector<Span>& spans,
                          const HostSpeed* speed) {
  std::vector<double> ms;
  for (const Span& s : spans) {
    ms.push_back(speed != nullptr ? s.scaled_ms(*speed) : s.wall_ms());
  }
  return ms;
}

double Total(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum;
}

}  // namespace

void AddEndToEnd(const HostSpeed& speed, const std::vector<Span>& setups,
                 const std::vector<Span>& ops,
                 const std::vector<Span>& refreshes,
                 const std::vector<Span>& busy, Result* result) {
  const size_t n = ops.size();
  const double tail = TailQuantile(n);
  const std::vector<double> op_ms = Times(ops, &speed);
  result->Add("setup_s", Median(Times(setups, &speed)) / 1e3, "s",
              setups.size());
  result->Add("op_p50_ms", Median(op_ms), "ms", n);
  result->Add("op_tail_ms", Quantile(op_ms, tail), "ms", n);
  result->Add("ops_per_s", n / (Total(Times(busy, &speed)) / 1e3), "1/s", n);
  result->Add("refresh_p50_ms", Median(Times(refreshes, &speed)), "ms",
              refreshes.size());
  result->Detail("op_tail_quantile", tail, "ratio", n);
  // The same figures in wall-clock time, and the host's speed over the run.
  const std::vector<double> op_wall_ms = Times(ops, nullptr);
  result->Detail("setup_wall_s", Median(Times(setups, nullptr)) / 1e3, "s",
                 setups.size());
  result->Detail("op_p50_wall_ms", Median(op_wall_ms), "ms", n);
  result->Detail("op_tail_wall_ms", Quantile(op_wall_ms, tail), "ms", n);
  result->Detail("ops_per_wall_s", n / (Total(Times(busy, nullptr)) / 1e3),
                 "1/s", n);
  result->Detail("refresh_p50_wall_ms", Median(Times(refreshes, nullptr)),
                 "ms", refreshes.size());
  std::vector<double> kernel_ms;
  for (const auto& [at, ms] : speed.samples()) kernel_ms.push_back(ms);
  result->Detail("host.kernel_p50_ms", Median(kernel_ms), "ms",
                 kernel_ms.size());
}

const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> names = {
      "sim.run",       "sim.corrupt",  "telemetry.ingest",
      "core.fit",      "apps.propose", "core.rollout",
      "core.ledger",   "common.checkpoint", "core.evaluate",
      "serve.hit"};
  return names;
}

std::map<std::string, LayerTime> LayerTimes(
    const std::vector<obs::TraceEvent>& events,
    const std::map<uint64_t, std::string>& relabel) {
  struct Open {
    uint64_t id = 0;
    std::string layer;  // Empty for every span that charges no layer.
    uint64_t begin_ns = 0;
    uint64_t child_ns = 0;
  };
  const std::vector<std::string>& layers = LayerNames();
  std::map<std::string, LayerTime> out;
  std::unordered_map<uint32_t, std::vector<Open>> stacks;
  for (const obs::TraceEvent& e : events) {
    std::vector<Open>& stack = stacks[e.tid];
    if (e.phase == obs::TraceEvent::Phase::kBegin) {
      auto it = relabel.find(e.span_id);
      std::string layer = it != relabel.end() ? it->second : e.name;
      if (std::find(layers.begin(), layers.end(), layer) == layers.end()) {
        layer.clear();
      }
      stack.push_back({e.span_id, std::move(layer), e.ts_ns, 0});
      continue;
    }
    if (stack.empty() || stack.back().id != e.span_id) continue;
    const Open done = std::move(stack.back());
    stack.pop_back();
    if (done.layer.empty()) continue;
    const uint64_t duration = e.ts_ns - done.begin_ns;
    LayerTime& t = out[done.layer];
    t.self_ms += static_cast<double>(duration - done.child_ns) / 1e6;
    t.calls_ms.push_back(static_cast<double>(duration) / 1e6);
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (!it->layer.empty()) {
        it->child_ns += duration;
        break;
      }
    }
  }
  return out;
}

void Probe(const core::WhatIfEngine& engine,
           const telemetry::TelemetryStore& store,
           std::pair<sim::HourIndex, sim::HourIndex> fit_window,
           LayerFigures* figures) {
  constexpr int kCandidates = 16;
  Grid base;
  for (const auto& [key, models] : engine.models()) {
    base[key] = models.current_containers;
  }
  const std::vector<Grid> grid = MakeGrid(base, kCandidates, 0);
  std::vector<double> evaluate_us;
  std::vector<double> group_ms;
  const telemetry::RecordFilter window =
      telemetry::HourRangeFilter(fit_window.first, fit_window.second);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Clock::time_point t = Clock::now();
    for (const Grid& candidate : grid) {
      (void)engine.EvaluateWhatIf(candidate, 256);
    }
    evaluate_us.push_back(MsSince(t) * 1e3 / kCandidates);
    t = Clock::now();
    (void)store.GroupByKey(window);
    group_ms.push_back(MsSince(t));
  }
  figures->evaluate_us_per_candidate = Median(evaluate_us);
  figures->group_ms = Median(group_ms);
  size_t in_window = 0;
  for (const telemetry::MachineHourRecord& r : store.records()) {
    in_window += r.hour >= fit_window.first && r.hour < fit_window.second;
  }
  figures->window_frac = store.empty()
                             ? 0.0
                             : static_cast<double>(in_window) / store.size();
}

void AddLayerMetrics(const LayerFigures& f, Result* result) {
  static const LayerTime kNone;
  auto layer = [&f](const std::string& name) -> const LayerTime& {
    auto it = f.layers.find(name);
    return it == f.layers.end() ? kNone : it->second;
  };
  double covered = 0.0;
  for (const std::string& name : LayerNames()) {
    const LayerTime& t = layer(name);
    covered += t.self_ms;
    result->Add(name + "_frac", t.self_ms / f.wall_ms, "ratio",
                t.calls_ms.size());
    result->Detail(name + ".self_ms", t.self_ms, "ms", t.calls_ms.size());
  }
  result->Add("bench.unattributed_frac", (f.wall_ms - covered) / f.wall_ms,
              "ratio", 1);

  const LayerTime& fit = layer("core.fit");
  const LayerTime& run = layer("sim.run");
  result->Add("core.fit_ms", Median(fit.calls_ms), "ms", fit.calls_ms.size());
  result->Add("sim.run_us_per_machine_hour",
              run.self_ms * 1e3 / f.machine_hours, "us", run.calls_ms.size());
  result->Add("core.evaluate_us_per_candidate", f.evaluate_us_per_candidate,
              "us", kProbeReps);
  result->Add("telemetry.group_ms", f.group_ms, "ms", kProbeReps);
  result->Add("telemetry.accept_frac", f.accept_frac, "ratio", 1);
  result->Add("telemetry.window_frac", f.window_frac, "ratio", 1);
  result->Add("core.rollback_frac", f.rollback_frac, "ratio", 1);
  result->Add("common.checkpoints_per_round", f.checkpoints_per_round,
              "count", 1);
  result->Add("common.checkpoint_mb", f.checkpoint_mb, "MB", 1);
  result->Add("common.write_mb_per_round", f.write_mb_per_round, "MB", 1);
  result->Add("common.write_amp", f.write_amp, "ratio", 1);
  result->Add("common.storage_ops_per_round", f.storage_ops_per_round,
              "count", 1);
  result->Add("serve.hit_ratio", f.hit_ratio, "ratio", 1);
  result->Add("serve.evictions", f.evictions, "count", 1);
  result->Add("serve.rejected_frac", f.rejected_frac, "ratio", 1);
  result->Add("obs.trace_overhead_frac",
              (f.wall_ms - f.untraced_wall_ms) / f.untraced_wall_ms, "ratio",
              1);
}

void WriteTrace(const std::string& path, Result* result) {
  const std::string json = obs::Tracer::Get().ExportChromeTrace();
  const obs::TraceValidation validation = obs::ValidateChromeTrace(json);
  result->Check(validation.ok,
                "Chrome trace fails ValidateChromeTrace: " + validation.error);
  result->Detail("obs.trace_events", static_cast<double>(validation.events),
                 "count");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json;
  out.close();
  result->Check(static_cast<bool>(out), "cannot write trace file " + path);
}

}  // namespace kea::bench
