// The three round workloads: an operator runs a guarded tuning round, waits
// for it, collects the next batch of telemetry, and repeats (a closed loop
// with one client). round_clean is the production daily loop on clean data;
// round_dirty adds telemetry corruption and fleet chaos, so fault injection,
// ingestion screens and guardrail rollbacks carry load; round_durable is the
// write-heavy twin, where every journaled step rewrites a checkpoint that
// holds the whole telemetry history.
//
// --seconds sets the number of rounds (40 at 12 s). Nothing is ever dropped
// from the store, so every round fits over, and checkpoints, more history
// than the one before, as a long-lived session does.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/session.h"
#include "apps/yarn_tuner.h"
#include "bench/kea_bench/harness.h"
#include "common/io.h"
#include "common/snapshot.h"
#include "common/storage_fault.h"
#include "telemetry/perf_monitor.h"

namespace kea::bench {
namespace {

using apps::KeaSession;
using apps::YarnConfigTuner;
using core::GuardrailedRollout;

struct RoundWorkload {
  int machines = 400;
  int prelude_hours = sim::kHoursPerWeek;
  int collect_hours = 24;
  /// Rounds per requested second, so the same --seconds always give the
  /// same schedule: 40 rounds at 12 s.
  double rounds_per_second = 40.0 / 12.0;
  bool dirty = false;
  bool durable = false;
  KeaSession::GuardedRoundOptions round;
  int rounds = 0;
};

RoundWorkload Describe(const Options& options) {
  RoundWorkload w;
  w.round.rollout.wave_fractions = {0.1, 0.4, 1.0};
  w.round.rollout.observe_hours_per_wave = 8;
  w.round.rollout.baseline_hours = 24;
  w.round.tuner.whatif.num_threads = 1;
  if (options.workload == "round_dirty") {
    w.dirty = true;
    w.machines = 250;
  } else if (options.workload == "round_durable") {
    w.durable = true;
    w.machines = 16;
    w.prelude_hours = 72;
    w.collect_hours = 12;
    w.round.rollout.observe_hours_per_wave = 4;
    // A round's cost grows with the history it checkpoints, so the schedule
    // is shorter: 20 rounds at 12 s.
    w.rounds_per_second = 20.0 / 12.0;
  }
  w.rounds = std::max(3, static_cast<int>(std::lround(options.seconds *
                                                      w.rounds_per_second)));
  if (options.smoke) {
    w.machines = std::min(w.machines, 60);
    w.rounds = 3;
  }
  return w;
}

/// Removes a durable-state directory when the run is done with it.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    if (!path_.empty()) std::filesystem::remove_all(path_);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A set-up session and, for round_durable, the directory it journals to.
struct Bed {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<KeaSession> session;
  long total_containers_at_start = 0;
  /// ClusterAverageTaskLatency over the prelude's last day.
  double prelude_latency_s = 0.0;
};

long TotalContainers(const sim::Cluster& cluster) {
  long total = 0;
  for (const sim::Machine& m : cluster.machines()) total += m.max_containers;
  return total;
}

/// Create, Enable* and the telemetry prelude: everything before the first
/// measured round.
StatusOr<Bed> SetUp(const RoundWorkload& w, const Options& options, int index) {
  Bed bed;
  KeaSession::Config config;
  config.machines = w.machines;
  config.seed = options.seed;
  KEA_ASSIGN_OR_RETURN(bed.session, KeaSession::Create(config));
  KeaSession& session = *bed.session;
  if (w.durable) {
    bed.dir = std::make_unique<ScratchDir>(
        options.work_dir + "/" + options.workload + "-" +
        std::to_string(getpid()) + "-" + std::to_string(index));
    KeaSession::DurabilityOptions durability;
    durability.dir = bed.dir->path();
    durability.keep_generations = 3;
    KEA_RETURN_IF_ERROR(session.EnableDurability(durability));
  } else {
    KeaSession::IngestionConfig ingestion;
    ingestion.seed = options.seed;
    if (w.dirty) {
      ingestion.faults = sim::FaultProfile::Moderate();
      ingestion.pipeline.max_lateness_hours = 12;
      ingestion.pipeline.stuck_run_threshold = 6;
      KeaSession::FleetChaosConfig chaos;
      chaos.profile = sim::FleetFaultProfile::CrashStorm();
      chaos.seed = options.seed;
      KEA_RETURN_IF_ERROR(session.EnableFleetChaos(chaos));
    }
    KEA_RETURN_IF_ERROR(session.EnableIngestionPipeline(ingestion));
  }
  KEA_RETURN_IF_ERROR(session.Simulate(w.prelude_hours));
  bed.total_containers_at_start = TotalContainers(session.cluster());
  KEA_ASSIGN_OR_RETURN(
      bed.prelude_latency_s,
      telemetry::PerformanceMonitor(&session.store())
          .ClusterAverageTaskLatency(telemetry::HourRangeFilter(
              w.prelude_hours - 24, w.prelude_hours)));
  return bed;
}

/// Per-pass record of the loop.
struct Pass {
  std::vector<Span> rounds;
  std::vector<Span> collects;
  /// Every round and collect, failed ones too: the time the loop was busy.
  std::vector<Span> busy;
  /// Wall time spent in rounds and collects.
  double wall_ms = 0.0;
  Digest digest;
  size_t rollbacks = 0;
};

/// round_digest: each round's recommendations, outcome, tripped wave and
/// restored-machine count, in round order.
void AddRound(const YarnConfigTuner::Plan& plan,
              const GuardrailedRollout::Report& report, Pass* pass) {
  pass->digest.Add(plan.recommendations.size());
  for (const core::GroupRecommendation& rec : plan.recommendations) {
    pass->digest.Add(static_cast<uint64_t>(rec.group.sc));
    pass->digest.Add(static_cast<uint64_t>(rec.group.sku));
    pass->digest.Add(static_cast<uint64_t>(rec.current_max_containers));
    pass->digest.Add(static_cast<uint64_t>(rec.recommended_max_containers));
  }
  pass->digest.Add(static_cast<uint64_t>(report.outcome));
  pass->digest.Add(static_cast<uint64_t>(report.tripped_wave));
  pass->digest.Add(report.machines_restored);
  if (report.outcome == GuardrailedRollout::Outcome::kRolledBack) {
    ++pass->rollbacks;
  }
}

void NoteFailure(const char* what, int index, const Status& status,
                 Result* result) {
  ++result->failed;
  std::fprintf(stderr, "%s %d failed: %s\n", what, index,
               status.ToString().c_str());
}

/// The measured loop: `rounds` x {round, collect}, timed on `speed`'s clock
/// with a kernel sample before each operation and after the last. `round`
/// adds the round it ran to the pass's digest. A failed operation is
/// counted, and its time is left out of the latency samples (it fails the
/// run in any case).
template <typename RoundFn, typename CollectFn>
Pass RunLoop(int rounds, const RoundFn& round, const CollectFn& collect,
             HostSpeed* speed, Result* result) {
  Pass pass;
  auto timed = [&](const char* what, int r, const auto& op,
                   std::vector<Span>* spans) {
    speed->Sample();
    Span span;
    span.begin_ms = speed->now_ms();
    const Status status = op();
    span.end_ms = speed->now_ms();
    pass.busy.push_back(span);
    pass.wall_ms += span.wall_ms();
    ++result->attempted;
    if (status.ok()) {
      spans->push_back(span);
    } else {
      NoteFailure(what, r, status, result);
    }
  };
  for (int r = 0; r < rounds; ++r) {
    timed("round", r, [&] { return round(&pass); }, &pass.rounds);
    timed("collect", r, collect, &pass.collects);
  }
  speed->Sample();
  return pass;
}

/// The screen KeaSession applies to a plan before any machine is touched.
bool PlanSane(const YarnConfigTuner::Plan& plan) {
  bool sane = std::isfinite(plan.predicted_capacity_gain) &&
              std::isfinite(plan.predicted_latency_before_s) &&
              std::isfinite(plan.predicted_latency_after_s);
  for (const core::GroupRecommendation& rec : plan.recommendations) {
    sane = sane && rec.recommended_max_containers >= 0;
  }
  for (const auto& [group, value] : plan.lp_solution) {
    sane = sane && std::isfinite(value);
  }
  return sane;
}

/// The ROUND_STARTED payload, encoded as KeaSession journals it.
std::string EncodeRoundStart(sim::HourIndex start, sim::HourIndex fit_begin,
                             const YarnConfigTuner::Plan& plan) {
  StateWriter w;
  w.PutI64(start);
  w.PutI64(fit_begin);
  w.PutI64(start);
  w.PutU64(plan.recommendations.size());
  for (const core::GroupRecommendation& rec : plan.recommendations) {
    w.PutInt(rec.group.sc);
    w.PutInt(rec.group.sku);
    w.PutInt(rec.current_max_containers);
    w.PutInt(rec.recommended_max_containers);
  }
  w.PutDouble(plan.predicted_capacity_gain);
  w.PutDouble(plan.predicted_latency_before_s);
  w.PutDouble(plan.predicted_latency_after_s);
  w.PutU64(plan.lp_solution.size());
  for (const auto& [group, value] : plan.lp_solution) {
    w.PutInt(group.sc);
    w.PutInt(group.sku);
    w.PutDouble(value);
  }
  return w.Release();
}

/// The traced loop. It makes the calls KeaSession makes inside Simulate()
/// and RunGuardedTuningRound(), on the session's own engine, cluster, store,
/// ingestion pipeline, fault injector and ledger, with a bench span around
/// each call into a layer. The session exposes its pipeline, injector and
/// ledger read-only; they are non-const objects it owns, so driving them
/// here through const_cast is well-defined. The bench keeps the simulation
/// clock, so the session's own now() stays at the end of the prelude.
class TracedLoop {
 public:
  TracedLoop(KeaSession* session, const RoundWorkload& w, std::string dir)
      : session_(session),
        workload_(w),
        dir_(std::move(dir)),
        now_(session->now()),
        pipeline_(const_cast<telemetry::IngestionPipeline*>(
            session->ingestion())),
        injector_(const_cast<sim::TelemetryFaultInjector*>(
            session->fault_injector())),
        ledger_(const_cast<core::DeploymentLedger*>(session->ledger())) {}

  struct RoundOut {
    YarnConfigTuner::Plan plan;
    GuardrailedRollout::Report report;
  };

  StatusOr<RoundOut> Round() {
    obs::SpanGuard root("bench.round");
    const KeaSession::GuardedRoundOptions& o = workload_.round;
    const sim::HourIndex start = now_;
    const sim::HourIndex begin = std::max(0, start - o.lookback_hours);
    StatusOr<core::WhatIfEngine> fitted = [&] {
      obs::SpanGuard span("core.fit");
      return core::WhatIfEngine::Fit(session_->store(),
                                     telemetry::HourRangeFilter(begin, start),
                                     o.tuner.whatif);
    }();
    if (!fitted.ok()) return fitted.status();
    StatusOr<YarnConfigTuner::Plan> plan = [&] {
      obs::SpanGuard span("apps.propose");
      return YarnConfigTuner(o.tuner).ProposeFromEngine(fitted.value(),
                                                        session_->cluster());
    }();
    if (!plan.ok()) return plan.status();
    if (!PlanSane(plan.value())) {
      return Status::FailedPrecondition("plan contains non-finite values");
    }
    engine_ = std::make_unique<core::WhatIfEngine>(std::move(fitted).value());
    fit_window_ = {begin, start};

    RoundOut out;
    out.plan = std::move(plan).value();
    GuardrailedRollout rollout(o.rollout);
    auto advance = [this](int hours) { return Advance(hours); };
    if (ledger_ == nullptr) {
      obs::SpanGuard span("core.rollout");
      KEA_ASSIGN_OR_RETURN(
          out.report,
          rollout.Execute(out.plan.recommendations, session_->mutable_cluster(),
                          &session_->store(), start, advance));
      return out;
    }

    const std::string key = "round/" + std::to_string(round_number_);
    KEA_RETURN_IF_ERROR(Append(core::DeploymentLedger::EventType::kRoundStarted,
                               key + "/started",
                               EncodeRoundStart(start, begin, out.plan)));
    KEA_RETURN_IF_ERROR(Checkpoint());
    GuardrailedRollout::JournalContext context;
    context.ledger = ledger_;
    context.durable_seq = ledger_->next_seq();
    context.round = round_number_;
    // The rollout asks to cover every event journaled so far, which is what
    // KeaSession::Checkpoint() writes.
    context.checkpoint = [this](uint64_t) { return Checkpoint(); };
    {
      obs::SpanGuard span("core.rollout");
      KEA_ASSIGN_OR_RETURN(
          out.report,
          rollout.ExecuteJournaled(out.plan.recommendations,
                                   session_->mutable_cluster(),
                                   &session_->store(), start, advance,
                                   &context));
    }
    StateWriter outcome;
    outcome.PutInt(static_cast<int>(out.report.outcome));
    outcome.PutInt(out.report.tripped_wave);
    outcome.PutU64(out.report.machines_restored);
    KEA_RETURN_IF_ERROR(
        Append(core::DeploymentLedger::EventType::kRoundFinished,
               key + "/finished", outcome.Release()));
    KEA_RETURN_IF_ERROR(Checkpoint());
    ++round_number_;
    return out;
  }

  /// The between-round Simulate: simulate, [inject], ingest, [checkpoint].
  Status Collect(int hours) {
    obs::SpanGuard root("bench.collect");
    KEA_RETURN_IF_ERROR(Advance(hours));
    return ledger_ != nullptr ? Checkpoint() : Status::OK();
  }

  sim::HourIndex now() const { return now_; }
  const core::WhatIfEngine* engine() const { return engine_.get(); }
  std::pair<sim::HourIndex, sim::HourIndex> fit_window() const {
    return fit_window_;
  }
  double machine_hours() const { return machine_hours_; }
  size_t checkpoints() const { return checkpoints_; }
  double checkpoint_bytes() const { return checkpoint_bytes_; }

 private:
  Status Advance(int hours) {
    machine_hours_ +=
        static_cast<double>(hours) * session_->cluster().machines().size();
    if (pipeline_ == nullptr) {
      obs::SpanGuard span("sim.run");
      KEA_RETURN_IF_ERROR(
          session_->engine()->Run(now_, hours, session_->mutable_store()));
    } else {
      telemetry::TelemetryStore scratch;
      {
        obs::SpanGuard span("sim.run");
        KEA_RETURN_IF_ERROR(session_->engine()->Run(now_, hours, &scratch));
      }
      std::vector<telemetry::MachineHourRecord> arrived;
      if (injector_ != nullptr) {
        obs::SpanGuard span("sim.corrupt");
        arrived = injector_->Corrupt(scratch.records());
      }
      obs::SpanGuard span("telemetry.ingest");
      KEA_RETURN_IF_ERROR(pipeline_->Ingest(
          injector_ != nullptr ? arrived : scratch.records()));
    }
    now_ += hours;
    return Status::OK();
  }

  Status Checkpoint() {
    Status written;
    {
      obs::SpanGuard span("common.checkpoint");
      written = session_->Checkpoint();
    }
    ++checkpoints_;
    std::error_code ec;
    checkpoint_bytes_ += static_cast<double>(
        std::filesystem::file_size(dir_ + "/checkpoint.kea", ec));
    return written;
  }

  Status Append(core::DeploymentLedger::EventType type, const std::string& key,
                const std::string& payload) {
    obs::SpanGuard span("core.ledger");
    return ledger_->Append(type, key, payload).status();
  }

  KeaSession* session_;
  const RoundWorkload& workload_;
  const std::string dir_;
  sim::HourIndex now_;
  telemetry::IngestionPipeline* pipeline_;
  sim::TelemetryFaultInjector* injector_;
  core::DeploymentLedger* ledger_;
  int round_number_ = 0;
  std::unique_ptr<core::WhatIfEngine> engine_;
  std::pair<sim::HourIndex, sim::HourIndex> fit_window_{0, 0};
  double machine_hours_ = 0.0;
  size_t checkpoints_ = 0;
  double checkpoint_bytes_ = 0.0;
};

/// The run's correctness checks on a session after its loop. Times each of
/// `resumes` KeaSession::Resume calls into `resume_ms`.
void CheckSession(const Bed& bed, const RoundWorkload& w, int resumes,
                  Result* result, std::vector<double>* resume_ms) {
  const KeaSession& session = *bed.session;
  if (const telemetry::IngestionPipeline* pipeline = session.ingestion()) {
    const telemetry::IngestionPipeline::Counters& c = pipeline->counters();
    result->Check(c.accepted + c.quarantined == c.seen,
                  "ingestion: accepted + quarantined != seen");
    if (!w.dirty) {
      result->Check(c.quarantined == 0, "clean ingestion quarantined records");
    }
  }
  if (!w.durable) return;
  StatusOr<Journal::ScrubReport> integrity =
      session.ledger()->VerifyIntegrity();
  result->Check(integrity.ok() && integrity->corrupt_bytes == 0 &&
                    integrity->records == session.ledger()->next_seq(),
                "ledger fails VerifyIntegrity");
  for (int i = 0; i < resumes; ++i) {
    const Clock::time_point t = Clock::now();
    StatusOr<std::unique_ptr<KeaSession>> resumed =
        KeaSession::Resume(bed.dir->path());
    resume_ms->push_back(MsSince(t));
    if (!resumed.ok()) {
      result->Check(false, "Resume failed: " + resumed.status().ToString());
      return;
    }
    if (i > 0) continue;
    const std::vector<sim::Machine>& live = session.cluster().machines();
    const std::vector<sim::Machine>& back =
        resumed.value()->cluster().machines();
    bool same = live.size() == back.size();
    for (size_t m = 0; same && m < live.size(); ++m) {
      same = live[m].max_containers == back[m].max_containers;
    }
    result->Check(same, "Resume does not reproduce per-machine max_containers");
  }
}

/// Deterministic outcome figures: the same seed must give the same values.
void AddQuality(const Bed& bed, Result* result) {
  const KeaSession& s = *bed.session;
  const double gain = static_cast<double>(TotalContainers(s.cluster())) /
                     static_cast<double>(bed.total_containers_at_start);
  result->Detail("capacity_gain_pct", 100.0 * (gain - 1.0), "%");
  telemetry::PerformanceMonitor monitor(&s.store());
  const sim::HourIndex end = s.now();
  StatusOr<double> last_week = monitor.ClusterAverageTaskLatency(
      telemetry::HourRangeFilter(std::max(0, end - sim::kHoursPerWeek), end));
  if (last_week.ok()) {
    result->Detail("latency_ratio", last_week.value() / bed.prelude_latency_s,
                   "ratio");
  }
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// The newest checkpoint generation under `dir`. Every checkpoint write
/// rotates the live file to the next generation number, so the difference
/// over a loop counts the checkpoints the loop wrote.
uint64_t CheckpointGeneration(const std::string& dir) {
  const std::vector<uint64_t> generations =
      SnapshotGenerations::List(dir + "/checkpoint.kea");
  return generations.empty() ? 0 : generations.back();
}

}  // namespace

Result RunRounds(const Options& options) {
  const RoundWorkload w = Describe(options);
  const int rounds = w.rounds;
  Result result;

  HostSpeed speed;
  std::vector<Span> setups;
  StatusOr<Bed> made = SetUpRepeatedly<Bed>(
      options, [&](int k) { return SetUp(w, options, k); }, &speed, &setups);
  if (!made.ok()) {
    result.Check(false, "set-up failed: " + made.status().ToString());
    return result;
  }
  std::optional<Bed> bed = std::move(made).value();

  KeaSession* session = bed->session.get();
  const uint64_t generation_before =
      w.durable ? CheckpointGeneration(bed->dir->path()) : 0;
  Pass plain = RunLoop(
      rounds,
      [&](Pass* pass) -> Status {
        StatusOr<KeaSession::GuardedRound> round =
            session->RunGuardedTuningRound(w.round);
        if (!round.ok()) return round.status();
        AddRound(round->plan, round->rollout, pass);
        return Status::OK();
      },
      [&] { return session->Simulate(w.collect_hours); }, &speed, &result);
  result.digest = plain.digest.value();
  // What the traced pass must reproduce: the ledger, byte for byte, and the
  // number of checkpoints.
  const uint64_t plain_checkpoints =
      w.durable ? CheckpointGeneration(bed->dir->path()) - generation_before
                : 0;
  const std::string plain_ledger =
      w.durable && options.trace ? ReadAll(bed->dir->path() + "/ledger.kea")
                                 : "";
  std::vector<double> resume_ms;
  CheckSession(*bed, w, w.durable ? 5 : 0, &result, &resume_ms);
  AddQuality(*bed, &result);
  result.Detail("rounds", rounds, "count");
  result.Detail("rollback_frac", static_cast<double>(plain.rollbacks) / rounds,
                "ratio", rounds);
  if (w.durable) {
    result.Detail("resume_ms", Median(resume_ms), "ms", resume_ms.size());
  }
  if (!options.trace) {
    AddEndToEnd(speed, setups, plain.rounds, plain.collects, plain.busy,
                &result);
    return result;
  }

  // The traced pass: the same schedule on a fresh, identically set-up
  // session, driven call by call.
  bed.reset();
  made = SetUp(w, options, static_cast<int>(setups.size()));
  if (!made.ok()) {
    result.Check(false, "set-up failed: " + made.status().ToString());
    return result;
  }
  Bed traced_bed = std::move(made).value();
  const std::string dir = w.durable ? traced_bed.dir->path() : "";
  TracedLoop loop(traced_bed.session.get(), w, dir);
  // Counts every storage decision (write, flush, rename, read); an installed
  // empty-profile injector is bit-exact with none.
  StorageFaultInjector recorder(StorageFaultProfile::None());
  if (w.durable) Io::Get().SetFaultInjector(&recorder);
  const double ledger_bytes_before = FileBytes(dir + "/ledger.kea");
  const uint64_t traced_generation_before =
      w.durable ? CheckpointGeneration(dir) : 0;

  obs::Tracer::Get().Clear();
  obs::EnableTracing();
  Pass traced = RunLoop(
      rounds,
      [&](Pass* pass) -> Status {
        StatusOr<TracedLoop::RoundOut> round = loop.Round();
        if (!round.ok()) return round.status();
        AddRound(round->plan, round->report, pass);
        return Status::OK();
      },
      [&] { return loop.Collect(w.collect_hours); }, &speed, &result);
  obs::DisableTracing();
  Io::Get().SetFaultInjector(nullptr);

  result.Check(traced.digest.value() == plain.digest.value(),
               "traced round_digest differs from the untraced one");
  if (w.durable) {
    // The traced pass journals and checkpoints through its own copy of the
    // session's round; these catch a drift in the ROUND_STARTED payload or
    // in the checkpoint cadence.
    result.Check(ReadAll(dir + "/ledger.kea") == plain_ledger,
                 "traced ledger.kea differs from the untraced one");
    const uint64_t traced_checkpoints =
        CheckpointGeneration(dir) - traced_generation_before;
    result.Check(traced_checkpoints == plain_checkpoints &&
                     traced_checkpoints == loop.checkpoints(),
                 "traced pass wrote " + std::to_string(traced_checkpoints) +
                     " checkpoints, the untraced one " +
                     std::to_string(plain_checkpoints));
  }
  CheckSession(traced_bed, w, w.durable ? 1 : 0, &result, &resume_ms);

  LayerFigures f;
  f.layers = LayerTimes(obs::Tracer::Get().Events());
  f.wall_ms = traced.wall_ms;
  f.untraced_wall_ms = plain.wall_ms;
  f.machine_hours = loop.machine_hours();
  if (loop.engine() != nullptr) {
    Probe(*loop.engine(), traced_bed.session->store(), loop.fit_window(), &f);
  }
  if (const telemetry::IngestionPipeline* pipeline =
          traced_bed.session->ingestion()) {
    const telemetry::IngestionPipeline::Counters& c = pipeline->counters();
    f.accept_frac = static_cast<double>(c.accepted) / c.seen;
  }
  f.rollback_frac = static_cast<double>(traced.rollbacks) / rounds;
  if (w.durable) {
    const double checkpoint_bytes = FileBytes(dir + "/checkpoint.kea");
    const double written = loop.checkpoint_bytes() +
                           FileBytes(dir + "/ledger.kea") - ledger_bytes_before;
    f.checkpoints_per_round = static_cast<double>(loop.checkpoints()) / rounds;
    f.checkpoint_mb = checkpoint_bytes / 1e6;
    f.write_mb_per_round = written / 1e6 / rounds;
    // Bytes written per byte of telemetry the loop added: the checkpoint's
    // size scaled by the share of its records that are new.
    f.write_amp = written / (checkpoint_bytes * loop.machine_hours() /
                             traced_bed.session->store().size());
    f.storage_ops_per_round =
        static_cast<double>(recorder.counters().ops) / rounds;
  }
  AddLayerMetrics(f, &result);
  WriteTrace(options.trace_file, &result);
  return result;
}

}  // namespace kea::bench
