#include "core/experiment_fabric.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/snapshot.h"
#include "common/thread_pool.h"
#include "core/deployment_ledger.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kea::core {
namespace {

obs::Counter* AdmittedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("fabric.flights_admitted");
  return c;
}
obs::Counter* RejectedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("fabric.flights_rejected");
  return c;
}
obs::Counter* DeferralsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("fabric.deferrals");
  return c;
}
obs::Counter* TripsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("fabric.guardrail_trips");
  return c;
}
obs::Counter* RollbacksCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("fabric.rollbacks");
  return c;
}
obs::Counter* ConcludedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("fabric.flights_concluded");
  return c;
}
/// Pre-flight value of every config field a patch can touch, per machine.
/// Journaled in FLIGHT_STARTED so rollback restores bit-exact state from the
/// record even across a crash.
struct Prior {
  int id = 0;
  int old_max = 0;
  int new_max = 0;  ///< Post-patch value (for the applied-changes audit CSV).
  double power = 1.0;
  bool feature = false;
  int sc = 0;
};

/// The FLIGHT_STARTED record: every arm's patch with the priors of its
/// machines (none for an unpatched arm), then the flight's down-hours
/// reading at its start. The record, not the request, is the authority for
/// every later patch, switch and restore.
struct StartRecord {
  std::vector<ConfigPatch> patches;
  std::vector<std::vector<Prior>> priors;
  uint64_t down_hours = 0;
};

/// A flight's rack/machine reservation. Held until the *planned* horizon ends
/// even after a trip — post-rollback carryover on those machines must not
/// contaminate a newly admitted experiment.
struct Reservation {
  std::set<int> racks;
  std::unordered_set<int> machines;
  sim::HourIndex planned_end = 0;
  bool running = false;  ///< Patch applied and not yet concluded/rolled back.
  size_t flighted = 0;   ///< Distinct machines (blast-radius units).
};

struct FlightState {
  size_t index = 0;
  const FlightRequest* req = nullptr;
  bool time_sliced = false;
  ExperimentFabric::FlightConclusion conclusion;
  std::vector<int> machines;  ///< Every machine of the flight, once.
  StartRecord start;
  sim::HourIndex planned_end = 0;
  int windows_done = 0;
  bool running = false;
  bool finished = false;
};

/// Candidate partition for one request, or the typed reason it is blocked.
struct Assignment {
  std::vector<int> racks;
  std::vector<std::vector<int>> arms;
  InterferenceReason blocked = InterferenceReason::kNone;
};

/// Every machine of `arms`, once, in id order.
std::vector<int> DistinctMachines(const std::vector<std::vector<int>>& arms) {
  std::set<int> ids;
  for (const auto& arm : arms) ids.insert(arm.begin(), arm.end());
  return {ids.begin(), ids.end()};
}

bool PatchesCapacity(const FlightRequest& req) {
  for (const ConfigPatch& patch : req.arms) {
    if (patch.max_containers) return true;
  }
  return false;
}

/// Builds a partition from free whole racks of the request's SKU (racks are
/// SKU-homogeneous by construction), dealt to the arms by DealArms: the first
/// racks that hold k * machines_per_arm machines, each arm truncated to
/// machines_per_arm. With `ignore_reserved` the partition is attempted as if
/// the fabric were idle — used to tell a temporary conflict (defer) from a
/// fleet that can never field the experiment (reject).
Assignment AssignFromRacks(const sim::Cluster& cluster,
                           const FlightRequest& req,
                           const std::set<int>& reserved_racks,
                           bool ignore_reserved) {
  Assignment a;
  std::map<int, std::vector<int>> by_rack;
  for (const sim::Machine& m : cluster.machines()) {
    if (m.sku == req.sku) by_rack[m.rack].push_back(m.id);
  }
  const size_t per_arm = static_cast<size_t>(req.machines_per_arm);
  const size_t needed = req.arms.size() * per_arm;
  std::vector<int> ids;
  for (const auto& [rack, pool] : by_rack) {
    if (ids.size() >= needed) break;
    if (!ignore_reserved && reserved_racks.count(rack) > 0) continue;
    a.racks.push_back(rack);
    ids.insert(ids.end(), pool.begin(), pool.end());
  }
  if (ids.size() < needed) {
    a.blocked = InterferenceReason::kInsufficientMachines;
    return a;
  }
  a.arms = DealArms(cluster, std::move(ids), static_cast<int>(req.arms.size()));
  for (auto& arm : a.arms) arm.resize(per_arm);
  return a;
}

/// Takes the request's pinned arms as given, checking them against the
/// active reservations (shared machines beat shared racks as the reported
/// reason — they are the more direct interference).
Assignment AssignPinned(const sim::Cluster& cluster, const FlightRequest& req,
                        const std::set<int>& reserved_racks,
                        const std::unordered_set<int>& reserved_machines) {
  Assignment a;
  const std::vector<int> ids = DistinctMachines(req.pinned_arms);
  const auto& machines = cluster.machines();
  for (int id : ids) {
    if (reserved_machines.count(id) > 0) {
      a.blocked = InterferenceReason::kSharedMachines;
      return a;
    }
  }
  std::set<int> racks;
  for (int id : ids) racks.insert(machines[static_cast<size_t>(id)].rack);
  for (int rack : racks) {
    if (reserved_racks.count(rack) > 0) {
      a.blocked = InterferenceReason::kSharedRack;
      return a;
    }
  }
  a.racks.assign(racks.begin(), racks.end());
  a.arms = req.pinned_arms;
  return a;
}

Status RestorePriors(const std::vector<Prior>& priors, sim::Cluster* cluster) {
  auto& machines = cluster->mutable_machines();
  for (const Prior& p : priors) {
    if (p.id < 0 || static_cast<size_t>(p.id) >= machines.size()) {
      return Status::OutOfRange("machine id " + std::to_string(p.id));
    }
    sim::Machine& m = machines[static_cast<size_t>(p.id)];
    m.max_containers = p.old_max;
    m.power_cap_fraction = p.power;
    m.feature_enabled = p.feature;
    if (m.sc != p.sc) {
      KEA_RETURN_IF_ERROR(cluster->SetSoftwareConfig({p.id}, p.sc));
    }
  }
  return Status::OK();
}

/// Restores every patched machine of the flight to its pre-flight state.
Status RestoreAll(const StartRecord& rec, sim::Cluster* cluster) {
  for (const auto& priors : rec.priors) {
    KEA_RETURN_IF_ERROR(RestorePriors(priors, cluster));
  }
  return Status::OK();
}

/// Applies arm `arm`'s patch to its machines.
Status RunArm(const StartRecord& rec, size_t arm, sim::Cluster* cluster) {
  std::vector<int> ids;
  ids.reserve(rec.priors[arm].size());
  for (const Prior& p : rec.priors[arm]) ids.push_back(p.id);
  return ApplyPatch(rec.patches[arm], ids, cluster);
}

/// Distinct machines the flight patches (restored at its end).
size_t PatchedMachines(const StartRecord& rec) {
  std::set<int> ids;
  for (const auto& priors : rec.priors) {
    for (const Prior& p : priors) ids.insert(p.id);
  }
  return ids.size();
}

std::string EncodeStart(const StartRecord& rec) {
  StateWriter w;
  w.PutU64(rec.patches.size());
  for (size_t a = 0; a < rec.patches.size(); ++a) {
    w.PutString(EncodeConfigPatch(rec.patches[a]));
    w.PutU64(rec.priors[a].size());
    for (const Prior& p : rec.priors[a]) {
      w.PutInt(p.id);
      w.PutInt(p.old_max);
      w.PutInt(p.new_max);
      w.PutDouble(p.power);
      w.PutBool(p.feature);
      w.PutInt(p.sc);
    }
  }
  w.PutU64(rec.down_hours);
  return w.Release();
}

Status DecodeStart(const std::string& blob, StartRecord* rec) {
  StateReader r(blob);
  uint64_t arms = 0;
  KEA_RETURN_IF_ERROR(r.GetU64(&arms));
  rec->patches.assign(arms, ConfigPatch{});
  rec->priors.assign(arms, {});
  for (uint64_t a = 0; a < arms; ++a) {
    std::string patch_blob;
    KEA_RETURN_IF_ERROR(r.GetString(&patch_blob));
    KEA_RETURN_IF_ERROR(DecodeConfigPatch(patch_blob, &rec->patches[a]));
    uint64_t count = 0;
    KEA_RETURN_IF_ERROR(r.GetU64(&count));
    rec->priors[a].assign(count, Prior{});
    for (Prior& p : rec->priors[a]) {
      KEA_RETURN_IF_ERROR(r.GetInt(&p.id));
      KEA_RETURN_IF_ERROR(r.GetInt(&p.old_max));
      KEA_RETURN_IF_ERROR(r.GetInt(&p.new_max));
      KEA_RETURN_IF_ERROR(r.GetDouble(&p.power));
      KEA_RETURN_IF_ERROR(r.GetBool(&p.feature));
      KEA_RETURN_IF_ERROR(r.GetInt(&p.sc));
    }
  }
  return r.GetU64(&rec->down_hours);
}

/// One window's guardrail readings: (arm, evaluation) per guarded arm.
using Verdict = std::vector<std::pair<int, GuardrailEvaluation>>;

std::string EncodeVerdict(const Verdict& verdict) {
  StateWriter w;
  w.PutU64(verdict.size());
  for (const auto& [arm, eval] : verdict) {
    w.PutInt(arm);
    w.PutString(GuardrailedRollout::EncodeEvaluation(eval));
  }
  return w.Release();
}

Status DecodeVerdict(const std::string& blob, Verdict* verdict) {
  StateReader r(blob);
  uint64_t n = 0;
  KEA_RETURN_IF_ERROR(r.GetU64(&n));
  verdict->assign(n, {});
  for (auto& [arm, eval] : *verdict) {
    std::string eval_blob;
    KEA_RETURN_IF_ERROR(r.GetInt(&arm));
    KEA_RETURN_IF_ERROR(r.GetString(&eval_blob));
    KEA_RETURN_IF_ERROR(GuardrailedRollout::DecodeEvaluation(eval_blob, &eval));
  }
  return Status::OK();
}

/// The first failing reading of a verdict, or null when every arm passed.
const std::pair<int, GuardrailEvaluation>* FirstTrip(const Verdict& verdict) {
  for (const auto& reading : verdict) {
    if (!reading.second.pass()) return &reading;
  }
  return nullptr;
}

void PutIntVec(StateWriter* w, const std::vector<int>& v) {
  w->PutU64(v.size());
  for (int x : v) w->PutInt(x);
}

Status GetIntVec(StateReader* r, std::vector<int>* v) {
  uint64_t n = 0;
  KEA_RETURN_IF_ERROR(r->GetU64(&n));
  v->assign(n, 0);
  for (uint64_t i = 0; i < n; ++i) KEA_RETURN_IF_ERROR(r->GetInt(&(*v)[i]));
  return Status::OK();
}

void PutEffect(StateWriter* w, const TreatmentEffect& e) {
  w->PutString(e.metric);
  w->PutDouble(e.control_mean);
  w->PutDouble(e.treatment_mean);
  w->PutDouble(e.percent_change);
  w->PutDouble(e.t_value);
  w->PutDouble(e.p_value);
  w->PutBool(e.significant);
}

Status GetEffect(StateReader* r, TreatmentEffect* e) {
  KEA_RETURN_IF_ERROR(r->GetString(&e->metric));
  KEA_RETURN_IF_ERROR(r->GetDouble(&e->control_mean));
  KEA_RETURN_IF_ERROR(r->GetDouble(&e->treatment_mean));
  KEA_RETURN_IF_ERROR(r->GetDouble(&e->percent_change));
  KEA_RETURN_IF_ERROR(r->GetDouble(&e->t_value));
  KEA_RETURN_IF_ERROR(r->GetDouble(&e->p_value));
  KEA_RETURN_IF_ERROR(r->GetBool(&e->significant));
  return Status::OK();
}

/// The arm a time-sliced flight runs in window `window`.
size_t SlicedArm(int window, size_t arms) {
  return static_cast<size_t>(window) % arms;
}

/// Sets each arm's hours from the windows the flight completed: every
/// window for a concurrent arm, windows a, a + k, ... for time-sliced arm a.
void SetArmHours(const FlightState& st, ExperimentFabric::FlightConclusion* c) {
  const int k = static_cast<int>(c->arms.size());
  const int n = st.windows_done;
  for (int a = 0; a < k; ++a) {
    const int windows = st.time_sliced ? n / k + (a < n % k ? 1 : 0) : n;
    c->arms[static_cast<size_t>(a)].hours = windows * st.req->window_hours;
  }
}

/// Fills every treatment arm's effect estimates against arm 0 for a
/// conclusion whose window and arms are set: per machine-hour data read and
/// task latency over [start, end), task-bearing finite records only
/// (machine-hours silenced by chaos simply drop out). A concurrent flight's
/// record belongs to its machine's arm, a time-sliced flight's to the arm of
/// its hour's window.
void EstimateEffects(const telemetry::TelemetryStore& store,
                     const FlightState& st,
                     ExperimentFabric::FlightConclusion* c) {
  const size_t k = c->arms.size();
  std::unordered_map<int, size_t> arm_of;
  for (size_t a = 0; a < (st.time_sliced ? 1 : k); ++a) {
    for (int id : c->arms[a].machines) arm_of.emplace(id, a);
  }
  std::vector<std::vector<double>> data(k), latency(k);
  store.ForEach(
      telemetry::HourRangeFilter(c->start_hour, c->end_hour),
      [&](const telemetry::MachineHourRecord& r) {
        if (!std::isfinite(r.data_read_mb) ||
            !std::isfinite(r.avg_task_latency_s) ||
            !std::isfinite(r.tasks_finished) || r.tasks_finished <= 0.0) {
          return;
        }
        auto it = arm_of.find(r.machine_id);
        if (it == arm_of.end()) return;
        const size_t arm =
            st.time_sliced
                ? SlicedArm((r.hour - c->start_hour) / st.req->window_hours, k)
                : it->second;
        data[arm].push_back(r.data_read_mb);
        latency[arm].push_back(r.avg_task_latency_s);
      });
  c->effect_ok = true;
  for (size_t a = 1; a < k; ++a) {
    ExperimentFabric::ArmConclusion& arm = c->arms[a];
    StatusOr<TreatmentEffect> d =
        EstimateTreatmentEffect("data_read_mb", data[0], data[a]);
    StatusOr<TreatmentEffect> l =
        EstimateTreatmentEffect("avg_task_latency_s", latency[0], latency[a]);
    c->effect_ok = c->effect_ok && d.ok() && l.ok();
    if (d.ok()) {
      arm.data_read = std::move(d).value();
      // 95% CI of the percent change, from the t statistic (se = diff / t).
      double half = std::abs(arm.data_read.t_value) > 1e-12
                        ? 1.96 * std::abs(arm.data_read.percent_change /
                                          arm.data_read.t_value)
                        : 1.0;
      arm.data_read_ci_low = arm.data_read.percent_change - half;
      arm.data_read_ci_high = arm.data_read.percent_change + half;
    }
    if (l.ok()) arm.task_latency = std::move(l).value();
  }
}

}  // namespace

const char* InterferenceReasonToString(InterferenceReason reason) {
  switch (reason) {
    case InterferenceReason::kNone:
      return "NONE";
    case InterferenceReason::kSharedMachines:
      return "SHARED_MACHINES";
    case InterferenceReason::kSharedRack:
      return "SHARED_RACK";
    case InterferenceReason::kKnobInteraction:
      return "KNOB_INTERACTION";
    case InterferenceReason::kBlastRadiusBudget:
      return "BLAST_RADIUS_BUDGET";
    case InterferenceReason::kInsufficientMachines:
      return "INSUFFICIENT_MACHINES";
  }
  return "UNKNOWN";
}

bool IsTimeSliced(const FlightRequest& req) {
  if (req.pinned_arms.size() < 2) return false;
  std::vector<int> first = req.pinned_arms[0];
  std::sort(first.begin(), first.end());
  for (size_t a = 1; a < req.pinned_arms.size(); ++a) {
    std::vector<int> arm = req.pinned_arms[a];
    std::sort(arm.begin(), arm.end());
    if (arm != first) return false;
  }
  return true;
}

Status ConclusionStatus(const ExperimentFabric::FlightConclusion& c) {
  const std::string flight = "flight '" + c.name + "'";
  if (!c.admitted) {
    return Status::FailedPrecondition(flight + " was rejected: " +
                                      InterferenceReasonToString(c.rejected));
  }
  if (c.tripped) {
    return Status::FailedPrecondition(
        flight + " tripped its guardrails on arm " +
        std::to_string(c.tripped_arm) + " in window " +
        std::to_string(c.tripped_window) + ": " + c.trip_eval.Describe());
  }
  return Status::OK();
}

ExperimentFabric::ExperimentFabric(const Options& options)
    : options_(options) {}

std::string ExperimentFabric::EncodeConclusion(const FlightConclusion& c) {
  StateWriter w;
  w.PutInt(c.flight);
  w.PutString(c.name);
  w.PutBool(c.admitted);
  w.PutInt(static_cast<int>(c.rejected));
  w.PutU64(c.deferrals);
  w.PutI64(c.start_hour);
  w.PutI64(c.end_hour);
  PutIntVec(&w, c.racks);
  w.PutU64(c.arms.size());
  for (const ArmConclusion& arm : c.arms) {
    PutIntVec(&w, arm.machines);
    w.PutInt(arm.hours);
    PutEffect(&w, arm.data_read);
    PutEffect(&w, arm.task_latency);
    w.PutDouble(arm.data_read_ci_low);
    w.PutDouble(arm.data_read_ci_high);
  }
  w.PutBool(c.tripped);
  w.PutInt(c.tripped_window);
  w.PutInt(c.tripped_arm);
  w.PutString(GuardrailedRollout::EncodeEvaluation(c.trip_eval));
  w.PutBool(c.effect_ok);
  w.PutU64(c.down_hours);
  w.PutU64(c.machines_restored);
  return w.Release();
}

Status ExperimentFabric::DecodeConclusion(const std::string& blob,
                                          FlightConclusion* c) {
  StateReader r(blob);
  int rejected = 0;
  int64_t start = 0, end = 0;
  uint64_t arms = 0, restored = 0;
  std::string eval_blob;
  KEA_RETURN_IF_ERROR(r.GetInt(&c->flight));
  KEA_RETURN_IF_ERROR(r.GetString(&c->name));
  KEA_RETURN_IF_ERROR(r.GetBool(&c->admitted));
  KEA_RETURN_IF_ERROR(r.GetInt(&rejected));
  KEA_RETURN_IF_ERROR(r.GetU64(&c->deferrals));
  KEA_RETURN_IF_ERROR(r.GetI64(&start));
  KEA_RETURN_IF_ERROR(r.GetI64(&end));
  KEA_RETURN_IF_ERROR(GetIntVec(&r, &c->racks));
  KEA_RETURN_IF_ERROR(r.GetU64(&arms));
  c->arms.assign(arms, ArmConclusion{});
  for (ArmConclusion& arm : c->arms) {
    KEA_RETURN_IF_ERROR(GetIntVec(&r, &arm.machines));
    KEA_RETURN_IF_ERROR(r.GetInt(&arm.hours));
    KEA_RETURN_IF_ERROR(GetEffect(&r, &arm.data_read));
    KEA_RETURN_IF_ERROR(GetEffect(&r, &arm.task_latency));
    KEA_RETURN_IF_ERROR(r.GetDouble(&arm.data_read_ci_low));
    KEA_RETURN_IF_ERROR(r.GetDouble(&arm.data_read_ci_high));
  }
  KEA_RETURN_IF_ERROR(r.GetBool(&c->tripped));
  KEA_RETURN_IF_ERROR(r.GetInt(&c->tripped_window));
  KEA_RETURN_IF_ERROR(r.GetInt(&c->tripped_arm));
  KEA_RETURN_IF_ERROR(r.GetString(&eval_blob));
  KEA_RETURN_IF_ERROR(
      GuardrailedRollout::DecodeEvaluation(eval_blob, &c->trip_eval));
  KEA_RETURN_IF_ERROR(r.GetBool(&c->effect_ok));
  KEA_RETURN_IF_ERROR(r.GetU64(&c->down_hours));
  KEA_RETURN_IF_ERROR(r.GetU64(&restored));
  c->rejected = static_cast<InterferenceReason>(rejected);
  c->start_hour = static_cast<sim::HourIndex>(start);
  c->end_hour = static_cast<sim::HourIndex>(end);
  c->machines_restored = static_cast<size_t>(restored);
  return Status::OK();
}

Status ExperimentFabric::Validate(const std::vector<FlightRequest>& requests,
                                  const Options& options,
                                  const sim::Cluster& cluster) {
  if (requests.empty()) {
    return Status::InvalidArgument("no flight requests");
  }
  if (options.max_flighted_fraction <= 0.0 ||
      options.max_flighted_fraction > 1.0) {
    return Status::InvalidArgument(
        "max_flighted_fraction must be in (0, 1]");
  }
  if (options.baseline_hours <= 0) {
    return Status::InvalidArgument("baseline_hours must be positive");
  }
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  const auto& machines = cluster.machines();
  for (const FlightRequest& req : requests) {
    const std::string flight = "flight '" + req.name + "'";
    if (req.machines_per_arm <= 0) {
      return Status::InvalidArgument("machines_per_arm must be positive");
    }
    if (req.window_hours <= 0) {
      return Status::InvalidArgument("window_hours must be positive");
    }
    if (req.num_windows <= 0) {
      return Status::InvalidArgument("num_windows must be positive");
    }
    if (req.arms.size() < 2) {
      return Status::InvalidArgument(flight + " needs a control and a treatment arm");
    }
    for (size_t a = 1; a < req.arms.size(); ++a) {
      if (req.arms[a].empty()) {
        return Status::InvalidArgument(flight + " has an empty patch on arm " +
                                       std::to_string(a));
      }
    }
    if (req.pinned_arms.empty()) continue;
    if (req.pinned_arms.size() != req.arms.size()) {
      return Status::InvalidArgument(
          flight + " pins " + std::to_string(req.pinned_arms.size()) +
          " arms for " + std::to_string(req.arms.size()) + " patches");
    }
    const bool sliced = IsTimeSliced(req);
    if (sliced && req.num_windows < static_cast<int>(req.arms.size())) {
      return Status::InvalidArgument(
          flight + " is time-sliced over fewer windows than arms");
    }
    std::unordered_map<int, size_t> arm_of;
    for (size_t a = 0; a < req.pinned_arms.size(); ++a) {
      if (req.pinned_arms[a].empty()) {
        return Status::InvalidArgument(flight + " pins an empty arm");
      }
      std::unordered_set<int> in_arm;
      for (int id : req.pinned_arms[a]) {
        auto machine = [&] { return "pinned machine id " + std::to_string(id); };
        if (id < 0 || static_cast<size_t>(id) >= machines.size()) {
          return Status::OutOfRange(machine());
        }
        if (machines[static_cast<size_t>(id)].sku != req.sku) {
          return Status::InvalidArgument(flight + ": " + machine() +
                                         " is not of SKU " +
                                         std::to_string(req.sku));
        }
        if (!in_arm.insert(id).second) {
          return Status::InvalidArgument(flight + ": " + machine() +
                                         " repeats within arm " +
                                         std::to_string(a));
        }
        if (!sliced && !arm_of.emplace(id, a).second) {
          return Status::InvalidArgument(
              flight + ": " + machine() + " is in arms " +
              std::to_string(arm_of[id]) + " and " + std::to_string(a) +
              "; pinned arms must be disjoint or all the same machines");
        }
      }
    }
  }
  return Status::OK();
}

StatusOr<ExperimentFabric::Report> ExperimentFabric::Run(
    const std::vector<FlightRequest>& requests, sim::Cluster* cluster,
    const telemetry::TelemetryStore* store, sim::HourIndex start_hour,
    const AdvanceFn& advance, JournalContext* ctx) {
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  if (store == nullptr) return Status::InvalidArgument("null telemetry store");
  if (!advance) return Status::InvalidArgument("null advance function");
  KEA_RETURN_IF_ERROR(Validate(requests, options_, *cluster));

  const size_t fleet = cluster->machines().size();
  const size_t budget = static_cast<size_t>(
      options_.max_flighted_fraction * static_cast<double>(fleet));
  const std::string prefix = "fab" + std::to_string(ctx ? ctx->round : 0);
  KEA_TRACE_SPAN("fabric.run",
                 {{"requests", std::to_string(requests.size())},
                  {"budget_machines", std::to_string(budget)},
                  {"journaled", ctx ? "1" : "0"}});
  // Every transition below is one JournaledStep: journaled and checkpointed
  // with a context, payload + effect only without one.
  using EventType = DeploymentLedger::EventType;

  std::vector<FlightState> states(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    states[i].index = i;
    states[i].req = &requests[i];
    states[i].time_sliced = IsTimeSliced(requests[i]);
    states[i].conclusion.flight = static_cast<int>(i);
    states[i].conclusion.name = requests[i].name;
  }

  Report report;
  report.flights.resize(requests.size());
  std::map<size_t, Reservation> reservations;  ///< By flight index.
  sim::HourIndex now = start_hour;
  int adv_count = 0;

  auto reserved_racks_at = [&](sim::HourIndex hour) {
    std::set<int> racks;
    for (const auto& [idx, res] : reservations) {
      if (res.planned_end > hour) racks.insert(res.racks.begin(), res.racks.end());
    }
    return racks;
  };
  auto reserved_machines_at = [&](sim::HourIndex hour) {
    std::unordered_set<int> ids;
    for (const auto& [idx, res] : reservations) {
      if (res.planned_end > hour) {
        ids.insert(res.machines.begin(), res.machines.end());
      }
    }
    return ids;
  };
  auto flighted_now = [&] {
    size_t total = 0;
    for (const auto& [idx, res] : reservations) {
      if (res.running) total += res.flighted;
    }
    return total;
  };
  auto running_count = [&] {
    size_t total = 0;
    for (const auto& [idx, res] : reservations) {
      if (res.running) ++total;
    }
    return total;
  };

  // Starts one admitted flight: journals the admission + every arm's patch
  // with its per-machine priors, applies what runs first (every arm of a
  // concurrent flight, arm 0 of a time-sliced one), books the reservation.
  auto start_flight = [&](FlightState& st, const Assignment* fresh_assignment)
      -> Status {
    const std::string fkey = prefix + "/f" + std::to_string(st.index);
    std::string payload;
    KEA_RETURN_IF_ERROR(JournaledStep(
        ctx, EventType::kFlightAdmitted, fkey + "/admitted", "fabric.admitted",
        [&] {
          StateWriter w;
          w.PutI64(now);
          w.PutI64(now + st.req->window_hours * st.req->num_windows);
          w.PutU64(st.conclusion.deferrals);
          PutIntVec(&w, fresh_assignment->racks);
          w.PutU64(fresh_assignment->arms.size());
          for (const auto& arm : fresh_assignment->arms) PutIntVec(&w, arm);
          return w.Release();
        },
        nullptr, &payload));
    {
      StateReader r(payload);
      int64_t start = 0, end = 0;
      uint64_t arms = 0;
      KEA_RETURN_IF_ERROR(r.GetI64(&start));
      KEA_RETURN_IF_ERROR(r.GetI64(&end));
      KEA_RETURN_IF_ERROR(r.GetU64(&st.conclusion.deferrals));
      KEA_RETURN_IF_ERROR(GetIntVec(&r, &st.conclusion.racks));
      KEA_RETURN_IF_ERROR(r.GetU64(&arms));
      if (arms != st.req->arms.size()) {
        return Status::FailedPrecondition(
            fkey + " was admitted with " + std::to_string(arms) +
            " arms, its request has " + std::to_string(st.req->arms.size()));
      }
      st.conclusion.arms.assign(arms, ArmConclusion{});
      std::vector<std::vector<int>> arm_machines(arms);
      for (size_t a = 0; a < arms; ++a) {
        KEA_RETURN_IF_ERROR(GetIntVec(&r, &arm_machines[a]));
        st.conclusion.arms[a].machines = arm_machines[a];
      }
      st.machines = DistinctMachines(arm_machines);
      st.conclusion.start_hour = static_cast<sim::HourIndex>(start);
      st.planned_end = static_cast<sim::HourIndex>(end);
      st.conclusion.admitted = true;
    }

    // The partition rule, checked where it takes effect: a flight never
    // starts on a rack another live reservation holds.
    for (const auto& [idx, res] : reservations) {
      if (res.planned_end <= st.conclusion.start_hour) continue;
      for (int rack : st.conclusion.racks) {
        if (res.racks.count(rack) > 0) {
          return Status::Internal("fabric admitted flight " +
                                  std::to_string(st.index) + " onto rack " +
                                  std::to_string(rack) + " of live flight " +
                                  std::to_string(idx));
        }
      }
    }

    KEA_RETURN_IF_ERROR(JournaledStep(
        ctx, EventType::kFlightStarted, fkey + "/started", "fabric.started",
        [&] {
          StartRecord rec;
          rec.patches = st.req->arms;
          rec.priors.resize(rec.patches.size());
          const auto& machines = cluster->machines();
          for (size_t a = 0; a < rec.patches.size(); ++a) {
            const ConfigPatch& patch = rec.patches[a];
            if (patch.empty()) continue;
            for (int id : st.conclusion.arms[a].machines) {
              const sim::Machine& m = machines[static_cast<size_t>(id)];
              rec.priors[a].push_back(
                  {id, m.max_containers,
                   patch.max_containers.value_or(m.max_containers),
                   m.power_cap_fraction, m.feature_enabled, m.sc});
            }
          }
          rec.down_hours =
              options_.down_hours ? options_.down_hours(st.machines) : 0;
          return EncodeStart(rec);
        },
        [&](const std::string& p) -> Status {
          StartRecord rec;
          KEA_RETURN_IF_ERROR(DecodeStart(p, &rec));
          if (st.time_sliced) return RunArm(rec, 0, cluster);
          for (size_t a = 0; a < rec.patches.size(); ++a) {
            KEA_RETURN_IF_ERROR(RunArm(rec, a, cluster));
          }
          return Status::OK();
        },
        &payload));
    // The recorded priors are the rollback authority.
    KEA_RETURN_IF_ERROR(DecodeStart(payload, &st.start));
    st.conclusion.machines_restored = PatchedMachines(st.start);

    Reservation res;
    res.racks.insert(st.conclusion.racks.begin(), st.conclusion.racks.end());
    res.machines.insert(st.machines.begin(), st.machines.end());
    res.planned_end = st.planned_end;
    res.running = true;
    res.flighted = st.machines.size();
    reservations[st.index] = std::move(res);
    st.running = true;
    AdmittedCounter()->Increment();
    ++report.admitted;
    return Status::OK();
  };

  // Concludes one flight: journals the (tripped or estimated) conclusion and
  // restores the pre-flight configuration. Restoration is idempotent, so a
  // re-driven conclude after a trip's rollback is harmless.
  auto conclude_flight = [&](FlightState& st) -> Status {
    const std::string fkey = prefix + "/f" + std::to_string(st.index);
    SetArmHours(st, &st.conclusion);
    std::string payload;
    KEA_RETURN_IF_ERROR(JournaledStep(
        ctx, EventType::kFlightConcluded, fkey + "/concluded",
        "fabric.concluded",
        [&] {
          if (options_.down_hours) {
            st.conclusion.down_hours =
                options_.down_hours(st.machines) - st.start.down_hours;
          }
          return EncodeConclusion(st.conclusion);
        },
        [&](const std::string&) { return RestoreAll(st.start, cluster); },
        &payload));
    KEA_RETURN_IF_ERROR(DecodeConclusion(payload, &st.conclusion));
    st.running = false;
    st.finished = true;
    reservations[st.index].running = false;
    ConcludedCounter()->Increment();
    return Status::OK();
  };

  // The deterministic scheduling loop: admission pass (request order), then
  // advance to the next slice boundary, then guardrail verdicts for every
  // flight whose boundary this is.
  while (true) {
    // --- Admission pass.
    for (FlightState& st : states) {
      if (st.finished || st.running || st.conclusion.admitted) continue;
      const std::string admit_key =
          prefix + "/f" + std::to_string(st.index) + "/admitted";
      const DeploymentLedger::Event* admitted_ev =
          ctx != nullptr ? ctx->ledger->Find(admit_key) : nullptr;
      if (admitted_ev != nullptr) {
        // Journaled admission: the record is the authority. It may belong to
        // a later boundary of the re-driven schedule — only replay it when
        // the clock matches its recorded start.
        StateReader r(admitted_ev->payload);
        int64_t recorded_start = 0;
        KEA_RETURN_IF_ERROR(r.GetI64(&recorded_start));
        if (recorded_start != static_cast<int64_t>(now)) continue;
        KEA_RETURN_IF_ERROR(start_flight(st, nullptr));
        continue;
      }

      const FlightRequest& req = *st.req;
      const bool pinned = !req.pinned_arms.empty();
      Assignment assign =
          pinned ? AssignPinned(*cluster, req, reserved_racks_at(now),
                                reserved_machines_at(now))
                 : AssignFromRacks(*cluster, req, reserved_racks_at(now), false);
      InterferenceReason blocked = assign.blocked;
      bool permanent = false;
      if (blocked != InterferenceReason::kNone) {
        // Temporarily blocked, or impossible even on an idle fabric? Pinned
        // arms always fit an idle fabric.
        Assignment idle = pinned ? Assignment{}
                                 : AssignFromRacks(*cluster, req, {}, true);
        if (idle.blocked != InterferenceReason::kNone) {
          blocked = idle.blocked;
          permanent = true;
        } else if (blocked == InterferenceReason::kInsufficientMachines) {
          // Enough machines exist, they are just reserved right now.
          blocked = InterferenceReason::kSharedRack;
        }
      } else {
        // Capacity knobs couple through the work-conserving scheduler: two
        // concurrent flights moving max_containers would confound each other
        // (and the blast-radius accounting), so they serialize.
        if (PatchesCapacity(req)) {
          for (const FlightState& other : states) {
            if (other.running && PatchesCapacity(*other.req)) {
              blocked = InterferenceReason::kKnobInteraction;
              break;
            }
          }
        }
        if (blocked == InterferenceReason::kNone) {
          size_t cand = DistinctMachines(assign.arms).size();
          if (cand > budget) {
            blocked = InterferenceReason::kBlastRadiusBudget;
            permanent = true;
          } else if (flighted_now() + cand > budget) {
            blocked = InterferenceReason::kBlastRadiusBudget;
          }
        }
      }

      if (blocked == InterferenceReason::kNone) {
        KEA_RETURN_IF_ERROR(start_flight(st, &assign));
      } else if (permanent) {
        st.conclusion.rejected = blocked;
        st.finished = true;
        RejectedCounter()->Increment();
        ++report.rejected;
      } else {
        ++st.conclusion.deferrals;
        DeferralsCounter()->Increment();
      }
    }
    report.max_concurrent = std::max(report.max_concurrent, running_count());
    report.peak_flighted_machines =
        std::max(report.peak_flighted_machines, flighted_now());

    // --- Done?
    bool any_pending = false, any_running = false;
    for (const FlightState& st : states) {
      if (st.running) any_running = true;
      if (!st.finished && !st.running) any_pending = true;
    }
    if (!any_pending && !any_running) break;

    // --- Advance to the next slice boundary: the earliest upcoming window
    // boundary of a running flight, or — when only deferred requests remain —
    // the earliest reservation expiry that frees capacity.
    sim::HourIndex next = -1;
    for (const FlightState& st : states) {
      if (!st.running) continue;
      sim::HourIndex boundary = st.conclusion.start_hour +
                                (st.windows_done + 1) * st.req->window_hours;
      if (next < 0 || boundary < next) next = boundary;
    }
    if (next < 0 && any_pending) {
      for (const auto& [idx, res] : reservations) {
        if (res.planned_end > now && (next < 0 || res.planned_end < next)) {
          next = res.planned_end;
        }
      }
    }
    if (next <= now) {
      return Status::Internal("experiment fabric made no progress at hour " +
                              std::to_string(now));
    }
    std::string payload;
    KEA_RETURN_IF_ERROR(JournaledStep(
        ctx, EventType::kFabricAdvanced,
        prefix + "/adv" + std::to_string(adv_count), "fabric.advanced",
        [&] {
          StateWriter w;
          w.PutI64(now);
          w.PutI64(next);
          return w.Release();
        },
        [&](const std::string& p) -> Status {
          StateReader r(p);
          int64_t from = 0, to = 0;
          KEA_RETURN_IF_ERROR(r.GetI64(&from));
          KEA_RETURN_IF_ERROR(r.GetI64(&to));
          return advance(static_cast<int>(to - from));
        },
        &payload));
    ++adv_count;
    {
      StateReader r(payload);
      int64_t from = 0, to = 0;
      KEA_RETURN_IF_ERROR(r.GetI64(&from));
      KEA_RETURN_IF_ERROR(r.GetI64(&to));
      now = static_cast<sim::HourIndex>(to);
    }

    // --- Guardrail verdicts for every flight whose boundary this is. The
    // window evaluations (and completion-time effect estimates) are computed
    // in parallel — pure functions of (store, arms, windows), so the result
    // is bit-identical at any thread count — then journaled serially in
    // flight order. The guarded arms of a window are the patched arms it
    // ran: all of a concurrent flight's, one of a time-sliced flight's.
    std::vector<size_t> due;
    for (FlightState& st : states) {
      if (!st.running) continue;
      sim::HourIndex boundary = st.conclusion.start_hour +
                                (st.windows_done + 1) * st.req->window_hours;
      if (boundary == now) due.push_back(st.index);
    }
    KEA_TRACE_SPAN("fabric.window", {{"hour", std::to_string(now)},
                                     {"flights", std::to_string(due.size())}});
    std::vector<Verdict> verdicts(due.size());
    std::vector<FlightConclusion> estimates(due.size());
    common::ThreadPool::Run(
        options_.num_threads, due.size(), [&](size_t i) {
          FlightState& st = states[due[i]];
          sim::HourIndex baseline_begin = std::max(
              0, st.conclusion.start_hour - options_.baseline_hours);
          const size_t k = st.conclusion.arms.size();
          for (size_t a = 0; a < k; ++a) {
            if (st.start.patches[a].empty()) continue;
            if (st.time_sliced && SlicedArm(st.windows_done, k) != a) continue;
            verdicts[i].emplace_back(
                static_cast<int>(a),
                EvaluateGuardrails(*store, st.req->guardrails,
                                   st.conclusion.arms[a].machines,
                                   baseline_begin, st.conclusion.start_hour,
                                   now - st.req->window_hours, now));
          }
          if (st.windows_done + 1 == st.req->num_windows) {
            estimates[i] = st.conclusion;
            estimates[i].end_hour = now;
            EstimateEffects(*store, st, &estimates[i]);
          }
        });

    for (size_t i = 0; i < due.size(); ++i) {
      FlightState& st = states[due[i]];
      const std::string fkey = prefix + "/f" + std::to_string(st.index);
      const int window = st.windows_done;
      // A passing window of a time-sliced flight hands the machines to the
      // next window's arm: restore, then patch that arm.
      KEA_RETURN_IF_ERROR(JournaledStep(
          ctx, EventType::kFlightVerdict,
          fkey + "/win" + std::to_string(window), "fabric.verdict",
          [&] { return EncodeVerdict(verdicts[i]); },
          [&](const std::string& p) -> Status {
            Verdict verdict;
            KEA_RETURN_IF_ERROR(DecodeVerdict(p, &verdict));
            if (!st.time_sliced || FirstTrip(verdict) != nullptr ||
                window + 1 == st.req->num_windows) {
              return Status::OK();
            }
            KEA_RETURN_IF_ERROR(RestoreAll(st.start, cluster));
            return RunArm(st.start, SlicedArm(window + 1, st.start.patches.size()),
                          cluster);
          },
          &payload));
      Verdict verdict;
      KEA_RETURN_IF_ERROR(DecodeVerdict(payload, &verdict));
      ++st.windows_done;

      if (const auto* trip = FirstTrip(verdict)) {
        // Trip: roll back exactly this flight, conclude it tripped. Its
        // reservation stays until the planned horizon ends.
        TripsCounter()->Increment();
        ++report.trips;
        st.conclusion.tripped = true;
        st.conclusion.tripped_window = window;
        st.conclusion.tripped_arm = trip->first;
        st.conclusion.trip_eval = trip->second;
        st.conclusion.end_hour = now;
        KEA_RETURN_IF_ERROR(JournaledStep(
            ctx, EventType::kFlightRollback, fkey + "/rollback",
            "fabric.rollback",
            [&] {
              StateWriter w;
              w.PutU64(st.conclusion.machines_restored);
              return w.Release();
            },
            [&](const std::string&) { return RestoreAll(st.start, cluster); },
            &payload));
        RollbacksCounter()->Increment();
        KEA_RETURN_IF_ERROR(conclude_flight(st));
      } else if (st.windows_done == st.req->num_windows) {
        st.conclusion = estimates[i];
        KEA_RETURN_IF_ERROR(conclude_flight(st));
      }
    }
  }

  for (FlightState& st : states) {
    report.flights[st.index] = st.conclusion;
  }
  report.end_hour = now;
  return report;
}

}  // namespace kea::core
