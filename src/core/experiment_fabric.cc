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
  FlightStart start;
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

Status RestorePriors(const std::vector<FlightStart::Prior>& priors,
                     sim::Cluster* cluster) {
  auto& machines = cluster->mutable_machines();
  for (const FlightStart::Prior& p : priors) {
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
Status RestoreAll(const FlightStart& rec, sim::Cluster* cluster) {
  for (const FlightStart::Arm& arm : rec.arms) {
    KEA_RETURN_IF_ERROR(RestorePriors(arm.priors, cluster));
  }
  return Status::OK();
}

/// Applies arm `arm`'s patch to its machines.
Status RunArm(const FlightStart& rec, size_t arm, sim::Cluster* cluster) {
  std::vector<int> ids;
  ids.reserve(rec.arms[arm].priors.size());
  for (const FlightStart::Prior& p : rec.arms[arm].priors) ids.push_back(p.id);
  return ApplyPatch(rec.arms[arm].patch, ids, cluster);
}

/// Distinct machines the flight patches (restored at its end).
size_t PatchedMachines(const FlightStart& rec) {
  std::set<int> ids;
  for (const FlightStart::Arm& arm : rec.arms) {
    for (const FlightStart::Prior& p : arm.priors) ids.insert(p.id);
  }
  return ids.size();
}

/// One guarded arm's guardrail reading in a window.
struct Reading {
  int arm = 0;
  GuardrailEvaluation eval;
};

template <typename Ar>
void Persist(Ar& ar, Reading& reading) {
  ar(reading.arm);
  ar.Nested(reading.eval);
}

/// One window's guardrail readings (the FLIGHT_VERDICT payload): one per
/// guarded arm.
using Verdict = std::vector<Reading>;

/// The FLIGHT_ADMITTED payload: the planned window, the deferrals before
/// admission, the racks and each arm's machines.
struct Admission {
  sim::HourIndex start = 0;
  sim::HourIndex end = 0;
  uint64_t deferrals = 0;
  std::vector<int> racks;
  std::vector<std::vector<int>> arms;
};

template <typename Ar>
void Persist(Ar& ar, Admission& a) {
  ar(a.start, a.end, a.deferrals, a.racks, a.arms);
}

/// The FABRIC_ADVANCED payload: the clock's move [from, to).
using Advance = std::pair<sim::HourIndex, sim::HourIndex>;

/// The first failing reading of a verdict, or null when every arm passed.
const Reading* FirstTrip(const Verdict& verdict) {
  for (const Reading& reading : verdict) {
    if (!reading.eval.pass()) return &reading;
  }
  return nullptr;
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
          return Encode(Admission{
              now, now + st.req->window_hours * st.req->num_windows,
              st.conclusion.deferrals, fresh_assignment->racks,
              fresh_assignment->arms});
        },
        nullptr, &payload));
    {
      Admission admission;
      KEA_RETURN_IF_ERROR(Decode(payload, &admission));
      const size_t arms = admission.arms.size();
      if (arms != st.req->arms.size()) {
        return Status::FailedPrecondition(
            fkey + " was admitted with " + std::to_string(arms) +
            " arms, its request has " + std::to_string(st.req->arms.size()));
      }
      st.conclusion.deferrals = admission.deferrals;
      st.conclusion.racks = admission.racks;
      st.conclusion.arms.assign(arms, ArmConclusion{});
      for (size_t a = 0; a < arms; ++a) {
        st.conclusion.arms[a].machines = admission.arms[a];
      }
      st.machines = DistinctMachines(admission.arms);
      st.conclusion.start_hour = admission.start;
      st.planned_end = admission.end;
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
          FlightStart rec;
          const auto& machines = cluster->machines();
          rec.arms.resize(st.req->arms.size());
          for (size_t a = 0; a < rec.arms.size(); ++a) {
            const ConfigPatch& patch = rec.arms[a].patch = st.req->arms[a];
            if (patch.empty()) continue;
            for (int id : st.conclusion.arms[a].machines) {
              const sim::Machine& m = machines[static_cast<size_t>(id)];
              rec.arms[a].priors.push_back(
                  {id, m.max_containers,
                   patch.max_containers.value_or(m.max_containers),
                   m.power_cap_fraction, m.feature_enabled, m.sc});
            }
          }
          rec.down_hours =
              options_.down_hours ? options_.down_hours(st.machines) : 0;
          return Encode(rec);
        },
        [&](const std::string& p) -> Status {
          FlightStart rec;
          KEA_RETURN_IF_ERROR(Decode(p, &rec));
          if (st.time_sliced) return RunArm(rec, 0, cluster);
          for (size_t a = 0; a < rec.arms.size(); ++a) {
            KEA_RETURN_IF_ERROR(RunArm(rec, a, cluster));
          }
          return Status::OK();
        },
        &payload));
    // The recorded priors are the rollback authority.
    KEA_RETURN_IF_ERROR(Decode(payload, &st.start));
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
          return Encode(st.conclusion);
        },
        [&](const std::string&) { return RestoreAll(st.start, cluster); },
        &payload));
    KEA_RETURN_IF_ERROR(Decode(payload, &st.conclusion));
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
        Admission recorded;
        KEA_RETURN_IF_ERROR(Decode(admitted_ev->payload, &recorded));
        if (recorded.start != now) continue;
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
        [&] { return Encode(Advance{now, next}); },
        [&](const std::string& p) -> Status {
          Advance step;
          KEA_RETURN_IF_ERROR(Decode(p, &step));
          return advance(step.second - step.first);
        },
        &payload));
    ++adv_count;
    Advance step;
    KEA_RETURN_IF_ERROR(Decode(payload, &step));
    now = step.second;

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
            if (st.start.arms[a].patch.empty()) continue;
            if (st.time_sliced && SlicedArm(st.windows_done, k) != a) continue;
            verdicts[i].push_back(
                {static_cast<int>(a),
                 EvaluateGuardrails(*store, st.req->guardrails,
                                    st.conclusion.arms[a].machines,
                                    baseline_begin, st.conclusion.start_hour,
                                    now - st.req->window_hours, now)});
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
          [&] { return Encode(verdicts[i]); },
          [&](const std::string& p) -> Status {
            Verdict verdict;
            KEA_RETURN_IF_ERROR(Decode(p, &verdict));
            if (!st.time_sliced || FirstTrip(verdict) != nullptr ||
                window + 1 == st.req->num_windows) {
              return Status::OK();
            }
            KEA_RETURN_IF_ERROR(RestoreAll(st.start, cluster));
            return RunArm(st.start, SlicedArm(window + 1, st.start.arms.size()),
                          cluster);
          },
          &payload));
      Verdict verdict;
      KEA_RETURN_IF_ERROR(Decode(payload, &verdict));
      ++st.windows_done;

      if (const auto* trip = FirstTrip(verdict)) {
        // Trip: roll back exactly this flight, conclude it tripped. Its
        // reservation stays until the planned horizon ends.
        TripsCounter()->Increment();
        ++report.trips;
        st.conclusion.tripped = true;
        st.conclusion.tripped_window = window;
        st.conclusion.tripped_arm = trip->arm;
        st.conclusion.trip_eval = trip->eval;
        st.conclusion.end_hour = now;
        KEA_RETURN_IF_ERROR(JournaledStep(
            ctx, EventType::kFlightRollback, fkey + "/rollback",
            "fabric.rollback",
            [&] { return Encode(st.conclusion.machines_restored); },
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
