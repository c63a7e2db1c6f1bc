#include "core/deployment_ledger.h"

#include "common/crash_point.h"
#include "common/csv.h"
#include "common/snapshot.h"
#include "core/deployment.h"
#include "obs/metrics.h"

namespace kea::core {
namespace {

// The durable.step_* trio classifies journaled steps on resume — REPLAY
// (checkpoint already holds the effect), RE-DRIVE (journaled intent, effect
// re-run), FRESH (new) — the audit trail that explains what a recovery
// actually did. Deterministic: journaled steps run on one thread.
obs::Counter* StepReplayedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durable.step_replayed");
  return c;
}
obs::Counter* StepRedrivenCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durable.step_redriven");
  return c;
}
obs::Counter* StepFreshCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("durable.step_fresh");
  return c;
}

}  // namespace

const char* DeploymentLedger::EventTypeToString(EventType type) {
  switch (type) {
    case EventType::kRoundStarted:
      return "ROUND_STARTED";
    case EventType::kWaveStarted:
      return "WAVE_STARTED";
    case EventType::kWaveApplied:
      return "WAVE_APPLIED";
    case EventType::kWaveObserved:
      return "WAVE_OBSERVED";
    case EventType::kWaveVerdict:
      return "WAVE_VERDICT";
    case EventType::kRollback:
      return "ROLLBACK";
    case EventType::kRoundFinished:
      return "ROUND_FINISHED";
    case EventType::kApply:
      return "APPLY";
    case EventType::kModuleRollback:
      return "MODULE_ROLLBACK";
    case EventType::kFabricStarted:
      return "FABRIC_STARTED";
    case EventType::kFlightAdmitted:
      return "FLIGHT_ADMITTED";
    case EventType::kFlightStarted:
      return "FLIGHT_STARTED";
    case EventType::kFabricAdvanced:
      return "FABRIC_ADVANCED";
    case EventType::kFlightVerdict:
      return "FLIGHT_VERDICT";
    case EventType::kFlightRollback:
      return "FLIGHT_ROLLBACK";
    case EventType::kFlightConcluded:
      return "FLIGHT_CONCLUDED";
    case EventType::kFabricFinished:
      return "FABRIC_FINISHED";
  }
  return "UNKNOWN";
}

StatusOr<std::unique_ptr<DeploymentLedger>> DeploymentLedger::Open(
    const std::string& path) {
  KEA_ASSIGN_OR_RETURN(std::unique_ptr<Journal> journal, Journal::Open(path));
  auto ledger = std::unique_ptr<DeploymentLedger>(
      new DeploymentLedger(std::move(journal)));
  for (const std::string& record : ledger->journal_->records()) {
    StateReader r(record);
    int type = 0;
    Event event;
    KEA_RETURN_IF_ERROR(r.GetInt(&type));
    if (type < 0 || type > static_cast<int>(EventType::kFabricFinished)) {
      return Status::InvalidArgument("ledger record with unknown event type " +
                                     std::to_string(type));
    }
    event.type = static_cast<EventType>(type);
    KEA_RETURN_IF_ERROR(r.GetString(&event.key));
    KEA_RETURN_IF_ERROR(r.GetString(&event.payload));
    event.seq = ledger->events_.size();
    if (!ledger->by_key_.emplace(event.key, event.seq).second) {
      return Status::InvalidArgument("ledger has duplicate key '" + event.key +
                                     "'");
    }
    ledger->events_.push_back(std::move(event));
  }
  return ledger;
}

StatusOr<const DeploymentLedger::Event*> DeploymentLedger::Append(
    EventType type, const std::string& key, const std::string& payload) {
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    // Idempotent replay: the step was journaled by a previous incarnation.
    return &events_[it->second];
  }
  StateWriter w;
  w.PutInt(static_cast<int>(type));
  w.PutString(key);
  w.PutString(payload);
  KEA_RETURN_IF_ERROR(journal_->Append(w.Release()));
  Event event;
  event.seq = events_.size();
  event.type = type;
  event.key = key;
  event.payload = payload;
  by_key_.emplace(key, events_.size());
  events_.push_back(std::move(event));
  return &events_.back();
}

StatusOr<Journal::ScrubReport> DeploymentLedger::VerifyIntegrity() const {
  return Journal::Scrub(journal_->path(), /*repair=*/false);
}

const DeploymentLedger::Event* DeploymentLedger::Find(
    const std::string& key) const {
  auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : &events_[it->second];
}

std::string DeploymentLedger::AppliedChangesCsv() const {
  CsvWriter writer;
  writer.SetHeader({"seq", "key", "kind", "sc", "sku", "machine_id",
                    "old_max_containers", "new_max_containers"});
  auto str = [](int64_t v) { return std::to_string(v); };
  for (const Event& event : events_) {
    if (event.type == EventType::kWaveApplied) {
      StateReader r(event.payload);
      uint64_t count = 0;
      if (!r.GetU64(&count).ok()) continue;
      for (uint64_t i = 0; i < count; ++i) {
        int machine = 0, old_max = 0, new_max = 0;
        if (!r.GetInt(&machine).ok() || !r.GetInt(&old_max).ok() ||
            !r.GetInt(&new_max).ok()) {
          break;
        }
        (void)writer.AppendRow({str(static_cast<int64_t>(event.seq)), event.key,
                                "wave_machine", "-1", "-1", str(machine),
                                str(old_max), str(new_max)});
      }
    } else if (event.type == EventType::kFlightStarted) {
      // Experiment-fabric patch application: payload is, per arm, the
      // encoded config patch followed by the priors of the machines it
      // patches (see experiment_fabric.cc).
      StateReader r(event.payload);
      uint64_t arms = 0;
      bool intact = r.GetU64(&arms).ok();
      for (uint64_t a = 0; intact && a < arms; ++a) {
        std::string patch_blob;
        uint64_t count = 0;
        intact = r.GetString(&patch_blob).ok() && r.GetU64(&count).ok();
        for (uint64_t i = 0; intact && i < count; ++i) {
          int machine = 0, old_max = 0, new_max = 0, sc = 0;
          double power = 0.0;
          bool feature = false;
          intact = r.GetInt(&machine).ok() && r.GetInt(&old_max).ok() &&
                   r.GetInt(&new_max).ok() && r.GetDouble(&power).ok() &&
                   r.GetBool(&feature).ok() && r.GetInt(&sc).ok();
          if (!intact) break;
          (void)writer.AppendRow({str(static_cast<int64_t>(event.seq)),
                                  event.key, "flight_machine", str(sc), "-1",
                                  str(machine), str(old_max), str(new_max)});
        }
      }
    } else if (event.type == EventType::kApply) {
      std::vector<AppliedChange> batch;
      if (!DecodeChangeBatch(event.payload, &batch).ok()) continue;
      for (const AppliedChange& c : batch) {
        (void)writer.AppendRow({str(static_cast<int64_t>(event.seq)), event.key,
                                "group", str(c.group.sc), str(c.group.sku), "-1",
                                str(c.old_max_containers),
                                str(c.new_max_containers)});
      }
    }
  }
  return writer.ToString();
}

Status JournaledStep(JournalContext* ctx, DeploymentLedger::EventType type,
                     const std::string& key, const std::string& crash,
                     const std::function<StatusOr<std::string>()>& make_payload,
                     const std::function<Status(const std::string&)>& effect,
                     std::string* payload) {
  if (ctx == nullptr) {
    KEA_ASSIGN_OR_RETURN(*payload, make_payload());
    return effect ? effect(*payload) : Status::OK();
  }
  const DeploymentLedger::Event* ev = ctx->ledger->Find(key);
  if (ev != nullptr && ev->seq < ctx->durable_seq) {
    StepReplayedCounter()->Increment();
    *payload = ev->payload;
    return Status::OK();
  }
  KEA_RETURN_IF_ERROR(CrashPoints::Check(crash + ".pre"));
  uint64_t seq = 0;
  if (ev != nullptr) {
    StepRedrivenCounter()->Increment();
    *payload = ev->payload;
    seq = ev->seq;
  } else {
    StepFreshCounter()->Increment();
    KEA_ASSIGN_OR_RETURN(*payload, make_payload());
    KEA_ASSIGN_OR_RETURN(const DeploymentLedger::Event* appended,
                         ctx->ledger->Append(type, key, *payload));
    seq = appended->seq;
  }
  KEA_RETURN_IF_ERROR(CrashPoints::Check(crash + ".post_record"));
  if (effect) KEA_RETURN_IF_ERROR(effect(*payload));
  if (ctx->checkpoint) KEA_RETURN_IF_ERROR(ctx->checkpoint(seq + 1));
  return Status::OK();
}

}  // namespace kea::core
