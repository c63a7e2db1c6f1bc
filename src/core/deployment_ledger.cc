#include "core/deployment_ledger.h"

#include "common/crash_point.h"
#include "common/snapshot.h"
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

/// A ledger record: the event's type, key and payload. The sequence number
/// is the record's position, not part of it.
template <typename Ar>
void Persist(Ar& ar, DeploymentLedger::Event& event) {
  ar.Enum(event.type, DeploymentLedger::EventType::kFabricFinished);
  ar(event.key, event.payload);
}

StatusOr<std::unique_ptr<DeploymentLedger>> DeploymentLedger::Open(
    const std::string& path) {
  KEA_ASSIGN_OR_RETURN(std::unique_ptr<Journal> journal, Journal::Open(path));
  auto ledger = std::unique_ptr<DeploymentLedger>(
      new DeploymentLedger(std::move(journal)));
  for (const std::string& record : ledger->journal_->records()) {
    Event event;
    KEA_RETURN_IF_ERROR(Decode(record, &event));
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
  Event event;
  event.seq = events_.size();
  event.type = type;
  event.key = key;
  event.payload = payload;
  KEA_RETURN_IF_ERROR(journal_->Append(Encode(event)));
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
