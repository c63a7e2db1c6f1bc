#ifndef KEA_CORE_DEPLOYMENT_LEDGER_H_
#define KEA_CORE_DEPLOYMENT_LEDGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/journal.h"
#include "common/status.h"

namespace kea::core {

/// The write-ahead ledger of everything the control plane does to the fleet:
/// every tuning-round step (a GuardrailedRollout wave transition, or the
/// unguarded round's batch), every manual rollback and every fabric
/// transition is journaled here *before* it takes effect. Each event carries
/// an idempotency key; appending a key that is already present is a no-op
/// that returns the original event, so a crashed-and-resumed round that
/// re-drives its steps records each exactly once.
///
/// The exactly-once contract is split between ledger and checkpoint:
///   - an event's effect becomes *durable* only when a later checkpoint
///     records a `ledger_durable_seq` above the event's sequence number;
///   - on resume, events below the checkpoint's durable_seq are replayed as
///     bookkeeping only (their effects are already inside the checkpoint),
///     events at or above it are re-driven deterministically.
class DeploymentLedger {
 public:
  enum class EventType {
    kRoundStarted = 0,   ///< Tuning round opened; payload carries the plan.
    kWaveStarted = 1,    ///< Rollout wave selected its sub-clusters.
    kWaveApplied = 2,    ///< Per-machine config deltas of one wave.
    kWaveObserved = 3,   ///< Observation window advanced for one wave.
    kWaveVerdict = 4,    ///< Guardrail evaluation for one wave.
    kRollback = 5,       ///< Guardrail trip: every applied wave restored.
    kRoundFinished = 6,  ///< Round closed; payload carries the outcome.
    kApply = 7,          ///< Unguarded round's clamped per-group batch.
    kModuleRollback = 8, ///< Manual rollback; payload is the batch undone.
    // Experiment fabric transitions (keys "fab<round>/..."). Every concurrent
    // A/B flight journals its lifecycle here with the same write-ahead +
    // idempotency discipline as rollout waves.
    kFabricStarted = 9,    ///< Fabric run opened; payload carries the queue.
    kFlightAdmitted = 10,  ///< Partition chosen: racks + both arms.
    kFlightStarted = 11,   ///< Patch applied; payload carries per-machine priors.
    kFabricAdvanced = 12,  ///< Clock advanced to the next slice boundary.
    kFlightVerdict = 13,   ///< Guardrail evaluation for one flight window.
    kFlightRollback = 14,  ///< Guardrail trip: one flight's priors restored.
    kFlightConcluded = 15, ///< Flight done; payload carries the conclusion.
    kFabricFinished = 16,  ///< Fabric run closed; payload carries the report.
  };

  struct Event {
    uint64_t seq = 0;     ///< Position in the ledger, dense from 0.
    EventType type = EventType::kRoundStarted;
    std::string key;      ///< Idempotency key, unique in the ledger.
    std::string payload;  ///< Bit-exact blob: the owning step's Persist.
  };

  /// Opens (or creates) the ledger backed by the journal at `path`. Torn
  /// tails are recovered by the journal layer; a record that decodes to a
  /// duplicate key is rejected as corruption.
  static StatusOr<std::unique_ptr<DeploymentLedger>> Open(const std::string& path);

  /// Write-ahead append. If `key` is already present, nothing is written and
  /// the existing event is returned — replaying a journaled step is
  /// exactly-once by construction. The returned pointer is invalidated by the
  /// next Append.
  StatusOr<const Event*> Append(EventType type, const std::string& key,
                                const std::string& payload);

  const Event* Find(const std::string& key) const;
  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  const std::vector<Event>& events() const { return events_; }
  /// Sequence number the next appended event will get (== events().size()).
  uint64_t next_seq() const { return events_.size(); }
  const Journal::RecoveryInfo& recovery() const { return journal_->recovery(); }

  /// Dry-run integrity check of the backing journal on disk
  /// (Journal::Scrub without repair): CRC-verifies every record and reports
  /// the valid-prefix boundary. Read-only — never truncates, quarantines,
  /// or rewrites, so it is safe to call on a live ledger.
  StatusOr<Journal::ScrubReport> VerifyIntegrity() const;

  /// CSV dump of every applied change in the ledger — per-machine rows from
  /// rollout waves (kWaveApplied) and fabric flights (kFlightStarted), and
  /// per-group rows from unguarded-round batches (kApply, including the
  /// "module/apply/<n>" events of older ledgers), in ledger order. Columns:
  ///   seq,key,kind,sc,sku,machine_id,old_max_containers,new_max_containers
  /// with -1 for fields a row kind does not carry. Each payload is read
  /// through its owner's Persist, so this is defined beside the owners
  /// (applied_changes.cc), not with the ledger's own framing.
  std::string AppliedChangesCsv() const;

 private:
  explicit DeploymentLedger(std::unique_ptr<Journal> journal)
      : journal_(std::move(journal)) {}

  std::unique_ptr<Journal> journal_;
  std::vector<Event> events_;
  std::unordered_map<std::string, size_t> by_key_;
};

/// Durability context of one journaled run (a guarded round, its rollout, a
/// fabric run). `durable_seq` is the ledger sequence the restored checkpoint
/// covers: ledger events below it are replayed (bookkeeping only — their
/// effects are already in the restored state), events at or above it are
/// re-driven. `checkpoint(covered_seq)`, when set, persists the world after
/// each journaled step; `covered_seq` is the number of ledger events whose
/// effects the persisted state contains. `round` numbers the run's keys.
struct JournalContext {
  DeploymentLedger* ledger = nullptr;
  uint64_t durable_seq = 0;
  int round = 0;
  std::function<Status(uint64_t covered_seq)> checkpoint;
};

/// The one journaled-step primitive: write-ahead append under an idempotency
/// key, then the effect, then a checkpoint covering the step. On resume a
/// step takes one of three paths:
///   - seq <  durable_seq: REPLAY — the restored checkpoint already holds the
///     effect; only the recorded payload is returned, for bookkeeping.
///   - seq >= durable_seq: RE-DRIVE — recorded intent whose effect was lost;
///     the effect runs again, from the recorded payload, on the restored
///     (pre-effect) state.
///   - absent: FRESH — `make_payload` builds the intent, it is appended, and
///     the effect runs.
/// Crash points `<crash>.pre` and `<crash>.post_record` bracket the append, so
/// a sweep covers both "died before journaling" (the step re-runs whole) and
/// "journaled but died before the effect was durable" (the step re-drives).
/// The durable.step_{replayed,redriven,fresh} counters classify every step.
///
/// With a null `ctx` the step is not journaled: `make_payload` runs, then the
/// effect, and nothing else — a plain run is the same path with no journal.
/// `effect` may be null. A failing `make_payload` appends nothing. On success
/// `*payload` holds the step's payload, recorded or fresh.
Status JournaledStep(JournalContext* ctx, DeploymentLedger::EventType type,
                     const std::string& key, const std::string& crash,
                     const std::function<StatusOr<std::string>()>& make_payload,
                     const std::function<Status(const std::string&)>& effect,
                     std::string* payload);

}  // namespace kea::core

#endif  // KEA_CORE_DEPLOYMENT_LEDGER_H_
