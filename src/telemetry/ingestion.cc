#include "telemetry/ingestion.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <tuple>

#include "common/snapshot.h"
#include "obs/metrics.h"

namespace kea::telemetry {
namespace {

// Registry mirrors of the pipeline's internal Counters (satellite of the
// observability PR: quarantines must be visible outside the pipeline
// object). Deterministic: they count logical records, and the metrics-level
// invariant ingest.accepted + ingest.quarantined == ingest.seen holds at
// every instant because each record bumps exactly one of the two before the
// next is seen (checked in ingestion_test).
obs::Counter* SeenCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("ingest.seen");
  return c;
}
obs::Counter* AcceptedCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("ingest.accepted");
  return c;
}
obs::Counter* QuarantinedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("ingest.quarantined");
  return c;
}
obs::Counter* TransientWriteFailureCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("ingest.transient_write_failures");
  return c;
}
obs::Counter* ReasonCounter(QuarantineReason reason) {
  static const auto* counters = [] {
    auto* a = new std::array<obs::Counter*, kNumQuarantineReasons>();
    for (size_t i = 0; i < kNumQuarantineReasons; ++i) {
      (*a)[i] = obs::Registry::Get().GetCounter(
          "ingest.quarantined",
          std::string("reason=") +
              QuarantineReasonToString(static_cast<QuarantineReason>(i)));
    }
    return a;
  }();
  return (*counters)[static_cast<size_t>(reason)];
}

/// Stable key for the (machine, hour) dedup index.
uint64_t RecordKey(const MachineHourRecord& r) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(r.machine_id)) << 32) |
         static_cast<uint32_t>(r.hour);
}

using MetricWords = std::array<uint64_t, 14>;

/// The metric payload (everything that should vary hour to hour on a live
/// machine) as bit patterns. Identity fields are excluded: a stuck counter is
/// a machine whose *measurements* freeze, not its labels.
MetricWords MetricWordsOf(const MachineHourRecord& r) {
  const double fields[] = {
      r.avg_running_containers, r.cpu_utilization,  r.tasks_finished,
      r.data_read_mb,           r.avg_task_latency_s, r.cpu_time_core_s,
      r.queued_containers,      r.queue_latency_ms,  r.rejected_containers,
      r.cores_used,             r.ssd_used_gb,       r.ram_used_gb,
      r.network_used_mbps,      r.power_watts};
  MetricWords words{};
  static_assert(std::size(fields) == std::tuple_size_v<MetricWords>);
  for (size_t i = 0; i < words.size(); ++i) words[i] = std::bit_cast<uint64_t>(fields[i]);
  return words;
}

/// FNV-1a over the payload's little-endian bytes: the form a checkpoint
/// saves a machine's last payload in.
uint64_t MetricSignature(const MetricWords& words) {
  uint64_t hash = 1469598103934665603ULL;
  for (uint64_t bits : words) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (bits >> shift) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

}  // namespace

const char* QuarantineReasonToString(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kNonFinite:
      return "NON_FINITE";
    case QuarantineReason::kOutOfRange:
      return "OUT_OF_RANGE";
    case QuarantineReason::kInconsistent:
      return "INCONSISTENT";
    case QuarantineReason::kDuplicate:
      return "DUPLICATE";
    case QuarantineReason::kLate:
      return "LATE";
    case QuarantineReason::kStuckCounter:
      return "STUCK_COUNTER";
    case QuarantineReason::kWriteFailed:
      return "WRITE_FAILED";
  }
  return "UNKNOWN";
}

bool IngestionPipeline::Validate(const MachineHourRecord& r,
                                 QuarantineReason* reason) const {
  const double fields[] = {
      r.avg_running_containers, r.cpu_utilization,  r.tasks_finished,
      r.data_read_mb,           r.avg_task_latency_s, r.cpu_time_core_s,
      r.queued_containers,      r.queue_latency_ms,  r.rejected_containers,
      r.cores_used,             r.ssd_used_gb,       r.ram_used_gb,
      r.network_used_mbps,      r.power_watts};
  for (double v : fields) {
    if (!std::isfinite(v)) {
      *reason = QuarantineReason::kNonFinite;
      return false;
    }
  }
  for (double v : fields) {
    if (v < 0.0) {
      *reason = QuarantineReason::kOutOfRange;
      return false;
    }
  }
  if (r.cpu_utilization > 1.0 || r.hour < 0 || r.machine_id < 0) {
    *reason = QuarantineReason::kOutOfRange;
    return false;
  }
  // Latency with zero finished tasks is a join artifact, not a measurement.
  if (r.tasks_finished <= 0.0 && r.avg_task_latency_s > 0.0) {
    *reason = QuarantineReason::kInconsistent;
    return false;
  }
  return true;
}

void IngestionPipeline::Quarantine(const MachineHourRecord& r,
                                   QuarantineReason reason) {
  ++counters_.quarantined;
  ++counters_.by_reason[static_cast<size_t>(reason)];
  QuarantinedCounter()->Increment();
  ReasonCounter(reason)->Increment();
  quarantine_.push_back(QuarantinedRecord{r, reason, watermark_});
}

Status IngestionPipeline::Ingest(const std::vector<MachineHourRecord>& batch) {
  if (sink_ == nullptr) return Status::InvalidArgument("null telemetry sink");
  // Register every mirror up front so the registry's instrument set — and
  // therefore the deterministic snapshot — does not depend on which rare
  // events (e.g. a transient write failure) happened to occur.
  SeenCounter();
  AcceptedCounter();
  QuarantinedCounter();
  TransientWriteFailureCounter();
  ReasonCounter(QuarantineReason::kNonFinite);
  for (const MachineHourRecord& r : batch) {
    ++counters_.seen;
    SeenCounter()->Increment();

    if (options_.validate) {
      QuarantineReason reason;
      if (!Validate(r, &reason)) {
        Quarantine(r, reason);
        continue;
      }
    }
    if (options_.max_lateness_hours >= 0 && watermark_ >= 0 &&
        r.hour < watermark_ - options_.max_lateness_hours) {
      Quarantine(r, QuarantineReason::kLate);
      continue;
    }
    if (options_.deduplicate && seen_keys_.count(RecordKey(r)) > 0) {
      Quarantine(r, QuarantineReason::kDuplicate);
      continue;
    }
    if (options_.stuck_run_threshold > 0) {
      StuckState& state = stuck_[r.machine_id];
      const MetricWords words = MetricWordsOf(r);
      const bool repeat = state.signature ? MetricSignature(words) == *state.signature
                                          : words == state.words;
      state.run_length = repeat ? state.run_length + 1 : 1;
      state.words = words;
      state.signature.reset();
      if (state.run_length > options_.stuck_run_threshold) {
        Quarantine(r, QuarantineReason::kStuckCounter);
        continue;
      }
    }

    Status written = retry_.Run([this, &r](int attempt) {
      if (!write_hook_) return Status::OK();
      Status s = write_hook_(r, attempt);
      if (RetryPolicy::IsTransient(s.code())) {
        ++counters_.transient_write_failures;
        TransientWriteFailureCounter()->Increment();
      }
      return s;
    });
    if (!written.ok()) {
      Quarantine(r, QuarantineReason::kWriteFailed);
      continue;
    }

    sink_->Append(r);
    ++counters_.accepted;
    AcceptedCounter()->Increment();
    if (options_.deduplicate) seen_keys_.insert(RecordKey(r));
    if (r.hour > watermark_) watermark_ = r.hour;
  }
  return Status::OK();
}

std::string IngestionPipeline::SerializeState() const {
  StateWriter w;
  w.PutU64(counters_.seen);
  w.PutU64(counters_.accepted);
  w.PutU64(counters_.quarantined);
  for (size_t n : counters_.by_reason) w.PutU64(n);
  w.PutU64(counters_.transient_write_failures);

  w.PutU64(quarantine_.size());
  for (const QuarantinedRecord& q : quarantine_) {
    PutMachineHourRecord(q.record, &w);
    w.PutInt(static_cast<int>(q.reason));
    w.PutI64(q.watermark);
  }

  // Canonical (sorted) order so two pipelines with identical logical state
  // serialize identically regardless of hash-table iteration order.
  std::vector<uint64_t> keys(seen_keys_.begin(), seen_keys_.end());
  std::sort(keys.begin(), keys.end());
  w.PutU64(keys.size());
  for (uint64_t k : keys) w.PutU64(k);

  w.PutI64(watermark_);

  std::vector<std::pair<int, StuckState>> stuck(stuck_.begin(), stuck_.end());
  std::sort(stuck.begin(), stuck.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.PutU64(stuck.size());
  for (const auto& [machine, state] : stuck) {
    w.PutInt(machine);
    w.PutU64(state.signature ? *state.signature : MetricSignature(state.words));
    w.PutInt(state.run_length);
  }

  const RetryPolicy::Stats& rs = retry_.stats();
  w.PutI64(rs.calls);
  w.PutI64(rs.attempts);
  w.PutI64(rs.retries);
  w.PutI64(rs.exhausted);
  w.PutDouble(rs.total_backoff_ms);
  return w.Release();
}

Status IngestionPipeline::RestoreState(const std::string& blob) {
  StateReader r(blob);
  Counters counters;
  uint64_t u = 0;
  KEA_RETURN_IF_ERROR(r.GetU64(&u));
  counters.seen = u;
  KEA_RETURN_IF_ERROR(r.GetU64(&u));
  counters.accepted = u;
  KEA_RETURN_IF_ERROR(r.GetU64(&u));
  counters.quarantined = u;
  for (size_t& n : counters.by_reason) {
    KEA_RETURN_IF_ERROR(r.GetU64(&u));
    n = u;
  }
  KEA_RETURN_IF_ERROR(r.GetU64(&u));
  counters.transient_write_failures = u;

  uint64_t count = 0;
  KEA_RETURN_IF_ERROR(r.GetU64(&count));
  std::vector<QuarantinedRecord> quarantine(count);
  for (QuarantinedRecord& q : quarantine) {
    KEA_RETURN_IF_ERROR(GetMachineHourRecord(&r, &q.record));
    int reason = 0;
    KEA_RETURN_IF_ERROR(r.GetInt(&reason));
    if (reason < 0 || reason >= static_cast<int>(kNumQuarantineReasons)) {
      return Status::InvalidArgument("bad quarantine reason in state blob");
    }
    q.reason = static_cast<QuarantineReason>(reason);
    int64_t wm = 0;
    KEA_RETURN_IF_ERROR(r.GetI64(&wm));
    q.watermark = static_cast<sim::HourIndex>(wm);
  }

  KEA_RETURN_IF_ERROR(r.GetU64(&count));
  std::unordered_set<uint64_t> seen_keys;
  seen_keys.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t k = 0;
    KEA_RETURN_IF_ERROR(r.GetU64(&k));
    seen_keys.insert(k);
  }

  int64_t watermark = 0;
  KEA_RETURN_IF_ERROR(r.GetI64(&watermark));

  KEA_RETURN_IF_ERROR(r.GetU64(&count));
  std::unordered_map<int, StuckState> stuck;
  stuck.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    int machine = 0;
    StuckState state;
    uint64_t signature = 0;
    KEA_RETURN_IF_ERROR(r.GetInt(&machine));
    KEA_RETURN_IF_ERROR(r.GetU64(&signature));
    KEA_RETURN_IF_ERROR(r.GetInt(&state.run_length));
    state.signature = signature;
    stuck[machine] = state;
  }

  RetryPolicy::Stats rs;
  KEA_RETURN_IF_ERROR(r.GetI64(&rs.calls));
  KEA_RETURN_IF_ERROR(r.GetI64(&rs.attempts));
  KEA_RETURN_IF_ERROR(r.GetI64(&rs.retries));
  KEA_RETURN_IF_ERROR(r.GetI64(&rs.exhausted));
  KEA_RETURN_IF_ERROR(r.GetDouble(&rs.total_backoff_ms));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in ingestion state blob");
  }

  counters_ = counters;
  quarantine_ = std::move(quarantine);
  seen_keys_ = std::move(seen_keys);
  watermark_ = static_cast<sim::HourIndex>(watermark);
  stuck_ = std::move(stuck);
  retry_.RestoreStats(rs);

  // Re-point the registry mirrors at the restored totals so a resumed
  // process reports the same counts the crashed one had durably recorded
  // (obs_test asserts the snapshot is bit-identical across the cycle).
  SeenCounter()->RestoreTo(counters_.seen);
  AcceptedCounter()->RestoreTo(counters_.accepted);
  QuarantinedCounter()->RestoreTo(counters_.quarantined);
  TransientWriteFailureCounter()->RestoreTo(counters_.transient_write_failures);
  for (size_t i = 0; i < kNumQuarantineReasons; ++i) {
    ReasonCounter(static_cast<QuarantineReason>(i))
        ->RestoreTo(counters_.by_reason[i]);
  }
  return Status::OK();
}

}  // namespace kea::telemetry
