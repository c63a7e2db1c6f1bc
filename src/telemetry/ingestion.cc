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

}  // namespace

size_t DedupIndex::WordAt(const std::vector<Word>& words, uint32_t block) {
  // Hours mostly arrive in order, so the newest word answers most lookups.
  if (words.empty() || words.back().block < block) return words.size();
  if (words.back().block == block) return words.size() - 1;
  return static_cast<size_t>(
      std::lower_bound(words.begin(), words.end(), block,
                       [](const Word& w, uint32_t b) { return w.block < b; }) -
      words.begin());
}

bool DedupIndex::Contains(int machine, sim::HourIndex hour) const {
  const auto it = machines_.find(static_cast<uint32_t>(machine));
  if (it == machines_.end()) return false;
  const std::vector<Word>& words = it->second;
  const uint32_t h = static_cast<uint32_t>(hour);
  const size_t i = WordAt(words, h >> 6);
  return i < words.size() && words[i].block == h >> 6 && (words[i].bits >> (h & 63) & 1) != 0;
}

bool DedupIndex::Insert(int machine, sim::HourIndex hour) {
  return Insert(static_cast<uint32_t>(machine), static_cast<uint32_t>(hour));
}

bool DedupIndex::Insert(uint32_t machine, uint32_t hour) {
  std::vector<Word>& words = machines_[machine];
  const uint32_t block = hour >> 6;
  const size_t i = WordAt(words, block);
  if (i == words.size() || words[i].block != block) {
    words.insert(words.begin() + static_cast<std::ptrdiff_t>(i), Word{block, 0});
  }
  const uint64_t bit = uint64_t{1} << (hour & 63);
  if ((words[i].bits & bit) != 0) return false;
  words[i].bits |= bit;
  ++size_;
  return true;
}

std::vector<uint64_t> DedupIndex::SortedKeys() const {
  std::vector<uint32_t> machines;
  machines.reserve(machines_.size());
  for (const auto& entry : machines_) machines.push_back(entry.first);
  std::sort(machines.begin(), machines.end());
  std::vector<uint64_t> keys;
  keys.reserve(size_);
  for (uint32_t machine : machines) {
    for (const Word& word : machines_.at(machine)) {
      for (uint64_t bits = word.bits; bits != 0; bits &= bits - 1) {
        const uint64_t hour = uint64_t{word.block} << 6 | std::countr_zero(bits);
        keys.push_back(uint64_t{machine} << 32 | hour);
      }
    }
  }
  return keys;
}

/// The checkpoint's key list: a u64 count, then each key as a u64, in
/// ascending order. A list that repeats a key is refused.
template <typename Ar>
void Persist(Ar& ar, DedupIndex& index) {
  std::vector<uint64_t> keys;
  if constexpr (!Ar::kReading) keys = index.SortedKeys();
  ar(keys);
  if constexpr (Ar::kReading) {
    index = DedupIndex();
    for (size_t i = 0; i < keys.size() && ar.ok(); ++i) {
      if (!index.Insert(static_cast<uint32_t>(keys[i] >> 32),
                        static_cast<uint32_t>(keys[i]))) {
        ar.Fail(Status::InvalidArgument("state blob repeats a key"));
      }
    }
  }
}

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

Status IngestionPipeline::Ingest(RecordView batch) {
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
    if (options_.deduplicate && seen_keys_.Contains(r.machine_id, r.hour)) {
      Quarantine(r, QuarantineReason::kDuplicate);
      continue;
    }
    if (options_.stuck_run_threshold > 0) {
      StuckState& state = stuck_[r.machine_id];
      const MetricWords words = MetricWordsOf(r);
      state.run_length = words == state.words ? state.run_length + 1 : 1;
      state.words = words;
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
    if (options_.deduplicate) seen_keys_.Insert(r.machine_id, r.hour);
    if (r.hour > watermark_) watermark_ = r.hour;
  }
  return Status::OK();
}

template <typename Ar>
void Persist(Ar& ar, IngestionPipeline& p) {
  IngestionPipeline::Counters& c = p.counters_;
  ar(c.seen, c.accepted, c.quarantined, c.by_reason, c.transient_write_failures,
     p.quarantine_, p.seen_keys_, p.watermark_, p.stuck_, p.retry_);
}

std::string IngestionPipeline::SerializeState() const { return Encode(*this); }

Status IngestionPipeline::RestoreState(const std::string& blob) {
  const Counters before = counters_;
  KEA_RETURN_IF_ERROR(Decode(blob, this));
  // The registry mirrors are process-wide: move each by this pipeline's own
  // change, so a resumed process reports the counts the crashed one had
  // durably recorded (obs_test asserts the snapshot is bit-identical across
  // the cycle) and every other live pipeline's counts stay.
  auto move = [](obs::Counter* counter, size_t from, size_t to) {
    counter->RestoreTo(counter->value() - from + to);
  };
  move(SeenCounter(), before.seen, counters_.seen);
  move(AcceptedCounter(), before.accepted, counters_.accepted);
  move(QuarantinedCounter(), before.quarantined, counters_.quarantined);
  move(TransientWriteFailureCounter(), before.transient_write_failures,
       counters_.transient_write_failures);
  for (size_t i = 0; i < kNumQuarantineReasons; ++i) {
    move(ReasonCounter(static_cast<QuarantineReason>(i)), before.by_reason[i],
         counters_.by_reason[i]);
  }
  return Status::OK();
}

}  // namespace kea::telemetry
