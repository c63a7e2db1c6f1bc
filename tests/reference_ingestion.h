// Test-only reference for telemetry::IngestionPipeline: the same screens in
// the same order, with the (machine, hour) dedup index kept as a hash set of
// (u32 machine << 32 | u32 hour) keys -- the formulation the pipeline's
// per-machine bitmaps must reproduce decision for decision, counter for
// counter and byte for byte in SerializeState.

#ifndef KEA_TESTS_REFERENCE_INGESTION_H_
#define KEA_TESTS_REFERENCE_INGESTION_H_

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/retry.h"
#include "common/snapshot.h"
#include "telemetry/ingestion.h"

namespace kea::telemetry {

class ReferenceIngestionPipeline {
 public:
  ReferenceIngestionPipeline(TelemetryStore* sink, const IngestionPipeline::Options& options)
      : sink_(sink), options_(options), retry_(options.retry) {}

  void set_write_hook(WriteHook hook) { write_hook_ = std::move(hook); }

  void Ingest(const std::vector<MachineHourRecord>& batch) {
    for (const MachineHourRecord& r : batch) {
      ++counters_.seen;
      if (options_.validate) {
        QuarantineReason reason;
        if (!Valid(r, &reason)) {
          Quarantine(r, reason);
          continue;
        }
      }
      if (options_.max_lateness_hours >= 0 && watermark_ >= 0 &&
          r.hour < watermark_ - options_.max_lateness_hours) {
        Quarantine(r, QuarantineReason::kLate);
        continue;
      }
      if (options_.deduplicate && seen_keys_.count(Key(r)) > 0) {
        Quarantine(r, QuarantineReason::kDuplicate);
        continue;
      }
      if (options_.stuck_run_threshold > 0) {
        Stuck& state = stuck_[r.machine_id];
        const std::array<uint64_t, 14> words = Words(r);
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
        if (RetryPolicy::IsTransient(s.code())) ++counters_.transient_write_failures;
        return s;
      });
      if (!written.ok()) {
        Quarantine(r, QuarantineReason::kWriteFailed);
        continue;
      }
      sink_->Append(r);
      ++counters_.accepted;
      if (options_.deduplicate) seen_keys_.insert(Key(r));
      if (r.hour > watermark_) watermark_ = r.hour;
    }
  }

  const IngestionPipeline::Counters& counters() const { return counters_; }
  const std::vector<QuarantinedRecord>& quarantine() const { return quarantine_; }
  std::string SerializeState() const { return Encode(*this); }

 private:
  struct Stuck {
    std::array<uint64_t, 14> words{};
    int run_length = 0;

    template <typename Ar>
    friend void Persist(Ar& ar, Stuck& state) {
      ar(state.words, state.run_length);
    }
  };

  /// IngestionPipeline's field list, with the hash set where it keeps its
  /// bitmaps.
  template <typename Ar>
  friend void Persist(Ar& ar, ReferenceIngestionPipeline& p) {
    IngestionPipeline::Counters& c = p.counters_;
    ar(c.seen, c.accepted, c.quarantined, c.by_reason, c.transient_write_failures,
       p.quarantine_, p.seen_keys_, p.watermark_, p.stuck_, p.retry_);
  }

  static uint64_t Key(const MachineHourRecord& r) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(r.machine_id)) << 32) |
           static_cast<uint32_t>(r.hour);
  }

  static std::array<uint64_t, 14> Words(const MachineHourRecord& r) {
    const double fields[] = {r.avg_running_containers, r.cpu_utilization,
                             r.tasks_finished,         r.data_read_mb,
                             r.avg_task_latency_s,     r.cpu_time_core_s,
                             r.queued_containers,      r.queue_latency_ms,
                             r.rejected_containers,    r.cores_used,
                             r.ssd_used_gb,            r.ram_used_gb,
                             r.network_used_mbps,      r.power_watts};
    std::array<uint64_t, 14> words{};
    for (size_t i = 0; i < words.size(); ++i) words[i] = std::bit_cast<uint64_t>(fields[i]);
    return words;
  }

  static bool Valid(const MachineHourRecord& r, QuarantineReason* reason) {
    const double fields[] = {r.avg_running_containers, r.cpu_utilization,
                             r.tasks_finished,         r.data_read_mb,
                             r.avg_task_latency_s,     r.cpu_time_core_s,
                             r.queued_containers,      r.queue_latency_ms,
                             r.rejected_containers,    r.cores_used,
                             r.ssd_used_gb,            r.ram_used_gb,
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
    if (r.tasks_finished <= 0.0 && r.avg_task_latency_s > 0.0) {
      *reason = QuarantineReason::kInconsistent;
      return false;
    }
    return true;
  }

  void Quarantine(const MachineHourRecord& r, QuarantineReason reason) {
    ++counters_.quarantined;
    ++counters_.by_reason[static_cast<size_t>(reason)];
    quarantine_.push_back(QuarantinedRecord{r, reason, watermark_});
  }

  TelemetryStore* sink_;
  IngestionPipeline::Options options_;
  RetryPolicy retry_;
  WriteHook write_hook_;
  IngestionPipeline::Counters counters_;
  std::vector<QuarantinedRecord> quarantine_;
  std::unordered_set<uint64_t> seen_keys_;
  sim::HourIndex watermark_ = -1;
  std::unordered_map<int, Stuck> stuck_;
};

}  // namespace kea::telemetry

#endif  // KEA_TESTS_REFERENCE_INGESTION_H_
