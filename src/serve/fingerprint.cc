#include "serve/fingerprint.h"

#include <bit>

namespace kea::serve {

namespace {

// Two independent digests of the same word stream: `lo` is FNV-1a folding
// each 64-bit word in one step, `hi` is a splitmix64-style chain. A collision
// must happen in both simultaneously for two windows to alias.
inline void MixLo(uint64_t v, uint64_t* lo) {
  *lo ^= v;
  *lo *= 0x100000001b3ULL;
}

inline void MixHi(uint64_t v, uint64_t* hi) {
  uint64_t z = *hi + v + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  *hi = z ^ (z >> 31);
}

inline void MixU64(uint64_t v, WorkloadFingerprint* fp) {
  MixLo(v, &fp->lo);
  MixHi(v, &fp->hi);
}

inline void MixDouble(double v, WorkloadFingerprint* fp) {
  MixU64(std::bit_cast<uint64_t>(v), fp);
}

inline void MixInt(int64_t v, WorkloadFingerprint* fp) {
  MixU64(static_cast<uint64_t>(v), fp);
}

}  // namespace

WorkloadFingerprint FingerprintWindow(const telemetry::TelemetryStore& store,
                                      sim::HourIndex begin,
                                      sim::HourIndex end) {
  WorkloadFingerprint fp;
  fp.lo = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis.
  fp.hi = 0x6a09e667f3bcc908ULL;  // sqrt(2) fraction bits.
  store.ForEach(telemetry::HourRangeFilter(begin, end),
                [&fp](const telemetry::MachineHourRecord& r) {
    MixInt(r.machine_id, &fp);
    MixInt(r.hour, &fp);
    MixInt(r.rack, &fp);
    MixInt(r.sku, &fp);
    MixInt(r.sc, &fp);
    MixDouble(r.avg_running_containers, &fp);
    MixDouble(r.cpu_utilization, &fp);
    MixDouble(r.tasks_finished, &fp);
    MixDouble(r.data_read_mb, &fp);
    MixDouble(r.avg_task_latency_s, &fp);
    MixDouble(r.cpu_time_core_s, &fp);
    MixDouble(r.queued_containers, &fp);
    MixDouble(r.queue_latency_ms, &fp);
    MixDouble(r.rejected_containers, &fp);
    MixDouble(r.cores_used, &fp);
    MixDouble(r.ssd_used_gb, &fp);
    MixDouble(r.ram_used_gb, &fp);
    MixDouble(r.network_used_mbps, &fp);
    MixDouble(r.power_watts, &fp);
    ++fp.records;
  });
  // Seal the window bounds so an empty [0, 5) window and an empty [3, 9)
  // window do not collide.
  MixInt(begin, &fp);
  MixInt(end, &fp);
  return fp;
}

}  // namespace kea::serve
