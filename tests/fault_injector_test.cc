#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/snapshot.h"
#include "reference_faults.h"

namespace kea::sim {
namespace {

std::vector<telemetry::MachineHourRecord> MakeBatch(int machines, int hour) {
  std::vector<telemetry::MachineHourRecord> batch;
  for (int m = 0; m < machines; ++m) {
    telemetry::MachineHourRecord r;
    r.machine_id = m;
    r.hour = hour;
    r.sku = m % 3;
    r.sc = m % 2;
    r.avg_running_containers = 10.0 + m;
    r.cpu_utilization = 0.5;
    r.tasks_finished = 100.0 + hour;
    r.data_read_mb = 4000.0;
    r.avg_task_latency_s = 20.0;
    r.cpu_time_core_s = 50000.0;
    r.power_watts = 300.0;
    batch.push_back(r);
  }
  return batch;
}

TEST(FaultProfileTest, DefaultIsEmptyModerateIsNot) {
  EXPECT_TRUE(FaultProfile::None().empty());
  EXPECT_FALSE(FaultProfile::Moderate().empty());
}

TEST(FaultInjectorTest, EmptyProfileIsIdentity) {
  TelemetryFaultInjector injector(FaultProfile::None(), 1);
  auto batch = MakeBatch(50, 0);
  auto out = injector.Corrupt(batch);
  ASSERT_EQ(out.size(), batch.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].machine_id, batch[i].machine_id);
    EXPECT_DOUBLE_EQ(out[i].tasks_finished, batch[i].tasks_finished);
  }
  EXPECT_TRUE(injector.Flush().empty());
  EXPECT_EQ(injector.MakeWriteHook(), nullptr);
}

TEST(FaultInjectorTest, DeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    TelemetryFaultInjector injector(FaultProfile::Moderate(), seed);
    std::vector<telemetry::MachineHourRecord> all;
    for (int hour = 0; hour < 24; ++hour) {
      auto out = injector.Corrupt(MakeBatch(100, hour));
      all.insert(all.end(), out.begin(), out.end());
    }
    auto tail = injector.Flush();
    all.insert(all.end(), tail.begin(), tail.end());
    return all;
  };
  auto a = run(11), b = run(11), c = run(12);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].machine_id, b[i].machine_id);
    EXPECT_EQ(a[i].hour, b[i].hour);
    // NaN != NaN, so compare bit patterns via the ==-or-both-NaN idiom.
    EXPECT_TRUE(a[i].tasks_finished == b[i].tasks_finished ||
                (std::isnan(a[i].tasks_finished) && std::isnan(b[i].tasks_finished)));
  }
  // Different seed, different fault pattern (sequence differs somewhere).
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].machine_id != c[i].machine_id || a[i].hour != c[i].hour ||
              a[i].tasks_finished != c[i].tasks_finished;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjectorTest, RecordConservation) {
  // Every input record is dropped, delayed, or emitted (possibly twice):
  // seen == emitted + dropped + still_delayed - duplicated.
  TelemetryFaultInjector injector(FaultProfile::Moderate(), 3);
  size_t emitted = 0;
  for (int hour = 0; hour < 48; ++hour) {
    emitted += injector.Corrupt(MakeBatch(80, hour)).size();
  }
  size_t flushed = injector.Flush().size();
  const auto& c = injector.counters();
  EXPECT_EQ(c.seen, 80u * 48u);
  EXPECT_EQ(emitted + flushed, c.seen - c.dropped + c.duplicated);
  // Moderate profile must actually exercise every mode at this volume.
  EXPECT_GT(c.dropped, 0u);
  EXPECT_GT(c.duplicated, 0u);
  EXPECT_GT(c.made_non_finite, 0u);
  EXPECT_GT(c.made_out_of_range, 0u);
  EXPECT_GT(c.made_outlier, 0u);
  EXPECT_GT(c.stuck_replayed, 0u);
  EXPECT_GT(c.delayed, 0u);
}

TEST(FaultInjectorTest, DelayedRecordsArriveLateAndOutOfOrder) {
  FaultProfile profile;
  profile.late_rate = 1.0;  // Delay everything.
  profile.max_late_hours = 3;
  TelemetryFaultInjector injector(profile, 5);

  EXPECT_TRUE(injector.Corrupt(MakeBatch(20, 0)).empty());
  size_t released = 0;
  for (int hour = 1; hour <= 4; ++hour) {
    released += injector.Corrupt(MakeBatch(20, hour)).size();
  }
  released += injector.Flush().size();
  // Nothing lost: every record from hours 0..4 eventually arrives.
  EXPECT_EQ(released, 20u * 5u);
}

TEST(FaultInjectorTest, StuckMachinesRepeatFirstPayload) {
  FaultProfile profile;
  profile.stuck_machine_fraction = 1.0;  // Every machine freezes.
  TelemetryFaultInjector injector(profile, 9);

  auto first = injector.Corrupt(MakeBatch(10, 0));
  auto second = injector.Corrupt(MakeBatch(10, 1));
  ASSERT_EQ(second.size(), 10u);
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i].hour, 1);  // Identity fields stay live.
    // Metrics replay hour 0's payload (tasks_finished = 100 + hour).
    EXPECT_DOUBLE_EQ(second[i].tasks_finished, first[i].tasks_finished);
  }
  EXPECT_EQ(injector.counters().stuck_replayed, 10u);
}

TEST(FaultInjectorTest, StuckVerdictIsPerMachineAndNotCheckpointed) {
  FaultProfile profile;
  profile.stuck_machine_fraction = 0.3;
  TelemetryFaultInjector injector(profile, 9);
  const auto first = injector.Corrupt(MakeBatch(200, 0));
  std::vector<int> replays(200, 0);
  for (int hour = 1; hour <= 4; ++hour) {
    const auto out = injector.Corrupt(MakeBatch(200, hour));
    ASSERT_EQ(out.size(), 200u);
    for (size_t m = 0; m < out.size(); ++m) {
      if (out[m].tasks_finished == first[m].tasks_finished) ++replays[m];
    }
  }
  // A machine replays its first payload every hour or never.
  const auto stuck = std::count(replays.begin(), replays.end(), 4);
  EXPECT_EQ(stuck + std::count(replays.begin(), replays.end(), 0), 200);
  EXPECT_GT(stuck, 30);
  EXPECT_LT(stuck, 90);
  EXPECT_EQ(injector.counters().stuck_replayed, 4u * static_cast<size_t>(stuck));

  // The verdicts are re-derived, not restored: a fresh injector resumed from
  // the checkpoint continues exactly as the original.
  TelemetryFaultInjector resumed(profile, 9);
  ASSERT_TRUE(resumed.RestoreState(injector.SerializeState()).ok());
  for (int hour = 5; hour <= 7; ++hour) {
    const auto want = injector.Corrupt(MakeBatch(200, hour));
    const auto got = resumed.Corrupt(MakeBatch(200, hour));
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].tasks_finished, want[i].tasks_finished);
    }
  }
  EXPECT_EQ(resumed.SerializeState(), injector.SerializeState());
}

TEST(FaultInjectorTest, WriteHookFailsTransientlyAndDeterministically) {
  FaultProfile profile;
  profile.transient_error_rate = 0.3;
  TelemetryFaultInjector a(profile, 21), b(profile, 21);
  auto hook_a = a.MakeWriteHook();
  auto hook_b = b.MakeWriteHook();
  ASSERT_NE(hook_a, nullptr);

  telemetry::MachineHourRecord r;
  int failures = 0;
  for (int call = 0; call < 200; ++call) {
    Status sa = hook_a(r, 0);
    Status sb = hook_b(r, 0);
    EXPECT_EQ(sa.code(), sb.code());  // Same seed, same failure pattern.
    if (!sa.ok()) {
      EXPECT_EQ(sa.code(), StatusCode::kUnavailable);
      ++failures;
    }
  }
  EXPECT_GT(failures, 20);
  EXPECT_LT(failures, 120);
}

/// Every FaultProfile mode alone at a high rate, and Moderate.
std::vector<std::pair<std::string, FaultProfile>> ProfilesUnderTest() {
  std::vector<std::pair<std::string, FaultProfile>> profiles;
  auto alone = [&](const std::string& name, double FaultProfile::*rate) {
    FaultProfile p;
    p.*rate = 0.3;
    profiles.emplace_back(name, p);
  };
  alone("drop", &FaultProfile::drop_rate);
  alone("duplicate", &FaultProfile::duplicate_rate);
  alone("non_finite", &FaultProfile::non_finite_rate);
  alone("out_of_range", &FaultProfile::out_of_range_rate);
  alone("outlier", &FaultProfile::outlier_rate);
  alone("stuck", &FaultProfile::stuck_machine_fraction);
  alone("late", &FaultProfile::late_rate);
  alone("transient", &FaultProfile::transient_error_rate);
  profiles.emplace_back("moderate", FaultProfile::Moderate());
  return profiles;
}

// The batch-seeded injector corrupts every batch size as the one-stream-per-
// record reference does: the same records bit for bit (NaN patterns too), the
// same counters and the same checkpoint bytes.
TEST(FaultInjectorBatchTest, CorruptMatchesOneStreamPerRecord) {
  for (const auto& [name, profile] : ProfilesUnderTest()) {
    for (int n : {0, 1, 7, 8, 9, 17}) {
      SCOPED_TRACE(name + ", batch of " + std::to_string(n));
      TelemetryFaultInjector injector(profile, 31);
      ReferenceTelemetryFaultInjector reference(profile, 31);
      for (int hour = 0; hour < 30; ++hour) {
        const auto batch = MakeBatch(n, hour);
        ASSERT_EQ(Encode(injector.Corrupt(batch)), Encode(reference.Corrupt(batch)))
            << "hour " << hour;
        ASSERT_EQ(injector.SerializeState(), reference.SerializeState()) << "hour " << hour;
      }
      ASSERT_EQ(Encode(injector.Flush()), Encode(reference.Flush()));
      EXPECT_EQ(injector.SerializeState(), reference.SerializeState());
    }
  }
}

/// Drives `hook` through `calls` write calls the way RetryPolicy does: each
/// call retries a transient failure, up to `max_attempts` attempts. Appends
/// each attempt's status code.
void DriveWrites(const telemetry::WriteHook& hook, int calls, int max_attempts,
                 std::vector<StatusCode>* codes) {
  const telemetry::MachineHourRecord record;
  for (int call = 0; call < calls; ++call) {
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      const Status s = hook(record, attempt);
      codes->push_back(s.code());
      if (s.ok()) break;
    }
  }
}

// The write hook draws first-attempt verdicts eight calls ahead, and a retry
// from its own stream: every attempt's verdict is the reference's, and so is
// the checkpoint. An injector restored from its own checkpoint at a call
// count that is no multiple of eight continues as the reference does.
TEST(FaultInjectorBatchTest, WriteHookMatchesOneStreamPerAttempt) {
  for (const auto& [name, profile] : ProfilesUnderTest()) {
    if (profile.transient_error_rate <= 0.0) continue;
    for (int max_attempts : {1, 3, RetryPolicy::kMaxAttempts}) {
      SCOPED_TRACE(name + ", " + std::to_string(max_attempts) + " attempts");
      TelemetryFaultInjector injector(profile, 21);
      ReferenceTelemetryFaultInjector reference(profile, 21);
      const telemetry::WriteHook hook = injector.MakeWriteHook();
      const telemetry::WriteHook reference_hook = reference.MakeWriteHook();
      for (int calls : {1, 7, 8, 9, 13, 200}) {
        std::vector<StatusCode> got, want;
        DriveWrites(hook, calls, max_attempts, &got);
        DriveWrites(reference_hook, calls, max_attempts, &want);
        ASSERT_EQ(got, want) << calls << " calls";
        ASSERT_EQ(injector.SerializeState(), reference.SerializeState()) << calls << " calls";
      }
      // 238 calls so far: restore a fresh injector there and go on.
      TelemetryFaultInjector resumed(profile, 21);
      ASSERT_TRUE(resumed.RestoreState(injector.SerializeState()).ok());
      const telemetry::WriteHook resumed_hook = resumed.MakeWriteHook();
      for (int calls : {3, 8, 50}) {
        std::vector<StatusCode> got, want;
        DriveWrites(resumed_hook, calls, max_attempts, &got);
        DriveWrites(reference_hook, calls, max_attempts, &want);
        ASSERT_EQ(got, want) << calls << " calls after the restore";
        ASSERT_EQ(resumed.SerializeState(), reference.SerializeState());
      }
      EXPECT_EQ(resumed.counters().transient_errors, reference.counters().transient_errors);
      EXPECT_GT(reference.counters().transient_errors, 0u);
    }
  }
}

// Corrupt and the write hook share the injector's lanes: interleaved, each
// still matches the reference.
TEST(FaultInjectorBatchTest, CorruptAndWriteHookInterleaved) {
  const FaultProfile profile = FaultProfile::Moderate();
  TelemetryFaultInjector injector(profile, 5);
  ReferenceTelemetryFaultInjector reference(profile, 5);
  const telemetry::WriteHook hook = injector.MakeWriteHook();
  const telemetry::WriteHook reference_hook = reference.MakeWriteHook();
  for (int hour = 0; hour < 24; ++hour) {
    const auto batch = MakeBatch(9 + hour % 5, hour);
    const auto out = injector.Corrupt(batch);
    ASSERT_EQ(Encode(out), Encode(reference.Corrupt(batch)));
    std::vector<StatusCode> got, want;
    DriveWrites(hook, static_cast<int>(out.size()), 4, &got);
    DriveWrites(reference_hook, static_cast<int>(out.size()), 4, &want);
    ASSERT_EQ(got, want) << "hour " << hour;
    ASSERT_EQ(injector.SerializeState(), reference.SerializeState()) << "hour " << hour;
  }
}

}  // namespace
}  // namespace kea::sim
