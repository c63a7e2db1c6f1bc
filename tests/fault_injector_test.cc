#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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

}  // namespace
}  // namespace kea::sim
