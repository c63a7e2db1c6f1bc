#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/random.h"
#include "telemetry/perf_monitor.h"
#include "telemetry/record.h"
#include "telemetry/store.h"

namespace kea::telemetry {
namespace {

MachineHourRecord MakeRecord(int machine, int hour, sim::ScId sc, sim::SkuId sku,
                             double containers, double util, double tasks,
                             double data_mb, double latency) {
  MachineHourRecord r;
  r.machine_id = machine;
  r.hour = hour;
  r.rack = machine / 10;
  r.sc = sc;
  r.sku = sku;
  r.avg_running_containers = containers;
  r.cpu_utilization = util;
  r.tasks_finished = tasks;
  r.data_read_mb = data_mb;
  r.avg_task_latency_s = latency;
  r.cpu_time_core_s = util * 32.0 * 3600.0;
  return r;
}

TEST(RecordTest, DerivedMetrics) {
  MachineHourRecord r = MakeRecord(0, 0, 0, 0, 5.0, 0.5, 100.0, 5000.0, 20.0);
  // BytesPerSecond = data / (tasks * latency) = 5000 / 2000 = 2.5.
  EXPECT_DOUBLE_EQ(r.BytesPerSecond(), 2.5);
  EXPECT_DOUBLE_EQ(r.BytesPerCpuTime(), 5000.0 / (0.5 * 32.0 * 3600.0));

  MachineHourRecord idle;
  EXPECT_DOUBLE_EQ(idle.BytesPerSecond(), 0.0);
  EXPECT_DOUBLE_EQ(idle.BytesPerCpuTime(), 0.0);
}

TEST(RecordTest, CsvRowMatchesHeaderWidth) {
  MachineHourRecord r = MakeRecord(3, 7, 1, 2, 5.0, 0.5, 100.0, 5000.0, 20.0);
  EXPECT_EQ(MachineHourCsvRow(r).size(), MachineHourCsvHeader().size());
}

TEST(StoreTest, AppendAndQuery) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 5, 0.5, 100, 5000, 20));
  store.Append(MakeRecord(1, 1, 0, 1, 6, 0.6, 120, 6000, 18));
  EXPECT_EQ(store.size(), 2u);

  auto all = store.Query(nullptr);
  EXPECT_EQ(all.size(), 2u);
  auto hour0 = store.Query([](const MachineHourRecord& r) { return r.hour == 0; });
  ASSERT_EQ(hour0.size(), 1u);
  EXPECT_EQ(hour0[0].machine_id, 0);
}

TEST(StoreTest, GroupByKey) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 5, 0.5, 100, 5000, 20));
  store.Append(MakeRecord(1, 0, 0, 0, 5, 0.5, 100, 5000, 20));
  store.Append(MakeRecord(2, 0, 1, 3, 5, 0.5, 100, 5000, 20));
  auto grouped = store.GroupByKey();
  EXPECT_EQ(grouped.size(), 2u);
  EXPECT_EQ((grouped[{0, 0}].size()), 2u);
  EXPECT_EQ((grouped[{1, 3}].size()), 1u);
}

TEST(StoreTest, ExtractField) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 5, 0.5, 100, 5000, 20));
  store.Append(MakeRecord(1, 0, 0, 0, 5, 0.7, 100, 5000, 20));
  auto utils = store.Extract(
      [](const MachineHourRecord& r) { return r.cpu_utilization; });
  EXPECT_EQ(utils, (std::vector<double>{0.5, 0.7}));
}

TEST(StoreTest, HourRange) {
  TelemetryStore store;
  EXPECT_EQ(store.HourRange().status().code(), StatusCode::kFailedPrecondition);
  store.Append(MakeRecord(0, 3, 0, 0, 5, 0.5, 100, 5000, 20));
  store.Append(MakeRecord(0, 9, 0, 0, 5, 0.5, 100, 5000, 20));
  auto range = store.HourRange();
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->first, 3);
  EXPECT_EQ(range->second, 9);
}

TEST(StoreTest, CsvRoundTrip) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 5, 0.5, 100, 5000, 20));
  auto parsed = kea::ParseCsv(store.ToCsv());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows.size(), 1u);
  int col = parsed->ColumnIndex("cpu_utilization");
  ASSERT_GE(col, 0);
  EXPECT_NEAR(std::stod(parsed->rows[0][static_cast<size_t>(col)]), 0.5, 1e-9);
}

TEST(PerfMonitorTest, GroupMetricsMath) {
  TelemetryStore store;
  // Two records in one group with known values.
  store.Append(MakeRecord(0, 0, 0, 0, 4.0, 0.4, 100.0, 4000.0, 10.0));
  store.Append(MakeRecord(1, 0, 0, 0, 6.0, 0.6, 300.0, 6000.0, 20.0));
  PerformanceMonitor monitor(&store);
  auto metrics = monitor.GroupMetricsByKey();
  ASSERT_TRUE(metrics.ok());
  const GroupMetrics& g = metrics->at({0, 0});
  EXPECT_EQ(g.machine_hours, 2u);
  EXPECT_EQ(g.num_machines, 2);
  EXPECT_DOUBLE_EQ(g.avg_running_containers, 5.0);
  EXPECT_DOUBLE_EQ(g.avg_cpu_utilization, 0.5);
  EXPECT_DOUBLE_EQ(g.avg_tasks_per_hour, 200.0);
  EXPECT_DOUBLE_EQ(g.avg_data_read_mb_per_hour, 5000.0);
  // Task-weighted latency: (10*100 + 20*300) / 400 = 17.5.
  EXPECT_DOUBLE_EQ(g.avg_task_latency_s, 17.5);
  // Bytes/sec: 10000 MB / (100*10 + 300*20) s.
  EXPECT_DOUBLE_EQ(g.bytes_per_second, 10000.0 / 7000.0);
}

TEST(PerfMonitorTest, EmptyFilterIsError) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 4, 0.4, 100, 4000, 10));
  PerformanceMonitor monitor(&store);
  auto metrics = monitor.GroupMetricsByKey(
      [](const MachineHourRecord&) { return false; });
  EXPECT_EQ(metrics.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PerfMonitorTest, HourlyClusterUtilization) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 4, 0.4, 100, 4000, 10));
  store.Append(MakeRecord(1, 0, 0, 0, 4, 0.6, 100, 4000, 10));
  store.Append(MakeRecord(0, 1, 0, 0, 4, 0.8, 100, 4000, 10));
  PerformanceMonitor monitor(&store);
  auto hourly = monitor.HourlyClusterUtilization();
  ASSERT_TRUE(hourly.ok());
  ASSERT_EQ(hourly->size(), 2u);
  EXPECT_DOUBLE_EQ((*hourly)[0].second, 0.5);
  EXPECT_DOUBLE_EQ((*hourly)[1].second, 0.8);
}

TEST(PerfMonitorTest, ClusterAverageTaskLatency) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 4, 0.4, 100.0, 4000, 10.0));
  store.Append(MakeRecord(1, 0, 0, 1, 4, 0.4, 300.0, 4000, 30.0));
  PerformanceMonitor monitor(&store);
  auto latency = monitor.ClusterAverageTaskLatency();
  ASSERT_TRUE(latency.ok());
  EXPECT_DOUBLE_EQ(*latency, (10.0 * 100 + 30.0 * 300) / 400.0);
}

TEST(PerfMonitorTest, TotalsAndScatter) {
  TelemetryStore store;
  for (int i = 0; i < 100; ++i) {
    store.Append(MakeRecord(i, 0, 0, 0, 4, 0.5, 10.0, 100.0, 10.0));
  }
  PerformanceMonitor monitor(&store);
  EXPECT_DOUBLE_EQ(monitor.TotalDataReadMb(), 10000.0);
  EXPECT_DOUBLE_EQ(monitor.TotalTasksFinished(), 1000.0);

  auto scatter = monitor.UtilizationThroughputScatter(10);
  EXPECT_LE(scatter.size(), 12u);
  EXPECT_GE(scatter.size(), 8u);
  for (const auto& p : scatter) {
    EXPECT_DOUBLE_EQ(p.x, 0.5);
    EXPECT_DOUBLE_EQ(p.y, 100.0);
  }
}

void ExpectAllFinite(const GroupMetrics& g) {
  for (double v : {g.avg_running_containers, g.avg_cpu_utilization,
                   g.avg_tasks_per_hour, g.avg_data_read_mb_per_hour,
                   g.avg_task_latency_s, g.bytes_per_second, g.bytes_per_cpu_time,
                   g.avg_queued_containers, g.p99_queue_latency_ms,
                   g.avg_power_watts}) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(PerfMonitorRobustnessTest, DegenerateGroupsYieldFiniteZeros) {
  // A whole group of idle machines: zero tasks, zero exec time, zero
  // cpu-seconds. Every ratio in the aggregate divides by one of those sums.
  TelemetryStore store;
  for (int m = 0; m < 4; ++m) {
    auto r = MakeRecord(m, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0);
    r.cpu_time_core_s = 0.0;
    store.Append(r);
  }
  PerformanceMonitor monitor(&store);
  auto metrics = monitor.GroupMetricsByKey();
  ASSERT_TRUE(metrics.ok());
  const GroupMetrics& g = metrics->at({0, 0});
  ExpectAllFinite(g);
  EXPECT_DOUBLE_EQ(g.avg_task_latency_s, 0.0);
  EXPECT_DOUBLE_EQ(g.bytes_per_second, 0.0);
  EXPECT_DOUBLE_EQ(g.bytes_per_cpu_time, 0.0);

  // Zero finished tasks means the task-weighted mean is undefined; that is
  // reported as an error, never as NaN.
  EXPECT_EQ(monitor.ClusterAverageTaskLatency().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PerfMonitorRobustnessTest, NonFiniteRecordsAreSkippedEverywhere) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 4.0, 0.4, 100.0, 4000.0, 10.0));
  store.Append(MakeRecord(1, 0, 0, 0, 6.0, 0.6, 300.0, 6000.0, 20.0));
  auto poison = MakeRecord(2, 0, 0, 0, 5.0, kNan, kNan, kNan, kNan);
  poison.cpu_time_core_s = kNan;
  store.Append(poison);
  auto inf_poison = MakeRecord(3, 1, 0, 0, 5.0, 0.5, 100.0,
                               std::numeric_limits<double>::infinity(), 10.0);
  store.Append(inf_poison);

  PerformanceMonitor monitor(&store);
  auto metrics = monitor.GroupMetricsByKey();
  ASSERT_TRUE(metrics.ok());
  const GroupMetrics& g = metrics->at({0, 0});
  ExpectAllFinite(g);
  // Same numbers as if the poison records never existed.
  EXPECT_EQ(g.machine_hours, 2u);
  EXPECT_DOUBLE_EQ(g.avg_task_latency_s, 17.5);

  auto hourly = monitor.HourlyClusterUtilization();
  ASSERT_TRUE(hourly.ok());
  for (const auto& [hour, util] : *hourly) EXPECT_TRUE(std::isfinite(util));

  // The NaN record contributes nothing; the Inf-data record still counts
  // here because its latency/task fields are fine:
  // (10*100 + 20*300 + 10*100) / 500 = 16.
  auto latency = monitor.ClusterAverageTaskLatency();
  ASSERT_TRUE(latency.ok());
  EXPECT_TRUE(std::isfinite(*latency));
  EXPECT_DOUBLE_EQ(*latency, 16.0);

  EXPECT_DOUBLE_EQ(monitor.TotalDataReadMb(), 10000.0);
  EXPECT_DOUBLE_EQ(monitor.TotalTasksFinished(), 500.0);

  for (const auto& day : RollUpDaily(store)) {
    EXPECT_TRUE(std::isfinite(day.tasks_finished));
    EXPECT_TRUE(std::isfinite(day.avg_task_latency_s));
    EXPECT_TRUE(std::isfinite(day.data_read_mb));
  }
}

TEST(PerfMonitorRobustnessTest, DefaultOptionsAreBitIdenticalToPlain) {
  TelemetryStore store;
  for (int m = 0; m < 7; ++m) {
    store.Append(
        MakeRecord(m, m % 3, m % 2, m % 4, 4.0 + m, 0.1 * m, 50.0 * m, 1000.0 * m,
                   5.0 + m));
  }
  PerformanceMonitor monitor(&store);
  auto plain = monitor.GroupMetricsByKey();
  auto robust = monitor.GroupMetricsByKey(nullptr, AggregationOptions());
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(robust.ok());
  ASSERT_EQ(plain->size(), robust->size());
  for (const auto& [key, g] : *plain) {
    const GroupMetrics& r = robust->at(key);
    EXPECT_EQ(g.machine_hours, r.machine_hours);
    EXPECT_EQ(g.num_machines, r.num_machines);
    // Exact equality on purpose: the default robust path must reproduce the
    // plain aggregation bit for bit.
    EXPECT_EQ(g.avg_running_containers, r.avg_running_containers);
    EXPECT_EQ(g.avg_cpu_utilization, r.avg_cpu_utilization);
    EXPECT_EQ(g.avg_tasks_per_hour, r.avg_tasks_per_hour);
    EXPECT_EQ(g.avg_data_read_mb_per_hour, r.avg_data_read_mb_per_hour);
    EXPECT_EQ(g.avg_task_latency_s, r.avg_task_latency_s);
    EXPECT_EQ(g.bytes_per_second, r.bytes_per_second);
    EXPECT_EQ(g.bytes_per_cpu_time, r.bytes_per_cpu_time);
    EXPECT_EQ(g.p99_queue_latency_ms, r.p99_queue_latency_ms);
  }
}

TEST(PerfMonitorRobustnessTest, MinSupportDropsThinGroups) {
  TelemetryStore store;
  for (int h = 0; h < 10; ++h) {
    store.Append(MakeRecord(0, h, 0, 0, 4.0, 0.5, 100.0, 4000.0, 10.0));
  }
  store.Append(MakeRecord(1, 0, 1, 1, 4.0, 0.5, 100.0, 4000.0, 10.0));

  PerformanceMonitor monitor(&store);
  AggregationOptions options;
  options.min_support = 5;
  auto metrics = monitor.GroupMetricsByKey(nullptr, options);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->size(), 1u);
  EXPECT_TRUE(metrics->count({0, 0}));

  // When nothing survives the screen, the query reports it as an error
  // rather than returning an empty map.
  options.min_support = 100;
  EXPECT_EQ(monitor.GroupMetricsByKey(nullptr, options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PerfMonitorRobustnessTest, WinsorizingBoundsSingleRecordLeverage) {
  TelemetryStore store;
  for (int m = 0; m < 20; ++m) {
    store.Append(MakeRecord(m, 0, 0, 0, 4.0, 0.5, 100.0, 100.0, 10.0));
  }
  // One wild machine-hour claims to have read 100 TB.
  store.Append(MakeRecord(20, 0, 0, 0, 4.0, 0.5, 100.0, 1.0e8, 10.0));

  PerformanceMonitor monitor(&store);
  auto plain = monitor.GroupMetricsByKey();
  ASSERT_TRUE(plain.ok());
  EXPECT_GT(plain->at({0, 0}).avg_data_read_mb_per_hour, 1.0e6);

  AggregationOptions options;
  options.winsorize_fraction = 0.05;
  auto robust = monitor.GroupMetricsByKey(nullptr, options);
  ASSERT_TRUE(robust.ok());
  const GroupMetrics& g = robust->at({0, 0});
  // The outlier is clamped to the 95th-percentile value (100), so the mean
  // collapses back to the honest level.
  EXPECT_NEAR(g.avg_data_read_mb_per_hour, 100.0, 1.0);
  // Untouched metrics keep their plain values.
  EXPECT_DOUBLE_EQ(g.avg_cpu_utilization, 0.5);
}

TEST(FilterTest, HourRangeFilter) {
  auto f = HourRangeFilter(2, 5);
  EXPECT_FALSE(f(MakeRecord(0, 1, 0, 0, 1, 0.1, 1, 1, 1)));
  EXPECT_TRUE(f(MakeRecord(0, 2, 0, 0, 1, 0.1, 1, 1, 1)));
  EXPECT_TRUE(f(MakeRecord(0, 4, 0, 0, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(f(MakeRecord(0, 5, 0, 0, 1, 0.1, 1, 1, 1)));
}

TEST(FilterTest, MachineSetFilter) {
  auto f = MachineSetFilter({1, 3});
  EXPECT_TRUE(f(MakeRecord(1, 0, 0, 0, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(f(MakeRecord(2, 0, 0, 0, 1, 0.1, 1, 1, 1)));
}

TEST(FilterTest, GroupAndAndFilters) {
  auto f = AndFilter(GroupFilter({0, 2}), HourRangeFilter(0, 10));
  EXPECT_TRUE(f(MakeRecord(0, 5, 0, 2, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(f(MakeRecord(0, 5, 1, 2, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(f(MakeRecord(0, 15, 0, 2, 1, 0.1, 1, 1, 1)));

  // Null sub-filters are treated as pass-through.
  auto g = AndFilter(nullptr, GroupFilter({0, 2}));
  EXPECT_TRUE(g(MakeRecord(0, 5, 0, 2, 1, 0.1, 1, 1, 1)));
}

TEST(FilterTest, AndFilterKeepsBothPredicatesAndIntersectsBounds) {
  auto f = AndFilter(GroupFilter({0, 2}), MachineSetFilter({0}));
  EXPECT_FALSE(f.hours().has_value());
  EXPECT_TRUE(f(MakeRecord(0, 5, 0, 2, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(f(MakeRecord(1, 5, 0, 2, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(f(MakeRecord(0, 5, 1, 2, 1, 0.1, 1, 1, 1)));

  auto all = AndFilter(nullptr, nullptr);
  EXPECT_FALSE(static_cast<bool>(all));

  auto window = AndFilter(AndFilter(HourRangeFilter(0, 10), MachineSetFilter({0})),
                          AndFilter(GroupFilter({0, 2}), HourRangeFilter(5, 20)));
  ASSERT_TRUE(window.hours().has_value());
  EXPECT_EQ(*window.hours(), std::make_pair(5, 10));
  EXPECT_TRUE(window(MakeRecord(0, 5, 0, 2, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(window(MakeRecord(0, 4, 0, 2, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(window(MakeRecord(0, 10, 0, 2, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(window(MakeRecord(1, 5, 0, 2, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(window(MakeRecord(0, 5, 1, 2, 1, 0.1, 1, 1, 1)));
}

// ---------------------------------------------------------------------------
// The hour index: reads through an hour-bounded filter start part-way into
// the store, and must still return exactly what a full filtered scan of
// records() returns, in the same order.

std::vector<std::vector<std::string>> Rows(const std::vector<MachineHourRecord>& records) {
  std::vector<std::vector<std::string>> rows;
  for (const MachineHourRecord& r : records) rows.push_back(MachineHourCsvRow(r));
  return rows;
}

/// Every read of `store` through `filter` against a full scan of records().
void ExpectReadsMatchFullScan(const TelemetryStore& store, const RecordFilter& filter,
                              const std::function<bool(const MachineHourRecord&)>& truth) {
  std::vector<MachineHourRecord> want;
  for (const MachineHourRecord& r : store.records()) {
    if (truth(r)) want.push_back(r);
  }
  EXPECT_EQ(Rows(store.Query(filter)), Rows(want));

  std::map<sim::MachineGroupKey, std::vector<MachineHourRecord>> want_groups;
  for (const MachineHourRecord& r : want) want_groups[r.group()].push_back(r);
  auto groups = store.GroupByKey(filter);
  ASSERT_EQ(groups.size(), want_groups.size());
  for (const auto& [key, records] : want_groups) {
    EXPECT_EQ(Rows(groups[key]), Rows(records));
  }

  std::vector<double> want_latency;
  for (const MachineHourRecord& r : want) want_latency.push_back(r.avg_task_latency_s);
  EXPECT_EQ(store.Extract([](const MachineHourRecord& r) { return r.avg_task_latency_s; },
                          filter),
            want_latency);
}

void ExpectWindowsMatchFullScan(const TelemetryStore& store, Rng* rng) {
  for (int q = 0; q < 25; ++q) {
    // Bounds reach below hour 0 and past the newest hour; some windows are
    // empty or inverted.
    const int begin = static_cast<int>(rng->UniformInt(-30, 260));
    const int end = begin + static_cast<int>(rng->UniformInt(-5, 80));
    SCOPED_TRACE("window [" + std::to_string(begin) + ", " + std::to_string(end) + ")");
    auto in_window = [begin, end](const MachineHourRecord& r) {
      return r.hour >= begin && r.hour < end;
    };
    ExpectReadsMatchFullScan(store, HourRangeFilter(begin, end), in_window);
    // Intersected bounds plus a predicate.
    const int later = begin + static_cast<int>(rng->UniformInt(0, 40));
    ExpectReadsMatchFullScan(
        store, AndFilter(HourRangeFilter(begin, end), AndFilter(GroupFilter({0, 1}),
                                                                HourRangeFilter(later, end + 50))),
        [&](const MachineHourRecord& r) {
          return in_window(r) && r.hour >= later && r.group() == sim::MachineGroupKey{0, 1};
        });
  }
}

TEST(StoreHourIndexTest, WindowReadsMatchFullScanUnderLateArrivals) {
  Rng rng(23);
  TelemetryStore store;
  int now = 0;
  for (int batch = 0; batch < 60; ++batch) {
    // Mostly the current hour, with late arrivals reaching back up to two
    // days and the odd record stamped in the future.
    std::vector<MachineHourRecord> records;
    const int count = static_cast<int>(rng.UniformInt(0, 150));
    for (int i = 0; i < count; ++i) {
      int hour = now;
      const double u = rng.Uniform();
      if (u < 0.2) hour = std::max(0, now - static_cast<int>(rng.UniformInt(1, 48)));
      if (u > 0.97) hour = now + static_cast<int>(rng.UniformInt(1, 30));
      records.push_back(MakeRecord(static_cast<int>(rng.UniformInt(0, 40)), hour,
                                   static_cast<sim::ScId>(rng.UniformInt(0, 1)),
                                   static_cast<sim::SkuId>(rng.UniformInt(0, 2)),
                                   rng.Uniform(1, 10), rng.Uniform(), rng.Uniform(0, 200),
                                   rng.Uniform(0, 5000), rng.Uniform(1, 60)));
    }
    if (batch % 2 == 0) {
      store.AppendAll(records);
    } else {
      for (const MachineHourRecord& r : records) store.Append(r);
    }
    now += static_cast<int>(rng.UniformInt(1, 6));
    if (batch % 10 == 9) ExpectWindowsMatchFullScan(store, &rng);
    if (batch == 29) {
      store.Clear();
      ExpectWindowsMatchFullScan(store, &rng);
      now = 10;  // Hours restart below the cleared history's.
    }
  }
  ASSERT_GT(store.size(), 1000u);

  auto parsed = TelemetryStore::FromCsv(store.ToCsv());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), store.size());
  ExpectWindowsMatchFullScan(*parsed, &rng);
}

TEST(StoreHourIndexTest, WindowReadsMatchFullScanOverManyChunks) {
  // 150,000 records fill 37 chunks. ForEach is the read behind Query,
  // GroupByKey and Extract, so it is checked alone here.
  Rng rng(29);
  TelemetryStore store;
  auto expect_windows_match = [&] {
    for (int q = 0; q < 40; ++q) {
      const int begin = static_cast<int>(rng.UniformInt(-30, 320));
      const int end = begin + static_cast<int>(rng.UniformInt(-5, 60));
      SCOPED_TRACE("window [" + std::to_string(begin) + ", " + std::to_string(end) + ")");
      std::vector<std::pair<int, double>> want, got;
      for (const MachineHourRecord& r : store.records()) {
        if (r.hour >= begin && r.hour < end) want.emplace_back(r.hour, r.avg_task_latency_s);
      }
      store.ForEach(HourRangeFilter(begin, end), [&got](const MachineHourRecord& r) {
        got.emplace_back(r.hour, r.avg_task_latency_s);
      });
      EXPECT_EQ(got, want);
    }
  };
  std::vector<MachineHourRecord> batch;
  for (int hour = 0; hour < 300; ++hour) {
    batch.clear();
    for (int i = 0; i < 500; ++i) {
      int late = hour;
      if (rng.Uniform() < 0.2) late = std::max(0, hour - static_cast<int>(rng.UniformInt(1, 48)));
      batch.push_back(MakeRecord(i % 40, late, 0, 1, 1, 0.5, 1, 1, rng.Uniform(1, 60)));
    }
    store.AppendAll(batch);
    if (hour == 120 || hour == 200 || hour == 299) expect_windows_match();
  }
  ASSERT_EQ(store.size(), 150000u);

  store.Clear();
  for (int i = 0; i < 300; ++i) {
    store.Append(MakeRecord(i % 40, 300 - i, 0, 1, 1, 0.5, 1, 1, rng.Uniform(1, 60)));
  }
  expect_windows_match();
}

TEST(StoreChunkTest, RecordAddressesNeverChangeAsTheStoreGrows) {
  // Growth allocates a new chunk and moves no record: every record keeps
  // its address past five chunk edges. Clear() keeps the chunks, so the
  // records written after it land in the same slots.
  const size_t n = 5 * TelemetryStore::kChunkRecords + 17;
  TelemetryStore store;
  std::vector<const MachineHourRecord*> addresses;
  for (size_t i = 0; i < n; ++i) {
    store.Append(MakeRecord(static_cast<int>(i % 40), static_cast<int>(i / 40), 0, 1, 1,
                            0.5, 1, 1, static_cast<double>(i)));
    addresses.push_back(&store.records()[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(&store.records()[i], addresses[i]) << "record " << i;
    ASSERT_EQ(store.records()[i].avg_task_latency_s, static_cast<double>(i));
  }
  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.Query(nullptr).empty());
  // Blocks of a chunk's size, held while the store refills: had Clear()
  // freed the chunks, these would take their memory.
  std::vector<std::unique_ptr<char[]>> taken;
  for (int i = 0; i < 8; ++i) {
    taken.push_back(std::make_unique<char[]>(TelemetryStore::kChunkRecords *
                                             sizeof(MachineHourRecord)));
  }
  for (size_t i = 0; i < n; ++i) {
    store.Append(MakeRecord(0, static_cast<int>(n - i), 0, 1, 1, 0.5, 1, 1, 1));
    ASSERT_EQ(&store.records()[i], addresses[i]) << "record " << i << " after Clear";
  }
  ASSERT_TRUE(store.HourRange().ok());
  EXPECT_EQ(*store.HourRange(), std::make_pair(1, static_cast<int>(n)));
}

TEST(StoreHourIndexTest, AppendOfAStoredRecord) {
  // The argument points into the store itself: the append must not read it
  // after it allocates a new chunk (the ASan build flags such a read).
  TelemetryStore store;
  store.Append(MakeRecord(0, 7, 0, 0, 1, 0.1, 1, 1, 1));
  const size_t appends = TelemetryStore::kChunkRecords + 300;
  for (size_t i = 0; i < appends; ++i) store.Append(store.records()[i]);
  EXPECT_EQ(store.Query(HourRangeFilter(7, 8)).size(), appends + 1);
  EXPECT_TRUE(store.Query(HourRangeFilter(8, 100)).empty());
}

}  // namespace
}  // namespace kea::telemetry
