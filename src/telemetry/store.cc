#include "telemetry/store.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/csv.h"

namespace kea::telemetry {

RecordFilter HourRangeFilter(sim::HourIndex begin, sim::HourIndex end) {
  return RecordFilter(begin, end, nullptr);
}

RecordFilter AndFilter(RecordFilter a, RecordFilter b) {
  // The operands' predicates only: the result's intersected bounds do the
  // hour check once.
  RecordFilter::Predicate both = std::move(a.predicate_);
  if (!both) {
    both = std::move(b.predicate_);
  } else if (b.predicate_) {
    both = [pa = std::move(both), pb = std::move(b.predicate_)](
               const MachineHourRecord& r) { return pa(r) && pb(r); };
  }
  const auto& ha = a.hours_;
  const auto& hb = b.hours_;
  if (!ha && !hb) return RecordFilter(std::move(both));
  std::pair<sim::HourIndex, sim::HourIndex> hours = ha ? *ha : *hb;
  if (ha && hb) {
    hours = {std::max(ha->first, hb->first), std::min(ha->second, hb->second)};
  }
  return RecordFilter(hours.first, hours.second, std::move(both));
}

void TelemetryStore::AppendAll(const std::vector<MachineHourRecord>& records) {
  const size_t first = records_.size();
  records_.insert(records_.end(), records.begin(), records.end());
  for (size_t i = first; i < records_.size(); ++i) IndexHour(i, records_[i].hour);
}

size_t TelemetryStore::FirstAtOrAfter(sim::HourIndex hour) const {
  const size_t entries = (records_.size() + index_stride_ - 1) / index_stride_;
  const auto entry = std::lower_bound(max_hour_.begin(), max_hour_.begin() + entries, hour);
  return static_cast<size_t>(entry - max_hour_.begin()) * index_stride_;
}

std::vector<MachineHourRecord> TelemetryStore::Query(const RecordFilter& filter) const {
  if (!filter) return records_;
  std::vector<MachineHourRecord> out;
  ForEach(filter, [&out](const MachineHourRecord& r) { out.push_back(r); });
  return out;
}

std::map<sim::MachineGroupKey, std::vector<MachineHourRecord>>
TelemetryStore::GroupByKey(const RecordFilter& filter) const {
  std::map<sim::MachineGroupKey, std::vector<MachineHourRecord>> out;
  ForEach(filter, [&out](const MachineHourRecord& r) { out[r.group()].push_back(r); });
  return out;
}

std::vector<double> TelemetryStore::Extract(
    const std::function<double(const MachineHourRecord&)>& field,
    const RecordFilter& filter) const {
  std::vector<double> out;
  ForEach(filter, [&](const MachineHourRecord& r) { out.push_back(field(r)); });
  return out;
}

StatusOr<std::pair<sim::HourIndex, sim::HourIndex>> TelemetryStore::HourRange() const {
  if (records_.empty()) {
    return Status::FailedPrecondition("telemetry store is empty");
  }
  sim::HourIndex lo = records_.front().hour;
  sim::HourIndex hi = lo;
  for (const auto& r : records_) {
    lo = std::min(lo, r.hour);
    hi = std::max(hi, r.hour);
  }
  return std::make_pair(lo, hi);
}

StatusOr<TelemetryStore> TelemetryStore::FromCsv(const std::string& text) {
  // ToCsv() terminates every row — including the last — with '\n'. Text that
  // does not end in a newline is therefore a truncation artifact, and its
  // final row may hold a silently shortened number ("280.5" cut to "280."
  // parses fine but means something else). Reject it outright rather than
  // fabricating a value.
  if (text.empty() || text.back() != '\n') {
    return Status::InvalidArgument(
        "telemetry CSV does not end in a newline (truncated?)");
  }
  KEA_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(text));
  std::vector<std::string> header = MachineHourCsvHeader();
  std::vector<int> index;
  index.reserve(header.size());
  for (const std::string& column : header) {
    int i = table.ColumnIndex(column);
    if (i < 0) return Status::InvalidArgument("missing column: " + column);
    index.push_back(i);
  }

  auto num = [](const std::string& cell) -> StatusOr<double> {
    char* end = nullptr;
    double v = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() || *end != '\0') {
      return Status::InvalidArgument("unparsable number '" + cell + "'");
    }
    return v;
  };

  TelemetryStore store;
  for (const auto& row : table.rows) {
    auto cell = [&](size_t i) -> const std::string& {
      return row[static_cast<size_t>(index[i])];
    };
    MachineHourRecord r;
    KEA_ASSIGN_OR_RETURN(double machine_id, num(cell(0)));
    KEA_ASSIGN_OR_RETURN(double hour, num(cell(1)));
    KEA_ASSIGN_OR_RETURN(double rack, num(cell(2)));
    KEA_ASSIGN_OR_RETURN(double sku, num(cell(3)));
    KEA_ASSIGN_OR_RETURN(double sc, num(cell(4)));
    r.machine_id = static_cast<int>(machine_id);
    r.hour = static_cast<sim::HourIndex>(hour);
    r.rack = static_cast<int>(rack);
    r.sku = static_cast<sim::SkuId>(sku);
    r.sc = static_cast<sim::ScId>(sc);
    KEA_ASSIGN_OR_RETURN(r.avg_running_containers, num(cell(5)));
    KEA_ASSIGN_OR_RETURN(r.cpu_utilization, num(cell(6)));
    KEA_ASSIGN_OR_RETURN(r.tasks_finished, num(cell(7)));
    KEA_ASSIGN_OR_RETURN(r.data_read_mb, num(cell(8)));
    KEA_ASSIGN_OR_RETURN(r.avg_task_latency_s, num(cell(9)));
    KEA_ASSIGN_OR_RETURN(r.cpu_time_core_s, num(cell(10)));
    KEA_ASSIGN_OR_RETURN(r.queued_containers, num(cell(11)));
    KEA_ASSIGN_OR_RETURN(r.queue_latency_ms, num(cell(12)));
    KEA_ASSIGN_OR_RETURN(r.rejected_containers, num(cell(13)));
    KEA_ASSIGN_OR_RETURN(r.cores_used, num(cell(14)));
    KEA_ASSIGN_OR_RETURN(r.ssd_used_gb, num(cell(15)));
    KEA_ASSIGN_OR_RETURN(r.ram_used_gb, num(cell(16)));
    KEA_ASSIGN_OR_RETURN(r.network_used_mbps, num(cell(17)));
    KEA_ASSIGN_OR_RETURN(r.power_watts, num(cell(18)));
    store.Append(r);
  }
  return store;
}

std::string TelemetryStore::SerializeState() const {
  StateWriter w;
  w.Reserve(sizeof(uint64_t) + records_.size() * kMachineHourRecordBytes);
  w.PutU64(records_.size());
  for (const MachineHourRecord& r : records_) PutMachineHourRecord(r, &w);
  return w.Release();
}

Status TelemetryStore::RestoreState(const std::string& blob) {
  StateReader reader(blob);
  uint64_t count = 0;
  KEA_RETURN_IF_ERROR(reader.GetU64(&count));
  // Every record encodes to the same width, so a count the blob cannot hold
  // is refused before anything is reserved for it.
  if (count > reader.remaining() / kMachineHourRecordBytes) {
    return Status::InvalidArgument(
        "telemetry state declares " + std::to_string(count) +
        " records but holds " + std::to_string(reader.remaining()) + " bytes");
  }
  TelemetryStore restored;
  restored.records_.reserve(count);
  MachineHourRecord r;
  for (uint64_t i = 0; i < count; ++i) {
    KEA_RETURN_IF_ERROR(GetMachineHourRecord(&reader, &r));
    restored.Append(r);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in telemetry state");
  }
  *this = std::move(restored);
  return Status::OK();
}

std::string TelemetryStore::ToCsv() const {
  CsvWriter writer;
  writer.SetHeader(MachineHourCsvHeader());
  for (const auto& r : records_) {
    // Row width always matches the header; ignore the status.
    (void)writer.AppendRow(MachineHourCsvRow(r));
  }
  return writer.ToString();
}

}  // namespace kea::telemetry
