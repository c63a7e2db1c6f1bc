#ifndef KEA_TELEMETRY_STORE_H_
#define KEA_TELEMETRY_STORE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "telemetry/record.h"

namespace kea::telemetry {

/// Predicate over machine-hour records used by queries. Built from nullptr
/// (matches everything), from any callable, or by HourRangeFilter /
/// AndFilter, which also carry the window's hour bounds. A filter with hour
/// bounds matches no record outside them, so the store starts its scan at
/// the first record that can fall inside (see TelemetryStore::ForEach).
class RecordFilter {
 public:
  using Predicate = std::function<bool(const MachineHourRecord&)>;

  RecordFilter() = default;
  RecordFilter(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  /// A filter from any callable; it carries no hour bounds.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, RecordFilter> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_constructible_v<Predicate, F>>>
  RecordFilter(F&& predicate)  // NOLINT(runtime/explicit)
      : predicate_(std::forward<F>(predicate)) {}

  /// False only for the match-everything filter.
  explicit operator bool() const {
    return hours_.has_value() || static_cast<bool>(predicate_);
  }

  bool operator()(const MachineHourRecord& r) const {
    if (hours_ && (r.hour < hours_->first || r.hour >= hours_->second)) {
      return false;
    }
    return !predicate_ || predicate_(r);
  }

  /// The hour bounds [begin, end), if the filter carries any.
  const std::optional<std::pair<sim::HourIndex, sim::HourIndex>>& hours() const {
    return hours_;
  }

 private:
  friend RecordFilter HourRangeFilter(sim::HourIndex begin, sim::HourIndex end);
  friend RecordFilter AndFilter(RecordFilter a, RecordFilter b);

  /// Records with `begin <= hour < end` that `predicate` (when set) accepts.
  RecordFilter(sim::HourIndex begin, sim::HourIndex end, Predicate predicate)
      : predicate_(std::move(predicate)), hours_(std::make_pair(begin, end)) {}

  Predicate predicate_;
  std::optional<std::pair<sim::HourIndex, sim::HourIndex>> hours_;
};

/// Records with `begin <= hour < end`.
RecordFilter HourRangeFilter(sim::HourIndex begin, sim::HourIndex end);

/// Records both filters match; a null filter passes everything. The result
/// carries the intersection of the operands' hour bounds.
RecordFilter AndFilter(RecordFilter a, RecordFilter b);

/// In-memory column-agnostic store of machine-hour telemetry. In production
/// this is the output of the daily data-orchestration pipeline; here the
/// simulation engines append into it and KEA's performance monitor queries
/// it.
///
/// Records keep their append order, which need not be hour order (late
/// arrivals, quarantine releases). An hour index -- the running maximum hour
/// of the store's prefixes, sampled every 64 records, a stride that doubles
/// whenever the store outgrows the index's fixed 1024 entries -- is
/// non-decreasing regardless, so a read of an hour window binary-searches the
/// first stride that can hold a record inside it: every record before that
/// stride is older than the window. Reads therefore cost the window plus
/// whatever was appended after it, not the whole history, and still visit
/// records in store order.
class TelemetryStore {
 public:
  void Append(const MachineHourRecord& record) {
    records_.push_back(record);
    IndexHour(records_.size() - 1, records_.back().hour);
  }
  void AppendAll(const std::vector<MachineHourRecord>& records);

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const std::vector<MachineHourRecord>& records() const { return records_; }

  /// Calls fn(record) for every record `filter` matches, in store order.
  /// Filters with hour bounds start at the hour index's first candidate.
  template <typename Fn>
  void ForEach(const RecordFilter& filter, Fn&& fn) const {
    const size_t first = filter.hours() ? FirstAtOrAfter(filter.hours()->first) : 0;
    for (size_t i = first; i < records_.size(); ++i) {
      if (filter(records_[i])) fn(records_[i]);
    }
  }

  /// Returns the records matching `filter` (all records when filter is null).
  std::vector<MachineHourRecord> Query(const RecordFilter& filter) const;

  /// Returns records grouped by SC-SKU combination.
  std::map<sim::MachineGroupKey, std::vector<MachineHourRecord>> GroupByKey(
      const RecordFilter& filter = nullptr) const;

  /// Extracts one numeric field from each matching record.
  std::vector<double> Extract(const std::function<double(const MachineHourRecord&)>& field,
                              const RecordFilter& filter = nullptr) const;

  /// Hour range covered by the store: [min_hour, max_hour]. Returns
  /// FailedPrecondition when empty.
  StatusOr<std::pair<sim::HourIndex, sim::HourIndex>> HourRange() const;

  /// Serializes all records as CSV text (header + rows): the dump and import
  /// format. Checkpoints use SerializeState.
  std::string ToCsv() const;

  /// Parses a store from CSV produced by ToCsv (or an external trace with
  /// the same header). Returns InvalidArgument on unknown columns or
  /// unparsable numbers.
  static StatusOr<TelemetryStore> FromCsv(const std::string& text);

  /// State blob of records [first, size()), in store order: a u64 count,
  /// then each record as its Persist encodes it (doubles as raw
  /// IEEE-754 bits, little-endian throughout). With no argument, every
  /// record; with `first` at or past the end, none.
  std::string SerializeState(size_t first = 0) const;

  /// Appends the records of a SerializeState blob, extending the hour index
  /// through Append. InvalidArgument on a truncated blob, trailing bytes, or
  /// a count the blob cannot hold; the store is then left as it was.
  Status AppendState(const std::string& blob);

  /// Replaces the records with those of a SerializeState blob: a fresh
  /// store plus AppendState, with the same checks. A refused blob leaves
  /// the store as it was.
  Status RestoreState(const std::string& blob);

  void Clear() {
    records_.clear();
    index_stride_ = kIndexStride;
  }

 private:
  /// Records per hour-index entry while the store is small.
  static constexpr size_t kIndexStride = 64;
  /// Hour-index entries; when a store outgrows them the stride doubles.
  static constexpr size_t kIndexEntries = 1024;

  /// Position from which a record can have `hour >= hour`: every record
  /// before it has a smaller hour.
  size_t FirstAtOrAfter(sim::HourIndex hour) const;

  /// Extends the hour index by the record appended at `position`.
  void IndexHour(size_t position, sim::HourIndex hour) {
    if (position == index_stride_ * kIndexEntries) {
      // Merge entry pairs: a prefix maximum at twice the stride is the
      // second entry of each pair.
      for (size_t k = 0; k < kIndexEntries / 2; ++k) max_hour_[k] = max_hour_[2 * k + 1];
      index_stride_ *= 2;
    }
    const size_t k = position / index_stride_;
    if (position % index_stride_ == 0) {
      max_hour_[k] = k == 0 ? hour : std::max(max_hour_[k - 1], hour);
    } else {
      max_hour_[k] = std::max(max_hour_[k], hour);
    }
  }

  std::vector<MachineHourRecord> records_;
  /// max_hour_[k] = max hour of records_[0 .. (k + 1) * index_stride_), for
  /// every entry the store's records reach. A fixed array: an index that grew
  /// on the heap in step with records_ left freed record buffers resident in
  /// malloc arenas (DESIGN.md, "Fit hot path").
  std::array<sim::HourIndex, kIndexEntries> max_hour_{};
  size_t index_stride_ = kIndexStride;
};

}  // namespace kea::telemetry

#endif  // KEA_TELEMETRY_STORE_H_
