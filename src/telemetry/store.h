#ifndef KEA_TELEMETRY_STORE_H_
#define KEA_TELEMETRY_STORE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
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
/// bounds matches no record outside them, so the store skips every block of
/// records whose hours lie outside (see TelemetryStore::ForEach).
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

class TelemetryStore;

/// A read-only view of records in store order: a TelemetryStore's (see
/// TelemetryStore::records()) or a std::vector's, which converts to it
/// implicitly. It holds no records of its own; a store's view is valid until
/// the store changes, and a vector's while the vector lives unchanged.
class RecordView {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = MachineHourRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const MachineHourRecord*;
    using reference = const MachineHourRecord&;

    Iterator() = default;
    reference operator*() const { return (*view_)[index_]; }
    pointer operator->() const { return &(*view_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++index_;
      return before;
    }
    Iterator operator+(difference_type n) const {
      return Iterator(view_, index_ + static_cast<size_t>(n));
    }
    difference_type operator-(const Iterator& other) const {
      return static_cast<difference_type>(index_) -
             static_cast<difference_type>(other.index_);
    }
    bool operator==(const Iterator& other) const { return index_ == other.index_; }

   private:
    friend class RecordView;
    Iterator(const RecordView* view, size_t index) : view_(view), index_(index) {}

    const RecordView* view_ = nullptr;
    size_t index_ = 0;
  };

  RecordView(const std::vector<MachineHourRecord>& records)  // NOLINT(runtime/explicit)
      : contiguous_(records.data()), size_(records.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  inline const MachineHourRecord& operator[](size_t i) const;
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size_); }

 private:
  friend class TelemetryStore;
  RecordView(const TelemetryStore* store, size_t size) : store_(store), size_(size) {}

  const MachineHourRecord* contiguous_ = nullptr;
  const TelemetryStore* store_ = nullptr;  ///< Set for a store's view.
  size_t size_ = 0;
};

/// In-memory column-agnostic store of machine-hour telemetry. In production
/// this is the output of the daily data-orchestration pipeline; here the
/// simulation engines append into it and KEA's performance monitor queries
/// it.
///
/// Records live in fixed-size chunks of kChunkRecords. A chunk is allocated
/// once at full capacity and is never moved or freed while the store lives
/// (Clear() keeps it for the next records), so growth never copies a record
/// and a record's address never changes (DESIGN.md, "Fit hot path").
///
/// Records keep their append order, which need not be hour order (late
/// arrivals, quarantine releases). Each chunk keeps the [min, max] hour of
/// its records and of every kBlockRecords-record block inside it, so a read
/// of an hour window visits only the blocks that can hold a record inside
/// it. Reads therefore cost the window plus the blocks late arrivals touch,
/// not the whole history, and still visit records in store order.
class TelemetryStore {
 public:
  /// Records per chunk: 4,096 records of 136 bytes, 544 KiB.
  static constexpr size_t kChunkRecords = 4096;
  /// Records per hour-bounded block inside a chunk.
  static constexpr size_t kBlockRecords = 64;

  TelemetryStore() = default;
  TelemetryStore(const TelemetryStore& other) { AppendAll(other.records()); }
  TelemetryStore(TelemetryStore&& other) noexcept
      : chunks_(std::move(other.chunks_)), size_(std::exchange(other.size_, 0)) {}
  TelemetryStore& operator=(const TelemetryStore& other) {
    if (this != &other) {
      Clear();
      AppendAll(other.records());
    }
    return *this;
  }
  TelemetryStore& operator=(TelemetryStore&& other) noexcept {
    if (this != &other) {
      chunks_ = std::move(other.chunks_);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  void Append(const MachineHourRecord& record) {
    const size_t offset = size_ % kChunkRecords;
    if (offset == 0 && size_ / kChunkRecords == chunks_.size()) AddChunk();
    Chunk& chunk = *chunks_[size_ / kChunkRecords];
    const sim::HourIndex hour = record.hour;
    HourBounds& block = chunk.blocks[offset / kBlockRecords];
    if (offset % kBlockRecords == 0) {
      block = {hour, hour};
    } else {
      block.Extend(hour);
    }
    if (offset == 0) {
      chunk.hours = {hour, hour};
    } else {
      chunk.hours.Extend(hour);
    }
    // `record` may be one of this store's own: a new chunk moves none.
    std::construct_at(&chunk.slots[offset].record, record);
    ++size_;
  }
  void AppendAll(RecordView records);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Every record, in store order.
  RecordView records() const { return RecordView(this, size_); }
  /// Calls fn(record) for every record `filter` matches, in store order.
  /// Filters with hour bounds visit only the blocks whose hours meet them.
  template <typename Fn>
  void ForEach(const RecordFilter& filter, Fn&& fn) const {
    const auto& hours = filter.hours();
    for (size_t c = 0; c * kChunkRecords < size_; ++c) {
      const Chunk& chunk = *chunks_[c];
      const size_t n = std::min(kChunkRecords, size_ - c * kChunkRecords);
      auto visit = [&](size_t first, size_t last) {
        for (size_t i = first; i < last; ++i) {
          const MachineHourRecord& r = chunk.slots[i].record;
          if (filter(r)) fn(r);
        }
      };
      if (!hours) {
        visit(0, n);
        continue;
      }
      if (!chunk.hours.Meets(*hours)) continue;
      for (size_t first = 0; first < n; first += kBlockRecords) {
        if (chunk.blocks[first / kBlockRecords].Meets(*hours)) {
          visit(first, std::min(n, first + kBlockRecords));
        }
      }
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

  /// Appends the records of a SerializeState blob. InvalidArgument on a
  /// truncated blob, trailing bytes, or a count the blob cannot hold; the
  /// store is then left as it was.
  Status AppendState(const std::string& blob);

  /// Replaces the records with those of a SerializeState blob, with the same
  /// checks. A refused blob leaves the store as it was.
  Status RestoreState(const std::string& blob);

  /// Drops every record and keeps the chunks for the next ones.
  void Clear() { size_ = 0; }

 private:
  /// Inclusive [min, max] hours of a run of records.
  struct HourBounds {
    sim::HourIndex min = 0;
    sim::HourIndex max = 0;

    void Extend(sim::HourIndex hour) {
      min = std::min(min, hour);
      max = std::max(max, hour);
    }
    /// Whether a record of the run can fall in [window.first, window.second).
    bool Meets(const std::pair<sim::HourIndex, sim::HourIndex>& window) const {
      return min < window.second && max >= window.first;
    }
  };

  /// A record slot. A union, so that a new chunk leaves its slots unwritten
  /// and its pages untouched until records are built in them.
  union Slot {
    Slot() {}  // NOLINT(modernize-use-equals-default): constructs no record.
    MachineHourRecord record;
  };
  static_assert(std::is_trivially_destructible_v<MachineHourRecord>,
                "slots are reused and freed without destroying their records");

  /// One fixed-capacity chunk. Its bounds cover the chunk's records and each
  /// kBlockRecords block of them, up to the store's size.
  struct Chunk {
    Chunk() {}  // NOLINT(modernize-use-equals-default): no zeroing on new.

    HourBounds hours;
    std::array<HourBounds, kChunkRecords / kBlockRecords> blocks;
    std::array<Slot, kChunkRecords> slots;
  };

  friend class RecordView;

  const MachineHourRecord& At(size_t i) const {
    return chunks_[i / kChunkRecords]->slots[i % kChunkRecords].record;
  }
  /// Allocates the chunk the next record opens.
  void AddChunk();

  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

inline const MachineHourRecord& RecordView::operator[](size_t i) const {
  return store_ != nullptr ? store_->At(i) : contiguous_[i];
}

}  // namespace kea::telemetry

#endif  // KEA_TELEMETRY_STORE_H_
