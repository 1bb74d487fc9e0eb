// Arena-backed columnar event batches.
//
// The row-oriented hot path materializes an Event (schema pointer + a
// heap-allocated vector<Value>) for every event between the agent's staging
// buffer and the central accumulator update. A ColumnBatch stores the same
// rows column-major instead: one typed vector per schema field (plus the two
// system columns, request id and timestamp), a null bitmap per column, and a
// shared string arena — so a thousand staged events cost a handful of
// contiguous allocations instead of thousands of scattered ones, and the
// filter/fold loops scan flat memory. The event-store literature the repo
// tracks (BaBar Event Store, LHCb Event Index) converged on exactly this
// layout for scan-heavy event processing.
//
// Representation invariants (every mutation path upholds them):
//  * every column holds exactly rows() entries — null rows occupy a
//    placeholder slot in the typed storage so row indexing stays O(1) —
//    except a decoded all_null column (FillAllNull), which holds none;
//  * the null bitmap is authoritative: a set bit means ValueAt() returns
//    null regardless of the placeholder;
//  * string columns keep rows()+1 offsets into the arena (null / empty rows
//    contribute a zero-length span);
//  * a value that does not match the column's physical representation
//    migrates the whole column to the generic (boxed Value) representation,
//    so hostile or schema-drifted inputs degrade to row-equivalent behavior
//    instead of being rejected.

#ifndef SRC_EVENT_COLUMN_BATCH_H_
#define SRC_EVENT_COLUMN_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/event/event.h"
#include "src/event/schema.h"
#include "src/event/value.h"

namespace scrub {

// Null-bitmap helpers (bit r set = row r is null). An empty bitmap means
// "no nulls so far"; BitmapSet grows it on demand.
inline bool BitmapGet(const std::vector<uint8_t>& bits, size_t i) {
  return i / 8 < bits.size() && ((bits[i / 8] >> (i % 8)) & 1U) != 0;
}
inline void BitmapSet(std::vector<uint8_t>* bits, size_t i) {
  if (i / 8 >= bits->size()) {
    bits->resize(i / 8 + 1, 0);
  }
  (*bits)[i / 8] = static_cast<uint8_t>((*bits)[i / 8] | (1U << (i % 8)));
}

class ColumnBatch {
 public:
  // Physical representation of one column. kDict is a decode-side string
  // representation (the wire's dictionary encoding): `ints` holds one
  // dictionary code per row (placeholder 0 for null rows) and
  // `offsets`/`arena` hold the dictionary entries — dict_size()+1 offset
  // bounds instead of rows()+1. ValueAt materializes the referenced entry,
  // so every row-semantics consumer works unchanged; appending a value to a
  // kDict column migrates it to kGeneric like any representation mismatch.
  enum class Rep : uint8_t { kBool, kInt, kDouble, kString, kGeneric, kDict };

  struct Column {
    Rep rep = Rep::kGeneric;
    std::vector<uint8_t> bools;     // kBool: one byte per row
    std::vector<int64_t> ints;      // kInt (int/long/datetime); kDict codes
    std::vector<double> doubles;    // kDouble (float/double)
    std::vector<uint32_t> offsets;  // kString: rows()+1 bounds into arena;
                                    // kDict: dict_size()+1 bounds
    std::string arena;              // kString / kDict payload bytes
    std::vector<Value> generic;     // kGeneric: boxed fallback
    std::vector<uint8_t> nulls;     // authoritative null bitmap
    // Decode-only (a dropped wire column): every row is null and the typed
    // storage is empty. Readers that test the bitmap first are unchanged;
    // a reader that indexes storage unconditionally must check this.
    bool all_null = false;

    // Number of dictionary entries (kDict only).
    size_t dict_size() const {
      return offsets.empty() ? 0 : offsets.size() - 1;
    }
  };

  ColumnBatch() = default;
  explicit ColumnBatch(SchemaPtr schema);

  const SchemaPtr& schema() const { return schema_; }
  size_t rows() const { return request_ids_.size(); }
  size_t column_count() const { return columns_.size(); }
  const Column& column(size_t field) const { return columns_[field]; }

  void Reserve(size_t rows);
  // Drops every row and restores each column's schema-derived
  // representation (undoing generic migrations), keeping the allocated
  // capacity so a reused staging batch does not reallocate.
  void Clear();

  // Appends one row, copying the event's field values into the columns.
  void AppendEvent(const Event& event);

  RequestId request_id(size_t row) const { return request_ids_[row]; }
  TimeMicros timestamp(size_t row) const {
    return static_cast<TimeMicros>(timestamps_[row]);
  }

  bool IsNull(size_t field, size_t row) const {
    return BitmapGet(columns_[field].nulls, row);
  }
  // Materializes the value at (field, row). Strings and generic values copy
  // out of the batch; numerics are constructed in place.
  Value ValueAt(size_t field, size_t row) const;
  // Row-format fallback for paths that still need an Event (spill records,
  // differential comparisons).
  Event MaterializeEvent(size_t row) const;
  // MaterializeEvent(row).WireSize(), computed off the columns without
  // building the Event (the memory accountant's logical event size).
  size_t RowWireSize(size_t row) const;

  // Physical representation for a declared field type.
  static Rep RepFor(FieldType type);

  // ---- Wire-decoder access ----------------------------------------------
  // The columnar decoder builds a batch column-by-column; it maintains the
  // dense-placeholder invariants AppendEvent upholds.
  Column* MutableColumn(size_t field) { return &columns_[field]; }
  void SetRowMeta(std::vector<uint64_t> request_ids,
                  std::vector<int64_t> timestamps);
  // Marks column `field` all-null for `rows` rows: an all-ones bitmap and
  // no typed storage, keeping its schema-derived representation (the
  // wire's "nothing was projected here" column costs one byte regardless
  // of row count).
  void FillAllNull(size_t field, size_t rows);

 private:
  void AppendValue(size_t field, const Value& value);
  void MigrateToGeneric(size_t field);

  SchemaPtr schema_;
  std::vector<uint64_t> request_ids_;
  std::vector<int64_t> timestamps_;
  std::vector<Column> columns_;  // one per schema field, in schema order
};

}  // namespace scrub

#endif  // SRC_EVENT_COLUMN_BATCH_H_
