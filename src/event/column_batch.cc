#include "src/event/column_batch.h"

#include <utility>

namespace scrub {

ColumnBatch::Rep ColumnBatch::RepFor(FieldType type) {
  switch (type) {
    case FieldType::kBool:
      return Rep::kBool;
    case FieldType::kInt:
    case FieldType::kLong:
    case FieldType::kDateTime:
      return Rep::kInt;
    case FieldType::kFloat:
    case FieldType::kDouble:
      return Rep::kDouble;
    case FieldType::kString:
      return Rep::kString;
    default:
      return Rep::kGeneric;
  }
}

ColumnBatch::ColumnBatch(SchemaPtr schema) : schema_(std::move(schema)) {
  columns_.resize(schema_->field_count());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].rep = RepFor(schema_->field(i).type);
    if (columns_[i].rep == Rep::kString) {
      columns_[i].offsets.push_back(0);
    }
  }
}

void ColumnBatch::Reserve(size_t rows) {
  request_ids_.reserve(rows);
  timestamps_.reserve(rows);
  for (Column& col : columns_) {
    switch (col.rep) {
      case Rep::kBool:
        col.bools.reserve(rows);
        break;
      case Rep::kInt:
        col.ints.reserve(rows);
        break;
      case Rep::kDouble:
        col.doubles.reserve(rows);
        break;
      case Rep::kString:
        col.offsets.reserve(rows + 1);
        break;
      case Rep::kGeneric:
        col.generic.reserve(rows);
        break;
      case Rep::kDict:
        col.ints.reserve(rows);
        break;
    }
  }
}

void ColumnBatch::Clear() {
  request_ids_.clear();
  timestamps_.clear();
  for (size_t i = 0; i < columns_.size(); ++i) {
    Column& col = columns_[i];
    col.rep = RepFor(schema_->field(i).type);
    col.bools.clear();
    col.ints.clear();
    col.doubles.clear();
    col.offsets.clear();
    col.arena.clear();
    col.generic.clear();
    col.nulls.clear();
    col.all_null = false;
    if (col.rep == Rep::kString) {
      col.offsets.push_back(0);
    }
  }
}

void ColumnBatch::AppendEvent(const Event& event) {
  request_ids_.push_back(event.request_id());
  timestamps_.push_back(static_cast<int64_t>(event.timestamp()));
  for (size_t f = 0; f < columns_.size(); ++f) {
    AppendValue(f, event.field(f));
  }
}

void ColumnBatch::AppendValue(size_t field, const Value& value) {
  Column& col = columns_[field];
  const size_t row = request_ids_.size() - 1;
  if (value.is_null()) {
    BitmapSet(&col.nulls, row);
    switch (col.rep) {
      case Rep::kBool:
        col.bools.push_back(0);
        break;
      case Rep::kInt:
        col.ints.push_back(0);
        break;
      case Rep::kDouble:
        col.doubles.push_back(0.0);
        break;
      case Rep::kString:
        col.offsets.push_back(static_cast<uint32_t>(col.arena.size()));
        break;
      case Rep::kGeneric:
        col.generic.emplace_back();
        break;
      case Rep::kDict:
        col.ints.push_back(0);  // placeholder code; the null bit rules
        break;
    }
    return;
  }
  switch (col.rep) {
    case Rep::kBool:
      if (!value.is_bool()) break;
      col.bools.push_back(value.AsBool() ? 1 : 0);
      return;
    case Rep::kInt:
      if (!value.is_int()) break;
      col.ints.push_back(value.AsInt());
      return;
    case Rep::kDouble:
      if (!value.is_double()) break;
      col.doubles.push_back(value.AsDoubleExact());
      return;
    case Rep::kString: {
      if (!value.is_string()) break;
      const std::string& s = value.AsString();
      col.arena.append(s);
      col.offsets.push_back(static_cast<uint32_t>(col.arena.size()));
      return;
    }
    case Rep::kGeneric:
      col.generic.push_back(value);
      return;
    case Rep::kDict:
      break;  // dictionaries are decode-only; appends box the column
  }
  // The value does not fit the column's physical representation: box the
  // whole column so mixed-type inputs keep row-path semantics.
  MigrateToGeneric(field);
  columns_[field].generic.push_back(value);
}

void ColumnBatch::MigrateToGeneric(size_t field) {
  Column& col = columns_[field];
  const size_t filled = request_ids_.size() - 1;  // rows before the in-flight one
  std::vector<Value> boxed;
  boxed.reserve(filled + 1);
  for (size_t r = 0; r < filled; ++r) {
    boxed.push_back(ValueAt(field, r));
  }
  col.bools.clear();
  col.ints.clear();
  col.doubles.clear();
  col.offsets.clear();
  col.arena.clear();
  col.rep = Rep::kGeneric;
  col.generic = std::move(boxed);
}

Value ColumnBatch::ValueAt(size_t field, size_t row) const {
  const Column& col = columns_[field];
  if (BitmapGet(col.nulls, row)) {
    return Value();
  }
  switch (col.rep) {
    case Rep::kBool:
      return Value(col.bools[row] != 0);
    case Rep::kInt:
      return Value(col.ints[row]);
    case Rep::kDouble:
      return Value(col.doubles[row]);
    case Rep::kString:
      return Value(col.arena.substr(col.offsets[row],
                                    col.offsets[row + 1] - col.offsets[row]));
    case Rep::kGeneric:
      return col.generic[row];
    case Rep::kDict: {
      const size_t code = static_cast<size_t>(col.ints[row]);
      return Value(col.arena.substr(col.offsets[code],
                                    col.offsets[code + 1] - col.offsets[code]));
    }
  }
  return Value();
}

Event ColumnBatch::MaterializeEvent(size_t row) const {
  Event event(schema_, request_ids_[row],
              static_cast<TimeMicros>(timestamps_[row]));
  for (size_t f = 0; f < columns_.size(); ++f) {
    if (!IsNull(f, row)) {
      event.SetField(f, ValueAt(f, row));
    }
  }
  return event;
}

size_t ColumnBatch::RowWireSize(size_t row) const {
  // Mirrors Event::WireSize and Value::WireSize field by field.
  size_t n = 4 + schema_->type_name().size() + 8 + 8;
  for (const Column& col : columns_) {
    if (BitmapGet(col.nulls, row)) {
      n += 1;
      continue;
    }
    switch (col.rep) {
      case Rep::kBool:
        n += 1;
        break;
      case Rep::kInt:
      case Rep::kDouble:
        n += 1 + 8;
        break;
      case Rep::kString:
        n += 1 + 4 + (col.offsets[row + 1] - col.offsets[row]);
        break;
      case Rep::kDict: {
        const size_t code = static_cast<size_t>(col.ints[row]);
        n += 1 + 4 + (col.offsets[code + 1] - col.offsets[code]);
        break;
      }
      case Rep::kGeneric:
        n += col.generic[row].WireSize();
        break;
    }
  }
  return n;
}

void ColumnBatch::SetRowMeta(std::vector<uint64_t> request_ids,
                             std::vector<int64_t> timestamps) {
  request_ids_ = std::move(request_ids);
  timestamps_ = std::move(timestamps);
}

void ColumnBatch::FillAllNull(size_t field, size_t rows) {
  Column& col = columns_[field];
  col.nulls.assign((rows + 7) / 8, 0xFF);
  if (rows % 8 != 0 && !col.nulls.empty()) {
    col.nulls.back() = static_cast<uint8_t>((1U << (rows % 8)) - 1);
  }
  col.bools.clear();
  col.ints.clear();
  col.doubles.clear();
  col.offsets.clear();
  col.arena.clear();
  col.generic.clear();
  col.all_null = true;
}

}  // namespace scrub
