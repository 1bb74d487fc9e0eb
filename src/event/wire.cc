#include "src/event/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "src/common/strings.h"

namespace scrub {
namespace {

// Value tags. Must stay dense and stable: the codec is the contract between
// host agents and ScrubCentral.
enum ValueTag : uint8_t {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagDouble = 4,
  kTagString = 5,
  kTagList = 6,
  kTagObject = 7,
};

// ---- Writers ---------------------------------------------------------------
// Every encoder sizes its output exactly before writing (Value::WireSize for
// records, a planning pass for columnar batches), grows the buffer once and
// then writes through a raw cursor: no per-value capacity check, no
// reallocation.

template <typename T>
char* Put(char* p, T v) {
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

char* PutBytes(char* p, const void* src, size_t n) {
  if (n != 0) {  // memcpy's pointers must be valid even for n == 0
    std::memcpy(p, src, n);
  }
  return p + n;
}

// Grows `out` by `n` bytes; returns a cursor to the first new byte.
char* Extend(std::string* out, size_t n) {
  const size_t at = out->size();
  out->resize(at + n);
  return out->data() + at;
}

char* WriteValue(const Value& v, char* p) {
  if (v.is_null()) {
    *p = static_cast<char>(kTagNull);
    return p + 1;
  }
  if (v.is_bool()) {
    *p = static_cast<char>(v.AsBool() ? kTagTrue : kTagFalse);
    return p + 1;
  }
  if (v.is_int()) {
    *p = static_cast<char>(kTagInt);
    return Put(p + 1, static_cast<uint64_t>(v.AsInt()));
  }
  if (v.is_double()) {
    *p = static_cast<char>(kTagDouble);
    return Put(p + 1, v.AsDoubleExact());
  }
  if (v.is_string()) {
    const std::string& s = v.AsString();
    *p = static_cast<char>(kTagString);
    p = Put(p + 1, static_cast<uint32_t>(s.size()));
    return PutBytes(p, s.data(), s.size());
  }
  if (v.is_list()) {
    *p = static_cast<char>(kTagList);
    p = Put(p + 1, static_cast<uint32_t>(v.AsList().size()));
    for (const Value& e : v.AsList()) {
      p = WriteValue(e, p);
    }
    return p;
  }
  const NestedObject& obj = v.AsObject();
  *p = static_cast<char>(kTagObject);
  p = Put(p + 1, static_cast<uint32_t>(obj.fields.size()));
  for (const auto& [name, value] : obj.fields) {
    p = Put(p, static_cast<uint32_t>(name.size()));
    p = PutBytes(p, name.data(), name.size());
    p = WriteValue(value, p);
  }
  return p;
}

// ---- Readers ---------------------------------------------------------------
// Hostile-input guards: decode runs on bytes that crossed the network, so
// every length, count and nesting level is attacker-controlled until proven
// otherwise. A crafted list-of-list-of-... costs ~5 bytes per level; without
// a depth cap the recursive decoder walks off the stack long before any
// size check trips.
constexpr int kMaxValueDepth = 32;

// True when `n` bytes remain at `off`.
bool Has(std::string_view buf, size_t off, size_t n) {
  return off <= buf.size() && buf.size() - off >= n;
}

template <typename T>
bool Get(std::string_view buf, size_t* off, T* v) {
  if (!Has(buf, *off, sizeof(T))) {
    return false;
  }
  std::memcpy(v, buf.data() + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

// Reads `count` packed values of T with one bounds check.
template <typename T>
bool GetArray(std::string_view buf, size_t* off, size_t count, T* v) {
  if (!Has(buf, *off, count * sizeof(T))) {
    return false;
  }
  PutBytes(reinterpret_cast<char*>(v), buf.data() + *off, count * sizeof(T));
  *off += count * sizeof(T);
  return true;
}

bool GetView(std::string_view buf, size_t* off, size_t n,
             std::string_view* v) {
  if (!Has(buf, *off, n)) {
    return false;
  }
  *v = buf.substr(*off, n);
  *off += n;
  return true;
}

// Column tags for the columnar batch format. Dense and stable, same contract
// discipline as ValueTag.
enum ColumnTag : uint8_t {
  kColNull = 0,  // all rows null (or the column was projected away)
  kColBool = 1,
  kColInt = 2,
  kColDouble = 3,
  kColString = 4,
  kColGeneric = 5,
  kColDict = 6,  // dictionary-encoded strings: dictionary + u8 codes
};

// One code byte per row caps the dictionary at 256 entries; the encoder
// stops deduplicating past this and falls back to plain strings.
constexpr size_t kMaxDictEntries = 256;

bool BitSet(const uint8_t* bits, size_t i) {
  return ((bits[i / 8] >> (i % 8)) & 1U) != 0;
}

// Bits beyond `count` in the last of a count-bit bitmap's bytes must be
// zero; a mismatch means the sender's bitmap disagrees with its row count.
bool PaddingClear(const uint8_t* bits, size_t count) {
  return count % 8 == 0 || (bits[count / 8] >> (count % 8)) == 0;
}

size_t CountSet(const std::vector<uint8_t>& bits) {
  size_t n = 0;
  size_t i = 0;
  for (; i + 8 <= bits.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bits.data() + i, 8);
    n += static_cast<size_t>(std::popcount(word));
  }
  for (; i < bits.size(); ++i) {
    n += static_cast<size_t>(std::popcount(bits[i]));
  }
  return n;
}

// Row r's string bytes in a kString or kDict column (kDict rows indirect
// through their code), without materializing a Value.
std::string_view StringAt(const ColumnBatch::Column& col, size_t r) {
  const size_t idx =
      col.rep == ColumnBatch::Rep::kDict ? static_cast<size_t>(col.ints[r]) : r;
  return std::string_view(col.arena).substr(
      col.offsets[idx], col.offsets[idx + 1] - col.offsets[idx]);
}

// Calls fn(r) for every selected row r whose value is not null, in selection
// order. `nulls` is the selection-local null bitmap, or null when no selected
// row is null.
template <typename Fn>
void ForEachValue(const uint32_t* selection, size_t rows, const uint8_t* nulls,
                  Fn fn) {
  if (nulls == nullptr) {
    for (size_t i = 0; i < rows; ++i) {
      fn(selection[i]);
    }
    return;
  }
  for (size_t i = 0; i < rows; ++i) {
    if (!BitSet(nulls, i)) {
      fn(selection[i]);
    }
  }
}

// Scatters `non_null` packed 8-byte values from `src` over the non-null rows
// of a `rows`-row column; null rows hold T{}.
template <typename T>
void ScatterFixed(const char* src, const std::vector<uint8_t>& nulls,
                  size_t rows, size_t non_null, std::vector<T>* dst) {
  dst->assign(rows, T{});
  if (non_null == rows) {
    PutBytes(reinterpret_cast<char*>(dst->data()), src, rows * sizeof(T));
    return;
  }
  for (size_t r = 0; r < rows; ++r) {
    if (!BitmapGet(nulls, r)) {
      std::memcpy(&(*dst)[r], src, sizeof(T));
      src += sizeof(T);
    }
  }
}

Result<Value> DecodeValue(std::string_view buf, size_t* off, int depth) {
  if (depth > kMaxValueDepth) {
    return InvalidArgument("value nesting too deep");
  }
  uint8_t tag;
  if (!Get(buf, off, &tag)) {
    return InvalidArgument("truncated value tag");
  }
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagFalse:
      return Value(false);
    case kTagTrue:
      return Value(true);
    case kTagInt: {
      uint64_t v;
      if (!Get(buf, off, &v)) {
        return InvalidArgument("truncated int value");
      }
      return Value(static_cast<int64_t>(v));
    }
    case kTagDouble: {
      double v;
      if (!Get(buf, off, &v)) {
        return InvalidArgument("truncated double value");
      }
      return Value(v);
    }
    case kTagString: {
      uint32_t n;
      std::string_view s;
      if (!Get(buf, off, &n) || !GetView(buf, off, n, &s)) {
        return InvalidArgument("truncated string value");
      }
      return Value(std::string(s));
    }
    case kTagList: {
      uint32_t n;
      if (!Get(buf, off, &n)) {
        return InvalidArgument("truncated list header");
      }
      // Never trust a length prefix with memory: each element costs at
      // least one tag byte, so a count beyond the remaining bytes is bogus.
      if (n > buf.size() - *off) {
        return InvalidArgument("list length exceeds buffer");
      }
      std::vector<Value> items;
      items.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        Result<Value> item = DecodeValue(buf, off, depth + 1);
        if (!item.ok()) {
          return item.status();
        }
        items.push_back(std::move(item).value());
      }
      return Value(std::move(items));
    }
    case kTagObject: {
      uint32_t n;
      if (!Get(buf, off, &n)) {
        return InvalidArgument("truncated object header");
      }
      if (n > buf.size() - *off) {
        return InvalidArgument("object field count exceeds buffer");
      }
      NestedObject obj;
      obj.fields.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t name_len;
        std::string_view name;
        if (!Get(buf, off, &name_len) ||
            !GetView(buf, off, name_len, &name)) {
          return InvalidArgument("truncated object field name");
        }
        Result<Value> item = DecodeValue(buf, off, depth + 1);
        if (!item.ok()) {
          return item.status();
        }
        obj.fields.emplace_back(std::string(name), std::move(item).value());
      }
      return Value(std::move(obj));
    }
    default:
      return InvalidArgument(StrFormat("unknown value tag %u", tag));
  }
}

// Pass-1 result for one column of a columnar payload.
struct ColumnPlan {
  ColumnTag tag = kColNull;
  size_t non_null = 0;
  // Offset of the column's selection-local null bitmap in the encoder's
  // scratch, or kNoNulls when no selected row is null.
  size_t bitmap = 0;
  size_t value_bytes = 0;  // bytes after the bitmap
  // kColDict: the column's entries and codes in the encoder's scratch.
  size_t first_entry = 0;
  size_t entry_count = 0;
  size_t first_code = 0;
};
constexpr size_t kNoNulls = static_cast<size_t>(-1);

}  // namespace

size_t EncodeEvent(const Event& event, std::string* out) {
  const size_t n = event.WireSize();
  char* p = Extend(out, n);
  const std::string& type_name = event.schema()->type_name();
  p = Put(p, static_cast<uint32_t>(type_name.size()));
  p = PutBytes(p, type_name.data(), type_name.size());
  p = Put(p, static_cast<uint64_t>(event.request_id()));
  p = Put(p, static_cast<uint64_t>(event.timestamp()));
  for (size_t i = 0; i < event.field_count(); ++i) {
    p = WriteValue(event.field(i), p);
  }
  return n;
}

Result<Event> DecodeEvent(const SchemaRegistry& registry,
                          const std::string& buffer, size_t* offset) {
  uint32_t name_len;
  std::string_view type_name;
  if (!Get(buffer, offset, &name_len) ||
      !GetView(buffer, offset, name_len, &type_name)) {
    return InvalidArgument("truncated event header");
  }
  Result<SchemaPtr> schema = registry.Get(type_name);
  if (!schema.ok()) {
    return schema.status();
  }
  uint64_t request_id;
  uint64_t timestamp;
  if (!Get(buffer, offset, &request_id) || !Get(buffer, offset, &timestamp)) {
    return InvalidArgument("truncated event metadata");
  }
  Event event(*schema, request_id, static_cast<TimeMicros>(timestamp));
  for (size_t i = 0; i < (*schema)->field_count(); ++i) {
    Result<Value> v = DecodeValue(buffer, offset, /*depth=*/0);
    if (!v.ok()) {
      return v.status();
    }
    event.SetField(i, std::move(v).value());
  }
  return event;
}

size_t EncodeColumnBatch(const ColumnBatch& batch, const uint32_t* selection,
                         size_t selected, const std::vector<bool>* keep_field,
                         std::string* out, std::vector<int>* encodings) {
  const size_t rows = selection != nullptr ? selected : batch.rows();
  std::vector<uint32_t> all_rows;
  if (selection == nullptr) {
    all_rows.resize(rows);
    for (size_t i = 0; i < rows; ++i) {
      all_rows[i] = static_cast<uint32_t>(i);
    }
    selection = all_rows.data();
  }
  const size_t columns = batch.column_count();
  const size_t bitmap_bytes = (rows + 7) / 8;
  if (encodings != nullptr) {
    encodings->assign(columns, 0);
  }

  // Pass 1: per column, the selection-local null bitmap, the non-null count
  // and the encoding; together they give the payload's exact size.
  std::vector<ColumnPlan> plans(columns);
  std::vector<uint8_t> bitmaps;  // the columns' null bitmaps, back to back
  std::vector<std::string_view> entries;  // dictionaries, back to back
  std::vector<uint8_t> codes;             // dictionary codes, back to back
  std::unordered_map<std::string_view, uint32_t> index;
  const std::string& type_name = batch.schema()->type_name();
  size_t total = 4 + type_name.size() + 4 + 16 * rows + columns;
  for (size_t f = 0; f < columns; ++f) {
    ColumnPlan& plan = plans[f];
    const bool dropped = keep_field != nullptr && f < keep_field->size() &&
                         !(*keep_field)[f];
    const ColumnBatch::Column& col = batch.column(f);
    plan.bitmap = kNoNulls;
    plan.non_null = dropped ? 0 : rows;
    if (!dropped && !col.nulls.empty()) {
      plan.bitmap = bitmaps.size();
      bitmaps.resize(bitmaps.size() + bitmap_bytes, 0);
      uint8_t* bits = bitmaps.data() + plan.bitmap;
      for (size_t i = 0; i < rows; ++i) {
        if (BitmapGet(col.nulls, selection[i])) {
          bits[i / 8] = static_cast<uint8_t>(bits[i / 8] | (1U << (i % 8)));
          --plan.non_null;
        }
      }
      if (plan.non_null == rows) {
        bitmaps.resize(plan.bitmap);
        plan.bitmap = kNoNulls;
      }
    }
    if (plan.non_null == 0) {  // dropped, all null, or no rows
      if (encodings != nullptr) {
        (*encodings)[f] = -1;
      }
      continue;
    }
    total += bitmap_bytes;
    const uint8_t* nulls =
        plan.bitmap == kNoNulls ? nullptr : bitmaps.data() + plan.bitmap;
    switch (col.rep) {
      case ColumnBatch::Rep::kBool:
        plan.tag = kColBool;
        plan.value_bytes = (plan.non_null + 7) / 8;
        break;
      case ColumnBatch::Rep::kInt:
        plan.tag = kColInt;
        plan.value_bytes = 8 * plan.non_null;
        break;
      case ColumnBatch::Rep::kDouble:
        plan.tag = kColDouble;
        plan.value_bytes = 8 * plan.non_null;
        break;
      case ColumnBatch::Rep::kString:
      case ColumnBatch::Rep::kDict: {
        // Dictionary pass: dedupe the selected non-null strings in
        // first-appearance order. Dict wins only when the dictionary plus
        // one code byte per value is strictly smaller than the plain
        // length-prefixed bytes — so pathological (high-cardinality)
        // columns cost one wasted scan, never wire bytes.
        size_t plain_bytes = 0;
        size_t entry_bytes = 0;
        plan.first_entry = entries.size();
        plan.first_code = codes.size();
        bool eligible = batch.schema()->field(f).type == FieldType::kString;
        index.clear();
        ForEachValue(selection, rows, nulls, [&](size_t r) {
          const std::string_view sv = StringAt(col, r);
          plain_bytes += 4 + sv.size();
          if (!eligible) {
            return;
          }
          const auto [it, inserted] = index.try_emplace(
              sv, static_cast<uint32_t>(entries.size() - plan.first_entry));
          if (inserted) {
            if (it->second >= kMaxDictEntries) {
              eligible = false;
              return;
            }
            entries.push_back(sv);
            entry_bytes += 4 + sv.size();
          }
          codes.push_back(static_cast<uint8_t>(it->second));
        });
        plan.entry_count = entries.size() - plan.first_entry;
        const size_t dict_bytes =
            4 + entry_bytes + (codes.size() - plan.first_code);
        if (eligible && plan.entry_count > 0 && dict_bytes < plain_bytes) {
          plan.tag = kColDict;
          plan.value_bytes = dict_bytes;
          if (encodings != nullptr) {
            (*encodings)[f] = static_cast<int>(plan.entry_count);
          }
        } else {
          entries.resize(plan.first_entry);
          codes.resize(plan.first_code);
          plan.tag = kColString;
          plan.value_bytes = plain_bytes;
        }
        break;
      }
      case ColumnBatch::Rep::kGeneric:
        plan.tag = kColGeneric;
        ForEachValue(selection, rows, nulls, [&](size_t r) {
          plan.value_bytes += col.generic[r].WireSize();
        });
        break;
    }
    total += plan.value_bytes;
  }

  // Pass 2: write the payload into the exactly-sized buffer.
  char* p = Extend(out, total);
  p = Put(p, static_cast<uint32_t>(type_name.size()));
  p = PutBytes(p, type_name.data(), type_name.size());
  p = Put(p, static_cast<uint32_t>(rows));
  for (size_t i = 0; i < rows; ++i) {
    p = Put(p, static_cast<uint64_t>(batch.request_id(selection[i])));
  }
  for (size_t i = 0; i < rows; ++i) {
    p = Put(p, static_cast<uint64_t>(batch.timestamp(selection[i])));
  }
  for (size_t f = 0; f < columns; ++f) {
    const ColumnPlan& plan = plans[f];
    *p++ = static_cast<char>(plan.tag);
    if (plan.tag == kColNull) {
      continue;
    }
    const uint8_t* nulls = nullptr;
    if (plan.bitmap == kNoNulls) {
      std::memset(p, 0, bitmap_bytes);
      p += bitmap_bytes;
    } else {
      nulls = bitmaps.data() + plan.bitmap;
      p = PutBytes(p, nulls, bitmap_bytes);
    }
    const ColumnBatch::Column& col = batch.column(f);
    switch (plan.tag) {
      case kColBool: {
        std::memset(p, 0, plan.value_bytes);
        uint8_t* packed = reinterpret_cast<uint8_t*>(p);
        size_t k = 0;
        ForEachValue(selection, rows, nulls, [&](size_t r) {
          if (col.bools[r] != 0) {
            packed[k / 8] = static_cast<uint8_t>(packed[k / 8] |
                                                 (1U << (k % 8)));
          }
          ++k;
        });
        p += plan.value_bytes;
        break;
      }
      case kColInt:
        ForEachValue(selection, rows, nulls,
                     [&](size_t r) { p = Put(p, col.ints[r]); });
        break;
      case kColDouble:
        ForEachValue(selection, rows, nulls,
                     [&](size_t r) { p = Put(p, col.doubles[r]); });
        break;
      case kColString:
        ForEachValue(selection, rows, nulls, [&](size_t r) {
          const std::string_view sv = StringAt(col, r);
          p = Put(p, static_cast<uint32_t>(sv.size()));
          p = PutBytes(p, sv.data(), sv.size());
        });
        break;
      case kColDict:
        p = Put(p, static_cast<uint32_t>(plan.entry_count));
        for (size_t e = 0; e < plan.entry_count; ++e) {
          const std::string_view sv = entries[plan.first_entry + e];
          p = Put(p, static_cast<uint32_t>(sv.size()));
          p = PutBytes(p, sv.data(), sv.size());
        }
        p = PutBytes(p, codes.data() + plan.first_code, plan.non_null);
        break;
      case kColGeneric:
        ForEachValue(selection, rows, nulls,
                     [&](size_t r) { p = WriteValue(col.generic[r], p); });
        break;
      case kColNull:
        break;
    }
  }
  return total;
}

Result<ColumnBatch> DecodeColumnBatch(const SchemaRegistry& registry,
                                      std::string_view buffer) {
  size_t off = 0;
  uint32_t name_len;
  std::string_view type_name;
  if (!Get(buffer, &off, &name_len) ||
      !GetView(buffer, &off, name_len, &type_name)) {
    return InvalidArgument("truncated column batch header");
  }
  Result<SchemaPtr> schema = registry.Get(type_name);
  if (!schema.ok()) {
    return schema.status();
  }
  uint32_t rows;
  if (!Get(buffer, &off, &rows)) {
    return InvalidArgument("truncated column batch row count");
  }
  // Request id + timestamp alone cost 16 bytes per row; a row count the
  // remaining bytes cannot possibly hold is bogus.
  if (static_cast<size_t>(rows) > (buffer.size() - off) / 16 + 1) {
    return InvalidArgument("column batch row count exceeds buffer");
  }
  std::vector<uint64_t> request_ids(rows);
  if (!GetArray(buffer, &off, rows, request_ids.data())) {
    return InvalidArgument("truncated request id column");
  }
  std::vector<int64_t> timestamps(rows);
  if (!GetArray(buffer, &off, rows, timestamps.data())) {
    return InvalidArgument("truncated timestamp column");
  }
  // Every column after this is checked against the buffer once, as a whole:
  // its bitmap, then (fixed-width reps) all of its values.
  const size_t bitmap_bytes = (rows + 7) / 8;
  ColumnBatch batch(*schema);
  for (size_t f = 0; f < (*schema)->field_count(); ++f) {
    uint8_t tag;
    if (!Get(buffer, &off, &tag)) {
      return InvalidArgument("truncated column tag");
    }
    if (tag == kColNull) {
      batch.FillAllNull(f, rows);
      continue;
    }
    ColumnBatch::Column* col = batch.MutableColumn(f);
    if (!Has(buffer, off, bitmap_bytes)) {
      return InvalidArgument("truncated null bitmap");
    }
    const auto* bits = reinterpret_cast<const uint8_t*>(buffer.data() + off);
    if (!PaddingClear(bits, rows)) {
      return InvalidArgument("null bitmap does not match row count");
    }
    col->nulls.assign(bits, bits + bitmap_bytes);
    off += bitmap_bytes;
    const size_t non_null = rows - CountSet(col->nulls);
    switch (tag) {
      case kColBool: {
        col->rep = ColumnBatch::Rep::kBool;
        const size_t packed_bytes = (non_null + 7) / 8;
        if (!Has(buffer, off, packed_bytes)) {
          return InvalidArgument("truncated bool column");
        }
        const auto* packed =
            reinterpret_cast<const uint8_t*>(buffer.data() + off);
        if (!PaddingClear(packed, non_null)) {
          return InvalidArgument("bool column padding not zero");
        }
        off += packed_bytes;
        col->bools.assign(rows, 0);
        size_t k = 0;
        for (uint32_t r = 0; r < rows; ++r) {
          if (!BitmapGet(col->nulls, r)) {
            col->bools[r] = BitSet(packed, k) ? 1 : 0;
            ++k;
          }
        }
        break;
      }
      case kColInt:
        col->rep = ColumnBatch::Rep::kInt;
        if (!Has(buffer, off, 8 * non_null)) {
          return InvalidArgument("truncated int column");
        }
        ScatterFixed(buffer.data() + off, col->nulls, rows, non_null,
                     &col->ints);
        off += 8 * non_null;
        break;
      case kColDouble:
        col->rep = ColumnBatch::Rep::kDouble;
        if (!Has(buffer, off, 8 * non_null)) {
          return InvalidArgument("truncated double column");
        }
        ScatterFixed(buffer.data() + off, col->nulls, rows, non_null,
                     &col->doubles);
        off += 8 * non_null;
        break;
      case kColString: {
        col->rep = ColumnBatch::Rep::kString;
        col->offsets.assign(1, 0);
        col->offsets.reserve(static_cast<size_t>(rows) + 1);
        col->arena.clear();
        for (uint32_t r = 0; r < rows; ++r) {
          if (!BitmapGet(col->nulls, r)) {
            uint32_t n;
            std::string_view s;
            if (!Get(buffer, &off, &n) || !GetView(buffer, &off, n, &s)) {
              return InvalidArgument("truncated string column");
            }
            col->arena.append(s);
          }
          col->offsets.push_back(static_cast<uint32_t>(col->arena.size()));
        }
        break;
      }
      case kColGeneric: {
        col->rep = ColumnBatch::Rep::kGeneric;
        col->generic.clear();
        col->generic.reserve(rows);
        for (uint32_t r = 0; r < rows; ++r) {
          if (BitmapGet(col->nulls, r)) {
            col->generic.emplace_back();
            continue;
          }
          Result<Value> v = DecodeValue(buffer, &off, /*depth=*/0);
          if (!v.ok()) {
            return v.status();
          }
          col->generic.push_back(std::move(v).value());
        }
        break;
      }
      case kColDict: {
        // Dictionaries are a string-column encoding only; a dict tag on any
        // other schema type is a hostile or corrupted payload.
        if ((*schema)->field(f).type != FieldType::kString) {
          return InvalidArgument("dictionary column on non-string field");
        }
        uint32_t dict_count;
        if (!Get(buffer, &off, &dict_count)) {
          return InvalidArgument("truncated dictionary header");
        }
        if (dict_count == 0 || dict_count > kMaxDictEntries) {
          return InvalidArgument("dictionary count out of range");
        }
        // Each entry costs at least its 4-byte length prefix.
        if (static_cast<size_t>(dict_count) > (buffer.size() - off) / 4 + 1) {
          return InvalidArgument("dictionary count exceeds buffer");
        }
        col->rep = ColumnBatch::Rep::kDict;
        col->offsets.assign(1, 0);
        col->arena.clear();
        for (uint32_t d = 0; d < dict_count; ++d) {
          uint32_t n;
          std::string_view s;
          if (!Get(buffer, &off, &n) || !GetView(buffer, &off, n, &s)) {
            return InvalidArgument("truncated dictionary entry");
          }
          col->arena.append(s);
          col->offsets.push_back(static_cast<uint32_t>(col->arena.size()));
        }
        // One code byte per non-null row. The codes present are range-
        // checked in row order before a short run is reported, the order
        // a per-code read reports them in.
        const size_t present = std::min<size_t>(non_null, buffer.size() - off);
        const auto* code = reinterpret_cast<const uint8_t*>(buffer.data() + off);
        col->ints.assign(rows, 0);
        size_t k = 0;
        for (uint32_t r = 0; r < rows; ++r) {
          if (BitmapGet(col->nulls, r)) {
            continue;
          }
          if (k == present) {
            return InvalidArgument("truncated dictionary codes");
          }
          if (code[k] >= dict_count) {
            return InvalidArgument("dictionary code out of range");
          }
          col->ints[r] = code[k++];
        }
        off += non_null;
        break;
      }
      default:
        return InvalidArgument(StrFormat("unknown column tag %u", tag));
    }
  }
  if (off != buffer.size()) {
    return InvalidArgument("trailing bytes after column batch");
  }
  batch.SetRowMeta(std::move(request_ids), std::move(timestamps));
  return batch;
}

size_t EncodeColumnJoinBatch(const std::vector<ColumnJoinSection>& sections,
                             const std::vector<uint8_t>& order,
                             std::string* out,
                             std::vector<std::vector<int>>* encodings) {
  const size_t before = out->size();
  Put(Extend(out, 4), static_cast<uint32_t>(sections.size()));
  if (encodings != nullptr) {
    encodings->assign(sections.size(), {});
  }
  for (size_t s = 0; s < sections.size(); ++s) {
    const ColumnJoinSection& sec = sections[s];
    const size_t len_at = out->size();
    Extend(out, 4);  // the section length, written once it is known
    const size_t len = EncodeColumnBatch(
        *sec.batch, sec.selection, sec.selected, sec.keep_field, out,
        encodings != nullptr ? &(*encodings)[s] : nullptr);
    Put(out->data() + len_at, static_cast<uint32_t>(len));
  }
  char* p = Extend(out, 4 + order.size());
  p = Put(p, static_cast<uint32_t>(order.size()));
  PutBytes(p, order.data(), order.size());
  return out->size() - before;
}

Result<ColumnJoinBatch> DecodeColumnJoinBatch(const SchemaRegistry& registry,
                                              std::string_view buffer) {
  size_t off = 0;
  uint32_t section_count;
  if (!Get(buffer, &off, &section_count)) {
    return InvalidArgument("truncated join batch header");
  }
  if (section_count == 0 || section_count > kMaxColumnJoinSections) {
    return InvalidArgument("join batch section count out of range");
  }
  ColumnJoinBatch out;
  out.sections.reserve(section_count);
  size_t total_rows = 0;
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t len;
    std::string_view section;
    if (!Get(buffer, &off, &len) || !GetView(buffer, &off, len, &section)) {
      return InvalidArgument("truncated join batch section");
    }
    // Each section is a complete columnar payload; decoding the exact
    // subrange (a view, not a copy) inherits the full hostile-input
    // discipline, including its own trailing-bytes check against the
    // declared section length.
    Result<ColumnBatch> sec = DecodeColumnBatch(registry, section);
    if (!sec.ok()) {
      return sec.status();
    }
    total_rows += sec->rows();
    out.sections.push_back(std::move(sec).value());
  }
  uint32_t order_count;
  if (!Get(buffer, &off, &order_count)) {
    return InvalidArgument("truncated join batch order header");
  }
  if (order_count != total_rows || !Has(buffer, off, order_count)) {
    return InvalidArgument("join batch order does not match section rows");
  }
  std::vector<size_t> seen(section_count, 0);
  out.order.resize(order_count);
  for (uint32_t i = 0; i < order_count; ++i) {
    const uint8_t s = static_cast<uint8_t>(buffer[off + i]);
    if (s >= section_count) {
      return InvalidArgument("join batch order index out of range");
    }
    ++seen[s];
    out.order[i] = s;
  }
  off += order_count;
  for (uint32_t s = 0; s < section_count; ++s) {
    if (seen[s] != out.sections[s].rows()) {
      return InvalidArgument("join batch order does not match section rows");
    }
  }
  if (off != buffer.size()) {
    return InvalidArgument("trailing bytes after join batch");
  }
  return out;
}

BatchFormat EncodeEvents(const std::vector<Event>& events, std::string* out) {
  // One section per event type, in first-appearance order; `order` is the
  // events' own sequence over those sections.
  std::vector<ColumnBatch> sections;
  std::vector<uint8_t> order;
  order.reserve(events.size());
  for (const Event& event : events) {
    size_t s = 0;
    while (s < sections.size() &&
           sections[s].schema()->type_name() != event.type_name()) {
      ++s;
    }
    if (s == sections.size()) {
      sections.emplace_back(event.schema());
    }
    sections[s].AppendEvent(event);
    order.push_back(static_cast<uint8_t>(s));
  }
  if (sections.empty()) {
    return BatchFormat::kColumnar;  // nothing to carry: empty payload
  }
  if (sections.size() == 1) {
    EncodeColumnBatch(sections[0], nullptr, sections[0].rows(), nullptr, out);
    return BatchFormat::kColumnar;
  }
  std::vector<ColumnJoinSection> join;
  join.reserve(sections.size());
  for (const ColumnBatch& section : sections) {
    join.push_back(ColumnJoinSection{&section, nullptr, section.rows()});
  }
  EncodeColumnJoinBatch(join, order, out);
  return BatchFormat::kColumnarJoin;
}

}  // namespace scrub
