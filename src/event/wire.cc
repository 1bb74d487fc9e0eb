#include "src/event/wire.h"

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

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutDouble(std::string* out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

// Hostile-input guards: decode runs on bytes that crossed the network, so
// every length, count and nesting level is attacker-controlled until proven
// otherwise. A crafted list-of-list-of-... costs ~5 bytes per level; without
// a depth cap the recursive decoder walks off the stack long before any
// size check trips.
constexpr int kMaxValueDepth = 32;

bool GetU8(const std::string& buf, size_t* off, uint8_t* v) {
  if (*off >= buf.size()) {
    return false;
  }
  *v = static_cast<uint8_t>(buf[*off]);
  *off += 1;
  return true;
}

bool GetU32(const std::string& buf, size_t* off, uint32_t* v) {
  if (*off > buf.size() || buf.size() - *off < 4) {
    return false;
  }
  std::memcpy(v, buf.data() + *off, 4);
  *off += 4;
  return true;
}

bool GetU64(const std::string& buf, size_t* off, uint64_t* v) {
  if (*off > buf.size() || buf.size() - *off < 8) {
    return false;
  }
  std::memcpy(v, buf.data() + *off, 8);
  *off += 8;
  return true;
}

bool GetDouble(const std::string& buf, size_t* off, double* v) {
  if (*off > buf.size() || buf.size() - *off < 8) {
    return false;
  }
  std::memcpy(v, buf.data() + *off, 8);
  *off += 8;
  return true;
}

bool GetBytes(const std::string& buf, size_t* off, size_t n, std::string* v) {
  if (*off > buf.size() || buf.size() - *off < n) {
    return false;
  }
  v->assign(buf.data() + *off, n);
  *off += n;
  return true;
}

void EncodeValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->push_back(static_cast<char>(kTagNull));
  } else if (v.is_bool()) {
    out->push_back(static_cast<char>(v.AsBool() ? kTagTrue : kTagFalse));
  } else if (v.is_int()) {
    out->push_back(static_cast<char>(kTagInt));
    PutU64(out, static_cast<uint64_t>(v.AsInt()));
  } else if (v.is_double()) {
    out->push_back(static_cast<char>(kTagDouble));
    PutDouble(out, v.AsDoubleExact());
  } else if (v.is_string()) {
    out->push_back(static_cast<char>(kTagString));
    PutU32(out, static_cast<uint32_t>(v.AsString().size()));
    out->append(v.AsString());
  } else if (v.is_list()) {
    out->push_back(static_cast<char>(kTagList));
    PutU32(out, static_cast<uint32_t>(v.AsList().size()));
    for (const Value& e : v.AsList()) {
      EncodeValue(e, out);
    }
  } else {
    out->push_back(static_cast<char>(kTagObject));
    const NestedObject& obj = v.AsObject();
    PutU32(out, static_cast<uint32_t>(obj.fields.size()));
    for (const auto& [name, value] : obj.fields) {
      PutU32(out, static_cast<uint32_t>(name.size()));
      out->append(name);
      EncodeValue(value, out);
    }
  }
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

// Reads ceil(count/8) bitmap bytes. The caller still has to check padding.
bool ReadBitmap(const std::string& buf, size_t* off, size_t count,
                std::vector<uint8_t>* bits) {
  const size_t nbytes = (count + 7) / 8;
  if (*off > buf.size() || buf.size() - *off < nbytes) {
    return false;
  }
  bits->assign(buf.begin() + static_cast<ptrdiff_t>(*off),
               buf.begin() + static_cast<ptrdiff_t>(*off + nbytes));
  *off += nbytes;
  return true;
}

// Bits beyond `count` in the last bitmap byte must be zero; a mismatch means
// the sender's bitmap disagrees with its row count.
bool PaddingClear(const std::vector<uint8_t>& bits, size_t count) {
  if (count % 8 == 0 || bits.empty()) {
    return true;
  }
  return (bits.back() >> (count % 8)) == 0;
}

Result<Value> DecodeValue(const std::string& buf, size_t* off, int depth) {
  if (depth > kMaxValueDepth) {
    return InvalidArgument("value nesting too deep");
  }
  uint8_t tag;
  if (!GetU8(buf, off, &tag)) {
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
      if (!GetU64(buf, off, &v)) {
        return InvalidArgument("truncated int value");
      }
      return Value(static_cast<int64_t>(v));
    }
    case kTagDouble: {
      double v;
      if (!GetDouble(buf, off, &v)) {
        return InvalidArgument("truncated double value");
      }
      return Value(v);
    }
    case kTagString: {
      uint32_t n;
      std::string s;
      if (!GetU32(buf, off, &n) || !GetBytes(buf, off, n, &s)) {
        return InvalidArgument("truncated string value");
      }
      return Value(std::move(s));
    }
    case kTagList: {
      uint32_t n;
      if (!GetU32(buf, off, &n)) {
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
      if (!GetU32(buf, off, &n)) {
        return InvalidArgument("truncated object header");
      }
      if (n > buf.size() - *off) {
        return InvalidArgument("object field count exceeds buffer");
      }
      NestedObject obj;
      obj.fields.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t name_len;
        std::string name;
        if (!GetU32(buf, off, &name_len) ||
            !GetBytes(buf, off, name_len, &name)) {
          return InvalidArgument("truncated object field name");
        }
        Result<Value> item = DecodeValue(buf, off, depth + 1);
        if (!item.ok()) {
          return item.status();
        }
        obj.fields.emplace_back(std::move(name), std::move(item).value());
      }
      return Value(std::move(obj));
    }
    default:
      return InvalidArgument(StrFormat("unknown value tag %u", tag));
  }
}

}  // namespace

size_t EncodeEvent(const Event& event, std::string* out) {
  const size_t before = out->size();
  const std::string& type_name = event.schema()->type_name();
  PutU32(out, static_cast<uint32_t>(type_name.size()));
  out->append(type_name);
  PutU64(out, event.request_id());
  PutU64(out, static_cast<uint64_t>(event.timestamp()));
  for (size_t i = 0; i < event.field_count(); ++i) {
    EncodeValue(event.field(i), out);
  }
  return out->size() - before;
}

Result<Event> DecodeEvent(const SchemaRegistry& registry,
                          const std::string& buffer, size_t* offset) {
  uint32_t name_len;
  std::string type_name;
  if (!GetU32(buffer, offset, &name_len) ||
      !GetBytes(buffer, offset, name_len, &type_name)) {
    return InvalidArgument("truncated event header");
  }
  Result<SchemaPtr> schema = registry.Get(type_name);
  if (!schema.ok()) {
    return schema.status();
  }
  uint64_t request_id;
  uint64_t timestamp;
  if (!GetU64(buffer, offset, &request_id) ||
      !GetU64(buffer, offset, &timestamp)) {
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
  const size_t before = out->size();
  const size_t rows = selection != nullptr ? selected : batch.rows();
  if (encodings != nullptr) {
    encodings->assign(batch.column_count(), 0);
  }
  auto row_at = [&](size_t i) -> size_t {
    return selection != nullptr ? selection[i] : i;
  };
  const std::string& type_name = batch.schema()->type_name();
  PutU32(out, static_cast<uint32_t>(type_name.size()));
  out->append(type_name);
  PutU32(out, static_cast<uint32_t>(rows));
  for (size_t i = 0; i < rows; ++i) {
    PutU64(out, batch.request_id(row_at(i)));
  }
  for (size_t i = 0; i < rows; ++i) {
    PutU64(out, static_cast<uint64_t>(batch.timestamp(row_at(i))));
  }
  for (size_t f = 0; f < batch.column_count(); ++f) {
    const bool dropped = keep_field != nullptr && f < keep_field->size() &&
                         !(*keep_field)[f];
    const ColumnBatch::Column& col = batch.column(f);
    bool all_null = true;
    if (!dropped) {
      for (size_t i = 0; i < rows && all_null; ++i) {
        all_null = BitmapGet(col.nulls, row_at(i));
      }
    }
    if (dropped || all_null) {
      out->push_back(static_cast<char>(kColNull));
      if (encodings != nullptr) {
        (*encodings)[f] = -1;
      }
      continue;
    }
    std::vector<uint8_t> bits((rows + 7) / 8, 0);
    size_t non_null = 0;
    for (size_t i = 0; i < rows; ++i) {
      if (BitmapGet(col.nulls, row_at(i))) {
        bits[i / 8] = static_cast<uint8_t>(bits[i / 8] | (1U << (i % 8)));
      } else {
        ++non_null;
      }
    }
    switch (col.rep) {
      case ColumnBatch::Rep::kBool: {
        out->push_back(static_cast<char>(kColBool));
        out->append(reinterpret_cast<const char*>(bits.data()), bits.size());
        std::vector<uint8_t> packed((non_null + 7) / 8, 0);
        size_t k = 0;
        for (size_t i = 0; i < rows; ++i) {
          const size_t r = row_at(i);
          if (BitmapGet(col.nulls, r)) {
            continue;
          }
          if (col.bools[r] != 0) {
            packed[k / 8] = static_cast<uint8_t>(packed[k / 8] |
                                                 (1U << (k % 8)));
          }
          ++k;
        }
        out->append(reinterpret_cast<const char*>(packed.data()),
                    packed.size());
        break;
      }
      case ColumnBatch::Rep::kInt: {
        out->push_back(static_cast<char>(kColInt));
        out->append(reinterpret_cast<const char*>(bits.data()), bits.size());
        for (size_t i = 0; i < rows; ++i) {
          const size_t r = row_at(i);
          if (!BitmapGet(col.nulls, r)) {
            PutU64(out, static_cast<uint64_t>(col.ints[r]));
          }
        }
        break;
      }
      case ColumnBatch::Rep::kDouble: {
        out->push_back(static_cast<char>(kColDouble));
        out->append(reinterpret_cast<const char*>(bits.data()), bits.size());
        for (size_t i = 0; i < rows; ++i) {
          const size_t r = row_at(i);
          if (!BitmapGet(col.nulls, r)) {
            PutDouble(out, col.doubles[r]);
          }
        }
        break;
      }
      case ColumnBatch::Rep::kString:
      case ColumnBatch::Rep::kDict: {
        // Byte span of row r's string without materializing a Value (kDict
        // rows indirect through their code).
        auto slice = [&col](size_t r) -> std::string_view {
          const size_t idx = col.rep == ColumnBatch::Rep::kDict
                                 ? static_cast<size_t>(col.ints[r])
                                 : r;
          return std::string_view(col.arena)
              .substr(col.offsets[idx], col.offsets[idx + 1] - col.offsets[idx]);
        };
        // Dictionary pass: dedupe the selected non-null strings in
        // first-appearance order. Dict wins only when the dictionary plus
        // one code byte per value is strictly smaller than the plain
        // length-prefixed bytes — so pathological (high-cardinality)
        // columns cost one wasted scan, never wire bytes.
        std::vector<std::string_view> entries;
        std::unordered_map<std::string_view, uint32_t> index;
        std::vector<uint8_t> codes;
        codes.reserve(non_null);
        size_t plain_bytes = 0;
        size_t entry_bytes = 0;
        bool eligible =
            batch.schema()->field(f).type == FieldType::kString;
        for (size_t i = 0; i < rows && eligible; ++i) {
          const size_t r = row_at(i);
          if (BitmapGet(col.nulls, r)) {
            continue;
          }
          const std::string_view sv = slice(r);
          plain_bytes += 4 + sv.size();
          auto it = index.find(sv);
          if (it == index.end()) {
            if (entries.size() >= kMaxDictEntries) {
              eligible = false;
              break;
            }
            it = index.emplace(sv, static_cast<uint32_t>(entries.size()))
                     .first;
            entries.push_back(sv);
            entry_bytes += 4 + sv.size();
          }
          codes.push_back(static_cast<uint8_t>(it->second));
        }
        const size_t dict_bytes = 4 + entry_bytes + codes.size();
        if (eligible && !entries.empty() && dict_bytes < plain_bytes) {
          out->push_back(static_cast<char>(kColDict));
          out->append(reinterpret_cast<const char*>(bits.data()),
                      bits.size());
          PutU32(out, static_cast<uint32_t>(entries.size()));
          for (const std::string_view sv : entries) {
            PutU32(out, static_cast<uint32_t>(sv.size()));
            out->append(sv.data(), sv.size());
          }
          out->append(reinterpret_cast<const char*>(codes.data()),
                      codes.size());
          if (encodings != nullptr) {
            (*encodings)[f] = static_cast<int>(entries.size());
          }
          break;
        }
        out->push_back(static_cast<char>(kColString));
        out->append(reinterpret_cast<const char*>(bits.data()), bits.size());
        for (size_t i = 0; i < rows; ++i) {
          const size_t r = row_at(i);
          if (!BitmapGet(col.nulls, r)) {
            const std::string_view sv = slice(r);
            PutU32(out, static_cast<uint32_t>(sv.size()));
            out->append(sv.data(), sv.size());
          }
        }
        break;
      }
      case ColumnBatch::Rep::kGeneric: {
        out->push_back(static_cast<char>(kColGeneric));
        out->append(reinterpret_cast<const char*>(bits.data()), bits.size());
        for (size_t i = 0; i < rows; ++i) {
          const size_t r = row_at(i);
          if (!BitmapGet(col.nulls, r)) {
            EncodeValue(col.generic[r], out);
          }
        }
        break;
      }
    }
  }
  return out->size() - before;
}

Result<ColumnBatch> DecodeColumnBatch(const SchemaRegistry& registry,
                                      const std::string& buffer) {
  size_t off = 0;
  uint32_t name_len;
  std::string type_name;
  if (!GetU32(buffer, &off, &name_len) ||
      !GetBytes(buffer, &off, name_len, &type_name)) {
    return InvalidArgument("truncated column batch header");
  }
  Result<SchemaPtr> schema = registry.Get(type_name);
  if (!schema.ok()) {
    return schema.status();
  }
  uint32_t rows;
  if (!GetU32(buffer, &off, &rows)) {
    return InvalidArgument("truncated column batch row count");
  }
  // Request id + timestamp alone cost 16 bytes per row; a row count the
  // remaining bytes cannot possibly hold is bogus.
  if (static_cast<size_t>(rows) > (buffer.size() - off) / 16 + 1) {
    return InvalidArgument("column batch row count exceeds buffer");
  }
  std::vector<uint64_t> request_ids(rows);
  std::vector<int64_t> timestamps(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    if (!GetU64(buffer, &off, &request_ids[r])) {
      return InvalidArgument("truncated request id column");
    }
  }
  for (uint32_t r = 0; r < rows; ++r) {
    uint64_t ts;
    if (!GetU64(buffer, &off, &ts)) {
      return InvalidArgument("truncated timestamp column");
    }
    timestamps[r] = static_cast<int64_t>(ts);
  }
  ColumnBatch batch(*schema);
  for (size_t f = 0; f < (*schema)->field_count(); ++f) {
    uint8_t tag;
    if (!GetU8(buffer, &off, &tag)) {
      return InvalidArgument("truncated column tag");
    }
    if (tag == kColNull) {
      batch.FillAllNull(f, rows);
      continue;
    }
    std::vector<uint8_t> bits;
    if (!ReadBitmap(buffer, &off, rows, &bits)) {
      return InvalidArgument("truncated null bitmap");
    }
    if (!PaddingClear(bits, rows)) {
      return InvalidArgument("null bitmap does not match row count");
    }
    size_t non_null = 0;
    for (uint32_t r = 0; r < rows; ++r) {
      if (!BitmapGet(bits, r)) {
        ++non_null;
      }
    }
    ColumnBatch::Column* col = batch.MutableColumn(f);
    col->nulls = bits;
    switch (tag) {
      case kColBool: {
        col->rep = ColumnBatch::Rep::kBool;
        std::vector<uint8_t> packed;
        if (!ReadBitmap(buffer, &off, non_null, &packed)) {
          return InvalidArgument("truncated bool column");
        }
        if (!PaddingClear(packed, non_null)) {
          return InvalidArgument("bool column padding not zero");
        }
        col->bools.assign(rows, 0);
        size_t k = 0;
        for (uint32_t r = 0; r < rows; ++r) {
          if (!BitmapGet(bits, r)) {
            col->bools[r] = BitmapGet(packed, k) ? 1 : 0;
            ++k;
          }
        }
        break;
      }
      case kColInt: {
        col->rep = ColumnBatch::Rep::kInt;
        col->ints.assign(rows, 0);
        for (uint32_t r = 0; r < rows; ++r) {
          if (BitmapGet(bits, r)) {
            continue;
          }
          uint64_t v;
          if (!GetU64(buffer, &off, &v)) {
            return InvalidArgument("truncated int column");
          }
          col->ints[r] = static_cast<int64_t>(v);
        }
        break;
      }
      case kColDouble: {
        col->rep = ColumnBatch::Rep::kDouble;
        col->doubles.assign(rows, 0.0);
        for (uint32_t r = 0; r < rows; ++r) {
          if (BitmapGet(bits, r)) {
            continue;
          }
          double v;
          if (!GetDouble(buffer, &off, &v)) {
            return InvalidArgument("truncated double column");
          }
          col->doubles[r] = v;
        }
        break;
      }
      case kColString: {
        col->rep = ColumnBatch::Rep::kString;
        col->offsets.assign(1, 0);
        col->arena.clear();
        for (uint32_t r = 0; r < rows; ++r) {
          if (!BitmapGet(bits, r)) {
            uint32_t n;
            if (!GetU32(buffer, &off, &n) || buffer.size() - off < n) {
              return InvalidArgument("truncated string column");
            }
            col->arena.append(buffer, off, n);
            off += n;
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
          if (BitmapGet(bits, r)) {
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
        if (!GetU32(buffer, &off, &dict_count)) {
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
          if (!GetU32(buffer, &off, &n) || buffer.size() - off < n) {
            return InvalidArgument("truncated dictionary entry");
          }
          col->arena.append(buffer, off, n);
          off += n;
          col->offsets.push_back(static_cast<uint32_t>(col->arena.size()));
        }
        col->ints.assign(rows, 0);
        for (uint32_t r = 0; r < rows; ++r) {
          if (BitmapGet(bits, r)) {
            continue;
          }
          uint8_t code;
          if (!GetU8(buffer, &off, &code)) {
            return InvalidArgument("truncated dictionary codes");
          }
          if (code >= dict_count) {
            return InvalidArgument("dictionary code out of range");
          }
          col->ints[r] = code;
        }
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
  PutU32(out, static_cast<uint32_t>(sections.size()));
  if (encodings != nullptr) {
    encodings->assign(sections.size(), {});
  }
  for (size_t s = 0; s < sections.size(); ++s) {
    const ColumnJoinSection& sec = sections[s];
    const size_t len_pos = out->size();
    PutU32(out, 0);  // patched below once the section length is known
    EncodeColumnBatch(*sec.batch, sec.selection, sec.selected, sec.keep_field,
                      out, encodings != nullptr ? &(*encodings)[s] : nullptr);
    const uint32_t len = static_cast<uint32_t>(out->size() - len_pos - 4);
    std::memcpy(&(*out)[len_pos], &len, 4);
  }
  PutU32(out, static_cast<uint32_t>(order.size()));
  out->append(reinterpret_cast<const char*>(order.data()), order.size());
  return out->size() - before;
}

Result<ColumnJoinBatch> DecodeColumnJoinBatch(const SchemaRegistry& registry,
                                              const std::string& buffer) {
  size_t off = 0;
  uint32_t section_count;
  if (!GetU32(buffer, &off, &section_count)) {
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
    if (!GetU32(buffer, &off, &len) || buffer.size() - off < len) {
      return InvalidArgument("truncated join batch section");
    }
    // Each section is a complete columnar payload; decoding the exact
    // subrange inherits the full hostile-input discipline, including its
    // own trailing-bytes check against the declared section length.
    Result<ColumnBatch> sec =
        DecodeColumnBatch(registry, buffer.substr(off, len));
    if (!sec.ok()) {
      return sec.status();
    }
    off += len;
    total_rows += sec->rows();
    out.sections.push_back(std::move(sec).value());
  }
  uint32_t order_count;
  if (!GetU32(buffer, &off, &order_count)) {
    return InvalidArgument("truncated join batch order header");
  }
  if (order_count != total_rows || buffer.size() - off < order_count) {
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
