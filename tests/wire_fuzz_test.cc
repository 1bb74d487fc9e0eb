// Fuzz-style negative tests for the wire codecs: DecodeEvent reads spill
// records and the columnar decoders read bytes that crossed the network, so
// every length prefix, count and tag byte is hostile until proven otherwise. Decoding corrupt input must fail
// with a status — never crash, never allocate unbounded memory. The
// SCRUB_SANITIZE (ASan+UBSan) build flavor exists to keep these honest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/event/column_batch.h"
#include "src/event/event.h"
#include "src/event/schema.h"
#include "src/event/wire.h"

namespace scrub {
namespace {

class WireFuzzTest : public ::testing::Test {
 protected:
  WireFuzzTest() {
    schema_ = *EventSchema::Builder("probe")
                   .AddField("flag", FieldType::kBool)
                   .AddField("n", FieldType::kLong)
                   .AddField("x", FieldType::kDouble)
                   .AddField("name", FieldType::kString)
                   .AddField("ids", FieldType::kLongList)
                   .AddField("meta", FieldType::kObject)
                   .Build();
    EXPECT_TRUE(registry_.Register(schema_).ok());
  }

  Event SampleEvent(uint64_t request_id) const {
    Event e(schema_, request_id, /*timestamp=*/123'456);
    e.SetField(0, Value(true));
    e.SetField(1, Value(int64_t{42}));
    e.SetField(2, Value(3.25));
    e.SetField(3, Value("hello wire"));
    e.SetField(4, Value(std::vector<Value>{Value(int64_t{1}),
                                           Value(int64_t{2})}));
    NestedObject meta;
    meta.fields.emplace_back("k", Value(int64_t{7}));
    e.SetField(5, Value(std::move(meta)));
    return e;
  }

  std::string EncodedEvent() const {
    std::string buf;
    EncodeEvent(SampleEvent(1), &buf);
    return buf;
  }

  // Back-to-back records for `request_ids`, as a spill run lays out its
  // payloads (minus the run's own record headers).
  std::string EncodedRecords(std::initializer_list<uint64_t> request_ids,
                             std::vector<size_t>* ends = nullptr) const {
    std::string buf;
    for (const uint64_t rid : request_ids) {
      EncodeEvent(SampleEvent(rid), &buf);
      if (ends != nullptr) {
        ends->push_back(buf.size());
      }
    }
    return buf;
  }

  // Decodes records until the buffer is consumed; the first failure wins.
  Result<std::vector<Event>> DecodeRecords(const std::string& buf) const {
    std::vector<Event> events;
    size_t offset = 0;
    while (offset < buf.size()) {
      Result<Event> e = DecodeEvent(registry_, buf, &offset);
      if (!e.ok()) {
        return e.status();
      }
      events.push_back(std::move(e).value());
    }
    return events;
  }

  SchemaRegistry registry_;
  SchemaPtr schema_;
};

// Overwrites 4 bytes at `pos` with a little-endian u32.
void PatchU32(std::string* buf, size_t pos, uint32_t v) {
  ASSERT_LE(pos + 4, buf->size());
  std::memcpy(buf->data() + pos, &v, 4);
}

TEST_F(WireFuzzTest, EveryTruncationOfAnEventFailsCleanly) {
  const std::string full = EncodedEvent();
  for (size_t len = 0; len < full.size(); ++len) {
    const std::string truncated = full.substr(0, len);
    size_t offset = 0;
    Result<Event> e = DecodeEvent(registry_, truncated, &offset);
    EXPECT_FALSE(e.ok()) << "decode succeeded on prefix of " << len
                         << " of " << full.size() << " bytes";
  }
  // Sanity: the untruncated buffer round-trips.
  size_t offset = 0;
  Result<Event> e = DecodeEvent(registry_, full, &offset);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(offset, full.size());
}

TEST_F(WireFuzzTest, EveryTruncationOfARecordRunFailsCleanly) {
  // A prefix of back-to-back records decodes only when it ends on a record
  // boundary, and then yields exactly the records before it.
  std::vector<size_t> ends;
  const std::string full = EncodedRecords({1, 2}, &ends);
  for (size_t len = 1; len < full.size(); ++len) {
    Result<std::vector<Event>> r = DecodeRecords(full.substr(0, len));
    if (len == ends[0]) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->size(), 1u);
    } else {
      EXPECT_FALSE(r.ok()) << "decode succeeded on prefix of " << len
                           << " bytes";
    }
  }
  Result<std::vector<Event>> r = DecodeRecords(full);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[1].request_id(), 2u);
}

TEST_F(WireFuzzTest, EveryTruncationOfABuiltBatchFailsCleanly) {
  std::string full;
  ASSERT_EQ(EncodeEvents({SampleEvent(1), SampleEvent(2)}, &full),
            BatchFormat::kColumnar);
  for (size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(DecodeColumnBatch(registry_, full.substr(0, len)).ok())
        << "decode succeeded on prefix of " << len << " bytes";
  }
  Result<ColumnBatch> r = DecodeColumnBatch(registry_, full);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows(), 2u);
}

TEST_F(WireFuzzTest, OversizedTypeNameLengthIsRejected) {
  std::string buf = EncodedEvent();
  // The event starts with u32 type-name length; claim 4 GB.
  PatchU32(&buf, 0, 0xffffffffu);
  size_t offset = 0;
  EXPECT_FALSE(DecodeEvent(registry_, buf, &offset).ok());
}

TEST_F(WireFuzzTest, OversizedBatchRowCountIsRejected) {
  std::string buf;
  EncodeEvents({SampleEvent(1)}, &buf);
  // The row count follows the u32-prefixed type name. A count far beyond
  // what the remaining bytes could hold must be rejected up front, not fed
  // to vector::reserve.
  PatchU32(&buf, 4 + schema_->type_name().size(), 0xffffffffu);
  EXPECT_FALSE(DecodeColumnBatch(registry_, buf).ok());
}

TEST_F(WireFuzzTest, OversizedListAndObjectCountsAreRejected) {
  const std::string full = EncodedEvent();
  // Patch every aligned u32 position to a huge count; whatever structure
  // that byte range encodes (string length, list count, object count), the
  // decoder must fail cleanly instead of allocating.
  for (size_t pos = 0; pos + 4 <= full.size(); ++pos) {
    std::string buf = full;
    PatchU32(&buf, pos, 0xfffffff0u);
    size_t offset = 0;
    Result<Event> e = DecodeEvent(registry_, buf, &offset);
    if (e.ok()) {
      // A patch past the value data may land in trailing payload bytes the
      // schema never reads; success is fine as long as nothing crashed.
      continue;
    }
  }
}

TEST_F(WireFuzzTest, UnknownValueTagIsRejected) {
  const std::string full = EncodedEvent();
  // Flip every single byte to an invalid tag value and decode: corrupt tags
  // must yield a status, never UB.
  for (size_t pos = 0; pos < full.size(); ++pos) {
    std::string buf = full;
    buf[pos] = static_cast<char>(0x7f);  // no value tag uses 0x7f
    size_t offset = 0;
    (void)DecodeEvent(registry_, buf, &offset);  // must not crash
  }
}

TEST_F(WireFuzzTest, DeepListNestingIsCapped) {
  // A list-of-list-of-... crafted at ~5 bytes per level: without the depth
  // cap the recursive decoder would walk off the stack.
  constexpr uint8_t kTagList = 6;  // mirrors wire.cc's private tag table
  std::string buf;
  // Event header for "probe".
  const std::string name = "probe";
  uint32_t name_len = static_cast<uint32_t>(name.size());
  buf.append(reinterpret_cast<const char*>(&name_len), 4);
  buf.append(name);
  uint64_t request_id = 1;
  uint64_t timestamp = 2;
  buf.append(reinterpret_cast<const char*>(&request_id), 8);
  buf.append(reinterpret_cast<const char*>(&timestamp), 8);
  // First field value: 10k nested single-element lists.
  for (int i = 0; i < 10'000; ++i) {
    buf.push_back(static_cast<char>(kTagList));
    uint32_t one = 1;
    buf.append(reinterpret_cast<const char*>(&one), 4);
  }
  size_t offset = 0;
  Result<Event> e = DecodeEvent(registry_, buf, &offset);
  EXPECT_FALSE(e.ok());
  EXPECT_NE(e.status().ToString().find("nesting"), std::string::npos)
      << e.status().ToString();
}

TEST_F(WireFuzzTest, RandomByteFlipsNeverCrashTheDecoder) {
  const std::string batch = EncodedRecords({1, 2, 3});
  Rng rng(0xf00d);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string buf = batch;
    const int flips = 1 + static_cast<int>(rng.NextUint64() % 8);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(rng.NextUint64() % buf.size());
      buf[pos] = static_cast<char>(rng.NextUint64() & 0xff);
    }
    // Must terminate with ok-or-status; ASan/UBSan keep "terminate" honest.
    (void)DecodeRecords(buf);
  }
}

TEST_F(WireFuzzTest, RandomGarbageNeverCrashesTheDecoder) {
  Rng rng(0xbeef);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t len = static_cast<size_t>(rng.NextUint64() % 256);
    std::string buf;
    buf.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      buf.push_back(static_cast<char>(rng.NextUint64() & 0xff));
    }
    (void)DecodeRecords(buf);
    (void)DecodeColumnBatch(registry_, buf);
  }
}

// ---- Columnar wire format ------------------------------------------------
// The columnar codec carries the same hostile-bytes contract as the row
// codec: every length, row count, null bitmap and column tag is attacker-
// controlled until validated.

// A random value for the property test. Scalar fields occasionally get a
// type-mismatched value (schema drift) to exercise the generic migration.
Value RandomValue(FieldType type, Rng* rng) {
  const auto random_scalar = [&](FieldType t) -> Value {
    switch (t) {
      case FieldType::kBool:
        return Value(rng->NextBool(0.5));
      case FieldType::kInt:
      case FieldType::kLong:
      case FieldType::kDateTime:
        return Value(static_cast<int64_t>(rng->NextUint64() % 100'000));
      case FieldType::kFloat:
      case FieldType::kDouble:
        return Value(static_cast<double>(rng->NextUint64() % 1000) / 8.0);
      case FieldType::kString:
      default:
        return Value(StrFormat("s%llu", static_cast<unsigned long long>(
                                            rng->NextUint64() % 1000)));
    }
  };
  switch (type) {
    case FieldType::kBool:
    case FieldType::kInt:
    case FieldType::kLong:
    case FieldType::kFloat:
    case FieldType::kDouble:
    case FieldType::kDateTime:
    case FieldType::kString: {
      if (rng->NextBool(0.1)) {
        // Drifted payload: a string where a number belongs (or vice versa).
        return random_scalar(type == FieldType::kString ? FieldType::kLong
                                                        : FieldType::kString);
      }
      return random_scalar(type);
    }
    case FieldType::kBoolList:
    case FieldType::kIntList:
    case FieldType::kLongList:
    case FieldType::kFloatList:
    case FieldType::kDoubleList:
    case FieldType::kStringList: {
      static const std::unordered_map<FieldType, FieldType> kElem = {
          {FieldType::kBoolList, FieldType::kBool},
          {FieldType::kIntList, FieldType::kInt},
          {FieldType::kLongList, FieldType::kLong},
          {FieldType::kFloatList, FieldType::kFloat},
          {FieldType::kDoubleList, FieldType::kDouble},
          {FieldType::kStringList, FieldType::kString}};
      std::vector<Value> items;
      const size_t n = rng->NextUint64() % 4;
      for (size_t i = 0; i < n; ++i) {
        items.push_back(random_scalar(kElem.at(type)));
      }
      return Value(std::move(items));
    }
    case FieldType::kObject: {
      NestedObject obj;
      const size_t n = rng->NextUint64() % 3;
      for (size_t i = 0; i < n; ++i) {
        obj.fields.emplace_back(StrFormat("k%zu", i),
                                random_scalar(FieldType::kLong));
      }
      return Value(std::move(obj));
    }
  }
  return Value();
}

class ColumnWireFuzzTest : public WireFuzzTest {
 protected:
  // Encodes `rows` sample events (with a sprinkling of nulls) columnar.
  std::string EncodedColumns(size_t rows) const {
    ColumnBatch batch(schema_);
    for (size_t i = 0; i < rows; ++i) {
      Event e = SampleEvent(i + 1);
      if (i % 3 == 1) {
        e.SetField(3, Value());  // null string column entries
      }
      batch.AppendEvent(e);
    }
    std::string buf;
    EncodeColumnBatch(batch, /*selection=*/nullptr, batch.rows(),
                      /*keep_field=*/nullptr, &buf);
    return buf;
  }

  // Offset of the first per-field column (its tag byte): u32 name length +
  // name + u32 row count + rows x (u64 rid + u64 timestamp).
  size_t FirstColumnOffset(size_t rows) const {
    return 4 + schema_->type_name().size() + 4 + rows * 16;
  }

  // A second schema whose two columns are both fixed-width, for the
  // bulk-check boundaries.
  SchemaPtr Fixed() {
    if (fixed_ == nullptr) {
      fixed_ = *EventSchema::Builder("fixed")
                    .AddField("n", FieldType::kLong)
                    .AddField("x", FieldType::kDouble)
                    .Build();
      EXPECT_TRUE(registry_.Register(fixed_).ok());
    }
    return fixed_;
  }

  // The fixed schema's type name and a row count, written as given.
  std::string FixedHeader(uint32_t rows) {
    std::string buf;
    const std::string& name = Fixed()->type_name();
    const uint32_t name_len = static_cast<uint32_t>(name.size());
    buf.append(reinterpret_cast<const char*>(&name_len), 4);
    buf.append(name);
    buf.append(reinterpret_cast<const char*>(&rows), 4);
    return buf;
  }

  void ExpectRejected(const std::string& buf, const std::string& message) {
    const Result<ColumnBatch> r = DecodeColumnBatch(registry_, buf);
    ASSERT_FALSE(r.ok()) << "decoded " << buf.size() << " bytes";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r.status().message(), message);
  }

  SchemaPtr fixed_;
};

TEST_F(ColumnWireFuzzTest, EveryTruncationOfAColumnBatchFailsCleanly) {
  const std::string full = EncodedColumns(3);
  for (size_t len = 0; len < full.size(); ++len) {
    Result<ColumnBatch> r =
        DecodeColumnBatch(registry_, full.substr(0, len));
    EXPECT_FALSE(r.ok()) << "decode succeeded on prefix of " << len << " of "
                         << full.size() << " bytes";
  }
  Result<ColumnBatch> r = DecodeColumnBatch(registry_, full);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows(), 3u);
}

TEST_F(ColumnWireFuzzTest, OversizedRowCountIsRejected) {
  std::string buf = EncodedColumns(2);
  // Row count sits right after the type name; claim 4 billion rows. The
  // decoder must reject it against the remaining byte budget, not reserve.
  PatchU32(&buf, 4 + schema_->type_name().size(), 0xffffffffu);
  EXPECT_FALSE(DecodeColumnBatch(registry_, buf).ok());
}

TEST_F(ColumnWireFuzzTest, NullBitmapPaddingBitsMustBeZero) {
  // 3 rows -> one bitmap byte with 5 padding bits. A set padding bit means
  // the bitmap disagrees with the row count; the decoder must refuse rather
  // than trust whichever is larger.
  const size_t rows = 3;
  std::string buf = EncodedColumns(rows);
  const size_t tag_at = FirstColumnOffset(rows);
  ASSERT_LT(tag_at + 1, buf.size());
  ASSERT_NE(buf[tag_at], '\0') << "expected a non-null first column";
  std::string corrupt = buf;
  corrupt[tag_at + 1] = static_cast<char>(corrupt[tag_at + 1] | 0x08);
  Result<ColumnBatch> r = DecodeColumnBatch(registry_, corrupt);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("bitmap"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ColumnWireFuzzTest, UnknownColumnTagIsRejected) {
  const size_t rows = 3;
  std::string buf = EncodedColumns(rows);
  buf[FirstColumnOffset(rows)] = static_cast<char>(0x7f);
  Result<ColumnBatch> r = DecodeColumnBatch(registry_, buf);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("column tag"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ColumnWireFuzzTest, TrailingBytesAreRejected) {
  std::string buf = EncodedColumns(3);
  buf.push_back('\0');
  EXPECT_FALSE(DecodeColumnBatch(registry_, buf).ok());
}

TEST_F(ColumnWireFuzzTest, RandomByteFlipsNeverCrashTheColumnarDecoder) {
  const std::string batch = EncodedColumns(5);
  Rng rng(0xc01d);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string buf = batch;
    const int flips = 1 + static_cast<int>(rng.NextUint64() % 8);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(rng.NextUint64() % buf.size());
      buf[pos] = static_cast<char>(rng.NextUint64() & 0xff);
    }
    (void)DecodeColumnBatch(registry_, buf);
  }
}

TEST_F(ColumnWireFuzzTest, RandomGarbageNeverCrashesTheColumnarDecoder) {
  Rng rng(0xfade);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t len = static_cast<size_t>(rng.NextUint64() % 256);
    std::string buf;
    buf.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      buf.push_back(static_cast<char>(rng.NextUint64() & 0xff));
    }
    (void)DecodeColumnBatch(registry_, buf);
  }
}

// ---- Bulk-check boundaries ------------------------------------------------
// The decoder checks each fixed-width run (request ids, timestamps, an int
// or double column's values) against the buffer once, as a whole. These pin
// the edges of those checks: exactly one byte short must fail with the same
// message a per-value read reported, and an empty run must read nothing.

TEST_F(ColumnWireFuzzTest, FixedColumnOneByteShortIsTruncated) {
  // Three rows, n null in row 1: the int column holds 2 values (16 bytes),
  // the double column 3 (24 bytes).
  const SchemaPtr schema = Fixed();
  ColumnBatch batch(schema);
  for (size_t i = 0; i < 3; ++i) {
    Event e(schema, i + 1, 10);
    if (i != 1) {
      e.SetField(0, Value(static_cast<int64_t>(i)));
    }
    e.SetField(1, Value(0.5 * static_cast<double>(i)));
    batch.AppendEvent(e);
  }
  std::string full;
  EncodeColumnBatch(batch, nullptr, batch.rows(), nullptr, &full);
  const size_t int_end = FixedHeader(3).size() + 3 * 16 + 2 + 8 * 2;
  ASSERT_EQ(full.size(), int_end + 2 + 8 * 3);
  ExpectRejected(full.substr(0, int_end - 1), "truncated int column");
  ExpectRejected(full.substr(0, full.size() - 1), "truncated double column");
  ASSERT_TRUE(DecodeColumnBatch(registry_, full).ok());
}

TEST_F(ColumnWireFuzzTest, RowCountAtTheCeilingWithShortRowMeta) {
  // A row count passes the up-front check while rows <= remaining / 16 + 1;
  // at that ceiling the request-id and timestamp runs must still be
  // checked, each exactly one byte short here.
  const auto with_tail = [this](uint32_t rows, size_t tail) {
    std::string buf = FixedHeader(rows);
    buf.append(tail, '\x01');
    return buf;
  };
  ExpectRejected(with_tail(1, 7), "truncated request id column");
  ExpectRejected(with_tail(1, 15), "truncated timestamp column");
  ExpectRejected(with_tail(2, 31), "truncated timestamp column");
  ExpectRejected(with_tail(3, 32), "truncated timestamp column");
  ExpectRejected(with_tail(3, 31), "column batch row count exceeds buffer");
}

TEST_F(ColumnWireFuzzTest, AllNullIntColumnReadsNoValues) {
  // An int column whose bitmap marks every row null carries no values, so
  // the next byte is the double column's tag. The encoder writes such a
  // column as kColNull; a sender may still use the long form.
  for (const uint32_t rows : {0u, 3u, 8u}) {
    std::string buf = FixedHeader(rows);
    buf.append(16 * static_cast<size_t>(rows), '\0');  // rids, timestamps
    const size_t bitmap_bytes = (rows + 7) / 8;
    buf.push_back(2);  // kColInt
    for (size_t b = 0; b < bitmap_bytes; ++b) {
      const size_t bits = std::min<size_t>(8, rows - 8 * b);
      buf.push_back(static_cast<char>((1U << bits) - 1));
    }
    buf.push_back(3);  // kColDouble, no nulls
    buf.append(bitmap_bytes, '\0');
    for (uint32_t r = 0; r < rows; ++r) {
      const double v = 1.5 * r;
      buf.append(reinterpret_cast<const char*>(&v), 8);
    }
    const Result<ColumnBatch> decoded = DecodeColumnBatch(registry_, buf);
    ASSERT_TRUE(decoded.ok()) << rows << ": " << decoded.status().ToString();
    ASSERT_EQ(decoded->rows(), rows);
    for (uint32_t r = 0; r < rows; ++r) {
      EXPECT_TRUE(decoded->IsNull(0, r));
      EXPECT_EQ(decoded->ValueAt(1, r), Value(1.5 * r));
    }
  }
}

// ---- Dictionary-encoded string columns -----------------------------------
// kColDict carries a second layer of attacker-controlled counts: the
// dictionary entry count, every entry's length prefix, and one code byte
// per non-null row. Each must be validated against the buffer and against
// the dictionary itself (codes index entries).

class DictWireFuzzTest : public ::testing::Test {
 protected:
  DictWireFuzzTest() {
    schema_ = *EventSchema::Builder("dictprobe")
                   .AddField("op", FieldType::kString)
                   .Build();
    EXPECT_TRUE(registry_.Register(schema_).ok());
  }

  // 8 rows alternating between two values: low cardinality, so the encoder
  // must pick the dictionary (dict bytes 29 < plain bytes 68).
  std::string EncodedDict(std::vector<int>* encodings = nullptr) const {
    ColumnBatch batch(schema_);
    for (size_t i = 0; i < 8; ++i) {
      Event e(schema_, i + 1, /*timestamp=*/10 + static_cast<TimeMicros>(i));
      e.SetField(0, Value(i % 2 == 0 ? "alpha" : "beta"));
      batch.AppendEvent(e);
    }
    std::string buf;
    EncodeColumnBatch(batch, nullptr, batch.rows(), nullptr, &buf, encodings);
    return buf;
  }

  // Offset of the string column's tag byte (8 rows, see FirstColumnOffset).
  size_t TagOffset() const {
    return 4 + schema_->type_name().size() + 4 + 8 * 16;
  }
  // u32 dict_count follows the tag and the single bitmap byte.
  size_t DictCountOffset() const { return TagOffset() + 2; }
  // Codes follow the count and the two entries ("alpha", "beta").
  size_t CodesOffset() const { return DictCountOffset() + 4 + 9 + 8; }

  SchemaRegistry registry_;
  SchemaPtr schema_;
};

void PatchU32At(std::string* buf, size_t pos, uint32_t v) {
  ASSERT_LE(pos + 4, buf->size());
  std::memcpy(buf->data() + pos, &v, 4);
}

TEST_F(DictWireFuzzTest, LowCardinalityColumnPicksDictAndRoundTrips) {
  std::vector<int> encodings;
  const std::string buf = EncodedDict(&encodings);
  ASSERT_EQ(encodings.size(), 1u);
  EXPECT_EQ(encodings[0], 2) << "expected a 2-entry dictionary";
  ASSERT_LT(TagOffset(), buf.size());
  EXPECT_EQ(buf[TagOffset()], 6) << "expected the kColDict tag";
  Result<ColumnBatch> r = DecodeColumnBatch(registry_, buf);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(r->ValueAt(/*field=*/0, i), Value(i % 2 == 0 ? "alpha" : "beta"));
  }
}

TEST_F(DictWireFuzzTest, EveryTruncationOfADictBatchFailsCleanly) {
  // Sweeps through the dictionary header, every entry prefix, and the code
  // bytes: all the "truncated dictionary ..." decode paths.
  const std::string full = EncodedDict();
  for (size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(DecodeColumnBatch(registry_, full.substr(0, len)).ok())
        << "decode succeeded on prefix of " << len << " bytes";
  }
}

TEST_F(DictWireFuzzTest, OutOfRangeDictCodeIsRejected) {
  std::string buf = EncodedDict();
  ASSERT_LT(CodesOffset(), buf.size());
  buf[CodesOffset()] = static_cast<char>(0xfe);  // dict has 2 entries
  Result<ColumnBatch> r = DecodeColumnBatch(registry_, buf);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("code out of range"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(DictWireFuzzTest, DictCountZeroIsRejected) {
  std::string buf = EncodedDict();
  PatchU32At(&buf, DictCountOffset(), 0);
  Result<ColumnBatch> r = DecodeColumnBatch(registry_, buf);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("count out of range"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(DictWireFuzzTest, DictCountBeyondCapIsRejected) {
  std::string buf = EncodedDict();
  PatchU32At(&buf, DictCountOffset(), 0xffffffffu);
  EXPECT_FALSE(DecodeColumnBatch(registry_, buf).ok());
}

TEST_F(DictWireFuzzTest, DictCountExceedingBufferIsRejected) {
  std::string buf = EncodedDict();
  // 200 is within the 256-entry cap but far beyond what the remaining
  // bytes could hold even at 4 bytes per entry.
  PatchU32At(&buf, DictCountOffset(), 200);
  EXPECT_FALSE(DecodeColumnBatch(registry_, buf).ok());
}

TEST_F(DictWireFuzzTest, DictTagOnNonStringColumnIsRejected) {
  // A dictionary tag is only legal on string schema fields; patch one onto
  // a long column and the decoder must refuse before trusting any count.
  SchemaRegistry registry;
  SchemaPtr schema = *EventSchema::Builder("longprobe")
                          .AddField("n", FieldType::kLong)
                          .Build();
  ASSERT_TRUE(registry.Register(schema).ok());
  ColumnBatch batch(schema);
  for (size_t i = 0; i < 3; ++i) {
    Event e(schema, i + 1, 10);
    e.SetField(0, Value(int64_t{7}));
    batch.AppendEvent(e);
  }
  std::string buf;
  EncodeColumnBatch(batch, nullptr, batch.rows(), nullptr, &buf);
  const size_t tag_at = 4 + schema->type_name().size() + 4 + 3 * 16;
  ASSERT_LT(tag_at, buf.size());
  buf[tag_at] = 6;  // kColDict
  Result<ColumnBatch> r = DecodeColumnBatch(registry, buf);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("non-string"), std::string::npos)
      << r.status().ToString();
}

TEST_F(DictWireFuzzTest, TrailingBytesAfterDictBatchAreRejected) {
  std::string buf = EncodedDict();
  buf.push_back('\0');
  EXPECT_FALSE(DecodeColumnBatch(registry_, buf).ok());
}

TEST_F(DictWireFuzzTest, RandomByteFlipsNeverCrashTheDictDecoder) {
  const std::string full = EncodedDict();
  Rng rng(0xd1c7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string buf = full;
    const int flips = 1 + static_cast<int>(rng.NextUint64() % 8);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(rng.NextUint64() % buf.size());
      buf[pos] = static_cast<char>(rng.NextUint64() & 0xff);
    }
    (void)DecodeColumnBatch(registry_, buf);
  }
}

// ---- Columnar join batches -------------------------------------------------
// The join wrapper adds a section count, per-section length prefixes, and
// the order bytes — all hostile. The order must agree with the sections
// exactly (count and per-source multiplicity) or the decode fails.

class JoinWireFuzzTest : public ::testing::Test {
 protected:
  JoinWireFuzzTest() {
    rpc_ = *EventSchema::Builder("rpc")
                .AddField("op", FieldType::kString)
                .AddField("lat", FieldType::kLong)
                .Build();
    db_ = *EventSchema::Builder("db")
              .AddField("table", FieldType::kString)
              .Build();
    EXPECT_TRUE(registry_.Register(rpc_).ok());
    EXPECT_TRUE(registry_.Register(db_).ok());
  }

  // Two sections (3 rpc rows, 2 db rows) and the interleave 0 1 0 1 0.
  std::string EncodedJoin() const {
    ColumnBatch rpc(rpc_);
    for (size_t i = 0; i < 3; ++i) {
      Event e(rpc_, i + 1, 10 + static_cast<TimeMicros>(i));
      e.SetField(0, Value("get"));
      e.SetField(1, Value(static_cast<int64_t>(i)));
      rpc.AppendEvent(e);
    }
    ColumnBatch db(db_);
    for (size_t i = 0; i < 2; ++i) {
      Event e(db_, i + 1, 20 + static_cast<TimeMicros>(i));
      e.SetField(0, Value("users"));
      db.AppendEvent(e);
    }
    const std::vector<ColumnJoinSection> sections = {
        {&rpc, nullptr, rpc.rows(), nullptr},
        {&db, nullptr, db.rows(), nullptr}};
    std::string buf;
    EncodeColumnJoinBatch(sections, {0, 1, 0, 1, 0}, &buf);
    return buf;
  }

  SchemaRegistry registry_;
  SchemaPtr rpc_;
  SchemaPtr db_;
};

TEST_F(JoinWireFuzzTest, JoinBatchRoundTrips) {
  Result<ColumnJoinBatch> r = DecodeColumnJoinBatch(registry_, EncodedJoin());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->sections.size(), 2u);
  EXPECT_EQ(r->sections[0].rows(), 3u);
  EXPECT_EQ(r->sections[1].rows(), 2u);
  EXPECT_EQ(r->order, (std::vector<uint8_t>{0, 1, 0, 1, 0}));
  EXPECT_EQ(r->sections[0].ValueAt(/*field=*/0, /*row=*/0), Value("get"));
  EXPECT_EQ(r->sections[1].ValueAt(/*field=*/0, /*row=*/1), Value("users"));
}

TEST_F(JoinWireFuzzTest, EveryTruncationOfAJoinBatchFailsCleanly) {
  const std::string full = EncodedJoin();
  for (size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(DecodeColumnJoinBatch(registry_, full.substr(0, len)).ok())
        << "decode succeeded on prefix of " << len << " bytes";
  }
}

TEST_F(JoinWireFuzzTest, SectionCountOutOfRangeIsRejected) {
  for (const uint32_t count : {0u, 17u, 0xffffffffu}) {
    std::string buf = EncodedJoin();
    PatchU32At(&buf, 0, count);
    Result<ColumnJoinBatch> r = DecodeColumnJoinBatch(registry_, buf);
    ASSERT_FALSE(r.ok()) << "section count " << count;
  }
}

TEST_F(JoinWireFuzzTest, OrderIndexOutOfRangeIsRejected) {
  std::string buf = EncodedJoin();
  buf[buf.size() - 1] = static_cast<char>(9);  // only 2 sections exist
  Result<ColumnJoinBatch> r = DecodeColumnJoinBatch(registry_, buf);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("order index"), std::string::npos)
      << r.status().ToString();
}

TEST_F(JoinWireFuzzTest, OrderSourceMultiplicityMismatchIsRejected) {
  // Flip one in-range order byte: the order still has 5 entries but now
  // claims 2 rpc rows and 3 db rows, disagreeing with the sections.
  std::string buf = EncodedJoin();
  ASSERT_EQ(buf[buf.size() - 1], 0);
  buf[buf.size() - 1] = static_cast<char>(1);
  Result<ColumnJoinBatch> r = DecodeColumnJoinBatch(registry_, buf);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("does not match section rows"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(JoinWireFuzzTest, OrderCountMismatchIsRejected) {
  std::string buf = EncodedJoin();
  PatchU32At(&buf, buf.size() - 5 - 4, 4);  // claims 4 entries, rows sum 5
  EXPECT_FALSE(DecodeColumnJoinBatch(registry_, buf).ok());
}

TEST_F(JoinWireFuzzTest, TrailingBytesAfterJoinBatchAreRejected) {
  std::string buf = EncodedJoin();
  buf.push_back('\0');
  Result<ColumnJoinBatch> r = DecodeColumnJoinBatch(registry_, buf);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("trailing"), std::string::npos)
      << r.status().ToString();
}

TEST_F(JoinWireFuzzTest, SectionEndingInsideAColumnStopsAtTheView) {
  // Shorten the first section's declared length by 3 bytes: its view now
  // ends inside the rpc section's last (int) column, while the buffer
  // itself continues with the db section. The section decoder must see
  // only its view and report the column truncated.
  std::string buf = EncodedJoin();
  uint32_t len;
  std::memcpy(&len, buf.data() + 4, 4);
  PatchU32At(&buf, 4, len - 3);
  const Result<ColumnJoinBatch> r = DecodeColumnJoinBatch(registry_, buf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status().message(), "truncated int column");
}

TEST_F(JoinWireFuzzTest, RandomByteFlipsNeverCrashTheJoinDecoder) {
  const std::string full = EncodedJoin();
  Rng rng(0x10b5);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string buf = full;
    const int flips = 1 + static_cast<int>(rng.NextUint64() % 8);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(rng.NextUint64() % buf.size());
      buf[pos] = static_cast<char>(rng.NextUint64() & 0xff);
    }
    (void)DecodeColumnJoinBatch(registry_, buf);
  }
}

// Property: a multi-source staging (random schemas, random interleave,
// low-cardinality strings that trigger the dictionary) survives the join
// codec losslessly — every section row materializes to the original event
// and the interleave round-trips exactly.
TEST_F(JoinWireFuzzTest, MultiSourceStagingRoundTripsOnRandomSchemas) {
  Rng rng(0x2b1d);
  for (int trial = 0; trial < 40; ++trial) {
    SchemaRegistry registry;
    const size_t num_sources = 2 + rng.NextUint64() % 2;  // 2 or 3
    std::vector<SchemaPtr> schemas;
    std::vector<std::vector<Event>> events(num_sources);
    std::vector<ColumnBatch> batches;
    for (size_t s = 0; s < num_sources; ++s) {
      auto builder = EventSchema::Builder(StrFormat("j%d_%zu", trial, s));
      builder.AddField("tag", FieldType::kString);
      builder.AddField("n", FieldType::kLong);
      schemas.push_back(*builder.Build());
      ASSERT_TRUE(registry.Register(schemas.back()).ok());
      batches.emplace_back(schemas.back());
    }
    // Random interleave of 0..20 events across the sources; strings drawn
    // from a 3-value pool so most trials hit the dictionary encoder.
    std::vector<uint8_t> order;
    const size_t total = rng.NextUint64() % 21;
    for (size_t i = 0; i < total; ++i) {
      const size_t s = rng.NextUint64() % num_sources;
      Event e(schemas[s], rng.NextUint64() % 50,
              static_cast<TimeMicros>(rng.NextUint64() % 1000));
      if (!rng.NextBool(0.15)) {
        e.SetField(0, Value(StrFormat("v%llu", static_cast<unsigned long long>(
                                                   rng.NextUint64() % 3))));
      }
      e.SetField(1, Value(static_cast<int64_t>(i)));
      batches[s].AppendEvent(e);
      events[s].push_back(std::move(e));
      order.push_back(static_cast<uint8_t>(s));
    }
    std::vector<ColumnJoinSection> sections;
    for (size_t s = 0; s < num_sources; ++s) {
      sections.push_back({&batches[s], nullptr, batches[s].rows(), nullptr});
    }
    std::string buf;
    EncodeColumnJoinBatch(sections, order, &buf);
    Result<ColumnJoinBatch> decoded = DecodeColumnJoinBatch(registry, buf);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->order, order) << "trial " << trial;
    ASSERT_EQ(decoded->sections.size(), num_sources);
    for (size_t s = 0; s < num_sources; ++s) {
      ASSERT_EQ(decoded->sections[s].rows(), events[s].size());
      for (size_t r = 0; r < events[s].size(); ++r) {
        const Event got = decoded->sections[s].MaterializeEvent(r);
        EXPECT_EQ(got.request_id(), events[s][r].request_id());
        EXPECT_EQ(got.timestamp(), events[s][r].timestamp());
        for (size_t f = 0; f < events[s][r].field_count(); ++f) {
          EXPECT_EQ(got.field(f), events[s][r].field(f))
              << "trial " << trial << " source " << s << " row " << r;
        }
      }
    }
  }
}

// Property: for ANY schema and any event population, shipping rows through
// the columnar codec is lossless and agrees field-for-field with the event
// record codec (what spill runs store). Randomized over schemas (all field types), null density, and row
// counts, including the bitmap-padding edge rows % 8 == 0.
TEST_F(ColumnWireFuzzTest, RowAndColumnarCodecsAgreeOnRandomSchemas) {
  Rng rng(0x5eed);
  static const FieldType kTypes[] = {
      FieldType::kBool,     FieldType::kInt,       FieldType::kLong,
      FieldType::kFloat,    FieldType::kDouble,    FieldType::kDateTime,
      FieldType::kString,   FieldType::kBoolList,  FieldType::kIntList,
      FieldType::kLongList, FieldType::kFloatList, FieldType::kDoubleList,
      FieldType::kStringList, FieldType::kObject};
  for (int trial = 0; trial < 60; ++trial) {
    SchemaRegistry registry;
    const size_t field_count = 1 + rng.NextUint64() % 6;
    auto builder = EventSchema::Builder(StrFormat("rt%d", trial));
    std::vector<FieldType> types;
    for (size_t f = 0; f < field_count; ++f) {
      types.push_back(kTypes[rng.NextUint64() % std::size(kTypes)]);
      builder.AddField(StrFormat("f%zu", f), types.back());
    }
    SchemaPtr schema = *builder.Build();
    ASSERT_TRUE(registry.Register(schema).ok());

    const size_t rows = rng.NextUint64() % 18;  // covers 0, 8, 16 edges
    std::vector<Event> events;
    ColumnBatch batch(schema);
    for (size_t r = 0; r < rows; ++r) {
      Event e(schema, rng.NextUint64(), static_cast<TimeMicros>(
                                            rng.NextUint64() % 1'000'000));
      for (size_t f = 0; f < field_count; ++f) {
        if (rng.NextBool(0.2)) {
          continue;  // leave null
        }
        e.SetField(f, RandomValue(types[f], &rng));
      }
      batch.AppendEvent(e);
      events.push_back(std::move(e));
    }

    std::string columnar;
    EncodeColumnBatch(batch, nullptr, batch.rows(), nullptr, &columnar);
    Result<ColumnBatch> decoded = DecodeColumnBatch(registry, columnar);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

    // The batch builder produces the same columnar payload.
    std::string built;
    EncodeEvents(events, &built);
    EXPECT_EQ(built, events.empty() ? std::string() : columnar);

    std::string records;
    for (const Event& e : events) {
      EncodeEvent(e, &records);
    }
    std::vector<Event> via_rows;
    for (size_t offset = 0; offset < records.size();) {
      Result<Event> e = DecodeEvent(registry, records, &offset);
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      via_rows.push_back(std::move(e).value());
    }

    ASSERT_EQ(decoded->rows(), events.size());
    ASSERT_EQ(via_rows.size(), events.size());
    for (size_t r = 0; r < events.size(); ++r) {
      const Event from_columns = decoded->MaterializeEvent(r);
      const Event& from_rows = via_rows[r];
      EXPECT_EQ(from_columns.request_id(), from_rows.request_id());
      EXPECT_EQ(from_columns.timestamp(), from_rows.timestamp());
      ASSERT_EQ(from_columns.field_count(), from_rows.field_count());
      for (size_t f = 0; f < from_rows.field_count(); ++f) {
        EXPECT_EQ(from_columns.field(f), from_rows.field(f))
            << "trial " << trial << " row " << r << " field " << f;
      }
    }
  }
}

// ---- Golden wire bytes ----------------------------------------------------
// The columnar and join encoders are the contract between every deployed
// agent and ScrubCentral: how they build a payload may change, the bytes they
// emit may not. This pins one FNV-1a hash over a seeded corpus of payloads
// and the per-field encodings the encoder reports. The corpus covers every
// field type, all-null and no-null columns, type-drifted values (the generic
// fallback), low- and high-cardinality strings (dictionary, plain, and the
// 256-entry dictionary overflow), random selections in any order, random
// keep_field masks (including short ones), appends to a non-empty buffer,
// and multi-section join batches.

class GoldenWireTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

  static void Mix(uint64_t* h, const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      *h = (*h ^ p[i]) * 1099511628211ULL;
    }
  }
  static void MixU64(uint64_t* h, uint64_t v) { Mix(h, &v, sizeof(v)); }

  // How one column of the corpus is populated.
  struct ColumnShape {
    double null_rate = 0.0;  // 1.0 = all-null
    bool drift = false;      // some values of the wrong type
    uint64_t cardinality = 0;  // string pool size
  };

  static Value Scalar(FieldType type, uint64_t cardinality, Rng* rng) {
    switch (type) {
      case FieldType::kBool:
        return Value(rng->NextBool(0.5));
      case FieldType::kInt:
      case FieldType::kLong:
      case FieldType::kDateTime:
        return Value(static_cast<int64_t>(rng->NextUint64()));
      case FieldType::kFloat:
      case FieldType::kDouble: {
        static const double kSpecial[] = {0.0, -0.0, 1e300, -2.5,
                                          std::numeric_limits<double>::infinity(),
                                          std::numeric_limits<double>::quiet_NaN()};
        if (rng->NextBool(0.1)) {
          return Value(kSpecial[rng->NextBelow(std::size(kSpecial))]);
        }
        return Value(static_cast<double>(rng->NextUint64() % 100'000) / 7.0);
      }
      case FieldType::kString:
      default: {
        const uint64_t k = rng->NextBelow(cardinality == 0 ? 1 : cardinality);
        std::string s = StrFormat("v%llu", static_cast<unsigned long long>(k));
        // A few values carry an empty tail or an embedded NUL.
        if (k % 11 == 3) {
          s.push_back('\0');
          s.append("z");
        } else if (k % 13 == 5) {
          s.clear();
        }
        return Value(std::move(s));
      }
    }
  }

  static Value Generate(FieldType type, const ColumnShape& shape, Rng* rng) {
    switch (type) {
      case FieldType::kBool:
      case FieldType::kInt:
      case FieldType::kLong:
      case FieldType::kFloat:
      case FieldType::kDouble:
      case FieldType::kDateTime:
      case FieldType::kString:
        if (shape.drift && rng->NextBool(0.2)) {
          return type == FieldType::kString
                     ? Value(static_cast<int64_t>(rng->NextUint64() % 50))
                     : Scalar(FieldType::kString, 7, rng);
        }
        return Scalar(type, shape.cardinality, rng);
      default:
        return RandomValue(type, rng);
    }
  }

  // A random schema registered in `registry` and a batch of `rows` rows.
  static ColumnBatch RandomBatch(const std::string& name, size_t rows,
                                 SchemaRegistry* registry, Rng* rng) {
    static const FieldType kTypes[] = {
        FieldType::kBool,       FieldType::kInt,       FieldType::kLong,
        FieldType::kFloat,      FieldType::kDouble,    FieldType::kDateTime,
        FieldType::kString,     FieldType::kBoolList,  FieldType::kIntList,
        FieldType::kLongList,   FieldType::kFloatList, FieldType::kDoubleList,
        FieldType::kStringList, FieldType::kObject};
    static const uint64_t kCardinality[] = {1, 3, 40, 300, 1'000'000};
    const size_t field_count = 1 + rng->NextBelow(8);
    auto builder = EventSchema::Builder(name);
    std::vector<FieldType> types;
    std::vector<ColumnShape> shapes;
    for (size_t f = 0; f < field_count; ++f) {
      types.push_back(kTypes[rng->NextBelow(std::size(kTypes))]);
      // Strings are over-represented: the dictionary choice is the
      // encoder's only data-dependent layout decision.
      if (rng->NextBool(0.25)) {
        types.back() = FieldType::kString;
      }
      builder.AddField(StrFormat("f%zu", f), types.back());
      ColumnShape shape;
      switch (rng->NextBelow(4)) {
        case 0:
          shape.null_rate = 1.0;
          break;
        case 1:
          shape.null_rate = 0.0;
          break;
        default:
          shape.null_rate = rng->NextBool(0.5) ? 0.1 : 0.6;
      }
      shape.drift = rng->NextBool(0.15);
      shape.cardinality = kCardinality[rng->NextBelow(std::size(kCardinality))];
      shapes.push_back(shape);
    }
    SchemaPtr schema = *builder.Build();
    EXPECT_TRUE(registry->Register(schema).ok());
    ColumnBatch batch(schema);
    for (size_t r = 0; r < rows; ++r) {
      Event e(schema, rng->NextUint64(),
              static_cast<TimeMicros>(rng->NextUint64() >> 1));
      for (size_t f = 0; f < field_count; ++f) {
        if (!rng->NextBool(shapes[f].null_rate)) {
          e.SetField(f, Generate(types[f], shapes[f], rng));
        }
      }
      batch.AppendEvent(e);
    }
    return batch;
  }

  static size_t RandomRows(Rng* rng) {
    // Mostly small (bitmap padding edges 0, 8, 16), sometimes past the
    // 256-entry dictionary cap.
    return rng->NextBool(0.15) ? 200 + rng->NextBelow(200) : rng->NextBelow(34);
  }

  // A random selection over `rows`: a subset in ascending order, or (less
  // often) a shuffled one with repeats.
  static std::vector<uint32_t> RandomSelection(size_t rows, Rng* rng) {
    std::vector<uint32_t> sel;
    // data() must not be null even when nothing is selected: a null
    // selection means every row.
    sel.reserve(rows + 1);
    if (rows == 0) {
      return sel;
    }
    if (rng->NextBool(0.75)) {
      const double keep = rng->NextDouble();
      for (size_t r = 0; r < rows; ++r) {
        if (rng->NextBool(keep)) {
          sel.push_back(static_cast<uint32_t>(r));
        }
      }
    } else {
      const size_t n = rng->NextBelow(rows + 1);
      for (size_t i = 0; i < n; ++i) {
        sel.push_back(static_cast<uint32_t>(rng->NextBelow(rows)));
      }
    }
    return sel;
  }

  static std::vector<bool> RandomKeep(size_t fields, Rng* rng) {
    // Sometimes shorter than the schema: fields past the mask are kept.
    const size_t n = rng->NextBool(0.2) ? rng->NextBelow(fields + 1) : fields;
    std::vector<bool> keep(n);
    for (size_t f = 0; f < n; ++f) {
      keep[f] = rng->NextBool(0.7);
    }
    return keep;
  }
};

TEST_F(GoldenWireTest, SeededCorpusHashIsPinned) {
  Rng rng(0x901dea);
  uint64_t h = kFnvBasis;
  for (int trial = 0; trial < 600; ++trial) {
    SchemaRegistry registry;
    std::string out;
    // Encoders append: start some payloads after existing bytes.
    if (rng.NextBool(0.2)) {
      out.assign(rng.NextBelow(40), 'p');
    }
    const size_t prefix = out.size();
    if (trial % 4 != 3) {
      ColumnBatch batch = RandomBatch(StrFormat("g%d", trial), RandomRows(&rng),
                                      &registry, &rng);
      std::vector<uint32_t> sel;
      const bool selected = rng.NextBool(0.6);
      if (selected) {
        sel = RandomSelection(batch.rows(), &rng);
      }
      std::vector<bool> keep;
      const bool masked = rng.NextBool(0.4);
      if (masked) {
        keep = RandomKeep(batch.column_count(), &rng);
      }
      std::vector<int> encodings;
      const size_t n = EncodeColumnBatch(
          batch, selected ? sel.data() : nullptr,
          selected ? sel.size() : batch.rows(), masked ? &keep : nullptr, &out,
          &encodings);
      ASSERT_EQ(n, out.size() - prefix) << "trial " << trial;
      MixU64(&h, n);
      for (const int e : encodings) {
        MixU64(&h, static_cast<uint64_t>(static_cast<int64_t>(e)));
      }
    } else {
      const size_t num_sources = 1 + rng.NextBelow(3);
      std::vector<ColumnBatch> batches;
      std::vector<std::vector<uint32_t>> sels(num_sources);
      std::vector<std::vector<bool>> keeps(num_sources);
      std::vector<ColumnJoinSection> sections;
      batches.reserve(num_sources);
      std::vector<uint8_t> order;
      for (size_t s = 0; s < num_sources; ++s) {
        batches.push_back(RandomBatch(StrFormat("g%d_%zu", trial, s),
                                      rng.NextBelow(20), &registry, &rng));
        sels[s] = RandomSelection(batches[s].rows(), &rng);
        keeps[s] = RandomKeep(batches[s].column_count(), &rng);
        sections.push_back({&batches[s], sels[s].data(), sels[s].size(),
                            rng.NextBool(0.5) ? &keeps[s] : nullptr});
        order.insert(order.end(), sels[s].size(), static_cast<uint8_t>(s));
      }
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBelow(i)]);
      }
      std::vector<std::vector<int>> encodings;
      const size_t n = EncodeColumnJoinBatch(sections, order, &out, &encodings);
      ASSERT_EQ(n, out.size() - prefix) << "trial " << trial;
      MixU64(&h, n);
      for (const std::vector<int>& section : encodings) {
        MixU64(&h, section.size());
        for (const int e : section) {
          MixU64(&h, static_cast<uint64_t>(static_cast<int64_t>(e)));
        }
      }
      // Every join payload decodes with its own registry.
      const Result<ColumnJoinBatch> decoded =
          DecodeColumnJoinBatch(registry, out.substr(prefix));
      ASSERT_TRUE(decoded.ok())
          << "trial " << trial << ": " << decoded.status().ToString();
    }
    Mix(&h, out.data(), out.size());
  }
  EXPECT_EQ(h, 0xfb1795db3aaa708fULL) << StrFormat("corpus hash 0x%016llx",
                                    static_cast<unsigned long long>(h));
}

}  // namespace
}  // namespace scrub
