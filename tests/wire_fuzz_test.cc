// Fuzz-style negative tests for the wire codecs: DecodeEvent reads spill
// records and the columnar decoders read bytes that crossed the network, so
// every length prefix, count and tag byte is hostile until proven otherwise. Decoding corrupt input must fail
// with a status — never crash, never allocate unbounded memory. The
// SCRUB_SANITIZE (ASan+UBSan) build flavor exists to keep these honest.

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
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

}  // namespace
}  // namespace scrub
