// ColumnBatch unit tests: typed columnar storage, null bitmaps, the generic
// fallback migration, and the columnar wire round trip (including selection
// vectors and projection masks). The batch is the agent↔central data-plane
// currency, so the invariants here (dense placeholders, authoritative null
// bitmap, rows()+1 string offsets) are what the decoder and the vectorized
// evaluator lean on.

#include "src/event/column_batch.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "src/event/event.h"
#include "src/event/schema.h"
#include "src/event/wire.h"

namespace scrub {
namespace {

class ColumnBatchTest : public ::testing::Test {
 protected:
  ColumnBatchTest() {
    schema_ = *EventSchema::Builder("bid")
                   .AddField("won", FieldType::kBool)
                   .AddField("user_id", FieldType::kLong)
                   .AddField("price", FieldType::kDouble)
                   .AddField("country", FieldType::kString)
                   .AddField("ids", FieldType::kLongList)
                   .Build();
    EXPECT_TRUE(registry_.Register(schema_).ok());
  }

  Event MakeBid(uint64_t rid, int64_t user, double price,
                const std::string& country) const {
    Event e(schema_, rid, static_cast<TimeMicros>(1000 + rid));
    e.SetField(0, Value(rid % 2 == 0));
    e.SetField(1, Value(user));
    e.SetField(2, Value(price));
    e.SetField(3, Value(country));
    e.SetField(4, Value(std::vector<Value>{Value(int64_t{1}),
                                           Value(static_cast<int64_t>(rid))}));
    return e;
  }

  SchemaRegistry registry_;
  SchemaPtr schema_;
};

TEST_F(ColumnBatchTest, TypedColumnsStoreAndReadBack) {
  ColumnBatch batch(schema_);
  for (uint64_t i = 0; i < 10; ++i) {
    batch.AppendEvent(MakeBid(i, static_cast<int64_t>(100 + i), 1.5 + i,
                              i % 2 == 0 ? "US" : "DE"));
  }
  ASSERT_EQ(batch.rows(), 10u);
  ASSERT_EQ(batch.column_count(), 5u);
  EXPECT_EQ(batch.column(0).rep, ColumnBatch::Rep::kBool);
  EXPECT_EQ(batch.column(1).rep, ColumnBatch::Rep::kInt);
  EXPECT_EQ(batch.column(2).rep, ColumnBatch::Rep::kDouble);
  EXPECT_EQ(batch.column(3).rep, ColumnBatch::Rep::kString);
  EXPECT_EQ(batch.column(4).rep, ColumnBatch::Rep::kGeneric);
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(batch.request_id(r), r);
    EXPECT_EQ(batch.timestamp(r), static_cast<TimeMicros>(1000 + r));
    EXPECT_EQ(batch.ValueAt(1, r), Value(static_cast<int64_t>(100 + r)));
    EXPECT_EQ(batch.ValueAt(2, r), Value(1.5 + static_cast<double>(r)));
    EXPECT_EQ(batch.ValueAt(3, r), Value(r % 2 == 0 ? "US" : "DE"));
  }
  // String column invariant: rows()+1 offsets into the arena.
  EXPECT_EQ(batch.column(3).offsets.size(), batch.rows() + 1);
}

TEST_F(ColumnBatchTest, NullBitmapIsAuthoritative) {
  ColumnBatch batch(schema_);
  for (uint64_t i = 0; i < 9; ++i) {
    Event e = MakeBid(i, static_cast<int64_t>(i), 2.0, "GB");
    if (i % 3 == 1) {
      e.SetField(3, Value());  // null string
    }
    if (i % 4 == 2) {
      e.SetField(1, Value());  // null long
    }
    batch.AppendEvent(e);
  }
  for (size_t r = 0; r < 9; ++r) {
    EXPECT_EQ(batch.IsNull(3, r), r % 3 == 1);
    EXPECT_EQ(batch.IsNull(1, r), r % 4 == 2);
    EXPECT_EQ(batch.ValueAt(3, r).is_null(), r % 3 == 1);
    EXPECT_EQ(batch.ValueAt(1, r).is_null(), r % 4 == 2);
  }
  // Placeholder slots keep O(1) indexing: typed storage still has one entry
  // per row even though some rows are null.
  EXPECT_EQ(batch.column(1).ints.size(), batch.rows());
}

TEST_F(ColumnBatchTest, TypeMismatchMigratesColumnToGeneric) {
  ColumnBatch batch(schema_);
  batch.AppendEvent(MakeBid(1, 7, 1.0, "US"));
  batch.AppendEvent(MakeBid(2, 8, 2.0, "CA"));
  // Schema says long, the wire says string (schema drift): the column must
  // degrade to boxed values, not reject or coerce.
  Event drifted = MakeBid(3, 0, 3.0, "FR");
  drifted.SetField(1, Value("not-a-number"));
  batch.AppendEvent(drifted);
  EXPECT_EQ(batch.column(1).rep, ColumnBatch::Rep::kGeneric);
  // Earlier typed rows survived the migration intact.
  EXPECT_EQ(batch.ValueAt(1, 0), Value(int64_t{7}));
  EXPECT_EQ(batch.ValueAt(1, 1), Value(int64_t{8}));
  EXPECT_EQ(batch.ValueAt(1, 2), Value("not-a-number"));
}

TEST_F(ColumnBatchTest, ClearRestoresTypedColumnsAndKeepsCapacity) {
  ColumnBatch batch(schema_);
  for (uint64_t i = 0; i < 100; ++i) {
    batch.AppendEvent(MakeBid(i, static_cast<int64_t>(i), 1.0, "US"));
  }
  Event drifted = MakeBid(100, 0, 3.0, "FR");
  drifted.SetField(1, Value("not-a-number"));
  drifted.SetField(3, Value());
  batch.AppendEvent(drifted);
  ASSERT_EQ(batch.column(1).rep, ColumnBatch::Rep::kGeneric);
  const size_t double_capacity = batch.column(2).doubles.capacity();

  batch.Clear();
  EXPECT_EQ(batch.rows(), 0u);
  EXPECT_EQ(batch.column(1).rep, ColumnBatch::Rep::kInt);
  EXPECT_TRUE(batch.column(1).generic.empty());
  EXPECT_TRUE(batch.column(3).nulls.empty());
  EXPECT_EQ(batch.column(3).offsets.size(), 1u);  // rows()+1 invariant
  EXPECT_GE(batch.column(2).doubles.capacity(), double_capacity);

  // A cleared batch behaves like a fresh one, wire bytes included.
  ColumnBatch fresh(schema_);
  for (uint64_t i = 0; i < 3; ++i) {
    const Event e = MakeBid(i, static_cast<int64_t>(i), 2.5, "DE");
    batch.AppendEvent(e);
    fresh.AppendEvent(e);
  }
  EXPECT_EQ(batch.column(1).rep, ColumnBatch::Rep::kInt);
  EXPECT_EQ(batch.ValueAt(3, 2), Value("DE"));
  std::string cleared_bytes;
  std::string fresh_bytes;
  EncodeColumnBatch(batch, nullptr, batch.rows(), nullptr, &cleared_bytes);
  EncodeColumnBatch(fresh, nullptr, fresh.rows(), nullptr, &fresh_bytes);
  EXPECT_EQ(cleared_bytes, fresh_bytes);
}

TEST_F(ColumnBatchTest, MaterializeEventRoundTrips) {
  ColumnBatch batch(schema_);
  Event original = MakeBid(42, 9000, 3.75, "JP");
  original.SetField(0, Value());  // one null to carry through
  batch.AppendEvent(original);
  Event back = batch.MaterializeEvent(0);
  EXPECT_EQ(back.request_id(), original.request_id());
  EXPECT_EQ(back.timestamp(), original.timestamp());
  ASSERT_EQ(back.field_count(), original.field_count());
  for (size_t f = 0; f < original.field_count(); ++f) {
    EXPECT_EQ(back.field(f), original.field(f)) << "field " << f;
  }
}

TEST_F(ColumnBatchTest, WireRoundTripPreservesEveryRow) {
  ColumnBatch batch(schema_);
  std::vector<Event> originals;
  for (uint64_t i = 0; i < 13; ++i) {
    Event e = MakeBid(i, static_cast<int64_t>(i * 11), 0.25 * i, "US");
    if (i % 5 == 3) {
      e.SetField(2, Value());
    }
    batch.AppendEvent(e);
    originals.push_back(std::move(e));
  }
  std::string buf;
  EncodeColumnBatch(batch, /*selection=*/nullptr, batch.rows(),
                    /*keep_field=*/nullptr, &buf);
  Result<ColumnBatch> decoded = DecodeColumnBatch(registry_, buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->rows(), originals.size());
  for (size_t r = 0; r < originals.size(); ++r) {
    Event back = decoded->MaterializeEvent(r);
    EXPECT_EQ(back.request_id(), originals[r].request_id());
    EXPECT_EQ(back.timestamp(), originals[r].timestamp());
    for (size_t f = 0; f < originals[r].field_count(); ++f) {
      EXPECT_EQ(back.field(f), originals[r].field(f))
          << "row " << r << " field " << f;
    }
  }
}

TEST_F(ColumnBatchTest, SelectionVectorEncodesOnlySelectedRows) {
  ColumnBatch batch(schema_);
  for (uint64_t i = 0; i < 20; ++i) {
    batch.AppendEvent(MakeBid(i, static_cast<int64_t>(i), 1.0 + i, "DE"));
  }
  // Every third row, preserving order — the shape the vectorized filter
  // hands to the encoder.
  std::vector<uint32_t> selection;
  for (uint32_t r = 0; r < 20; r += 3) {
    selection.push_back(r);
  }
  std::string buf;
  EncodeColumnBatch(batch, selection.data(), selection.size(),
                    /*keep_field=*/nullptr, &buf);
  Result<ColumnBatch> decoded = DecodeColumnBatch(registry_, buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->rows(), selection.size());
  for (size_t i = 0; i < selection.size(); ++i) {
    EXPECT_EQ(decoded->request_id(i), selection[i]);
    EXPECT_EQ(decoded->ValueAt(1, i),
              Value(static_cast<int64_t>(selection[i])));
  }
}

TEST_F(ColumnBatchTest, ProjectionMaskShipsDroppedColumnsAsNull) {
  ColumnBatch batch(schema_);
  for (uint64_t i = 0; i < 6; ++i) {
    batch.AppendEvent(MakeBid(i, static_cast<int64_t>(i), 2.0, "CA"));
  }
  // Keep user_id and price only — the others ride as one-byte null columns.
  std::vector<bool> keep = {false, true, true, false, false};
  std::string buf;
  EncodeColumnBatch(batch, nullptr, batch.rows(), &keep, &buf);
  Result<ColumnBatch> decoded = DecodeColumnBatch(registry_, buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  for (size_t r = 0; r < 6; ++r) {
    EXPECT_TRUE(decoded->IsNull(0, r));
    EXPECT_FALSE(decoded->IsNull(1, r));
    EXPECT_FALSE(decoded->IsNull(2, r));
    EXPECT_TRUE(decoded->IsNull(3, r));
    EXPECT_TRUE(decoded->IsNull(4, r));
    EXPECT_EQ(decoded->ValueAt(1, r), Value(static_cast<int64_t>(r)));
    EXPECT_TRUE(decoded->ValueAt(0, r).is_null());
    EXPECT_TRUE(decoded->ValueAt(3, r).is_null());
    EXPECT_TRUE(decoded->ValueAt(4, r).is_null());
    // A dropped column holds no storage, yet every row-semantics reader
    // answers as for a null cell.
    const Event e = decoded->MaterializeEvent(r);
    EXPECT_TRUE(e.field(0).is_null());
    EXPECT_TRUE(e.field(4).is_null());
    EXPECT_EQ(e.field(2), Value(2.0));
    EXPECT_EQ(decoded->RowWireSize(r), e.WireSize());
  }
  for (const size_t f : {0u, 3u, 4u}) {
    const ColumnBatch::Column& col = decoded->column(f);
    EXPECT_TRUE(col.all_null);
    EXPECT_EQ(col.rep, ColumnBatch::RepFor(schema_->field(f).type));
    EXPECT_TRUE(col.bools.empty() && col.offsets.empty() &&
                col.generic.empty());
  }
  EXPECT_FALSE(decoded->column(1).all_null);
}

TEST_F(ColumnBatchTest, AllNullColumnCostsOneTagByte) {
  ColumnBatch batch(schema_);
  for (uint64_t i = 0; i < 1000; ++i) {
    Event e = MakeBid(i, 1, 1.0, "US");
    e.SetField(3, Value());
    batch.AppendEvent(e);
  }
  std::vector<bool> keep_all(5, true);
  std::vector<bool> keep_none(5, false);
  std::string with_country;
  std::string without_country;
  EncodeColumnBatch(batch, nullptr, batch.rows(), &keep_none, &without_country);
  // An all-null column and a projected-away column encode identically: one
  // tag byte, independent of row count.
  std::vector<bool> keep_country_only = {false, false, false, true, false};
  EncodeColumnBatch(batch, nullptr, batch.rows(), &keep_country_only,
                    &with_country);
  EXPECT_EQ(with_country.size(), without_country.size());
}

TEST_F(ColumnBatchTest, EmptyBatchRoundTrips) {
  ColumnBatch batch(schema_);
  std::string buf;
  EncodeColumnBatch(batch, nullptr, 0, nullptr, &buf);
  Result<ColumnBatch> decoded = DecodeColumnBatch(registry_, buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->rows(), 0u);
}

// The memory accountant sizes columnar events with RowWireSize instead of
// materializing them, so it must agree with MaterializeEvent(row).WireSize()
// for every physical representation: typed columns, nulls, plain and
// dictionary strings, generic lists and nested objects, before and after a
// wire round trip.
TEST_F(ColumnBatchTest, RowWireSizeMatchesMaterializedWireSize) {
  SchemaPtr schema = *EventSchema::Builder("mixed")
                          .AddField("won", FieldType::kBool)
                          .AddField("user_id", FieldType::kLong)
                          .AddField("price", FieldType::kDouble)
                          .AddField("country", FieldType::kString)
                          .AddField("note", FieldType::kString)
                          .AddField("ids", FieldType::kLongList)
                          .AddField("ctx", FieldType::kObject)
                          .Build();
  SchemaRegistry registry;
  ASSERT_TRUE(registry.Register(schema).ok());
  const char* countries[] = {"US", "DE", "GB"};
  ColumnBatch batch(schema);
  for (uint64_t i = 0; i < 40; ++i) {
    Event e(schema, i, static_cast<TimeMicros>(i));
    if (i % 5 != 0) {  // every fifth row leaves every field null
      e.SetField(0, Value(i % 2 == 0));
      e.SetField(1, Value(static_cast<int64_t>(i * 7)));
      e.SetField(2, Value(0.25 * static_cast<double>(i)));
      e.SetField(3, Value(countries[i % 3]));
      e.SetField(4, Value(std::string(i % 9, 'x') + std::to_string(i)));
      e.SetField(5, Value(std::vector<Value>(
                        i % 4, Value(static_cast<int64_t>(i)))));
      NestedObject ctx;
      ctx.fields.emplace_back("page", Value("home"));
      ctx.fields.emplace_back(
          "inner", Value(NestedObject{{{"depth", Value(int64_t{2})}}}));
      e.SetField(6, Value(std::move(ctx)));
    }
    if (i % 7 == 3) {
      e.SetField(3, Value());  // a null among non-null strings
    }
    batch.AppendEvent(e);
  }
  std::string buf;
  std::vector<int> encodings;
  EncodeColumnBatch(batch, nullptr, batch.rows(), nullptr, &buf, &encodings);
  Result<ColumnBatch> decoded = DecodeColumnBatch(registry, buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // The repeated country codes ship as a dictionary, the notes as plain
  // strings; the list and object columns stay generic.
  ASSERT_GT(encodings[3], 0);
  EXPECT_EQ(decoded->column(3).rep, ColumnBatch::Rep::kDict);
  EXPECT_EQ(decoded->column(4).rep, ColumnBatch::Rep::kString);
  EXPECT_EQ(decoded->column(2).rep, ColumnBatch::Rep::kDouble);
  EXPECT_EQ(decoded->column(5).rep, ColumnBatch::Rep::kGeneric);
  EXPECT_EQ(decoded->column(6).rep, ColumnBatch::Rep::kGeneric);
  for (const ColumnBatch* b : {&batch, &*decoded}) {
    for (size_t r = 0; r < b->rows(); ++r) {
      EXPECT_EQ(b->RowWireSize(r), b->MaterializeEvent(r).WireSize())
          << "row " << r;
    }
  }
}

TEST_F(ColumnBatchTest, UnknownSchemaIsRejectedAtDecode) {
  SchemaPtr other = *EventSchema::Builder("elsewhere")
                         .AddField("x", FieldType::kLong)
                         .Build();
  ColumnBatch batch(other);
  Event e(other, 1, 1);
  e.SetField(0, Value(int64_t{5}));
  batch.AppendEvent(e);
  std::string buf;
  EncodeColumnBatch(batch, nullptr, 1, nullptr, &buf);
  // registry_ never registered "elsewhere".
  EXPECT_FALSE(DecodeColumnBatch(registry_, buf).ok());
}

}  // namespace
}  // namespace scrub
