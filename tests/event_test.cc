// Unit tests for src/event: Value semantics, schemas, events, wire codec.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/event/event.h"
#include "src/event/schema.h"
#include "src/event/value.h"
#include "src/event/wire.h"

namespace scrub {
namespace {

SchemaPtr TestSchema() {
  return *EventSchema::Builder("probe")
              .AddField("flag", FieldType::kBool)
              .AddField("n", FieldType::kLong)
              .AddField("x", FieldType::kDouble)
              .AddField("name", FieldType::kString)
              .AddField("ids", FieldType::kLongList)
              .AddField("meta", FieldType::kObject)
              .Build();
}

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "null");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_NE(Value(int64_t{2}), Value(2.5));
  EXPECT_EQ(Value(int64_t{2}).Hash(), Value(2.0).Hash());
}

TEST(ValueTest, CompareWithinClasses) {
  EXPECT_LT(Value(int64_t{1}).Compare(Value(int64_t{2})), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
  EXPECT_EQ(Value("abc").Compare(Value("abc")), 0);
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_LT(Value(false).Compare(Value(true)), 0);
}

TEST(ValueTest, ListEqualityAndOrder) {
  Value a(std::vector<Value>{Value(int64_t{1}), Value(int64_t{2})});
  Value b(std::vector<Value>{Value(int64_t{1}), Value(int64_t{2})});
  Value c(std::vector<Value>{Value(int64_t{1}), Value(int64_t{3})});
  Value shorter(std::vector<Value>{Value(int64_t{1})});
  EXPECT_EQ(a, b);
  EXPECT_LT(a.Compare(c), 0);
  EXPECT_GT(a.Compare(shorter), 0);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ValueTest, NestedObjectLookup) {
  NestedObject obj;
  obj.fields.emplace_back("inner", Value(int64_t{5}));
  obj.fields.emplace_back("tag", Value("t"));
  Value v(std::move(obj));
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.AsObject().Find("tag"), nullptr);
  EXPECT_EQ(*v.AsObject().Find("inner"), Value(int64_t{5}));
  EXPECT_EQ(v.AsObject().Find("missing"), nullptr);
  EXPECT_EQ(v.ToString(), "{inner: 5, tag: \"t\"}");
}

TEST(ValueTest, ConformsToDeclaredTypes) {
  EXPECT_TRUE(Value(int64_t{1}).ConformsTo(FieldType::kLong));
  EXPECT_TRUE(Value(int64_t{1}).ConformsTo(FieldType::kInt));
  EXPECT_TRUE(Value(int64_t{1}).ConformsTo(FieldType::kDateTime));
  EXPECT_TRUE(Value(1.5).ConformsTo(FieldType::kDouble));
  EXPECT_TRUE(Value(int64_t{1}).ConformsTo(FieldType::kDouble));  // widening
  EXPECT_FALSE(Value(1.5).ConformsTo(FieldType::kLong));
  EXPECT_FALSE(Value("x").ConformsTo(FieldType::kBool));
  EXPECT_TRUE(Value::Null().ConformsTo(FieldType::kString));
  Value list(std::vector<Value>{Value(int64_t{1}), Value(int64_t{2})});
  EXPECT_TRUE(list.ConformsTo(FieldType::kLongList));
  EXPECT_FALSE(list.ConformsTo(FieldType::kStringList));
  EXPECT_FALSE(list.ConformsTo(FieldType::kLong));
}

TEST(FieldTypeTest, NameRoundTrip) {
  for (const FieldType t :
       {FieldType::kBool, FieldType::kInt, FieldType::kLong, FieldType::kFloat,
        FieldType::kDouble, FieldType::kDateTime, FieldType::kString,
        FieldType::kLongList, FieldType::kStringList, FieldType::kObject}) {
    Result<FieldType> back = FieldTypeFromName(FieldTypeName(t));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(FieldTypeFromName("quux").ok());
}

TEST(FieldTypeTest, ListPredicates) {
  EXPECT_TRUE(IsListType(FieldType::kDoubleList));
  EXPECT_FALSE(IsListType(FieldType::kDouble));
  EXPECT_EQ(ListElementType(FieldType::kLongList), FieldType::kLong);
  EXPECT_TRUE(IsNumericType(FieldType::kDateTime));
  EXPECT_FALSE(IsNumericType(FieldType::kString));
  EXPECT_TRUE(IsOrderedType(FieldType::kString));
  EXPECT_FALSE(IsOrderedType(FieldType::kBool));
}

TEST(SchemaTest, BuilderRejectsBadDefinitions) {
  EXPECT_FALSE(EventSchema::Builder("").Build().ok());
  EXPECT_FALSE(EventSchema::Builder("t")
                   .AddField("a", FieldType::kLong)
                   .AddField("a", FieldType::kString)
                   .Build()
                   .ok());
  EXPECT_FALSE(EventSchema::Builder("t")
                   .AddField("__request_id", FieldType::kLong)
                   .Build()
                   .ok());
  EXPECT_FALSE(EventSchema::Builder("t")
                   .AddField("", FieldType::kLong)
                   .Build()
                   .ok());
}

TEST(SchemaTest, FieldLookupIncludesSystemFields) {
  SchemaPtr schema = TestSchema();
  EXPECT_EQ(schema->FieldIndex("n"), 1);
  EXPECT_EQ(schema->FieldIndex("missing"), -1);
  EXPECT_TRUE(schema->HasField("__request_id"));
  EXPECT_TRUE(schema->HasField("__timestamp"));
  EXPECT_EQ(*schema->FieldTypeOf("__request_id"), FieldType::kLong);
  EXPECT_EQ(*schema->FieldTypeOf("__timestamp"), FieldType::kDateTime);
  EXPECT_EQ(*schema->FieldTypeOf("x"), FieldType::kDouble);
  EXPECT_FALSE(schema->FieldTypeOf("missing").ok());
}

TEST(SchemaRegistryTest, RegisterAndLookup) {
  SchemaRegistry registry;
  ASSERT_TRUE(registry.Register(TestSchema()).ok());
  EXPECT_TRUE(registry.Contains("probe"));
  EXPECT_FALSE(registry.Contains("other"));
  EXPECT_TRUE(registry.Get("probe").ok());
  EXPECT_FALSE(registry.Get("other").ok());
  // Duplicate registration fails.
  EXPECT_EQ(registry.Register(TestSchema()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.TypeNames(), std::vector<std::string>{"probe"});
}

TEST(EventTest, SetAndGetFields) {
  Event e(TestSchema(), /*request_id=*/42, /*timestamp=*/1000);
  ASSERT_TRUE(e.SetFieldByName("n", Value(int64_t{7})).ok());
  ASSERT_TRUE(e.SetFieldByName("name", Value("turn")).ok());
  EXPECT_EQ(e.GetField("n"), Value(int64_t{7}));
  EXPECT_EQ(e.GetField("x"), Value::Null());  // unset
  EXPECT_EQ(e.GetField("__request_id"), Value(int64_t{42}));
  EXPECT_EQ(e.GetField("__timestamp"), Value(int64_t{1000}));
  EXPECT_TRUE(e.GetField("no_such").is_null());
}

TEST(EventTest, TypeMismatchRejected) {
  Event e(TestSchema(), 1, 1);
  EXPECT_EQ(e.SetFieldByName("n", Value("string")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(e.SetFieldByName("ghost", Value(int64_t{1})).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(e.Validate().ok());
}

TEST(EventBuilderTest, FluentConstruction) {
  Result<Event> e = EventBuilder(TestSchema(), 9, 99)
                        .Set("flag", Value(true))
                        .Set("x", Value(2.5))
                        .Build();
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->GetField("flag"), Value(true));
  EXPECT_EQ(e->request_id(), 9u);

  Result<Event> bad = EventBuilder(TestSchema(), 9, 99)
                          .Set("flag", Value(int64_t{1}))
                          .Build();
  EXPECT_FALSE(bad.ok());
}

TEST(WireTest, RoundTripAllFieldKinds) {
  SchemaRegistry registry;
  ASSERT_TRUE(registry.Register(TestSchema()).ok());
  Event e(*registry.Get("probe"), 77, 123456);
  e.SetField(0, Value(true));
  e.SetField(1, Value(int64_t{-5}));
  e.SetField(2, Value(3.25));
  e.SetField(3, Value("quoted \"text\""));
  e.SetField(4, Value(std::vector<Value>{Value(int64_t{1}),
                                         Value(int64_t{2})}));
  NestedObject obj;
  obj.fields.emplace_back("k", Value("v"));
  e.SetField(5, Value(std::move(obj)));

  std::string buffer;
  const size_t written = EncodeEvent(e, &buffer);
  EXPECT_EQ(written, buffer.size());
  EXPECT_EQ(written, e.WireSize()) << "WireSize must match the codec exactly";

  size_t offset = 0;
  Result<Event> back = DecodeEvent(registry, buffer, &offset);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(back->request_id(), 77u);
  EXPECT_EQ(back->timestamp(), 123456);
  for (size_t i = 0; i < e.field_count(); ++i) {
    EXPECT_EQ(back->field(i), e.field(i)) << "field " << i;
  }
}

TEST(WireTest, BatchRoundTrip) {
  SchemaRegistry registry;
  ASSERT_TRUE(registry.Register(TestSchema()).ok());
  std::vector<Event> events;
  for (int i = 0; i < 10; ++i) {
    Event e(*registry.Get("probe"), static_cast<RequestId>(i), i * 10);
    e.SetField(1, Value(int64_t{i}));
    events.push_back(std::move(e));
  }
  std::string buffer;
  ASSERT_EQ(EncodeEvents(events, &buffer), BatchFormat::kColumnar);
  Result<ColumnBatch> back = DecodeColumnBatch(registry, buffer);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->rows(), 10u);
  for (int i = 0; i < 10; ++i) {
    const Event got = back->MaterializeEvent(static_cast<size_t>(i));
    EXPECT_EQ(got.request_id(), static_cast<RequestId>(i));
    EXPECT_EQ(got.field(1), Value(int64_t{i}));
  }
}

TEST(WireTest, MixedTypeBatchRoundTripKeepsArrivalOrder) {
  SchemaRegistry registry;
  ASSERT_TRUE(registry.Register(TestSchema()).ok());
  SchemaPtr other = *EventSchema::Builder("other")
                         .AddField("n", FieldType::kLong)
                         .Build();
  ASSERT_TRUE(registry.Register(other).ok());
  // Sections follow first appearance ("other" first); the interleave is the
  // events' own order.
  std::vector<Event> events;
  for (int i = 0; i < 7; ++i) {
    Event e = i % 3 == 0 ? Event(other, static_cast<RequestId>(i), i)
                         : Event(*registry.Get("probe"),
                                 static_cast<RequestId>(i), i);
    e.SetField(i % 3 == 0 ? 0 : 1, Value(int64_t{i}));
    events.push_back(std::move(e));
  }
  std::string buffer;
  ASSERT_EQ(EncodeEvents(events, &buffer), BatchFormat::kColumnarJoin);
  Result<ColumnJoinBatch> back = DecodeColumnJoinBatch(registry, buffer);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->sections.size(), 2u);
  EXPECT_EQ(back->sections[0].schema()->type_name(), "other");
  EXPECT_EQ(back->sections[1].schema()->type_name(), "probe");
  ASSERT_EQ(back->order.size(), events.size());
  std::vector<size_t> cursor(2, 0);
  for (size_t i = 0; i < events.size(); ++i) {
    const uint8_t s = back->order[i];
    const Event got = back->sections[s].MaterializeEvent(cursor[s]++);
    EXPECT_EQ(got.type_name(), events[i].type_name()) << i;
    EXPECT_EQ(got.request_id(), events[i].request_id()) << i;
    EXPECT_EQ(got.WireSize(), events[i].WireSize()) << i;
  }

  std::string empty;
  EXPECT_EQ(EncodeEvents({}, &empty), BatchFormat::kColumnar);
  EXPECT_TRUE(empty.empty());
}

TEST(WireTest, TruncationDetected) {
  SchemaRegistry registry;
  ASSERT_TRUE(registry.Register(TestSchema()).ok());
  Event e(*registry.Get("probe"), 1, 1);
  e.SetField(3, Value("some payload"));
  std::string buffer;
  EncodeEvent(e, &buffer);
  for (const size_t cut : {size_t{1}, size_t{5}, buffer.size() - 1}) {
    std::string truncated = buffer.substr(0, cut);
    size_t offset = 0;
    EXPECT_FALSE(DecodeEvent(registry, truncated, &offset).ok())
        << "cut=" << cut;
  }
}

TEST(WireTest, UnknownTypeRejected) {
  SchemaRegistry full;
  ASSERT_TRUE(full.Register(TestSchema()).ok());
  Event e(*full.Get("probe"), 1, 1);
  std::string buffer;
  EncodeEvent(e, &buffer);
  SchemaRegistry empty;
  size_t offset = 0;
  EXPECT_EQ(DecodeEvent(empty, buffer, &offset).status().code(),
            StatusCode::kNotFound);
}

TEST(WireTest, TrailingBytesInBatchRejected) {
  SchemaRegistry registry;
  ASSERT_TRUE(registry.Register(TestSchema()).ok());
  Event e(*registry.Get("probe"), 1, 1);
  e.SetField(1, Value(int64_t{5}));
  std::string buffer;
  EncodeEvents({e}, &buffer);
  ASSERT_TRUE(DecodeColumnBatch(registry, buffer).ok());
  buffer += "junk";
  EXPECT_FALSE(DecodeColumnBatch(registry, buffer).ok());
}

// Property: WireSize always equals the encoded size, across random events.
TEST(WireTest, WireSizePropertyOnRandomEvents) {
  SchemaRegistry registry;
  ASSERT_TRUE(registry.Register(TestSchema()).ok());
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    Event e(*registry.Get("probe"), rng.NextUint64(),
            static_cast<TimeMicros>(rng.NextBelow(1u << 30)));
    if (rng.NextBool(0.5)) {
      e.SetField(0, Value(rng.NextBool(0.5)));
    }
    if (rng.NextBool(0.5)) {
      e.SetField(1, Value(static_cast<int64_t>(rng.NextUint64())));
    }
    if (rng.NextBool(0.5)) {
      e.SetField(2, Value(rng.NextDouble()));
    }
    if (rng.NextBool(0.5)) {
      std::string s(rng.NextBelow(64), 'x');
      e.SetField(3, Value(std::move(s)));
    }
    if (rng.NextBool(0.5)) {
      std::vector<Value> list;
      for (uint64_t i = 0; i < rng.NextBelow(8); ++i) {
        list.push_back(Value(static_cast<int64_t>(i)));
      }
      e.SetField(4, Value(std::move(list)));
    }
    std::string buffer;
    const size_t written = EncodeEvent(e, &buffer);
    EXPECT_EQ(written, e.WireSize());
    size_t offset = 0;
    Result<Event> back = DecodeEvent(registry, buffer, &offset);
    ASSERT_TRUE(back.ok());
    for (size_t i = 0; i < e.field_count(); ++i) {
      EXPECT_EQ(back->field(i), e.field(i));
    }
  }
}

}  // namespace
}  // namespace scrub
