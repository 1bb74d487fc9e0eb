// Randomized property tests for value and operator semantics — the
// algebraic contracts the join, group-by and predicate machinery lean on —
// plus two differential properties against the tree oracle
// (tests/tree_eval.h): the typed expression IR (lowered,
// lowered-without-folding, and analysis-folded; row and columnar) agrees
// with it on random expressions over random events, including nulls and
// type-mismatched operands; and the branch-free compare kernels keep exactly
// the rows it keeps on every column representation.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/event/column_batch.h"
#include "src/event/event.h"
#include "src/event/schema.h"
#include "src/event/wire.h"
#include "src/plan/expr_analysis.h"
#include "src/plan/expr_ir.h"
#include "src/plan/vectorized.h"
#include "tests/tree_eval.h"

namespace scrub {
namespace {

Value RandomPrimitive(Rng& rng) {
  switch (rng.NextBelow(5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(rng.NextBool(0.5));
    case 2:
      return Value(static_cast<int64_t>(rng.NextInRange(-1000, 1000)));
    case 3:
      return Value(rng.NextDouble() * 200 - 100);
    default:
      return Value("s" + std::to_string(rng.NextBelow(50)));
  }
}

Value RandomValue(Rng& rng, int depth = 0) {
  if (depth < 2 && rng.NextBool(0.2)) {
    std::vector<Value> list;
    for (uint64_t i = 0; i < rng.NextBelow(4); ++i) {
      list.push_back(RandomValue(rng, depth + 1));
    }
    return Value(std::move(list));
  }
  return RandomPrimitive(rng);
}

TEST(ValueSemanticsTest, HashAgreesWithEquality) {
  Rng rng(1);
  std::vector<Value> values;
  for (int i = 0; i < 400; ++i) {
    values.push_back(RandomValue(rng));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      if (values[i] == values[j]) {
        EXPECT_EQ(values[i].Hash(), values[j].Hash())
            << values[i].ToString() << " vs " << values[j].ToString();
      }
    }
  }
}

TEST(ValueSemanticsTest, CompareIsAntisymmetricAndConsistent) {
  Rng rng(2);
  for (int trial = 0; trial < 2000; ++trial) {
    const Value a = RandomValue(rng);
    const Value b = RandomValue(rng);
    const int ab = a.Compare(b);
    const int ba = b.Compare(a);
    EXPECT_EQ(ab > 0, ba < 0) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(ab == 0, ba == 0);
    if (a == b && !a.is_null()) {
      EXPECT_EQ(ab, 0);
    }
  }
}

TEST(ValueSemanticsTest, CompareIsTransitiveWithinNumericClass) {
  Rng rng(3);
  for (int trial = 0; trial < 1000; ++trial) {
    const Value a(rng.NextDouble() * 100);
    const Value b(static_cast<int64_t>(rng.NextInRange(-100, 100)));
    const Value c(rng.NextDouble() * 100 - 50);
    if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
      EXPECT_LE(a.Compare(c), 0);
    }
  }
}

TEST(OperatorSemanticsTest, AddAndMulCommuteOnNumerics) {
  Rng rng(4);
  for (int trial = 0; trial < 2000; ++trial) {
    const Value a = rng.NextBool(0.5)
                        ? Value(static_cast<int64_t>(
                              rng.NextInRange(-1000, 1000)))
                        : Value(rng.NextDouble() * 100);
    const Value b = rng.NextBool(0.5)
                        ? Value(static_cast<int64_t>(
                              rng.NextInRange(-1000, 1000)))
                        : Value(rng.NextDouble() * 100);
    EXPECT_EQ(ApplyBinaryOp(BinaryOp::kAdd, a, b),
              ApplyBinaryOp(BinaryOp::kAdd, b, a));
    EXPECT_EQ(ApplyBinaryOp(BinaryOp::kMul, a, b),
              ApplyBinaryOp(BinaryOp::kMul, b, a));
  }
}

TEST(OperatorSemanticsTest, ComparisonTrichotomyOnComparables) {
  Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    Value a;
    Value b;
    if (rng.NextBool(0.5)) {
      a = Value(static_cast<int64_t>(rng.NextInRange(-50, 50)));
      b = Value(rng.NextDouble() * 100 - 50);
    } else {
      a = Value("s" + std::to_string(rng.NextBelow(20)));
      b = Value("s" + std::to_string(rng.NextBelow(20)));
    }
    const bool lt = ApplyBinaryOp(BinaryOp::kLt, a, b).AsBool();
    const bool eq = ApplyBinaryOp(BinaryOp::kEq, a, b).AsBool();
    const bool gt = ApplyBinaryOp(BinaryOp::kGt, a, b).AsBool();
    EXPECT_EQ(static_cast<int>(lt) + static_cast<int>(eq) +
                  static_cast<int>(gt),
              1)
        << a.ToString() << " vs " << b.ToString();
    // <= and >= are the complements.
    EXPECT_EQ(ApplyBinaryOp(BinaryOp::kLe, a, b).AsBool(), lt || eq);
    EXPECT_EQ(ApplyBinaryOp(BinaryOp::kGe, a, b).AsBool(), gt || eq);
    EXPECT_EQ(ApplyBinaryOp(BinaryOp::kNe, a, b).AsBool(), !eq);
  }
}

TEST(OperatorSemanticsTest, NullPropagatesThroughArithmetic) {
  const Value null = Value::Null();
  const Value two(int64_t{2});
  for (const BinaryOp op :
       {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv}) {
    EXPECT_TRUE(ApplyBinaryOp(op, null, two).is_null());
    EXPECT_TRUE(ApplyBinaryOp(op, two, null).is_null());
  }
  // Ordered comparisons against null are false; equality treats null=null.
  EXPECT_FALSE(ApplyBinaryOp(BinaryOp::kLt, null, two).AsBool());
  EXPECT_FALSE(ApplyBinaryOp(BinaryOp::kGt, null, two).AsBool());
  EXPECT_TRUE(ApplyBinaryOp(BinaryOp::kEq, null, null).AsBool());
  EXPECT_TRUE(ApplyBinaryOp(BinaryOp::kNe, null, two).AsBool());
}

TEST(OperatorSemanticsTest, IntegerArithmeticStaysIntegral) {
  const Value a(int64_t{7});
  const Value b(int64_t{3});
  EXPECT_TRUE(ApplyBinaryOp(BinaryOp::kAdd, a, b).is_int());
  EXPECT_TRUE(ApplyBinaryOp(BinaryOp::kMul, a, b).is_int());
  // Division always widens (7/3 must not truncate).
  const Value q = ApplyBinaryOp(BinaryOp::kDiv, a, b);
  ASSERT_TRUE(q.is_double());
  EXPECT_NEAR(q.AsDoubleExact(), 7.0 / 3.0, 1e-12);
  // Division by zero is null, not a trap.
  EXPECT_TRUE(ApplyBinaryOp(BinaryOp::kDiv, a, Value(int64_t{0})).is_null());
}

TEST(OperatorSemanticsTest, BooleanAlgebra) {
  const Value t(true);
  const Value f(false);
  EXPECT_TRUE(ApplyBinaryOp(BinaryOp::kAnd, t, t).AsBool());
  EXPECT_FALSE(ApplyBinaryOp(BinaryOp::kAnd, t, f).AsBool());
  EXPECT_TRUE(ApplyBinaryOp(BinaryOp::kOr, f, t).AsBool());
  EXPECT_FALSE(ApplyBinaryOp(BinaryOp::kOr, f, f).AsBool());
  EXPECT_EQ(ApplyUnaryOp(UnaryOp::kNot, ApplyUnaryOp(UnaryOp::kNot, t)), t);
  // Non-boolean operands degrade to false rather than misfiring.
  EXPECT_FALSE(ApplyBinaryOp(BinaryOp::kAnd, Value(int64_t{1}), t).AsBool());
}

TEST(OperatorSemanticsTest, NegationRoundTrips) {
  Rng rng(6);
  for (int trial = 0; trial < 500; ++trial) {
    const Value v(static_cast<int64_t>(rng.NextInRange(-10000, 10000)));
    EXPECT_EQ(ApplyUnaryOp(UnaryOp::kNegate,
                           ApplyUnaryOp(UnaryOp::kNegate, v)),
              v);
  }
  EXPECT_TRUE(ApplyUnaryOp(UnaryOp::kNegate, Value("x")).is_null());
}

TEST(OperatorSemanticsTest, ContainsSemantics) {
  Value list(std::vector<Value>{Value(int64_t{1}), Value("a"),
                                Value(2.0)});
  EXPECT_TRUE(ApplyBinaryOp(BinaryOp::kContains, list,
                            Value(int64_t{1})).AsBool());
  EXPECT_TRUE(ApplyBinaryOp(BinaryOp::kContains, list, Value("a")).AsBool());
  // Numeric cross-type membership (2.0 in list matches int 2? list holds
  // double 2.0; probe int 2 compares equal).
  EXPECT_TRUE(ApplyBinaryOp(BinaryOp::kContains, list,
                            Value(int64_t{2})).AsBool());
  EXPECT_FALSE(ApplyBinaryOp(BinaryOp::kContains, list,
                             Value("b")).AsBool());
  // Non-list left operand is false, not an error.
  EXPECT_FALSE(ApplyBinaryOp(BinaryOp::kContains, Value(int64_t{1}),
                             Value(int64_t{1})).AsBool());
}

// ---------------------------------------------------------------------------
// IR differential property: every evaluator executes the same semantics.

// Integer magnitudes stay tiny so a depth-3 tree of multiplications cannot
// overflow int64 (signed overflow is UB and would trip UBSan before it ever
// said anything about semantics).
Value RandomLeafValue(Rng& rng) {
  switch (rng.NextBelow(6)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(rng.NextBool(0.5));
    case 2:
      return Value(static_cast<int64_t>(rng.NextInRange(-15, 15)));
    case 3:
      return Value(rng.NextDouble() * 20 - 10);
    case 4:
      return Value("s" + std::to_string(rng.NextBelow(6)));
    default:
      return Value(static_cast<int64_t>(rng.NextInRange(0, 3)));
  }
}

ExprPtr RandomExprTree(Rng& rng, int depth) {
  // Leaves: literals (any class, deliberately including nulls and classes
  // that mismatch whatever operator sits above) or field/system loads.
  if (depth <= 0 || rng.NextBool(0.3)) {
    static const char* const kFields[] = {"won", "user_id", "price",
                                          "country"};
    switch (rng.NextBelow(4)) {
      case 0:
        return Expr::MakeFieldRef("bid", kFields[rng.NextBelow(4)]);
      case 1:
        return Expr::MakeFieldRef(
            "bid", std::string(rng.NextBool(0.5) ? kRequestIdField
                                                 : kTimestampField));
      default:
        return Expr::MakeLiteral(RandomLeafValue(rng));
    }
  }
  const uint64_t pick = rng.NextBelow(10);
  if (pick == 0) {
    const UnaryOp op = rng.NextBool(0.5) ? UnaryOp::kNegate : UnaryOp::kNot;
    return Expr::MakeUnary(op, RandomExprTree(rng, depth - 1));
  }
  if (pick == 1) {
    ExprPtr probe = RandomExprTree(rng, depth - 1);
    std::vector<ExprPtr> members;
    for (uint64_t i = 0; i < rng.NextBelow(4); ++i) {
      members.push_back(Expr::MakeLiteral(RandomLeafValue(rng)));
    }
    return Expr::MakeInList(std::move(probe), std::move(members));
  }
  static constexpr BinaryOp kOps[] = {
      BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
      BinaryOp::kEq,  BinaryOp::kNe,  BinaryOp::kLt,  BinaryOp::kLe,
      BinaryOp::kGt,  BinaryOp::kGe,  BinaryOp::kAnd, BinaryOp::kOr,
      BinaryOp::kContains};
  const BinaryOp op = kOps[rng.NextBelow(sizeof(kOps) / sizeof(kOps[0]))];
  ExprPtr lhs = RandomExprTree(rng, depth - 1);
  ExprPtr rhs = RandomExprTree(rng, depth - 1);
  return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
}

TEST(IrDifferentialTest, AllEvaluatorsAgreeOnRandomExpressions) {
  const SchemaPtr schema = *EventSchema::Builder("bid")
                                .AddField("won", FieldType::kBool)
                                .AddField("user_id", FieldType::kLong)
                                .AddField("price", FieldType::kDouble)
                                .AddField("country", FieldType::kString)
                                .Build();
  const std::vector<SchemaPtr> schemas = {schema};

  Rng rng(7);
  // A small pool of events, some with null (unset) fields and one with a
  // deliberately schema-violating string in the double slot: SetField does
  // not validate, and every evaluator must shrug identically.
  std::vector<Event> events;
  ColumnBatch batch(schema);
  for (uint64_t i = 0; i < 12; ++i) {
    Event e(schema, /*request_id=*/i, static_cast<TimeMicros>(100 + i));
    if (i % 4 != 1) {
      e.SetField(0, Value(rng.NextBool(0.5)));
    }
    if (i % 3 != 2) {
      e.SetField(1, Value(static_cast<int64_t>(rng.NextInRange(-15, 15))));
    }
    if (i % 5 != 0) {
      e.SetField(2, i == 7 ? Value("oops")
                           : Value(rng.NextDouble() * 20 - 10));
    }
    e.SetField(3, Value("s" + std::to_string(rng.NextBelow(6))));
    batch.AppendEvent(e);
    events.push_back(std::move(e));
  }

  int folded_programs = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const ExprPtr expr = RandomExprTree(rng, 3);
    Result<ExprProgram> folded = LowerExpr(*expr, {"bid"}, schemas);
    Result<ExprProgram> raw = LowerExpr(*expr, {"bid"}, schemas,
                                        /*fold=*/false);
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    const ExprProgram lowered = std::move(folded).value();
    ExprProgram unfolded = std::move(raw).value();
    ASSERT_TRUE(VerifyProgram(lowered).ok());
    ASSERT_TRUE(VerifyProgram(unfolded).ok());
    const ProgramAnalysis analysis = AnalyzeProgram(unfolded);
    if (FoldProgram(&unfolded, analysis)) {
      ++folded_programs;
    }
    for (size_t row = 0; row < events.size(); ++row) {
      const Value expected = TreeEvalSingle(*expr, events[row]);
      EXPECT_EQ(EvalProgramSingle(lowered, events[row]), expected)
          << "trial " << trial << " row " << row << "\n"
          << ProgramToString(lowered, {"bid"}, schemas);
      EXPECT_EQ(EvalProgramSingle(unfolded, events[row]), expected)
          << "trial " << trial << " row " << row << " (analysis-folded)\n"
          << ProgramToString(unfolded, {"bid"}, schemas);
      EXPECT_EQ(EvalProgramColumns(lowered, batch, row), expected)
          << "trial " << trial << " row " << row << " (columnar)\n"
          << ProgramToString(lowered, {"bid"}, schemas);
    }
    // Batch predicate compaction matches per-row predicate evaluation.
    std::vector<uint32_t> selection(batch.rows());
    for (uint32_t i = 0; i < batch.rows(); ++i) {
      selection[i] = i;
    }
    EvalProgramPredicateBatch(lowered, batch, &selection);
    std::vector<uint32_t> expected_sel;
    for (uint32_t i = 0; i < batch.rows(); ++i) {
      if (TreePredicateSingle(*expr, events[i])) {
        expected_sel.push_back(i);
      }
    }
    EXPECT_EQ(selection, expected_sel) << "trial " << trial;
  }
  // Sanity: the generator produces install-time-decidable programs often
  // enough that the folding path is genuinely exercised.
  EXPECT_GT(folded_programs, 20);
}

// ---------------------------------------------------------------------------
// Compare kernels: `field <cmp> literal` conjuncts run RunCompareKernel
// instead of the interpreter. The kernel must keep exactly the rows the
// tree oracle keeps — on every column representation, for all six
// comparisons in both operand orders, against int, double, string and null
// literals — and run or decline exactly where vectorized.h says it does.

class CompareKernelTest : public ::testing::Test {
 protected:
  static constexpr size_t kInt = 0;
  static constexpr size_t kDouble = 1;
  static constexpr size_t kString = 2;
  static constexpr size_t kTag = 3;  // low-cardinality: dict on the wire
  static constexpr size_t kBool = 4;
  static constexpr size_t kDrifted = 5;  // a double column gone generic

  CompareKernelTest() : batch_(MakeSchema()) {
    EXPECT_TRUE(registry_.Register(schema_).ok());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Value doubles[] = {Value(nan),  Value(0.0), Value(-0.0),
                             Value(1.5),  Value(-2.5), Value(2.0),
                             Value(1e300)};
    const char* strings[] = {"a", "ab", "b", "", "ba", "abc"};
    const char* tags[] = {"alpha", "beta", "gamma"};
    for (uint64_t r = 0; r < 48; ++r) {
      Event e(schema_, /*request_id=*/r, static_cast<TimeMicros>(r));
      if (r % 6 != 5) {
        e.SetField(kInt, Value(static_cast<int64_t>((r * 7) % 9) - 4));
      }
      if (r % 7 != 6) {
        e.SetField(kDouble, doubles[(r * 3) % 7]);
      }
      if (r % 8 != 7) {
        e.SetField(kString, Value(strings[(r * 5) % 6]));
      }
      if (r % 9 != 4) {
        e.SetField(kTag, Value(tags[r % 3]));
      }
      if (r % 10 != 9) {
        e.SetField(kBool, Value(r % 3 == 0));
      }
      if (r % 4 != 2) {
        e.SetField(kDrifted, r == 11 ? Value("oops") : doubles[r % 7]);
      }
      batch_.AppendEvent(e);
      events_.push_back(std::move(e));
    }
  }

  SchemaPtr MakeSchema() {
    schema_ = *EventSchema::Builder("k")
                   .AddField("i", FieldType::kLong)
                   .AddField("d", FieldType::kDouble)
                   .AddField("s", FieldType::kString)
                   .AddField("t", FieldType::kString)
                   .AddField("b", FieldType::kBool)
                   .AddField("g", FieldType::kDouble)
                   .Build();
    return schema_;
  }

  // The batch after an EncodeColumnBatch / DecodeColumnBatch round trip,
  // which is how dictionary columns come to exist.
  ColumnBatch RoundTrip() const {
    std::string payload;
    EncodeColumnBatch(batch_, nullptr, batch_.rows(), nullptr, &payload);
    Result<ColumnBatch> decoded = DecodeColumnBatch(registry_, payload);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    return std::move(decoded).value();
  }

  // The kernel coverage vectorized.h documents for RunCompareKernel.
  static bool KernelCovers(const ColumnBatch::Column& col,
                           const Value& literal) {
    if (col.rep == ColumnBatch::Rep::kGeneric) {
      return false;
    }
    if (literal.is_null()) {
      return true;
    }
    switch (col.rep) {
      case ColumnBatch::Rep::kInt:
      case ColumnBatch::Rep::kDouble:
        return literal.is_int() || literal.is_double();
      case ColumnBatch::Rep::kString:
        return literal.is_string();
      case ColumnBatch::Rep::kDict:
        return col.dict_size() > 0;
      default:
        return false;
    }
  }

  // Every comparison, both operand orders, every literal, over a sparse
  // starting selection: the batch predicate (folded and unfolded) and the
  // bare kernel keep exactly the oracle's rows, in order.
  void ExpectMatchesOracle(const ColumnBatch& batch, size_t field,
                           const std::vector<Value>& literals) {
    static constexpr BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                        BinaryOp::kLt, BinaryOp::kLe,
                                        BinaryOp::kGt, BinaryOp::kGe};
    std::vector<uint32_t> start;
    for (uint32_t r = 0; r < batch.rows(); ++r) {
      if (r % 5 != 3) {
        start.push_back(r);
      }
    }
    for (const Value& literal : literals) {
      for (const BinaryOp op : kOps) {
        for (const bool field_on_lhs : {true, false}) {
          ExprPtr load = Expr::MakeFieldRef("k", schema_->field(field).name);
          ExprPtr konst = Expr::MakeLiteral(literal);
          const ExprPtr cmp =
              field_on_lhs
                  ? Expr::MakeBinary(op, std::move(load), std::move(konst))
                  : Expr::MakeBinary(op, std::move(konst), std::move(load));
          const std::string what =
              schema_->field(field).name + " " + BinaryOpName(op) + " " +
              literal.ToString() + (field_on_lhs ? "" : " (literal first)");

          std::vector<uint32_t> expected;
          for (const uint32_t r : start) {
            if (TreePredicateSingle(*cmp, events_[r])) {
              expected.push_back(r);
            }
          }
          for (const bool fold : {false, true}) {
            Result<ExprProgram> program =
                LowerExpr(*cmp, {"k"}, {schema_}, fold);
            ASSERT_TRUE(program.ok()) << program.status().ToString();
            std::vector<uint32_t> selection = start;
            EvalProgramPredicateBatch(*program, batch, &selection);
            EXPECT_EQ(selection, expected)
                << what << (fold ? " folded" : " unfolded");
          }
          std::vector<uint32_t> selection = start;
          const bool ran = RunCompareKernel(batch, field, op, literal,
                                            field_on_lhs, &selection);
          EXPECT_EQ(ran, KernelCovers(batch.column(field), literal)) << what;
          if (ran) {
            EXPECT_EQ(selection, expected) << what << " (kernel)";
          } else {
            EXPECT_EQ(selection, start) << what << " (declined)";
          }
        }
      }
    }
  }

  SchemaRegistry registry_;
  SchemaPtr schema_;
  ColumnBatch batch_;
  std::vector<Event> events_;
};

TEST_F(CompareKernelTest, IntColumn) {
  ASSERT_EQ(batch_.column(kInt).rep, ColumnBatch::Rep::kInt);
  ExpectMatchesOracle(batch_, kInt,
                      {Value(int64_t{0}), Value(int64_t{2}),
                       Value(int64_t{-4}), Value(1.5), Value(-0.0),
                       Value("a"), Value::Null()});
}

TEST_F(CompareKernelTest, DoubleColumnWithNanSignedZeroAndNulls) {
  ASSERT_EQ(batch_.column(kDouble).rep, ColumnBatch::Rep::kDouble);
  ExpectMatchesOracle(
      batch_, kDouble,
      {Value(0.0), Value(-0.0), Value(1.5), Value(int64_t{2}),
       Value(std::numeric_limits<double>::quiet_NaN()), Value("a"),
       Value::Null()});
}

TEST_F(CompareKernelTest, PlainStringColumn) {
  ASSERT_EQ(batch_.column(kString).rep, ColumnBatch::Rep::kString);
  ExpectMatchesOracle(batch_, kString,
                      {Value("a"), Value("ab"), Value(""), Value("zz"),
                       Value(int64_t{1}), Value::Null()});
}

TEST_F(CompareKernelTest, DictionaryColumnFromTheWire) {
  const ColumnBatch decoded = RoundTrip();
  ASSERT_EQ(decoded.rows(), batch_.rows());
  ASSERT_EQ(decoded.column(kTag).rep, ColumnBatch::Rep::kDict);
  ExpectMatchesOracle(decoded, kTag,
                      {Value("beta"), Value("alpha"), Value(""),
                       Value("zzz"), Value(int64_t{1}), Value(2.0),
                       Value::Null()});
}

TEST_F(CompareKernelTest, BoolAndGenericColumnsFallBack) {
  ASSERT_EQ(batch_.column(kBool).rep, ColumnBatch::Rep::kBool);
  ASSERT_EQ(batch_.column(kDrifted).rep, ColumnBatch::Rep::kGeneric);
  ExpectMatchesOracle(batch_, kBool,
                      {Value(true), Value(false), Value(int64_t{1}),
                       Value::Null()});
  ExpectMatchesOracle(batch_, kDrifted,
                      {Value(1.5), Value("oops"), Value(int64_t{0}),
                       Value(-0.0), Value::Null()});
}

}  // namespace
}  // namespace scrub
