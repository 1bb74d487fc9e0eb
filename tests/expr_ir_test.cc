// Expression-IR unit tests: the structural verifier's rejection contract,
// install-time constant folding, abstract-interpreter classification and
// notes, conjunct-set contradiction/redundancy detection, disassembly, and
// the columnar batch kernel agreeing with row evaluation.

#include "src/plan/expr_ir.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/event/column_batch.h"
#include "src/event/event.h"
#include "src/event/schema.h"
#include "src/plan/expr_analysis.h"
#include "tests/tree_eval.h"

namespace scrub {
namespace {

ExprPtr Lit(Value v) { return Expr::MakeLiteral(std::move(v)); }

// A field of the fixture's bid schema, by index.
ExprPtr FieldRef(int index) {
  static const char* const kFields[] = {"won", "user_id", "price", "country"};
  return Expr::MakeFieldRef("bid", kFields[index]);
}

ExprPtr Bin(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
}

ExprPtr Un(UnaryOp op, ExprPtr operand) {
  return Expr::MakeUnary(op, std::move(operand));
}

class ExprIrTest : public ::testing::Test {
 protected:
  ExprIrTest() {
    schema_ = *EventSchema::Builder("bid")
                   .AddField("won", FieldType::kBool)
                   .AddField("user_id", FieldType::kLong)
                   .AddField("price", FieldType::kDouble)
                   .AddField("country", FieldType::kString)
                   .Build();
    schemas_ = {schema_};
  }

  Event MakeBid(uint64_t rid, int64_t user, double price,
                const std::string& country) const {
    Event e(schema_, rid, static_cast<TimeMicros>(1000 + rid));
    e.SetField(0, Value(rid % 2 == 0));
    e.SetField(1, Value(user));
    e.SetField(2, Value(price));
    e.SetField(3, Value(country));
    return e;
  }

  // Lowers over the bid source alone; every expression here is valid.
  ExprProgram Lower(const ExprPtr& expr, bool fold = true) const {
    Result<ExprProgram> p = LowerExpr(*expr, {"bid"}, schemas_, fold);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return p.ok() ? std::move(p).value() : ExprProgram{};
  }

  SchemaPtr schema_;
  std::vector<SchemaPtr> schemas_;
};

// ---------------------------------------------------------------------------
// Verifier.

TEST_F(ExprIrTest, VerifierAcceptsLoweredPrograms) {
  const ExprPtr expr = Bin(
      BinaryOp::kAnd,
      Bin(BinaryOp::kGt, FieldRef(2), Lit(Value(2.5))),
      Bin(BinaryOp::kOr, Bin(BinaryOp::kEq, FieldRef(3), Lit(Value("US"))),
          Un(UnaryOp::kNot, FieldRef(0))));
  const ExprProgram p = Lower(expr, /*fold=*/false);
  EXPECT_TRUE(VerifyProgram(p).ok()) << VerifyProgram(p).ToString();
}

TEST_F(ExprIrTest, VerifierRejectsMalformedPrograms) {
  // An empty program has no result register to read.
  EXPECT_FALSE(VerifyProgram(ExprProgram{}).ok());

  // A minimal valid base: r0 <- const 2.5; r1 <- const 2.5; r2 <- r0 > r1.
  ExprProgram base;
  base.consts = {Value(2.5)};
  base.insts.push_back({IrOp::kConst, kMaskDouble, 0, 0, 0, 0});
  base.insts.push_back({IrOp::kConst, kMaskDouble, 1, 0, 0, 0});
  base.insts.push_back({IrOp::kGt, kMaskBool, 2, 0, 1, -1});
  base.num_regs = 3;
  base.result = 2;
  ASSERT_TRUE(VerifyProgram(base).ok()) << VerifyProgram(base).ToString();

  {  // Operand register read before any definition.
    ExprProgram p = base;
    p.insts[2].a = 5;
    p.num_regs = 6;
    EXPECT_FALSE(VerifyProgram(p).ok());
  }
  {  // Destination register out of range.
    ExprProgram p = base;
    p.insts[2].dst = 9;
    EXPECT_FALSE(VerifyProgram(p).ok());
  }
  {  // Result register never defined.
    ExprProgram p = base;
    p.num_regs = 4;
    p.result = 3;
    EXPECT_FALSE(VerifyProgram(p).ok());
  }
  {  // Constant-pool index out of range.
    ExprProgram p = base;
    p.insts[0].imm = 7;
    EXPECT_FALSE(VerifyProgram(p).ok());
  }
  {  // Type tag contradicts the pooled constant's class.
    ExprProgram p = base;
    p.insts[0].types = kMaskString;
    EXPECT_FALSE(VerifyProgram(p).ok());
  }
  {  // Comparisons must be tagged exactly bool.
    ExprProgram p = base;
    p.insts[2].types = kMaskDouble;
    EXPECT_FALSE(VerifyProgram(p).ok());
  }
  {  // Jumps are forward-only; a self/backward target must be rejected.
    ExprProgram p = base;
    p.insts.push_back({IrOp::kJumpIfFalse, 0, 0, 2, 0, 1});
    EXPECT_FALSE(VerifyProgram(p).ok());
  }
  {  // Jump target past the end of the program (insts.size() is the legal
     // maximum: "fall off the end").
    ExprProgram p = base;
    p.insts.push_back({IrOp::kJumpIfFalse, 0, 0, 2, 0, 9});
    EXPECT_FALSE(VerifyProgram(p).ok());
  }
  {  // Field load against a source the program does not declare.
    ExprProgram p = base;
    p.insts[1] = {IrOp::kLoadField, kMaskAny, 1, 3, 0, -1};
    p.source_count = 1;
    EXPECT_FALSE(VerifyProgram(p).ok());
  }
}

// ---------------------------------------------------------------------------
// Folding.

TEST_F(ExprIrTest, ConstantSubtreesFoldAtLowering) {
  const ExprPtr expr =
      Bin(BinaryOp::kAdd, Lit(Value(int64_t{1})),
          Bin(BinaryOp::kMul, Lit(Value(int64_t{2})), Lit(Value(int64_t{3}))));
  const ExprProgram p = Lower(expr);
  ASSERT_EQ(p.insts.size(), 1u);
  EXPECT_EQ(p.insts[0].op, IrOp::kConst);
  const Event e = MakeBid(1, 10, 3.0, "US");
  EXPECT_EQ(EvalProgramSingle(p, e), Value(int64_t{7}));
}

TEST_F(ExprIrTest, FoldProgramCollapsesDecidableResult) {
  const ExprPtr expr =
      Bin(BinaryOp::kAdd, Lit(Value(int64_t{1})),
          Bin(BinaryOp::kMul, Lit(Value(int64_t{2})), Lit(Value(int64_t{3}))));
  ExprProgram p = Lower(expr, /*fold=*/false);
  ASSERT_GT(p.insts.size(), 1u);
  const ProgramAnalysis analysis = AnalyzeProgram(p);
  ASSERT_TRUE(analysis.result.constant.has_value());
  EXPECT_EQ(*analysis.result.constant, Value(int64_t{7}));
  EXPECT_TRUE(FoldProgram(&p, analysis));
  ASSERT_EQ(p.insts.size(), 1u);
  EXPECT_TRUE(VerifyProgram(p).ok());
  const Event e = MakeBid(1, 10, 3.0, "US");
  EXPECT_EQ(EvalProgramSingle(p, e), Value(int64_t{7}));
}

TEST_F(ExprIrTest, ShortCircuitConstantsDecideConjunctions) {
  // `price > 1 AND false` is false no matter what price holds.
  const ExprProgram and_false = Lower(
      Bin(BinaryOp::kAnd, Bin(BinaryOp::kGt, FieldRef(2), Lit(Value(1.0))),
          Lit(Value(false))));
  ASSERT_EQ(and_false.insts.size(), 1u);
  EXPECT_EQ(and_false.consts[and_false.insts[0].imm], Value(false));

  const ExprProgram or_true = Lower(
      Bin(BinaryOp::kOr, Bin(BinaryOp::kGt, FieldRef(2), Lit(Value(1.0))),
          Lit(Value(true))));
  ASSERT_EQ(or_true.insts.size(), 1u);
  EXPECT_EQ(or_true.consts[or_true.insts[0].imm], Value(true));

  // A non-deciding constant side reduces to the other operand (coerced).
  const ExprProgram and_true = Lower(
      Bin(BinaryOp::kAnd, Lit(Value(true)),
          Bin(BinaryOp::kGt, FieldRef(2), Lit(Value(1.0)))));
  for (const IrInst& inst : and_true.insts) {
    EXPECT_NE(inst.op, IrOp::kJumpIfFalse);
    EXPECT_NE(inst.op, IrOp::kJumpIfTrue);
  }
}

// ---------------------------------------------------------------------------
// Abstract interpretation.

TEST_F(ExprIrTest, AnalysisClassifiesTautologyAndNullCompare) {
  const ExprProgram taut = Lower(
      Bin(BinaryOp::kLt, Lit(Value(int64_t{1})), Lit(Value(int64_t{2}))), /*fold=*/false);
  EXPECT_EQ(AnalyzeProgram(taut).predicate, PredicateClass::kAlwaysTrue);

  // Ordered comparison against an always-null operand is never true.
  const ExprProgram null_cmp = Lower(
      Bin(BinaryOp::kLt, Lit(Value::Null()), FieldRef(2)),
      /*fold=*/false);
  const ProgramAnalysis analysis = AnalyzeProgram(null_cmp);
  EXPECT_EQ(analysis.predicate, PredicateClass::kAlwaysFalse);
  ASSERT_EQ(analysis.notes.size(), 1u);
  EXPECT_EQ(analysis.notes[0].kind, AnalysisNoteKind::kNullOrderedCompare);
}

TEST_F(ExprIrTest, AnalysisOfSecondSourceLoadStaysInRegisterBounds) {
  // The argument of a join's `SUM(impression.cost)`: one load from source
  // 1 into a one-register program. A load's `a` operand is a source index,
  // so the analysis must not read it as a register (regs[1] is out of
  // range here; bounds-checked builds abort on it).
  const SchemaPtr impression = *EventSchema::Builder("impression")
                                    .AddField("line_item_id", FieldType::kLong)
                                    .AddField("cost", FieldType::kDouble)
                                    .Build();
  Result<ExprProgram> lowered =
      LowerExpr(*Expr::MakeFieldRef("impression", "cost"),
                {"bid", "impression"}, {schema_, impression});
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  const ExprProgram& p = *lowered;
  ASSERT_TRUE(VerifyProgram(p).ok()) << VerifyProgram(p).ToString();
  ASSERT_EQ(p.num_regs, 1u);
  ASSERT_EQ(p.insts.size(), 1u);
  ASSERT_EQ(p.insts[0].op, IrOp::kLoadField);
  ASSERT_EQ(p.insts[0].a, 1u);
  const ProgramAnalysis analysis = AnalyzeProgram(p);
  EXPECT_EQ(analysis.result.types, p.insts[0].types);
  EXPECT_FALSE(analysis.result.constant.has_value());
  EXPECT_TRUE(analysis.notes.empty());
}

TEST_F(ExprIrTest, AnalysisFlagsProvableDivisionByZero) {
  const ExprProgram p = Lower(
      Bin(BinaryOp::kDiv, FieldRef(2), Lit(Value(int64_t{0}))),
      /*fold=*/false);
  const ProgramAnalysis analysis = AnalyzeProgram(p);
  EXPECT_EQ(analysis.result.types, kMaskNull);
  ASSERT_EQ(analysis.notes.size(), 1u);
  EXPECT_EQ(analysis.notes[0].kind, AnalysisNoteKind::kDivisionByZero);
}

TEST_F(ExprIrTest, TypeDisjointEqualityFolds) {
  // A string field can never equal an integer literal (numeric classes
  // merge, but string vs numeric is disjoint) — though null intrudes, Eq
  // with one null operand is false, so the fold holds.
  const ExprProgram p = Lower(
      Bin(BinaryOp::kEq, FieldRef(3), Lit(Value(int64_t{7}))),
      /*fold=*/false);
  EXPECT_EQ(AnalyzeProgram(p).predicate, PredicateClass::kAlwaysFalse);
}

// ---------------------------------------------------------------------------
// Conjunct-set analysis.

TEST_F(ExprIrTest, ConjunctSetDetectsEqualityContradiction) {
  // user_id == 200 AND user_id >= 500.
  const ExprProgram a = Lower(
      Bin(BinaryOp::kEq, FieldRef(1), Lit(Value(int64_t{200}))));
  const ExprProgram b = Lower(
      Bin(BinaryOp::kGe, FieldRef(1), Lit(Value(int64_t{500}))));
  const ConjunctSetResult r = AnalyzeConjunctSet({&a, &b});
  EXPECT_TRUE(r.contradiction);
  EXPECT_EQ(r.contradiction_source, 0);
  EXPECT_EQ(r.contradiction_field, 1);
}

TEST_F(ExprIrTest, ConjunctSetDetectsEmptyIntegerRange) {
  // user_id > 1 AND user_id < 2: no integer strictly between, and the field
  // is integer-typed, so the band is empty.
  const ExprProgram a = Lower(
      Bin(BinaryOp::kGt, FieldRef(1), Lit(Value(int64_t{1}))));
  const ExprProgram b = Lower(
      Bin(BinaryOp::kLt, FieldRef(1), Lit(Value(int64_t{2}))));
  EXPECT_TRUE(AnalyzeConjunctSet({&a, &b}).contradiction);

  // The same band on a double field is satisfiable (e.g. 1.5).
  const ExprProgram c = Lower(
      Bin(BinaryOp::kGt, FieldRef(2), Lit(Value(int64_t{1}))));
  const ExprProgram d = Lower(
      Bin(BinaryOp::kLt, FieldRef(2), Lit(Value(int64_t{2}))));
  EXPECT_FALSE(AnalyzeConjunctSet({&c, &d}).contradiction);
}

TEST_F(ExprIrTest, ConjunctSetMarksImpliedBoundsRedundant) {
  // price > 10 implies price > 5: the weaker bound is redundant.
  const ExprProgram strong =
      Lower(Bin(BinaryOp::kGt, FieldRef(2), Lit(Value(10.0))));
  const ExprProgram weak =
      Lower(Bin(BinaryOp::kGt, FieldRef(2), Lit(Value(5.0))));
  const ConjunctSetResult r = AnalyzeConjunctSet({&strong, &weak});
  EXPECT_FALSE(r.contradiction);
  EXPECT_EQ(r.redundant, std::vector<int>{1});
}

TEST_F(ExprIrTest, ConjunctSetEqualityPinsSubsumeConsistentBounds) {
  // user_id == 7 AND user_id < 10: the pin decides the range check.
  const ExprProgram pin = Lower(
      Bin(BinaryOp::kEq, FieldRef(1), Lit(Value(int64_t{7}))));
  const ExprProgram range = Lower(
      Bin(BinaryOp::kLt, FieldRef(1), Lit(Value(int64_t{10}))));
  const ConjunctSetResult r = AnalyzeConjunctSet({&pin, &range});
  EXPECT_FALSE(r.contradiction);
  EXPECT_EQ(r.redundant, std::vector<int>{1});
}

TEST_F(ExprIrTest, ConjunctSetLeavesDisjointFieldsAlone) {
  const ExprProgram a =
      Lower(Bin(BinaryOp::kGt, FieldRef(2), Lit(Value(10.0))));
  const ExprProgram b = Lower(
      Bin(BinaryOp::kEq, FieldRef(3), Lit(Value("US"))));
  const ConjunctSetResult r = AnalyzeConjunctSet({&a, &b});
  EXPECT_FALSE(r.contradiction);
  EXPECT_TRUE(r.redundant.empty());
}

// ---------------------------------------------------------------------------
// Disassembly.

TEST_F(ExprIrTest, ProgramToStringRendersTypedFieldLoads) {
  const ExprProgram p = Lower(
      Bin(BinaryOp::kGt, FieldRef(2), Lit(Value(2.5))),
      /*fold=*/false);
  const std::string text = ProgramToString(p, {"bid"}, schemas_);
  EXPECT_NE(text.find("bid.price"), std::string::npos) << text;
  EXPECT_NE(text.find("null|double"), std::string::npos) << text;
  EXPECT_NE(text.find("bool"), std::string::npos) << text;
  EXPECT_NE(text.find("result:"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Columnar batch kernel.

TEST_F(ExprIrTest, PredicateBatchMatchesRowEvaluation) {
  ColumnBatch batch(schema_);
  std::vector<Event> events;
  for (uint64_t i = 0; i < 32; ++i) {
    Event e = MakeBid(i, static_cast<int64_t>(i % 7), 0.5 * i, "US");
    if (i % 5 == 0) {
      e.SetField(2, Value::Null());  // price null: comparison must be false
    }
    batch.AppendEvent(e);
    events.push_back(std::move(e));
  }
  const ExprPtr expr =
      Bin(BinaryOp::kGt, FieldRef(2), Lit(Value(4.0)));
  const ExprProgram p = Lower(expr);

  std::vector<uint32_t> selection(batch.rows());
  for (uint32_t i = 0; i < batch.rows(); ++i) {
    selection[i] = i;
  }
  EvalProgramPredicateBatch(p, batch, &selection);

  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < batch.rows(); ++i) {
    if (TreePredicateSingle(*expr, events[i])) {
      expected.push_back(i);
    }
    EXPECT_EQ(EvalProgramColumns(p, batch, i),
              TreeEvalSingle(*expr, events[i]))
        << "row " << i;
  }
  EXPECT_EQ(selection, expected);
}

}  // namespace
}  // namespace scrub
