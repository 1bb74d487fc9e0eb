// Typed register-style expression IR: the one expression evaluator.
//
// CompiledExpr is a tree: convenient to build, but every evaluation would
// walk pointers and re-discover structure the planner already knew at
// install time. Scrub admits long-running standing queries, so anything
// learned once at install is amortized over millions of evaluated events —
// the paper's argument for pushing work toward query admission. LowerExpr
// flattens a CompiledExpr into a linear program over virtual registers with
// pre-resolved constant/list/path pools and a schema-derived type tag per
// instruction. The same program drives the agent's host filter (single
// event and vectorized), central's group keys, aggregate arguments and raw
// select, and both baselines (one lowering, so no two consumers can drift),
// and it is the substrate the static analysis in expr_analysis.h runs on:
// the verifier, the abstract interpreter, constant folding, and the
// semantic lint rules all consume this IR.
//
// Every binary/unary instruction routes through ApplyBinaryOp/ApplyUnaryOp,
// and AND/OR lower to a coerce-then-short-circuit sequence (operands are
// side-effect-free, so strict and short-circuit evaluation agree on values;
// the jumps only skip work). The test suite's tree walker
// (tests/tree_eval.h) is the independent oracle these semantics are
// checked against.

#ifndef SRC_PLAN_EXPR_IR_H_
#define SRC_PLAN_EXPR_IR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/event/column_batch.h"
#include "src/plan/expr_eval.h"

namespace scrub {

// ---------------------------------------------------------------------------
// Type tags.
//
// A TypeMask is the set of runtime value classes a register may hold; the
// lowering stamps each instruction with the mask of its destination, seeded
// from the schema (the analyzer's types, carried through CompileExpr's
// field indexes) and from operator result typing. kMaskNull is always
// possible for field loads: an unset field is null.

using TypeMask = uint8_t;
inline constexpr TypeMask kMaskNull = 1U << 0;
inline constexpr TypeMask kMaskBool = 1U << 1;
inline constexpr TypeMask kMaskInt = 1U << 2;
inline constexpr TypeMask kMaskDouble = 1U << 3;
inline constexpr TypeMask kMaskString = 1U << 4;
inline constexpr TypeMask kMaskList = 1U << 5;
inline constexpr TypeMask kMaskObject = 1U << 6;
inline constexpr TypeMask kMaskAny =
    kMaskNull | kMaskBool | kMaskInt | kMaskDouble | kMaskString | kMaskList |
    kMaskObject;
inline constexpr TypeMask kMaskNumeric = kMaskInt | kMaskDouble;

// The mask a declared schema field may present at runtime (always nullable).
TypeMask FieldTypeMask(FieldType type);
// "null|int", "bool", "any" — for explain output.
std::string TypeMaskName(TypeMask mask);
// The mask of one concrete runtime value.
TypeMask ValueTypeMask(const Value& v);

// ---------------------------------------------------------------------------
// Instructions.

enum class IrOp : uint8_t {
  kConst,          // dst <- consts[imm]
  kLoadField,      // dst <- source a, field b; descend paths[imm] if imm >= 0
  kLoadRequestId,  // dst <- request id of source a (null if event absent)
  kLoadTimestamp,  // dst <- timestamp of source a (null if event absent)
  kNeg,            // dst <- -a           (null on non-numeric)
  kNot,            // dst <- !(a is bool true)
  kCoerceBool,     // dst <- bool(a is bool true)
  kAdd,            // dst <- a + b        (binary ops: ApplyBinaryOp exactly)
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kContains,     // dst <- b in list a
  kInList,       // dst <- a non-null and a in lists[imm]
  kJumpIfFalse,  // if !(a is bool true) goto inst imm (forward only)
  kJumpIfTrue,   // if  (a is bool true) goto inst imm (forward only)
};

const char* IrOpName(IrOp op);
// kAdd..kContains map onto their BinaryOp twins; invalid for other ops.
bool IsBinaryIrOp(IrOp op);
BinaryOp BinaryOpOf(IrOp op);

struct IrInst {
  IrOp op = IrOp::kConst;
  TypeMask types = 0;  // possible classes of dst; 0 for jumps (no dst)
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  int32_t imm = -1;  // const/list/path pool index, or jump target
};

// A lowered expression: instructions plus the pools they index. Executing
// the instructions in order (taking forward jumps) leaves the expression's
// value in register `result`.
struct ExprProgram {
  std::vector<IrInst> insts;
  std::vector<Value> consts;
  std::vector<std::vector<Value>> lists;         // IN membership pools
  std::vector<std::vector<std::string>> paths;   // nested-object descents
  uint16_t num_regs = 0;
  uint16_t result = 0;
  uint16_t source_count = 1;

  bool empty() const { return insts.empty(); }
};

// Lowers a compiled expression. `schemas` is indexed by source (the same
// list CompileExpr resolved field indexes against) and seeds the per-field
// type tags. With `fold` (the default), subtrees whose value is decidable at
// install time collapse to a single kConst — including short-circuit
// collapses such as `x AND false` — using the evaluator's own operator
// implementations, so folding cannot drift from evaluation. The verifier
// runs on every lowering; see expr_analysis.h for the hard-fail contract.
ExprProgram LowerExpr(const CompiledExpr& expr,
                      const std::vector<SchemaPtr>& schemas,
                      bool fold = true);

// Row-oriented execution. The single-event forms bind the event in place
// (no per-call allocation); the agent and both baselines call them per event.
Value EvalProgram(const ExprProgram& program, const EventTuple& tuple);
Value EvalProgramSingle(const ExprProgram& program, const Event& event);
bool EvalProgramPredicate(const ExprProgram& program, const EventTuple& tuple);
bool EvalProgramPredicateSingle(const ExprProgram& program,
                                const Event& event);

// Columnar execution (source_count must be 1).
Value EvalProgramColumns(const ExprProgram& program, const ColumnBatch& batch,
                         size_t row);
bool EvalProgramPredicateColumns(const ExprProgram& program,
                                 const ColumnBatch& batch, size_t row);

// One source slot of a join tuple: a (batch, row) columnar reference. A
// null batch = absent source (loads evaluate to null, like a null
// EventTuple entry).
struct TupleSlot {
  const ColumnBatch* batch = nullptr;
  uint32_t row = 0;
};

// Multi-source execution over a join tuple: each slot binds its source to
// the batch row the join buffered, so joined tuples fold column-direct — no
// Event materialization. Exactly EvalProgram's semantics slot for slot.
Value EvalProgramMixed(const ExprProgram& program,
                       std::span<const TupleSlot> slots);
// Compacts `selection` to the rows where the predicate holds, preserving
// order. Constant programs and the `field <cmp> literal` shape skip
// per-row interpretation entirely.
void EvalProgramPredicateBatch(const ExprProgram& program,
                               const ColumnBatch& batch,
                               std::vector<uint32_t>* selection);

// Disassembly, one instruction per line ("r2 = gt r0, r1 : bool").
// `sources`/`schemas` (when given, parallel) render field loads by name.
std::string ProgramToString(const ExprProgram& program,
                            const std::vector<std::string>& sources = {},
                            const std::vector<SchemaPtr>& schemas = {});

}  // namespace scrub

#endif  // SRC_PLAN_EXPR_IR_H_
