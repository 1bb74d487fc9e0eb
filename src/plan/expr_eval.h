// Expression compilation: the build-time front end of the typed IR.
//
// The analyzer's AST is convenient for validation but references fields by
// name. CompileExpr resolves it into a tree whose field references carry
// pre-resolved (source index, field index) pairs and whose node count is the
// query object's predicate size on the wire. Nothing evaluates this tree in
// the product: LowerExpr (expr_ir.h) flattens it into the ExprProgram that
// agents, central and the baselines execute, and lint inspects it on the way
// there. ApplyBinaryOp/ApplyUnaryOp are the single definition of every
// operator, shared by the IR interpreter, the compare kernels, constant
// folding and central's output expressions.

#ifndef SRC_PLAN_EXPR_EVAL_H_
#define SRC_PLAN_EXPR_EVAL_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/event/event.h"
#include "src/query/ast.h"

namespace scrub {

// A joined tuple: one event per query source, indexed by source position.
using EventTuple = std::vector<const Event*>;

enum class CompiledKind {
  kLiteral,
  kField,      // user field, by index
  kRequestId,  // system field
  kTimestamp,  // system field
  kUnary,
  kBinary,
  kInList,
};

struct CompiledExpr {
  CompiledKind kind = CompiledKind::kLiteral;
  Value literal;
  int source = 0;       // kField/kRequestId/kTimestamp
  int field_index = 0;  // kField
  std::vector<std::string> path;  // kField: descent into a nested object
  UnaryOp unary_op = UnaryOp::kNegate;
  BinaryOp binary_op = BinaryOp::kAdd;
  std::vector<CompiledExpr> children;  // operands; for kInList: [probe]
  std::vector<Value> in_list;          // kInList members

  // Number of nodes in this subtree (cost accounting).
  int node_count = 1;
};

// Compiles a type-checked expression (no aggregates) against the query's
// source list. FieldRef qualifiers must already be canonicalized by the
// analyzer. Fails on aggregate nodes.
Result<CompiledExpr> CompileExpr(const Expr& expr,
                                 const std::vector<std::string>& sources,
                                 const std::vector<SchemaPtr>& schemas);

// Operator semantics shared with output-expression evaluation at
// ScrubCentral (e.g. 1000 * AVG(cost) over finalized aggregates).
// No short-circuiting; null propagates through arithmetic and fails
// comparisons (except =/!= against another null).
Value ApplyBinaryOp(BinaryOp op, const Value& lhs, const Value& rhs);
Value ApplyUnaryOp(UnaryOp op, const Value& operand);

}  // namespace scrub

#endif  // SRC_PLAN_EXPR_EVAL_H_
