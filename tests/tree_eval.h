// The test oracle for expression semantics: a direct recursive walk of a
// CompiledExpr tree.
//
// The product evaluates expressions only as lowered ExprPrograms
// (src/plan/expr_ir.h). This walker shares nothing with that path except
// CompileExpr's tree and ApplyBinaryOp/ApplyUnaryOp, the single definition
// of every operator — no lowering, no constant folding, no conjunct pruning,
// no compare kernels. Tests evaluate both and demand identical values, so a
// bug in any of those layers shows up as a disagreement here.
//
// Semantics: events may be null only for sources the expression does not
// touch (loads from an absent source are null). Comparisons involving null
// are false except =/!= between nulls; arithmetic on null yields null. AND
// and OR coerce each side to a bool (anything but boolean true is false)
// and short-circuit. IN is false for a null probe.

#ifndef TESTS_TREE_EVAL_H_
#define TESTS_TREE_EVAL_H_

#include <string>

#include "src/event/event.h"
#include "src/plan/expr_eval.h"

namespace scrub {

inline Value TreeEval(const CompiledExpr& expr, const EventTuple& tuple);

namespace tree_eval_internal {

inline bool Truthy(const Value& v) { return v.is_bool() && v.AsBool(); }

inline Value EvalBinary(const CompiledExpr& e, const EventTuple& tuple) {
  const BinaryOp op = e.binary_op;
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    const bool l = Truthy(TreeEval(e.children[0], tuple));
    if (op == BinaryOp::kAnd && !l) {
      return Value(false);
    }
    if (op == BinaryOp::kOr && l) {
      return Value(true);
    }
    return Value(Truthy(TreeEval(e.children[1], tuple)));
  }
  return ApplyBinaryOp(op, TreeEval(e.children[0], tuple),
                       TreeEval(e.children[1], tuple));
}

}  // namespace tree_eval_internal

inline Value TreeEval(const CompiledExpr& expr, const EventTuple& tuple) {
  switch (expr.kind) {
    case CompiledKind::kLiteral:
      return expr.literal;
    case CompiledKind::kField: {
      const Event* event = tuple[static_cast<size_t>(expr.source)];
      if (event == nullptr) {
        return Value::Null();
      }
      const Value* v = &event->field(static_cast<size_t>(expr.field_index));
      for (const std::string& step : expr.path) {
        if (!v->is_object()) {
          return Value::Null();
        }
        const Value* next = v->AsObject().Find(step);
        if (next == nullptr) {
          return Value::Null();
        }
        v = next;
      }
      return *v;
    }
    case CompiledKind::kRequestId: {
      const Event* event = tuple[static_cast<size_t>(expr.source)];
      return event == nullptr
                 ? Value::Null()
                 : Value(static_cast<int64_t>(event->request_id()));
    }
    case CompiledKind::kTimestamp: {
      const Event* event = tuple[static_cast<size_t>(expr.source)];
      return event == nullptr
                 ? Value::Null()
                 : Value(static_cast<int64_t>(event->timestamp()));
    }
    case CompiledKind::kUnary:
      return ApplyUnaryOp(expr.unary_op, TreeEval(expr.children[0], tuple));
    case CompiledKind::kBinary:
      return tree_eval_internal::EvalBinary(expr, tuple);
    case CompiledKind::kInList: {
      const Value probe = TreeEval(expr.children[0], tuple);
      if (probe.is_null()) {
        return Value(false);
      }
      for (const Value& member : expr.in_list) {
        if (probe == member) {
          return Value(true);
        }
      }
      return Value(false);
    }
  }
  return Value::Null();
}

inline Value TreeEvalSingle(const CompiledExpr& expr, const Event& event) {
  return TreeEval(expr, EventTuple{&event});
}

// True iff the expression evaluates to boolean true.
inline bool TreePredicate(const CompiledExpr& expr, const EventTuple& tuple) {
  return tree_eval_internal::Truthy(TreeEval(expr, tuple));
}

inline bool TreePredicateSingle(const CompiledExpr& expr, const Event& event) {
  return TreePredicate(expr, EventTuple{&event});
}

}  // namespace scrub

#endif  // TESTS_TREE_EVAL_H_
