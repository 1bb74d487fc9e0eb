// The test oracle for expression semantics: a direct recursive walk of the
// analyzer's Expr tree.
//
// The product evaluates expressions only as lowered ExprPrograms
// (src/plan/expr_ir.h). This walker resolves names itself — each qualifier
// against the query's source list, each field against the event's own
// schema — and shares nothing with that path except ApplyBinaryOp/
// ApplyUnaryOp, the single definition of every operator: no name
// resolution, no lowering, no constant folding, no conjunct pruning, no
// compare kernels. Tests evaluate both and demand identical values, so a
// bug in any of those layers shows up as a disagreement here.
//
// Semantics: events may be null only for sources the expression does not
// touch (loads from an absent source are null). Comparisons involving null
// are false except =/!= between nulls; arithmetic on null yields null. AND
// and OR coerce each side to a bool (anything but boolean true is false)
// and short-circuit. IN is false for a null probe. A name that does not
// resolve is a test bug and aborts.

#ifndef TESTS_TREE_EVAL_H_
#define TESTS_TREE_EVAL_H_

#include <cstdlib>
#include <string>
#include <vector>

#include "src/event/event.h"
#include "src/plan/expr_ir.h"
#include "src/query/ast.h"

namespace scrub {

// A joined tuple: one event per query source, indexed by source position.
using EventTuple = std::vector<const Event*>;

inline Value TreeEval(const Expr& expr,
                      const std::vector<std::string>& sources,
                      const EventTuple& tuple);

namespace tree_eval_internal {

inline bool Truthy(const Value& v) { return v.is_bool() && v.AsBool(); }

inline Value EvalBinary(const Expr& e, const std::vector<std::string>& sources,
                        const EventTuple& tuple) {
  const BinaryOp op = e.binary_op;
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    const bool l = Truthy(TreeEval(*e.children[0], sources, tuple));
    if (op == BinaryOp::kAnd && !l) {
      return Value(false);
    }
    if (op == BinaryOp::kOr && l) {
      return Value(true);
    }
    return Value(Truthy(TreeEval(*e.children[1], sources, tuple)));
  }
  return ApplyBinaryOp(op, TreeEval(*e.children[0], sources, tuple),
                       TreeEval(*e.children[1], sources, tuple));
}

inline Value EvalFieldRef(const Expr& e,
                          const std::vector<std::string>& sources,
                          const EventTuple& tuple) {
  size_t source = 0;
  while (source < sources.size() && sources[source] != e.qualifier) {
    ++source;
  }
  if (source == sources.size()) {
    std::abort();  // unresolved qualifier
  }
  const Event* event = tuple[source];
  if (event == nullptr) {
    return Value::Null();
  }
  if (e.field == kRequestIdField) {
    return Value(static_cast<int64_t>(event->request_id()));
  }
  if (e.field == kTimestampField) {
    return Value(static_cast<int64_t>(event->timestamp()));
  }
  const int index = event->schema()->FieldIndex(e.field);
  if (index < 0) {
    std::abort();  // unresolved field
  }
  const Value* v = &event->field(static_cast<size_t>(index));
  for (const std::string& step : e.path) {
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

}  // namespace tree_eval_internal

// Evaluates `expr` over a tuple whose slot i is an event of `sources[i]`.
inline Value TreeEval(const Expr& expr,
                      const std::vector<std::string>& sources,
                      const EventTuple& tuple) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kFieldRef:
      return tree_eval_internal::EvalFieldRef(expr, sources, tuple);
    case ExprKind::kUnary:
      return ApplyUnaryOp(expr.unary_op,
                          TreeEval(*expr.children[0], sources, tuple));
    case ExprKind::kBinary:
      return tree_eval_internal::EvalBinary(expr, sources, tuple);
    case ExprKind::kInList: {
      const Value probe = TreeEval(*expr.children[0], sources, tuple);
      if (probe.is_null()) {
        return Value(false);
      }
      for (size_t i = 1; i < expr.children.size(); ++i) {
        if (probe == expr.children[i]->literal) {
          return Value(true);
        }
      }
      return Value(false);
    }
    case ExprKind::kAggregate:
    case ExprKind::kStar:
      break;
  }
  std::abort();  // not a scalar expression
}

// One event, which is the expression's only source.
inline Value TreeEvalSingle(const Expr& expr, const Event& event) {
  return TreeEval(expr, {event.type_name()}, EventTuple{&event});
}

// True iff the expression evaluates to boolean true.
inline bool TreePredicate(const Expr& expr,
                          const std::vector<std::string>& sources,
                          const EventTuple& tuple) {
  return tree_eval_internal::Truthy(TreeEval(expr, sources, tuple));
}

inline bool TreePredicateSingle(const Expr& expr, const Event& event) {
  return tree_eval_internal::Truthy(TreeEvalSingle(expr, event));
}

}  // namespace scrub

#endif  // TESTS_TREE_EVAL_H_
