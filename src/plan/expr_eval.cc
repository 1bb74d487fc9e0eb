#include "src/plan/expr_eval.h"

#include "src/common/strings.h"

namespace scrub {
namespace {

int SourceIndexOf(const std::string& qualifier,
                  const std::vector<std::string>& sources) {
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i] == qualifier) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace

Result<CompiledExpr> CompileExpr(const Expr& expr,
                                 const std::vector<std::string>& sources,
                                 const std::vector<SchemaPtr>& schemas) {
  CompiledExpr out;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      out.kind = CompiledKind::kLiteral;
      out.literal = expr.literal;
      return out;
    case ExprKind::kFieldRef: {
      const int src = SourceIndexOf(expr.qualifier, sources);
      if (src < 0) {
        return InternalError(StrFormat(
            "unresolved qualifier '%s' (analyzer should have bound it)",
            expr.qualifier.c_str()));
      }
      out.source = src;
      if (expr.field == kRequestIdField) {
        out.kind = CompiledKind::kRequestId;
        return out;
      }
      if (expr.field == kTimestampField) {
        out.kind = CompiledKind::kTimestamp;
        return out;
      }
      const int idx = schemas[static_cast<size_t>(src)]->FieldIndex(expr.field);
      if (idx < 0) {
        return InternalError(StrFormat("field '%s' vanished from schema '%s'",
                                       expr.field.c_str(),
                                       sources[static_cast<size_t>(src)].c_str()));
      }
      out.kind = CompiledKind::kField;
      out.field_index = idx;
      out.path = expr.path;
      out.node_count += static_cast<int>(expr.path.size());
      return out;
    }
    case ExprKind::kUnary: {
      out.kind = CompiledKind::kUnary;
      out.unary_op = expr.unary_op;
      Result<CompiledExpr> child =
          CompileExpr(*expr.children[0], sources, schemas);
      if (!child.ok()) {
        return child;
      }
      out.node_count += child->node_count;
      out.children.push_back(std::move(child).value());
      return out;
    }
    case ExprKind::kBinary: {
      out.kind = CompiledKind::kBinary;
      out.binary_op = expr.binary_op;
      for (const ExprPtr& c : expr.children) {
        Result<CompiledExpr> child = CompileExpr(*c, sources, schemas);
        if (!child.ok()) {
          return child;
        }
        out.node_count += child->node_count;
        out.children.push_back(std::move(child).value());
      }
      return out;
    }
    case ExprKind::kInList: {
      out.kind = CompiledKind::kInList;
      Result<CompiledExpr> probe =
          CompileExpr(*expr.children[0], sources, schemas);
      if (!probe.ok()) {
        return probe;
      }
      out.node_count += probe->node_count;
      out.children.push_back(std::move(probe).value());
      for (size_t i = 1; i < expr.children.size(); ++i) {
        if (expr.children[i]->kind != ExprKind::kLiteral) {
          return InternalError("IN members must be literals");
        }
        out.in_list.push_back(expr.children[i]->literal);
        ++out.node_count;
      }
      return out;
    }
    case ExprKind::kAggregate:
      return InternalError(
          "aggregate reached the scalar expression compiler");
    case ExprKind::kStar:
      return InternalError("'*' reached the scalar expression compiler");
  }
  return InternalError("unhandled expression kind");
}

Value ApplyBinaryOp(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    const bool l = lhs.is_bool() && lhs.AsBool();
    const bool r = rhs.is_bool() && rhs.AsBool();
    return Value(op == BinaryOp::kAnd ? (l && r) : (l || r));
  }
  if (op == BinaryOp::kContains) {
    if (!lhs.is_list()) {
      return Value(false);
    }
    for (const Value& item : lhs.AsList()) {
      if (item == rhs) {
        return Value(true);
      }
    }
    return Value(false);
  }

  if (IsArithmeticOp(op)) {
    if (!lhs.is_numeric() || !rhs.is_numeric()) {
      return Value::Null();
    }
    const bool integral = lhs.is_int() && rhs.is_int();
    if (integral && op != BinaryOp::kDiv) {
      const int64_t a = lhs.AsInt();
      const int64_t b = rhs.AsInt();
      switch (op) {
        case BinaryOp::kAdd:
          return Value(a + b);
        case BinaryOp::kSub:
          return Value(a - b);
        case BinaryOp::kMul:
          return Value(a * b);
        default:
          break;
      }
    }
    const double a = lhs.AsNumber();
    const double b = rhs.AsNumber();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(a + b);
      case BinaryOp::kSub:
        return Value(a - b);
      case BinaryOp::kMul:
        return Value(a * b);
      case BinaryOp::kDiv:
        if (b == 0.0) {
          return Value::Null();
        }
        return Value(a / b);
      default:
        break;
    }
    return Value::Null();
  }

  // Comparisons: null never matches (except = / != treat two nulls equal).
  if (lhs.is_null() || rhs.is_null()) {
    if (op == BinaryOp::kEq) {
      return Value(lhs.is_null() && rhs.is_null());
    }
    if (op == BinaryOp::kNe) {
      return Value(lhs.is_null() != rhs.is_null());
    }
    return Value(false);
  }
  switch (op) {
    case BinaryOp::kEq:
      return Value(lhs == rhs);
    case BinaryOp::kNe:
      return Value(lhs != rhs);
    case BinaryOp::kLt:
      return Value(lhs.Compare(rhs) < 0);
    case BinaryOp::kLe:
      return Value(lhs.Compare(rhs) <= 0);
    case BinaryOp::kGt:
      return Value(lhs.Compare(rhs) > 0);
    case BinaryOp::kGe:
      return Value(lhs.Compare(rhs) >= 0);
    default:
      break;
  }
  return Value::Null();
}

Value ApplyUnaryOp(UnaryOp op, const Value& operand) {
  if (op == UnaryOp::kNegate) {
    if (!operand.is_numeric()) {
      return Value::Null();
    }
    if (operand.is_int()) {
      return Value(-operand.AsInt());
    }
    return Value(-operand.AsDoubleExact());
  }
  return Value(!(operand.is_bool() && operand.AsBool()));
}

}  // namespace scrub
