#include "src/plan/expr_ir.h"

#include <optional>
#include <utility>

#include "src/common/strings.h"
#include "src/plan/expr_analysis.h"
#include "src/plan/vectorized.h"

namespace scrub {

TypeMask FieldTypeMask(FieldType type) {
  switch (type) {
    case FieldType::kBool:
      return kMaskNull | kMaskBool;
    case FieldType::kInt:
    case FieldType::kLong:
    case FieldType::kDateTime:
      return kMaskNull | kMaskInt;
    case FieldType::kFloat:
    case FieldType::kDouble:
      return kMaskNull | kMaskDouble;
    case FieldType::kString:
      return kMaskNull | kMaskString;
    case FieldType::kBoolList:
    case FieldType::kIntList:
    case FieldType::kLongList:
    case FieldType::kFloatList:
    case FieldType::kDoubleList:
    case FieldType::kStringList:
      return kMaskNull | kMaskList;
    case FieldType::kObject:
      return kMaskNull | kMaskObject;
  }
  return kMaskAny;
}

TypeMask ValueTypeMask(const Value& v) {
  if (v.is_null()) {
    return kMaskNull;
  }
  if (v.is_bool()) {
    return kMaskBool;
  }
  if (v.is_int()) {
    return kMaskInt;
  }
  if (v.is_double()) {
    return kMaskDouble;
  }
  if (v.is_string()) {
    return kMaskString;
  }
  if (v.is_list()) {
    return kMaskList;
  }
  return kMaskObject;
}

std::string TypeMaskName(TypeMask mask) {
  if (mask == kMaskAny) {
    return "any";
  }
  static constexpr std::pair<TypeMask, const char*> kBits[] = {
      {kMaskNull, "null"},     {kMaskBool, "bool"}, {kMaskInt, "int"},
      {kMaskDouble, "double"}, {kMaskString, "string"}, {kMaskList, "list"},
      {kMaskObject, "object"},
  };
  std::string out;
  for (const auto& [bit, name] : kBits) {
    if ((mask & bit) != 0) {
      if (!out.empty()) {
        out += "|";
      }
      out += name;
    }
  }
  return out.empty() ? "none" : out;
}

const char* IrOpName(IrOp op) {
  switch (op) {
    case IrOp::kConst:
      return "const";
    case IrOp::kLoadField:
      return "load";
    case IrOp::kLoadRequestId:
      return "load_request_id";
    case IrOp::kLoadTimestamp:
      return "load_timestamp";
    case IrOp::kNeg:
      return "neg";
    case IrOp::kNot:
      return "not";
    case IrOp::kCoerceBool:
      return "coerce_bool";
    case IrOp::kAdd:
      return "add";
    case IrOp::kSub:
      return "sub";
    case IrOp::kMul:
      return "mul";
    case IrOp::kDiv:
      return "div";
    case IrOp::kEq:
      return "eq";
    case IrOp::kNe:
      return "ne";
    case IrOp::kLt:
      return "lt";
    case IrOp::kLe:
      return "le";
    case IrOp::kGt:
      return "gt";
    case IrOp::kGe:
      return "ge";
    case IrOp::kContains:
      return "contains";
    case IrOp::kInList:
      return "in_list";
    case IrOp::kJumpIfFalse:
      return "jump_if_false";
    case IrOp::kJumpIfTrue:
      return "jump_if_true";
  }
  return "?";
}

bool IsBinaryIrOp(IrOp op) {
  return op >= IrOp::kAdd && op <= IrOp::kContains;
}

BinaryOp BinaryOpOf(IrOp op) {
  switch (op) {
    case IrOp::kAdd:
      return BinaryOp::kAdd;
    case IrOp::kSub:
      return BinaryOp::kSub;
    case IrOp::kMul:
      return BinaryOp::kMul;
    case IrOp::kDiv:
      return BinaryOp::kDiv;
    case IrOp::kEq:
      return BinaryOp::kEq;
    case IrOp::kNe:
      return BinaryOp::kNe;
    case IrOp::kLt:
      return BinaryOp::kLt;
    case IrOp::kLe:
      return BinaryOp::kLe;
    case IrOp::kGt:
      return BinaryOp::kGt;
    case IrOp::kGe:
      return BinaryOp::kGe;
    default:
      return BinaryOp::kContains;
  }
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
      // Integer arithmetic wraps in two's complement. Event values are
      // outside input, and signed overflow would be undefined behaviour,
      // so the operation runs on the unsigned bit patterns.
      const auto a = static_cast<uint64_t>(lhs.AsInt());
      const auto b = static_cast<uint64_t>(rhs.AsInt());
      switch (op) {
        case BinaryOp::kAdd:
          return Value(static_cast<int64_t>(a + b));
        case BinaryOp::kSub:
          return Value(static_cast<int64_t>(a - b));
        case BinaryOp::kMul:
          return Value(static_cast<int64_t>(a * b));
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
      // Wraps like the binary operators: -INT64_MIN is INT64_MIN.
      return Value(static_cast<int64_t>(
          0 - static_cast<uint64_t>(operand.AsInt())));
    }
    return Value(-operand.AsDoubleExact());
  }
  return Value(!(operand.is_bool() && operand.AsBool()));
}

namespace {

IrOp IrOpOf(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return IrOp::kAdd;
    case BinaryOp::kSub:
      return IrOp::kSub;
    case BinaryOp::kMul:
      return IrOp::kMul;
    case BinaryOp::kDiv:
      return IrOp::kDiv;
    case BinaryOp::kEq:
      return IrOp::kEq;
    case BinaryOp::kNe:
      return IrOp::kNe;
    case BinaryOp::kLt:
      return IrOp::kLt;
    case BinaryOp::kLe:
      return IrOp::kLe;
    case BinaryOp::kGt:
      return IrOp::kGt;
    case BinaryOp::kGe:
      return IrOp::kGe;
    default:
      return IrOp::kContains;
  }
}

bool Truthy(const Value& v) { return v.is_bool() && v.AsBool(); }

int SourceIndexOf(const std::string& qualifier,
                  const std::vector<std::string>& sources) {
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i] == qualifier) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// Install-time evaluation of subtrees whose value does not depend on any
// event. Uses the interpreter's own operator implementations (and its AND/OR
// short-circuit rules: a constant-false AND operand or constant-true OR
// operand decides the result because operands are side-effect-free), so the
// fold cannot drift from runtime evaluation.
std::optional<Value> TryConstEval(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kUnary: {
      std::optional<Value> child = TryConstEval(*e.children[0]);
      if (!child.has_value()) {
        return std::nullopt;
      }
      return ApplyUnaryOp(e.unary_op, *child);
    }
    case ExprKind::kBinary: {
      const std::optional<Value> lhs = TryConstEval(*e.children[0]);
      const std::optional<Value> rhs = TryConstEval(*e.children[1]);
      if (e.binary_op == BinaryOp::kAnd) {
        if (lhs.has_value() && !Truthy(*lhs)) {
          return Value(false);
        }
        if (rhs.has_value() && !Truthy(*rhs)) {
          return Value(false);
        }
        if (lhs.has_value() && rhs.has_value()) {
          return Value(Truthy(*lhs) && Truthy(*rhs));
        }
        return std::nullopt;
      }
      if (e.binary_op == BinaryOp::kOr) {
        if (lhs.has_value() && Truthy(*lhs)) {
          return Value(true);
        }
        if (rhs.has_value() && Truthy(*rhs)) {
          return Value(true);
        }
        if (lhs.has_value() && rhs.has_value()) {
          return Value(Truthy(*lhs) || Truthy(*rhs));
        }
        return std::nullopt;
      }
      if (!lhs.has_value() || !rhs.has_value()) {
        return std::nullopt;
      }
      return ApplyBinaryOp(e.binary_op, *lhs, *rhs);
    }
    case ExprKind::kInList: {
      std::optional<Value> probe = TryConstEval(*e.children[0]);
      if (!probe.has_value()) {
        return std::nullopt;
      }
      if (probe->is_null()) {
        return Value(false);
      }
      for (size_t i = 1; i < e.children.size(); ++i) {
        if (*probe == e.children[i]->literal) {
          return Value(true);
        }
      }
      return Value(false);
    }
    case ExprKind::kFieldRef:
    case ExprKind::kAggregate:
    case ExprKind::kStar:
      break;
  }
  return std::nullopt;
}

class Lowering {
 public:
  Lowering(const std::vector<std::string>& sources,
           const std::vector<SchemaPtr>& schemas, bool fold)
      : sources_(sources), schemas_(schemas), fold_(fold) {
    program_.source_count =
        static_cast<uint16_t>(schemas.empty() ? 1 : schemas.size());
  }

  Result<ExprProgram> Run(const Expr& expr) {
    // The whole tree is checked up front: folding may drop a subtree from
    // the program, but a malformed one is still an analyzer bug.
    const Status checked = Check(expr);
    if (!checked.ok()) {
      return checked;
    }
    program_.result = Lower(expr);
    if (next_reg_ > UINT16_MAX) {
      return InvalidArgument(
          StrFormat("expression needs %u registers; at most %u fit a program",
                    next_reg_, static_cast<unsigned>(UINT16_MAX)));
    }
    program_.num_regs = static_cast<uint16_t>(next_reg_);
    return std::move(program_);
  }

 private:
  // Every reference resolves, every IN member is a literal, and no
  // aggregate or `*` reached scalar lowering.
  Status Check(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return OkStatus();
      case ExprKind::kFieldRef: {
        const int source = SourceIndexOf(e.qualifier, sources_);
        if (source < 0) {
          return InternalError(StrFormat(
              "unresolved qualifier '%s' (analyzer should have bound it)",
              e.qualifier.c_str()));
        }
        if (e.field == kRequestIdField || e.field == kTimestampField ||
            schemas_[static_cast<size_t>(source)]->FieldIndex(e.field) >= 0) {
          return OkStatus();
        }
        return InternalError(StrFormat(
            "field '%s' vanished from schema '%s'", e.field.c_str(),
            sources_[static_cast<size_t>(source)].c_str()));
      }
      case ExprKind::kAggregate:
        return InternalError(
            "aggregate reached the scalar expression compiler");
      case ExprKind::kStar:
        return InternalError("'*' reached the scalar expression compiler");
      case ExprKind::kUnary:
      case ExprKind::kBinary:
      case ExprKind::kInList:
        break;
    }
    for (size_t i = 0; i < e.children.size(); ++i) {
      if (e.kind == ExprKind::kInList && i > 0 &&
          e.children[i]->kind != ExprKind::kLiteral) {
        return InternalError("IN members must be literals");
      }
      const Status s = Check(*e.children[i]);
      if (!s.ok()) {
        return s;
      }
    }
    return OkStatus();
  }

  // Register numbers wrap past UINT16_MAX; Run rejects such a program
  // before anything reads them.
  uint16_t NewReg() { return static_cast<uint16_t>(next_reg_++); }

  uint16_t Emit(IrOp op, TypeMask types, uint16_t a = 0, uint16_t b = 0,
                int32_t imm = -1) {
    IrInst inst;
    inst.op = op;
    inst.types = types;
    inst.dst = NewReg();
    inst.a = a;
    inst.b = b;
    inst.imm = imm;
    program_.insts.push_back(inst);
    return inst.dst;
  }

  uint16_t EmitConst(Value v) {
    const TypeMask mask = ValueTypeMask(v);
    program_.consts.push_back(std::move(v));
    return Emit(IrOp::kConst, mask, 0, 0,
                static_cast<int32_t>(program_.consts.size()) - 1);
  }

  // Coerce-to-bool of an operand expression: the value both AND and OR
  // produce for each side.
  uint16_t LowerCoerced(const Expr& e, uint16_t dst) {
    const uint16_t r = Lower(e);
    IrInst inst;
    inst.op = IrOp::kCoerceBool;
    inst.types = kMaskBool;
    inst.dst = dst;
    inst.a = r;
    program_.insts.push_back(inst);
    return dst;
  }

  uint16_t Lower(const Expr& e) {
    if (fold_) {
      if (std::optional<Value> v = TryConstEval(e); v.has_value()) {
        return EmitConst(std::move(*v));
      }
    }
    switch (e.kind) {
      case ExprKind::kFieldRef: {
        const auto source =
            static_cast<uint16_t>(SourceIndexOf(e.qualifier, sources_));
        if (e.field == kRequestIdField) {
          return Emit(IrOp::kLoadRequestId, kMaskNull | kMaskInt, source);
        }
        if (e.field == kTimestampField) {
          return Emit(IrOp::kLoadTimestamp, kMaskNull | kMaskInt, source);
        }
        const EventSchema& schema = *schemas_[source];
        const auto field = static_cast<uint16_t>(schema.FieldIndex(e.field));
        int32_t path_index = -1;
        TypeMask mask = kMaskAny;  // nested descents are dynamically typed
        if (!e.path.empty()) {
          program_.paths.push_back(e.path);
          path_index = static_cast<int32_t>(program_.paths.size()) - 1;
        } else {
          mask = FieldTypeMask(schema.field(field).type);
        }
        return Emit(IrOp::kLoadField, mask, source, field, path_index);
      }
      case ExprKind::kUnary: {
        const uint16_t a = Lower(*e.children[0]);
        if (e.unary_op == UnaryOp::kNegate) {
          return Emit(IrOp::kNeg, kMaskNull | kMaskNumeric, a);
        }
        return Emit(IrOp::kNot, kMaskBool, a);
      }
      case ExprKind::kBinary:
        return LowerBinary(e);
      case ExprKind::kInList: {
        const uint16_t probe = Lower(*e.children[0]);
        std::vector<Value> members;
        members.reserve(e.children.size() - 1);
        for (size_t i = 1; i < e.children.size(); ++i) {
          members.push_back(e.children[i]->literal);
        }
        program_.lists.push_back(std::move(members));
        return Emit(IrOp::kInList, kMaskBool, probe, 0,
                    static_cast<int32_t>(program_.lists.size()) - 1);
      }
      case ExprKind::kLiteral:
        return EmitConst(e.literal);
      case ExprKind::kAggregate:
      case ExprKind::kStar:
        break;  // Check rejected these
    }
    return EmitConst(Value::Null());
  }

  uint16_t LowerBinary(const Expr& e) {
    const BinaryOp op = e.binary_op;
    const Expr& lhs = *e.children[0];
    const Expr& rhs = *e.children[1];
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      if (fold_) {
        // One constant side left (a deciding constant folded the whole node
        // in Lower): the result reduces to the other side coerced.
        const bool lhs_const = TryConstEval(lhs).has_value();
        if (lhs_const || TryConstEval(rhs).has_value()) {
          return LowerCoerced(lhs_const ? rhs : lhs, NewReg());
        }
      }
      // d <- coerce(lhs); short-circuit; d <- coerce(rhs). AND/OR always
      // produce a bool, built from each side coerced, and the jump only
      // skips the side that cannot matter.
      const uint16_t d = NewReg();
      LowerCoerced(lhs, d);
      const size_t jump_at = program_.insts.size();
      IrInst jump;
      jump.op = op == BinaryOp::kAnd ? IrOp::kJumpIfFalse : IrOp::kJumpIfTrue;
      jump.types = 0;
      jump.a = d;
      program_.insts.push_back(jump);
      LowerCoerced(rhs, d);
      program_.insts[jump_at].imm =
          static_cast<int32_t>(program_.insts.size());
      return d;
    }
    const uint16_t a = Lower(lhs);
    const uint16_t b = Lower(rhs);
    TypeMask mask = kMaskBool;
    if (IsArithmeticOp(op)) {
      mask = op == BinaryOp::kDiv ? (kMaskNull | kMaskDouble)
                                  : (kMaskNull | kMaskNumeric);
    }
    return Emit(IrOpOf(op), mask, a, b);
  }

  const std::vector<std::string>& sources_;
  const std::vector<SchemaPtr>& schemas_;
  const bool fold_;
  ExprProgram program_;
  uint32_t next_reg_ = 0;
};

}  // namespace

Result<ExprProgram> LowerExpr(const Expr& expr,
                              const std::vector<std::string>& sources,
                              const std::vector<SchemaPtr>& schemas,
                              bool fold) {
  Lowering lowering(sources, schemas, fold);
  Result<ExprProgram> program = lowering.Run(expr);
  if (!program.ok()) {
    return program;
  }
  const Status verdict = VerifyProgram(*program);
  if (!verdict.ok()) {
    return InternalError("IR verifier rejected a lowered program: " +
                         verdict.message());
  }
  return program;
}

// ---------------------------------------------------------------------------
// Execution.

namespace {

// Loaders bind the program's field references to one representation; the
// interpreter below is the single definition of every operator, so the row
// and columnar paths cannot diverge.
struct EventLoader {
  const Event* event;

  Value LoadField(uint16_t /*source*/, uint16_t field,
                  const std::vector<std::string>* path) const {
    const Value* v = &event->field(field);
    if (path != nullptr) {
      for (const std::string& step : *path) {
        if (!v->is_object()) {
          return Value::Null();
        }
        const Value* next = v->AsObject().Find(step);
        if (next == nullptr) {
          return Value::Null();
        }
        v = next;
      }
    }
    return *v;
  }
  Value LoadRequestId(uint16_t /*source*/) const {
    return Value(static_cast<int64_t>(event->request_id()));
  }
  Value LoadTimestamp(uint16_t /*source*/) const {
    return Value(static_cast<int64_t>(event->timestamp()));
  }
};

struct ColumnLoader {
  const ColumnBatch* batch;
  size_t row;

  Value LoadField(uint16_t /*source*/, uint16_t field,
                  const std::vector<std::string>* path) const {
    Value v = batch->ValueAt(field, row);
    if (path != nullptr) {
      for (const std::string& step : *path) {
        if (!v.is_object()) {
          return Value::Null();
        }
        const Value* next = v.AsObject().Find(step);
        if (next == nullptr) {
          return Value::Null();
        }
        Value descended = *next;
        v = std::move(descended);
      }
    }
    return v;
  }
  Value LoadRequestId(uint16_t /*source*/) const {
    return Value(static_cast<int64_t>(batch->request_id(row)));
  }
  Value LoadTimestamp(uint16_t /*source*/) const {
    return Value(static_cast<int64_t>(batch->timestamp(row)));
  }
};

// Join tuple: each present slot reads exactly what ColumnLoader would, so
// the join path cannot drift from the single-source columnar one.
struct MixedLoader {
  const TupleSlot* slots;

  Value LoadField(uint16_t source, uint16_t field,
                  const std::vector<std::string>* path) const {
    const TupleSlot& slot = slots[source];
    if (slot.batch != nullptr) {
      return ColumnLoader{slot.batch, slot.row}.LoadField(source, field,
                                                          path);
    }
    return Value::Null();
  }
  Value LoadRequestId(uint16_t source) const {
    const TupleSlot& slot = slots[source];
    if (slot.batch != nullptr) {
      return Value(static_cast<int64_t>(slot.batch->request_id(slot.row)));
    }
    return Value::Null();
  }
  Value LoadTimestamp(uint16_t source) const {
    const TupleSlot& slot = slots[source];
    if (slot.batch != nullptr) {
      return Value(static_cast<int64_t>(slot.batch->timestamp(slot.row)));
    }
    return Value::Null();
  }
};

template <typename Loader>
Value RunProgram(const ExprProgram& p, const Loader& loader, Value* regs) {
  const size_t n = p.insts.size();
  size_t pc = 0;
  while (pc < n) {
    const IrInst& in = p.insts[pc];
    switch (in.op) {
      case IrOp::kConst:
        regs[in.dst] = p.consts[static_cast<size_t>(in.imm)];
        break;
      case IrOp::kLoadField:
        regs[in.dst] = loader.LoadField(
            in.a, in.b,
            in.imm < 0 ? nullptr : &p.paths[static_cast<size_t>(in.imm)]);
        break;
      case IrOp::kLoadRequestId:
        regs[in.dst] = loader.LoadRequestId(in.a);
        break;
      case IrOp::kLoadTimestamp:
        regs[in.dst] = loader.LoadTimestamp(in.a);
        break;
      case IrOp::kNeg:
        regs[in.dst] = ApplyUnaryOp(UnaryOp::kNegate, regs[in.a]);
        break;
      case IrOp::kNot:
        regs[in.dst] = ApplyUnaryOp(UnaryOp::kNot, regs[in.a]);
        break;
      case IrOp::kCoerceBool:
        regs[in.dst] = Value(Truthy(regs[in.a]));
        break;
      case IrOp::kInList: {
        const Value& probe = regs[in.a];
        bool hit = false;
        if (!probe.is_null()) {
          for (const Value& member : p.lists[static_cast<size_t>(in.imm)]) {
            if (probe == member) {
              hit = true;
              break;
            }
          }
        }
        regs[in.dst] = Value(hit);
        break;
      }
      case IrOp::kJumpIfFalse:
        if (!Truthy(regs[in.a])) {
          pc = static_cast<size_t>(in.imm);
          continue;
        }
        break;
      case IrOp::kJumpIfTrue:
        if (Truthy(regs[in.a])) {
          pc = static_cast<size_t>(in.imm);
          continue;
        }
        break;
      default:
        regs[in.dst] = ApplyBinaryOp(BinaryOpOf(in.op), regs[in.a],
                                     regs[in.b]);
        break;
    }
    ++pc;
  }
  return regs[p.result];
}

constexpr size_t kInlineRegs = 16;

template <typename Loader>
Value RunWithScratch(const ExprProgram& p, const Loader& loader) {
  // A lone load into the result register (the common group-key, aggregate
  // argument and select shape) returns the loader's value as RunProgram
  // would leave it, without building the register file.
  if (p.insts.size() == 1 && p.insts[0].dst == p.result) {
    const IrInst& in = p.insts[0];
    switch (in.op) {
      case IrOp::kLoadField:
        return loader.LoadField(
            in.a, in.b,
            in.imm < 0 ? nullptr : &p.paths[static_cast<size_t>(in.imm)]);
      case IrOp::kLoadRequestId:
        return loader.LoadRequestId(in.a);
      case IrOp::kLoadTimestamp:
        return loader.LoadTimestamp(in.a);
      default:
        break;
    }
  }
  if (p.num_regs <= kInlineRegs) {
    Value regs[kInlineRegs];
    return RunProgram(p, loader, regs);
  }
  std::vector<Value> regs(p.num_regs);
  return RunProgram(p, loader, regs.data());
}

}  // namespace

Value EvalProgramSingle(const ExprProgram& program, const Event& event) {
  return RunWithScratch(program, EventLoader{&event});
}

bool EvalProgramPredicateSingle(const ExprProgram& program,
                                const Event& event) {
  return Truthy(EvalProgramSingle(program, event));
}

Value EvalProgramColumns(const ExprProgram& program, const ColumnBatch& batch,
                         size_t row) {
  return RunWithScratch(program, ColumnLoader{&batch, row});
}

Value EvalProgramMixed(const ExprProgram& program,
                       std::span<const TupleSlot> slots) {
  return RunWithScratch(program, MixedLoader{slots.data()});
}

namespace {

// `field <cmp> literal` (either operand order): extract the shape from the
// lowered program and hand it to the shared branch-free selection-vector
// kernel (RunCompareKernel), which covers typed numeric, string, and
// dictionary columns and probes null semantics through ApplyBinaryOp, so
// the kernel cannot drift from the interpreter.
bool TryProgramCompareKernel(const ExprProgram& p, const ColumnBatch& batch,
                             std::vector<uint32_t>* selection) {
  if (p.insts.size() != 3) {
    return false;
  }
  const IrInst& cmp = p.insts[2];
  if (!IsBinaryIrOp(cmp.op) || !IsComparisonOp(BinaryOpOf(cmp.op)) ||
      cmp.dst != p.result) {
    return false;
  }
  const IrInst& def_a = p.insts[cmp.a == p.insts[0].dst ? 0 : 1];
  const IrInst& def_b = p.insts[cmp.b == p.insts[0].dst ? 0 : 1];
  const IrInst* load = nullptr;
  const IrInst* konst = nullptr;
  bool field_on_lhs = false;
  if (def_a.op == IrOp::kLoadField && def_b.op == IrOp::kConst) {
    load = &def_a;
    konst = &def_b;
    field_on_lhs = true;
  } else if (def_a.op == IrOp::kConst && def_b.op == IrOp::kLoadField) {
    load = &def_b;
    konst = &def_a;
  } else {
    return false;
  }
  if (load->a != 0 || load->imm >= 0) {
    return false;
  }
  return RunCompareKernel(batch, load->b, BinaryOpOf(cmp.op),
                          p.consts[static_cast<size_t>(konst->imm)],
                          field_on_lhs, selection);
}

}  // namespace

void EvalProgramPredicateBatch(const ExprProgram& program,
                               const ColumnBatch& batch,
                               std::vector<uint32_t>* selection) {
  // Folded programs decide the whole batch without touching a row.
  if (program.insts.size() == 1 && program.insts[0].op == IrOp::kConst) {
    if (!Truthy(program.consts[static_cast<size_t>(program.insts[0].imm)])) {
      selection->clear();
    }
    return;
  }
  if (TryProgramCompareKernel(program, batch, selection)) {
    return;
  }
  std::vector<Value> heap_regs;
  Value inline_regs[kInlineRegs];
  Value* regs = inline_regs;
  if (program.num_regs > kInlineRegs) {
    heap_regs.resize(program.num_regs);
    regs = heap_regs.data();
  }
  size_t kept = 0;
  for (const uint32_t r : *selection) {
    if (Truthy(RunProgram(program, ColumnLoader{&batch, r}, regs))) {
      (*selection)[kept++] = r;
    }
  }
  selection->resize(kept);
}

std::string ProgramToString(const ExprProgram& program,
                            const std::vector<std::string>& sources,
                            const std::vector<SchemaPtr>& schemas) {
  std::string out;
  for (size_t i = 0; i < program.insts.size(); ++i) {
    const IrInst& in = program.insts[i];
    std::string line = StrFormat("%2zu: ", i);
    switch (in.op) {
      case IrOp::kConst:
        line += StrFormat(
            "r%u = const %s", in.dst,
            program.consts[static_cast<size_t>(in.imm)].ToString().c_str());
        break;
      case IrOp::kLoadField: {
        std::string name;
        if (in.a < schemas.size() && in.b < schemas[in.a]->field_count()) {
          name = (in.a < sources.size() ? sources[in.a] + "."
                                        : StrFormat("s%u.", in.a)) +
                 schemas[in.a]->field(in.b).name;
        } else {
          name = StrFormat("s%u.f%u", in.a, in.b);
        }
        if (in.imm >= 0) {
          for (const std::string& step :
               program.paths[static_cast<size_t>(in.imm)]) {
            name += "." + step;
          }
        }
        line += StrFormat("r%u = load %s", in.dst, name.c_str());
        break;
      }
      case IrOp::kLoadRequestId:
      case IrOp::kLoadTimestamp:
        line += StrFormat("r%u = %s s%u", in.dst, IrOpName(in.op), in.a);
        break;
      case IrOp::kNeg:
      case IrOp::kNot:
      case IrOp::kCoerceBool:
        line += StrFormat("r%u = %s r%u", in.dst, IrOpName(in.op), in.a);
        break;
      case IrOp::kInList: {
        std::string members;
        for (const Value& m : program.lists[static_cast<size_t>(in.imm)]) {
          if (!members.empty()) {
            members += ", ";
          }
          members += m.ToString();
        }
        line += StrFormat("r%u = in_list r%u (%s)", in.dst, in.a,
                          members.c_str());
        break;
      }
      case IrOp::kJumpIfFalse:
      case IrOp::kJumpIfTrue:
        line += StrFormat("%s r%u -> %d", IrOpName(in.op), in.a, in.imm);
        break;
      default:
        line += StrFormat("r%u = %s r%u, r%u", in.dst, IrOpName(in.op), in.a,
                          in.b);
        break;
    }
    if (in.types != 0) {
      line += " : " + TypeMaskName(in.types);
    }
    out += line + "\n";
  }
  out += StrFormat("result: r%u\n", program.result);
  return out;
}

}  // namespace scrub
