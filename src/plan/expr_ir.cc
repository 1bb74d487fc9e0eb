#include "src/plan/expr_ir.h"

#include <cstdio>
#include <cstdlib>
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

// Install-time evaluation of subtrees whose value does not depend on any
// event. Uses the interpreter's own operator implementations (and its AND/OR
// short-circuit rules: a constant-false AND operand or constant-true OR
// operand decides the result because operands are side-effect-free), so the
// fold cannot drift from runtime evaluation.
std::optional<Value> TryConstEval(const CompiledExpr& e) {
  switch (e.kind) {
    case CompiledKind::kLiteral:
      return e.literal;
    case CompiledKind::kField:
    case CompiledKind::kRequestId:
    case CompiledKind::kTimestamp:
      return std::nullopt;
    case CompiledKind::kUnary: {
      std::optional<Value> child = TryConstEval(e.children[0]);
      if (!child.has_value()) {
        return std::nullopt;
      }
      return ApplyUnaryOp(e.unary_op, *child);
    }
    case CompiledKind::kBinary: {
      const std::optional<Value> lhs = TryConstEval(e.children[0]);
      const std::optional<Value> rhs = TryConstEval(e.children[1]);
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
    case CompiledKind::kInList: {
      std::optional<Value> probe = TryConstEval(e.children[0]);
      if (!probe.has_value()) {
        return std::nullopt;
      }
      if (probe->is_null()) {
        return Value(false);
      }
      for (const Value& member : e.in_list) {
        if (*probe == member) {
          return Value(true);
        }
      }
      return Value(false);
    }
  }
  return std::nullopt;
}

class Lowering {
 public:
  Lowering(const std::vector<SchemaPtr>& schemas, bool fold)
      : schemas_(schemas), fold_(fold) {
    program_.source_count =
        static_cast<uint16_t>(schemas.empty() ? 1 : schemas.size());
  }

  ExprProgram Run(const CompiledExpr& expr) {
    program_.result = Lower(expr);
    program_.num_regs = next_reg_;
    return std::move(program_);
  }

 private:
  uint16_t NewReg() { return next_reg_++; }

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
  uint16_t LowerCoerced(const CompiledExpr& e, uint16_t dst) {
    const uint16_t r = Lower(e);
    IrInst inst;
    inst.op = IrOp::kCoerceBool;
    inst.types = kMaskBool;
    inst.dst = dst;
    inst.a = r;
    program_.insts.push_back(inst);
    return dst;
  }

  uint16_t Lower(const CompiledExpr& e) {
    if (fold_) {
      if (std::optional<Value> v = TryConstEval(e); v.has_value()) {
        return EmitConst(std::move(*v));
      }
    }
    switch (e.kind) {
      case CompiledKind::kLiteral:
        return EmitConst(e.literal);
      case CompiledKind::kField: {
        int32_t path_index = -1;
        TypeMask mask = kMaskAny;  // nested descents are dynamically typed
        if (!e.path.empty()) {
          program_.paths.push_back(e.path);
          path_index = static_cast<int32_t>(program_.paths.size()) - 1;
        } else if (static_cast<size_t>(e.source) < schemas_.size() &&
                   static_cast<size_t>(e.field_index) <
                       schemas_[static_cast<size_t>(e.source)]
                           ->field_count()) {
          mask = FieldTypeMask(schemas_[static_cast<size_t>(e.source)]
                                   ->field(static_cast<size_t>(e.field_index))
                                   .type);
        }
        return Emit(IrOp::kLoadField, mask, static_cast<uint16_t>(e.source),
                    static_cast<uint16_t>(e.field_index), path_index);
      }
      case CompiledKind::kRequestId:
        return Emit(IrOp::kLoadRequestId, kMaskNull | kMaskInt,
                    static_cast<uint16_t>(e.source));
      case CompiledKind::kTimestamp:
        return Emit(IrOp::kLoadTimestamp, kMaskNull | kMaskInt,
                    static_cast<uint16_t>(e.source));
      case CompiledKind::kUnary: {
        const uint16_t a = Lower(e.children[0]);
        if (e.unary_op == UnaryOp::kNegate) {
          return Emit(IrOp::kNeg, kMaskNull | kMaskNumeric, a);
        }
        return Emit(IrOp::kNot, kMaskBool, a);
      }
      case CompiledKind::kBinary:
        return LowerBinary(e);
      case CompiledKind::kInList: {
        const uint16_t probe = Lower(e.children[0]);
        program_.lists.push_back(e.in_list);
        return Emit(IrOp::kInList, kMaskBool, probe, 0,
                    static_cast<int32_t>(program_.lists.size()) - 1);
      }
    }
    return EmitConst(Value::Null());
  }

  uint16_t LowerBinary(const CompiledExpr& e) {
    const BinaryOp op = e.binary_op;
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      if (fold_) {
        // One constant side left (a deciding constant folded the whole node
        // in Lower): the result reduces to the other side coerced.
        const std::optional<Value> lhs = TryConstEval(e.children[0]);
        const std::optional<Value> rhs = TryConstEval(e.children[1]);
        if (lhs.has_value() || rhs.has_value()) {
          const CompiledExpr& live =
              lhs.has_value() ? e.children[1] : e.children[0];
          return LowerCoerced(live, NewReg());
        }
      }
      // d <- coerce(lhs); short-circuit; d <- coerce(rhs). AND/OR always
      // produce a bool, built from each side coerced, and the jump only
      // skips the side that cannot matter.
      const uint16_t d = NewReg();
      LowerCoerced(e.children[0], d);
      const size_t jump_at = program_.insts.size();
      IrInst jump;
      jump.op = op == BinaryOp::kAnd ? IrOp::kJumpIfFalse : IrOp::kJumpIfTrue;
      jump.types = 0;
      jump.a = d;
      program_.insts.push_back(jump);
      LowerCoerced(e.children[1], d);
      program_.insts[jump_at].imm =
          static_cast<int32_t>(program_.insts.size());
      return d;
    }
    const uint16_t a = Lower(e.children[0]);
    const uint16_t b = Lower(e.children[1]);
    TypeMask mask = kMaskBool;
    if (IsArithmeticOp(op)) {
      mask = op == BinaryOp::kDiv ? (kMaskNull | kMaskDouble)
                                  : (kMaskNull | kMaskNumeric);
    }
    return Emit(IrOpOf(op), mask, a, b);
  }

  const std::vector<SchemaPtr>& schemas_;
  const bool fold_;
  ExprProgram program_;
  uint16_t next_reg_ = 0;
};

}  // namespace

ExprProgram LowerExpr(const CompiledExpr& expr,
                      const std::vector<SchemaPtr>& schemas, bool fold) {
  Lowering lowering(schemas, fold);
  ExprProgram program = lowering.Run(expr);
  const Status verdict = VerifyProgram(program);
  if (!verdict.ok()) {
#if !defined(NDEBUG) || defined(SCRUB_IR_VERIFY)
    std::fprintf(stderr, "IR verifier rejected a lowered program: %s\n%s",
                 verdict.ToString().c_str(),
                 ProgramToString(program).c_str());
    std::abort();
#endif
  }
  return program;
}

// ---------------------------------------------------------------------------
// Execution.

namespace {

// Loaders bind the program's field references to one representation; the
// interpreter below is the single definition of every operator, so the row
// and columnar paths cannot diverge.
struct TupleLoader {
  std::span<const Event* const> tuple;

  Value LoadField(uint16_t source, uint16_t field,
                  const std::vector<std::string>* path) const {
    const Event* event = tuple[source];
    if (event == nullptr) {
      return Value::Null();
    }
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
  Value LoadRequestId(uint16_t source) const {
    const Event* event = tuple[source];
    return event == nullptr
               ? Value::Null()
               : Value(static_cast<int64_t>(event->request_id()));
  }
  Value LoadTimestamp(uint16_t source) const {
    const Event* event = tuple[source];
    return event == nullptr
               ? Value::Null()
               : Value(static_cast<int64_t>(event->timestamp()));
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

// Mixed join tuple: each slot delegates to the loader matching its
// representation, so a columnar slot reads exactly what ColumnLoader would
// and a row slot exactly what TupleLoader would — the mixed path cannot
// drift from either.
struct MixedLoader {
  const TupleSlot* slots;

  Value LoadField(uint16_t source, uint16_t field,
                  const std::vector<std::string>* path) const {
    const TupleSlot& slot = slots[source];
    if (slot.batch != nullptr) {
      return ColumnLoader{slot.batch, slot.row}.LoadField(source, field,
                                                          path);
    }
    if (slot.event == nullptr) {
      return Value::Null();
    }
    const Value* v = &slot.event->field(field);
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
  Value LoadRequestId(uint16_t source) const {
    const TupleSlot& slot = slots[source];
    if (slot.batch != nullptr) {
      return Value(static_cast<int64_t>(slot.batch->request_id(slot.row)));
    }
    return slot.event == nullptr
               ? Value::Null()
               : Value(static_cast<int64_t>(slot.event->request_id()));
  }
  Value LoadTimestamp(uint16_t source) const {
    const TupleSlot& slot = slots[source];
    if (slot.batch != nullptr) {
      return Value(static_cast<int64_t>(slot.batch->timestamp(slot.row)));
    }
    return slot.event == nullptr
               ? Value::Null()
               : Value(static_cast<int64_t>(slot.event->timestamp()));
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
  if (p.num_regs <= kInlineRegs) {
    Value regs[kInlineRegs];
    return RunProgram(p, loader, regs);
  }
  std::vector<Value> regs(p.num_regs);
  return RunProgram(p, loader, regs.data());
}

}  // namespace

Value EvalProgram(const ExprProgram& program, const EventTuple& tuple) {
  return RunWithScratch(program, TupleLoader{tuple});
}

Value EvalProgramSingle(const ExprProgram& program, const Event& event) {
  const Event* const one = &event;
  return RunWithScratch(program, TupleLoader{{&one, 1}});
}

bool EvalProgramPredicate(const ExprProgram& program,
                          const EventTuple& tuple) {
  return Truthy(EvalProgram(program, tuple));
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

bool EvalProgramPredicateColumns(const ExprProgram& program,
                                 const ColumnBatch& batch, size_t row) {
  return Truthy(EvalProgramColumns(program, batch, row));
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
