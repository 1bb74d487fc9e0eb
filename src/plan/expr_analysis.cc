#include "src/plan/expr_analysis.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "src/common/strings.h"

namespace scrub {

namespace {

bool Truthy(const Value& v) { return v.is_bool() && v.AsBool(); }

bool IsJumpOp(IrOp op) {
  return op == IrOp::kJumpIfFalse || op == IrOp::kJumpIfTrue;
}

// Instructions whose destination is a bool by construction.
bool ProducesBool(IrOp op) {
  switch (op) {
    case IrOp::kNot:
    case IrOp::kCoerceBool:
    case IrOp::kEq:
    case IrOp::kNe:
    case IrOp::kLt:
    case IrOp::kLe:
    case IrOp::kGt:
    case IrOp::kGe:
    case IrOp::kContains:
    case IrOp::kInList:
      return true;
    default:
      return false;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Verifier.

Status VerifyProgram(const ExprProgram& p) {
  if (p.insts.empty()) {
    return InvalidArgument("ir: empty program");
  }
  if (p.result >= p.num_regs) {
    return InvalidArgument(StrFormat("ir: result register r%u out of range",
                                     p.result));
  }
  std::vector<bool> defined(p.num_regs, false);
  const auto use = [&](size_t i, uint16_t r) -> Status {
    if (r >= p.num_regs) {
      return InvalidArgument(
          StrFormat("ir: inst %zu reads register r%u out of range", i, r));
    }
    if (!defined[r]) {
      return InvalidArgument(
          StrFormat("ir: inst %zu reads r%u before any definition", i, r));
    }
    return OkStatus();
  };
  for (size_t i = 0; i < p.insts.size(); ++i) {
    const IrInst& in = p.insts[i];
    if (IsJumpOp(in.op)) {
      if (in.types != 0) {
        return InvalidArgument(
            StrFormat("ir: inst %zu: jump carries a type tag", i));
      }
      if (Status s = use(i, in.a); !s.ok()) {
        return s;
      }
      if (in.imm <= static_cast<int32_t>(i) ||
          in.imm > static_cast<int32_t>(p.insts.size())) {
        return InvalidArgument(StrFormat(
            "ir: inst %zu: jump target %d not forward and in bounds", i,
            in.imm));
      }
      continue;
    }
    if (in.dst >= p.num_regs) {
      return InvalidArgument(
          StrFormat("ir: inst %zu writes register r%u out of range", i,
                    in.dst));
    }
    if (in.types == 0 || (in.types & ~kMaskAny) != 0) {
      return InvalidArgument(
          StrFormat("ir: inst %zu: malformed type tag 0x%x", i, in.types));
    }
    if (ProducesBool(in.op) && in.types != kMaskBool) {
      return InvalidArgument(StrFormat(
          "ir: inst %zu: %s must be tagged bool", i, IrOpName(in.op)));
    }
    switch (in.op) {
      case IrOp::kConst:
        if (in.imm < 0 ||
            in.imm >= static_cast<int32_t>(p.consts.size())) {
          return InvalidArgument(
              StrFormat("ir: inst %zu: const pool index %d invalid", i,
                        in.imm));
        }
        if (in.types != ValueTypeMask(p.consts[static_cast<size_t>(in.imm)])) {
          return InvalidArgument(StrFormat(
              "ir: inst %zu: const type tag disagrees with pool value", i));
        }
        break;
      case IrOp::kLoadField:
        if (in.a >= p.source_count) {
          return InvalidArgument(StrFormat(
              "ir: inst %zu: load from source %u out of range", i, in.a));
        }
        if (in.imm >= static_cast<int32_t>(p.paths.size())) {
          return InvalidArgument(
              StrFormat("ir: inst %zu: path pool index %d invalid", i,
                        in.imm));
        }
        break;
      case IrOp::kLoadRequestId:
      case IrOp::kLoadTimestamp:
        if (in.a >= p.source_count) {
          return InvalidArgument(StrFormat(
              "ir: inst %zu: load from source %u out of range", i, in.a));
        }
        break;
      case IrOp::kNeg:
        if ((in.types & ~(kMaskNull | kMaskNumeric)) != 0) {
          return InvalidArgument(StrFormat(
              "ir: inst %zu: neg result tagged non-numeric", i));
        }
        if (Status s = use(i, in.a); !s.ok()) {
          return s;
        }
        break;
      case IrOp::kNot:
      case IrOp::kCoerceBool:
        if (Status s = use(i, in.a); !s.ok()) {
          return s;
        }
        break;
      case IrOp::kInList:
        if (Status s = use(i, in.a); !s.ok()) {
          return s;
        }
        if (in.imm < 0 || in.imm >= static_cast<int32_t>(p.lists.size())) {
          return InvalidArgument(
              StrFormat("ir: inst %zu: list pool index %d invalid", i,
                        in.imm));
        }
        break;
      default: {
        if (!IsBinaryIrOp(in.op)) {
          return InvalidArgument(
              StrFormat("ir: inst %zu: unknown opcode", i));
        }
        const BinaryOp op = BinaryOpOf(in.op);
        if (IsArithmeticOp(op)) {
          const TypeMask allowed = op == BinaryOp::kDiv
                                       ? (kMaskNull | kMaskDouble)
                                       : (kMaskNull | kMaskNumeric);
          if ((in.types & ~allowed) != 0) {
            return InvalidArgument(StrFormat(
                "ir: inst %zu: arithmetic result tag too wide", i));
          }
        }
        if (Status s = use(i, in.a); !s.ok()) {
          return s;
        }
        if (Status s = use(i, in.b); !s.ok()) {
          return s;
        }
        break;
      }
    }
    defined[in.dst] = true;
  }
  if (!defined[p.result]) {
    return InvalidArgument(
        StrFormat("ir: result register r%u never defined", p.result));
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Abstract interpreter.

namespace {

// Numeric ranges are tracked in doubles; beyond 2^53 they stop being exact
// (and int64 products can wrap), so bounds larger than this drop the range.
constexpr double kRangeLimit = 9.0e15;
// Products of bounds within this magnitude are exact in a double and cannot
// wrap an int64, so multiplication may keep its interval.
constexpr double kMulOperandLimit = 9.0e7;

bool MayBe(TypeMask m, TypeMask bit) { return (m & bit) != 0; }
bool OnlyIn(TypeMask m, TypeMask allowed) { return (m & ~allowed) == 0; }

AbstractValue Unreachable() {
  AbstractValue v;
  v.types = 0;
  return v;
}

AbstractValue ConstFact(Value v) {
  AbstractValue f;
  f.types = ValueTypeMask(v);
  if (v.is_numeric()) {
    const double x = v.AsNumber();
    if (std::abs(x) <= kRangeLimit) {
      f.num_min = f.num_max = x;
      f.has_range = true;
    }
  }
  f.constant = std::move(v);
  return f;
}

// Constants join only when identical *including class*: int 2 and double 2.0
// compare equal but behave differently under class-rank ordering.
AbstractValue JoinFacts(const AbstractValue& a, const AbstractValue& b) {
  if (a.types == 0) {
    return b;
  }
  if (b.types == 0) {
    return a;
  }
  AbstractValue j;
  j.types = a.types | b.types;
  if (a.constant.has_value() && b.constant.has_value() &&
      ValueTypeMask(*a.constant) == ValueTypeMask(*b.constant) &&
      *a.constant == *b.constant) {
    j.constant = a.constant;
  }
  if (a.has_range && b.has_range) {
    j.num_min = std::min(a.num_min, b.num_min);
    j.num_max = std::max(a.num_max, b.num_max);
    j.has_range = true;
  }
  return j;
}

void JoinInto(std::vector<AbstractValue>* into,
              const std::vector<AbstractValue>& from) {
  for (size_t i = 0; i < into->size(); ++i) {
    (*into)[i] = JoinFacts((*into)[i], from[i]);
  }
}

// Coarse classes for equality reasoning: int and double merge (cross-numeric
// equality), everything else is its own class.
TypeMask CoarseClasses(TypeMask m) {
  return MayBe(m, kMaskNumeric) ? ((m & ~kMaskNumeric) | kMaskNumeric) : m;
}

AbstractValue ArithFact(BinaryOp op, const AbstractValue& a,
                        const AbstractValue& b) {
  if (a.constant.has_value() && b.constant.has_value()) {
    return ConstFact(ApplyBinaryOp(op, *a.constant, *b.constant));
  }
  if (!MayBe(a.types, kMaskNumeric) || !MayBe(b.types, kMaskNumeric)) {
    return ConstFact(Value::Null());  // non-numeric arithmetic is null
  }
  AbstractValue f;
  const bool may_null = MayBe(a.types, static_cast<TypeMask>(~kMaskNumeric)) ||
                        MayBe(b.types, static_cast<TypeMask>(~kMaskNumeric));
  if (op == BinaryOp::kDiv) {
    f.types = kMaskNull | kMaskDouble;  // divisor zero is always possible
    return f;
  }
  TypeMask m = 0;
  if (MayBe(a.types, kMaskInt) && MayBe(b.types, kMaskInt)) {
    m |= kMaskInt;
  }
  if (MayBe(a.types, kMaskDouble) || MayBe(b.types, kMaskDouble)) {
    m |= kMaskDouble;
  }
  if (may_null) {
    m |= kMaskNull;
  }
  f.types = m;
  if (a.has_range && b.has_range) {
    double lo = 0.0;
    double hi = 0.0;
    bool ok = true;
    switch (op) {
      case BinaryOp::kAdd:
        lo = a.num_min + b.num_min;
        hi = a.num_max + b.num_max;
        break;
      case BinaryOp::kSub:
        lo = a.num_min - b.num_max;
        hi = a.num_max - b.num_min;
        break;
      case BinaryOp::kMul: {
        ok = std::abs(a.num_min) <= kMulOperandLimit &&
             std::abs(a.num_max) <= kMulOperandLimit &&
             std::abs(b.num_min) <= kMulOperandLimit &&
             std::abs(b.num_max) <= kMulOperandLimit;
        const double c[4] = {a.num_min * b.num_min, a.num_min * b.num_max,
                             a.num_max * b.num_min, a.num_max * b.num_max};
        lo = std::min(std::min(c[0], c[1]), std::min(c[2], c[3]));
        hi = std::max(std::max(c[0], c[1]), std::max(c[2], c[3]));
        break;
      }
      default:
        ok = false;
        break;
    }
    // One widening step absorbs the rounding of the bound computation.
    lo = std::nextafter(lo, -1.0 / 0.0);
    hi = std::nextafter(hi, 1.0 / 0.0);
    if (ok && std::abs(lo) <= kRangeLimit && std::abs(hi) <= kRangeLimit) {
      f.num_min = lo;
      f.num_max = hi;
      f.has_range = true;
    }
  }
  return f;
}

AbstractValue CompareFact(BinaryOp op, const AbstractValue& a,
                          const AbstractValue& b, size_t inst,
                          std::vector<AnalysisNote>* notes) {
  AbstractValue f;
  f.types = kMaskBool;
  // The null-ordered check runs before the constant fold so that a provably
  // null operand that happens to also be a known constant (e.g. the result
  // of a constant division by zero) still surfaces the note.
  const bool ordered = op == BinaryOp::kLt || op == BinaryOp::kLe ||
                       op == BinaryOp::kGt || op == BinaryOp::kGe;
  if (ordered && (a.types == kMaskNull || b.types == kMaskNull)) {
    f.constant = Value(false);
    notes->push_back({AnalysisNoteKind::kNullOrderedCompare, inst});
    return f;
  }
  if (a.constant.has_value() && b.constant.has_value()) {
    f.constant = ApplyBinaryOp(op, *a.constant, *b.constant);
    return f;
  }
  if (op == BinaryOp::kEq || op == BinaryOp::kNe) {
    if (a.types == kMaskNull && b.types == kMaskNull) {
      f.constant = Value(op == BinaryOp::kEq);
      return f;
    }
    if ((CoarseClasses(a.types) & CoarseClasses(b.types)) == 0) {
      // No shared class, so never equal; "exactly one null" can still hold
      // only on the side that may be null, and disjointness already rules
      // out both being null at once.
      f.constant = Value(op == BinaryOp::kNe);
      return f;
    }
  }
  if (OnlyIn(a.types, kMaskNull | kMaskNumeric) &&
      OnlyIn(b.types, kMaskNull | kMaskNumeric) && a.has_range &&
      b.has_range) {
    const bool may_null = MayBe(a.types, kMaskNull) || MayBe(b.types, kMaskNull);
    const bool both_may_null =
        MayBe(a.types, kMaskNull) && MayBe(b.types, kMaskNull);
    bool always = false;
    bool never = false;
    switch (op) {
      case BinaryOp::kLt:
        never = a.num_min >= b.num_max;
        always = a.num_max < b.num_min;
        break;
      case BinaryOp::kLe:
        never = a.num_min > b.num_max;
        always = a.num_max <= b.num_min;
        break;
      case BinaryOp::kGt:
        never = a.num_max <= b.num_min;
        always = a.num_min > b.num_max;
        break;
      case BinaryOp::kGe:
        never = a.num_max < b.num_min;
        always = a.num_min >= b.num_max;
        break;
      case BinaryOp::kEq:
        never = a.num_min > b.num_max || b.num_min > a.num_max;
        break;
      case BinaryOp::kNe:
        always = a.num_min > b.num_max || b.num_min > a.num_max;
        break;
      default:
        break;
    }
    // A null operand makes ordered comparisons false and Eq false (unless
    // both null, excluded above for the folds that need it), so:
    //  * fold-to-false stands even when null is possible;
    //  * fold-to-true needs null impossible (Ne: both-null impossible).
    if (op == BinaryOp::kEq && never && both_may_null) {
      never = false;
    }
    if (never) {
      f.constant = Value(false);
      return f;
    }
    if (always && (op == BinaryOp::kNe ? !both_may_null : !may_null)) {
      f.constant = Value(true);
      return f;
    }
  }
  return f;
}

}  // namespace

ProgramAnalysis AnalyzeProgram(const ExprProgram& p) {
  ProgramAnalysis out;
  if (!VerifyProgram(p).ok()) {
    return out;  // analysis facts are only meaningful on verified programs
  }
  out.inst_facts.resize(p.insts.size());
  std::vector<AbstractValue> regs(p.num_regs);
  std::map<size_t, std::vector<AbstractValue>> pending;
  bool reachable = true;
  for (size_t pc = 0; pc < p.insts.size(); ++pc) {
    if (auto it = pending.find(pc); it != pending.end()) {
      if (reachable) {
        JoinInto(&regs, it->second);
      } else {
        regs = std::move(it->second);
        reachable = true;
      }
      pending.erase(it);
    }
    if (!reachable) {
      out.inst_facts[pc] = Unreachable();
      continue;
    }
    const IrInst& in = p.insts[pc];
    if (IsJumpOp(in.op)) {
      const AbstractValue cond = regs[in.a];
      out.inst_facts[pc] = cond;
      const bool jump_on = in.op == IrOp::kJumpIfTrue;
      bool always_taken = false;
      bool never_taken = false;
      if (cond.constant.has_value()) {
        const bool t = Truthy(*cond.constant);
        always_taken = t == jump_on;
        never_taken = !always_taken;
      } else if (!MayBe(cond.types, kMaskBool)) {
        // A register that can never hold a bool is never truthy.
        always_taken = !jump_on;
        never_taken = jump_on;
      }
      const bool refinable =
          cond.types == kMaskBool && !cond.constant.has_value();
      if (!never_taken) {
        std::vector<AbstractValue> taken = regs;
        if (refinable) {
          taken[in.a] = ConstFact(Value(jump_on));
        }
        const auto target = static_cast<size_t>(in.imm);
        if (auto it = pending.find(target); it != pending.end()) {
          JoinInto(&it->second, taken);
        } else {
          pending.emplace(target, std::move(taken));
        }
      }
      if (always_taken) {
        reachable = false;
      } else if (refinable) {
        regs[in.a] = ConstFact(Value(!jump_on));
      }
      continue;
    }
    AbstractValue fact;
    // Constants and loads have no register operand (a load's `a` is a source
    // index, not a register), so only the other ops read regs[in.a].
    static const AbstractValue kNoOperand;
    const bool reads_a =
        in.op != IrOp::kConst && in.op != IrOp::kLoadField &&
        in.op != IrOp::kLoadRequestId && in.op != IrOp::kLoadTimestamp;
    const AbstractValue& fa = reads_a ? regs[in.a] : kNoOperand;
    switch (in.op) {
      case IrOp::kConst:
        fact = ConstFact(p.consts[static_cast<size_t>(in.imm)]);
        break;
      case IrOp::kLoadField:
      case IrOp::kLoadRequestId:
      case IrOp::kLoadTimestamp:
        fact.types = in.types;
        break;
      case IrOp::kNeg:
        if (fa.constant.has_value()) {
          fact = ConstFact(ApplyUnaryOp(UnaryOp::kNegate, *fa.constant));
        } else if (!MayBe(fa.types, kMaskNumeric)) {
          fact = ConstFact(Value::Null());
        } else {
          fact.types = static_cast<TypeMask>(
              (fa.types & kMaskNumeric) |
              (MayBe(fa.types, static_cast<TypeMask>(~kMaskNumeric))
                   ? kMaskNull
                   : 0));
          if (fa.has_range) {
            fact.num_min = -fa.num_max;
            fact.num_max = -fa.num_min;
            fact.has_range = true;
          }
        }
        break;
      case IrOp::kNot:
        fact.types = kMaskBool;
        if (fa.constant.has_value()) {
          fact.constant = ApplyUnaryOp(UnaryOp::kNot, *fa.constant);
        } else if (!MayBe(fa.types, kMaskBool)) {
          fact.constant = Value(true);
        }
        break;
      case IrOp::kCoerceBool:
        fact.types = kMaskBool;
        if (fa.constant.has_value()) {
          fact.constant = Value(Truthy(*fa.constant));
        } else if (!MayBe(fa.types, kMaskBool)) {
          fact.constant = Value(false);
        }
        break;
      case IrOp::kInList: {
        fact.types = kMaskBool;
        if (fa.constant.has_value()) {
          bool hit = false;
          if (!fa.constant->is_null()) {
            for (const Value& m : p.lists[static_cast<size_t>(in.imm)]) {
              if (*fa.constant == m) {
                hit = true;
                break;
              }
            }
          }
          fact.constant = Value(hit);
        } else if (fa.types == kMaskNull) {
          fact.constant = Value(false);
        }
        break;
      }
      default: {
        const BinaryOp op = BinaryOpOf(in.op);
        const AbstractValue& fb = regs[in.b];
        if (op == BinaryOp::kContains) {
          fact.types = kMaskBool;
          if (fa.constant.has_value() && fb.constant.has_value()) {
            fact.constant = ApplyBinaryOp(op, *fa.constant, *fb.constant);
          } else if (!MayBe(fa.types, kMaskList)) {
            fact.constant = Value(false);
          }
        } else if (IsArithmeticOp(op)) {
          const bool zero_divisor =
              op == BinaryOp::kDiv &&
              ((fb.constant.has_value() && fb.constant->is_numeric() &&
                fb.constant->AsNumber() == 0.0) ||
               (fb.has_range && fb.num_min == 0.0 && fb.num_max == 0.0 &&
                MayBe(fb.types, kMaskNumeric)));
          if (zero_divisor) {
            out.notes.push_back({AnalysisNoteKind::kDivisionByZero, pc});
            fact = ConstFact(Value::Null());
          } else {
            fact = ArithFact(op, fa, fb);
          }
        } else {
          fact = CompareFact(op, fa, fb, pc, &out.notes);
        }
        break;
      }
    }
    regs[in.dst] = fact;
    out.inst_facts[pc] = std::move(fact);
  }
  if (auto it = pending.find(p.insts.size()); it != pending.end()) {
    if (reachable) {
      JoinInto(&regs, it->second);
    } else {
      regs = std::move(it->second);
    }
  }
  out.result = regs[p.result];
  if (out.result.constant.has_value()) {
    out.predicate = Truthy(*out.result.constant) ? PredicateClass::kAlwaysTrue
                                                 : PredicateClass::kAlwaysFalse;
  } else if (!MayBe(out.result.types, kMaskBool)) {
    out.predicate = PredicateClass::kAlwaysFalse;
  }
  return out;
}

bool FoldProgram(ExprProgram* program, const ProgramAnalysis& analysis) {
  if (!analysis.result.constant.has_value()) {
    return false;
  }
  if (program->insts.size() == 1 && program->insts[0].op == IrOp::kConst) {
    return false;  // already minimal
  }
  ExprProgram folded;
  folded.source_count = program->source_count;
  folded.consts.push_back(*analysis.result.constant);
  IrInst inst;
  inst.op = IrOp::kConst;
  inst.types = ValueTypeMask(folded.consts[0]);
  inst.dst = 0;
  inst.imm = 0;
  folded.insts.push_back(inst);
  folded.num_regs = 1;
  folded.result = 0;
  *program = std::move(folded);
  return true;
}

std::string AbstractValue::ToString() const {
  if (types == 0) {
    return "unreachable";
  }
  std::string s = TypeMaskName(types);
  if (constant.has_value()) {
    s += " = " + constant->ToString();
  } else if (has_range) {
    s += StrFormat(" in [%g, %g]", num_min, num_max);
  }
  return s;
}

const char* PredicateClassName(PredicateClass c) {
  switch (c) {
    case PredicateClass::kAlwaysTrue:
      return "always-true";
    case PredicateClass::kAlwaysFalse:
      return "always-false";
    case PredicateClass::kUnknown:
      return "unknown";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Conjunct-set analysis.

namespace {

struct Atom {
  int conjunct = 0;
  int source = 0;
  int field = 0;
  TypeMask field_types = kMaskAny;
  BinaryOp op = BinaryOp::kEq;
  Value value;
};

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // Eq / Ne are symmetric
  }
}

// A conjunct participates iff its whole program is one comparison between a
// path-free field load and a constant (in either operand order).
std::optional<Atom> ExtractAtom(const ExprProgram& p) {
  if (p.insts.size() != 3) {
    return std::nullopt;
  }
  const IrInst& cmp = p.insts[2];
  if (!IsBinaryIrOp(cmp.op) || cmp.dst != p.result) {
    return std::nullopt;
  }
  const BinaryOp op = BinaryOpOf(cmp.op);
  if (!IsComparisonOp(op)) {
    return std::nullopt;
  }
  const IrInst* def_a = nullptr;
  const IrInst* def_b = nullptr;
  for (int i = 1; i >= 0; --i) {
    if (def_a == nullptr && p.insts[i].dst == cmp.a) {
      def_a = &p.insts[i];
    }
    if (def_b == nullptr && p.insts[i].dst == cmp.b) {
      def_b = &p.insts[i];
    }
  }
  if (def_a == nullptr || def_b == nullptr || def_a == def_b) {
    return std::nullopt;
  }
  const IrInst* load = nullptr;
  const IrInst* konst = nullptr;
  bool flipped = false;
  if (def_a->op == IrOp::kLoadField && def_b->op == IrOp::kConst) {
    load = def_a;
    konst = def_b;
  } else if (def_a->op == IrOp::kConst && def_b->op == IrOp::kLoadField) {
    load = def_b;
    konst = def_a;
    flipped = true;
  } else {
    return std::nullopt;
  }
  if (load->imm >= 0) {
    return std::nullopt;  // nested-path loads are opaque
  }
  Atom atom;
  atom.source = load->a;
  atom.field = load->b;
  atom.field_types = load->types;
  atom.op = flipped ? FlipComparison(op) : op;
  atom.value = p.consts[static_cast<size_t>(konst->imm)];
  return atom;
}

bool IsLowerBound(BinaryOp op) {
  return op == BinaryOp::kGt || op == BinaryOp::kGe;
}
bool IsUpperBound(BinaryOp op) {
  return op == BinaryOp::kLt || op == BinaryOp::kLe;
}

// Can any value satisfy `x lo.op lo.value AND x hi.op hi.value`? Both
// constants are numeric. Non-numeric candidates fail one of the two sides
// by class rank (bool ranks below every numeric constant, string/list/object
// above, null fails ordered comparison outright), so satisfiability reduces
// to the numeric interval — tightened to integers when the field's type mask
// excludes doubles.
bool BoundsEmpty(TypeMask field_types, const Atom& lo, const Atom& hi) {
  if (!MayBe(field_types, kMaskNumeric)) {
    return true;  // must be numeric to pass both bounds, but never is
  }
  const double a = lo.value.AsNumber();
  const double b = hi.value.AsNumber();
  const bool lo_strict = lo.op == BinaryOp::kGt;
  const bool hi_strict = hi.op == BinaryOp::kLt;
  if (!MayBe(field_types, kMaskDouble)) {
    const double lo_int = lo_strict ? std::floor(a) + 1 : std::ceil(a);
    const double hi_int = hi_strict ? std::ceil(b) - 1 : std::floor(b);
    return lo_int > hi_int;
  }
  return a > b || (a == b && (lo_strict || hi_strict));
}

// Does lower/upper bound `s` imply same-direction bound `w` for every value?
// Sound for non-numeric values too: their verdict depends only on class rank
// versus the constant's class, and when the verdicts could differ (int vs
// double constants) the rank sandwich (bool < int < double < string) keeps
// the implication direction intact for Gt/Ge and Lt/Le alike.
bool ImpliesBound(const Atom& s, const Atom& w) {
  const double sv = s.value.AsNumber();
  const double wv = w.value.AsNumber();
  const bool s_strict = s.op == BinaryOp::kGt || s.op == BinaryOp::kLt;
  const bool w_strict = w.op == BinaryOp::kGt || w.op == BinaryOp::kLt;
  if (IsLowerBound(s.op)) {
    return sv > wv || (sv == wv && (s_strict || !w_strict));
  }
  return sv < wv || (sv == wv && (s_strict || !w_strict));
}

}  // namespace

ConjunctSetResult AnalyzeConjunctSet(
    const std::vector<const ExprProgram*>& conjuncts) {
  ConjunctSetResult out;
  std::map<std::pair<int, int>, std::vector<Atom>> groups;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (conjuncts[i] == nullptr) {
      continue;
    }
    if (std::optional<Atom> atom = ExtractAtom(*conjuncts[i])) {
      atom->conjunct = static_cast<int>(i);
      groups[{atom->source, atom->field}].push_back(std::move(*atom));
    }
  }
  std::set<int> redundant;
  for (const auto& [key, atoms] : groups) {
    if (atoms.size() < 2) {
      continue;
    }
    const Atom* pin = nullptr;
    for (const Atom& a : atoms) {
      if (a.op == BinaryOp::kEq) {
        pin = &a;
        break;
      }
    }
    bool contradiction = false;
    if (pin != nullptr) {
      // The pinned value must satisfy every other atom (substituting it is
      // exact: equality is by value within a class and across int/double).
      for (const Atom& a : atoms) {
        if (&a == pin) {
          continue;
        }
        if (!Truthy(ApplyBinaryOp(a.op, pin->value, a.value))) {
          contradiction = true;
          break;
        }
      }
    }
    if (!contradiction) {
      for (const Atom& lo : atoms) {
        if (!IsLowerBound(lo.op) || !lo.value.is_numeric()) {
          continue;
        }
        for (const Atom& hi : atoms) {
          if (!IsUpperBound(hi.op) || !hi.value.is_numeric()) {
            continue;
          }
          if (BoundsEmpty(lo.field_types, lo, hi)) {
            contradiction = true;
            break;
          }
        }
        if (contradiction) {
          break;
        }
      }
    }
    if (contradiction) {
      out.contradiction = true;
      out.contradiction_source = key.first;
      out.contradiction_field = key.second;
      out.redundant.clear();
      return out;
    }
    if (pin != nullptr) {
      // No contradiction, so every other atom in the group is implied.
      for (const Atom& a : atoms) {
        if (&a != pin) {
          redundant.insert(a.conjunct);
        }
      }
      continue;
    }
    for (size_t i = 0; i < atoms.size(); ++i) {
      for (size_t j = i + 1; j < atoms.size(); ++j) {
        const Atom& x = atoms[i];
        const Atom& y = atoms[j];
        if (x.op == y.op &&
            ValueTypeMask(x.value) == ValueTypeMask(y.value) &&
            x.value == y.value) {
          redundant.insert(y.conjunct);
          continue;
        }
        const bool same_direction =
            (IsLowerBound(x.op) && IsLowerBound(y.op)) ||
            (IsUpperBound(x.op) && IsUpperBound(y.op));
        if (!same_direction || !x.value.is_numeric() ||
            !y.value.is_numeric()) {
          continue;
        }
        if (ImpliesBound(x, y)) {
          redundant.insert(y.conjunct);
        } else if (ImpliesBound(y, x)) {
          redundant.insert(x.conjunct);
        }
      }
    }
  }
  out.redundant.assign(redundant.begin(), redundant.end());
  return out;
}

}  // namespace scrub
