#include "src/plan/vectorized.h"

#include <string_view>

namespace scrub {
namespace {

bool Truthy(const Value& v) { return v.is_bool() && v.AsBool(); }

// ---- Branch-free compare kernel internals ----------------------------------

// Normalized comparison forms after operand-order flipping. Le/Ge are
// expressed through Gt/Lt because Value::Compare answers 0 when NaN is
// involved: ApplyBinaryOp's `Compare(v, lit) <= 0` is TRUE for a NaN cell,
// so Le must compile to !(v > lit), never (v <= lit).
enum class CmpForm : uint8_t { kLt, kGt, kNotGt, kNotLt, kEq, kNe };

bool FormFor(BinaryOp op, bool field_on_lhs, CmpForm* form) {
  switch (op) {
    case BinaryOp::kEq:
      *form = CmpForm::kEq;
      return true;
    case BinaryOp::kNe:
      *form = CmpForm::kNe;
      return true;
    case BinaryOp::kLt:
      *form = field_on_lhs ? CmpForm::kLt : CmpForm::kGt;
      return true;
    case BinaryOp::kGt:
      *form = field_on_lhs ? CmpForm::kGt : CmpForm::kLt;
      return true;
    case BinaryOp::kLe:
      *form = field_on_lhs ? CmpForm::kNotGt : CmpForm::kNotLt;
      return true;
    case BinaryOp::kGe:
      *form = field_on_lhs ? CmpForm::kNotLt : CmpForm::kNotGt;
      return true;
    default:
      return false;
  }
}

template <CmpForm F, typename T>
inline bool Cmp(T v, T lit) {
  if constexpr (F == CmpForm::kLt) {
    return v < lit;
  } else if constexpr (F == CmpForm::kGt) {
    return v > lit;
  } else if constexpr (F == CmpForm::kNotGt) {
    return !(v > lit);
  } else if constexpr (F == CmpForm::kNotLt) {
    return !(v < lit);
  } else if constexpr (F == CmpForm::kEq) {
    return v == lit;
  } else {
    return v != lit;
  }
}

// Unconditional-store compaction: every row index is written at sel[kept]
// whether or not it survives; `kept` only advances when it does. No per-row
// branch, so the loop stays a straight-line candidate for auto-vectorization.
template <typename KeepFn>
void Compact(std::vector<uint32_t>* selection, const KeepFn& keep) {
  uint32_t* sel = selection->data();
  const size_t n = selection->size();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[kept] = r;
    kept += keep(r) ? 1 : 0;
  }
  selection->resize(kept);
}

// One typed compare loop: `get(r)` reads the cell, null rows resolve to the
// pre-probed null verdict arithmetically (placeholder slots make the typed
// read safe even for null rows).
template <CmpForm F, typename T, typename GetFn>
void CompactTyped(const std::vector<uint8_t>& nulls, bool null_keep,
                  const GetFn& get, T lit, std::vector<uint32_t>* selection) {
  if (nulls.empty()) {
    Compact(selection, [&](uint32_t r) { return Cmp<F, T>(get(r), lit); });
    return;
  }
  Compact(selection, [&](uint32_t r) {
    const bool is_null = BitmapGet(nulls, r);
    return ((!is_null & Cmp<F, T>(get(r), lit)) | (is_null & null_keep)) != 0;
  });
}

template <typename T, typename GetFn>
void DispatchTyped(CmpForm form, const std::vector<uint8_t>& nulls,
                   bool null_keep, const GetFn& get, T lit,
                   std::vector<uint32_t>* selection) {
  switch (form) {
    case CmpForm::kLt:
      CompactTyped<CmpForm::kLt, T>(nulls, null_keep, get, lit, selection);
      break;
    case CmpForm::kGt:
      CompactTyped<CmpForm::kGt, T>(nulls, null_keep, get, lit, selection);
      break;
    case CmpForm::kNotGt:
      CompactTyped<CmpForm::kNotGt, T>(nulls, null_keep, get, lit, selection);
      break;
    case CmpForm::kNotLt:
      CompactTyped<CmpForm::kNotLt, T>(nulls, null_keep, get, lit, selection);
      break;
    case CmpForm::kEq:
      CompactTyped<CmpForm::kEq, T>(nulls, null_keep, get, lit, selection);
      break;
    case CmpForm::kNe:
      CompactTyped<CmpForm::kNe, T>(nulls, null_keep, get, lit, selection);
      break;
  }
}

// The verdict ApplyBinaryOp would reach for a null cell, probed once with
// the real operand order so the kernel inherits ApplyBinaryOp's null rules
// (Eq only matches null-vs-null; Ne is true for null-vs-non-null; ordered
// comparisons with a null operand are false).
bool NullCellKeep(BinaryOp op, const Value& literal, bool field_on_lhs) {
  return Truthy(field_on_lhs ? ApplyBinaryOp(op, Value(), literal)
                             : ApplyBinaryOp(op, literal, Value()));
}

}  // namespace

bool RunCompareKernel(const ColumnBatch& batch, size_t field, BinaryOp op,
                      const Value& literal, bool field_on_lhs,
                      std::vector<uint32_t>* selection) {
  if (!IsComparisonOp(op)) {
    return false;
  }
  const ColumnBatch::Column& col = batch.column(field);
  // Generic columns may box anything — including a null payload under a
  // clear bitmap on hostile input — so only the boxed per-row path is safe.
  if (col.rep == ColumnBatch::Rep::kGeneric) {
    return false;
  }
  CmpForm form;
  if (!FormFor(op, field_on_lhs, &form)) {
    return false;
  }
  const bool null_keep = NullCellKeep(op, literal, field_on_lhs);

  if (literal.is_null()) {
    // Against a null literal the verdict depends only on each cell's
    // nullness; probe the non-null side once with a representative value
    // (the row rules are class-independent here).
    const bool nonnull_keep =
        Truthy(field_on_lhs ? ApplyBinaryOp(op, Value(int64_t{0}), literal)
                            : ApplyBinaryOp(op, literal, Value(int64_t{0})));
    if (col.nulls.empty()) {
      if (!nonnull_keep) {
        selection->clear();
      }
      return true;
    }
    Compact(selection, [&](uint32_t r) {
      const bool is_null = BitmapGet(col.nulls, r);
      return ((!is_null & nonnull_keep) | (is_null & null_keep)) != 0;
    });
    return true;
  }

  switch (col.rep) {
    case ColumnBatch::Rep::kInt:
      if (literal.is_int()) {
        DispatchTyped<int64_t>(
            form, col.nulls, null_keep,
            [&col](uint32_t r) { return col.ints[r]; }, literal.AsInt(),
            selection);
        return true;
      }
      if (literal.is_double()) {
        // Mixed int/double comparisons run as doubles in ApplyBinaryOp.
        DispatchTyped<double>(
            form, col.nulls, null_keep,
            [&col](uint32_t r) { return static_cast<double>(col.ints[r]); },
            literal.AsNumber(), selection);
        return true;
      }
      return false;
    case ColumnBatch::Rep::kDouble:
      if (literal.is_int() || literal.is_double()) {
        DispatchTyped<double>(
            form, col.nulls, null_keep,
            [&col](uint32_t r) { return col.doubles[r]; }, literal.AsNumber(),
            selection);
        return true;
      }
      return false;
    case ColumnBatch::Rep::kString: {
      if (!literal.is_string()) {
        return false;
      }
      // Compare arena slices against the literal once per row; the form then
      // applies to the three-way result (string equality coincides with
      // compare() == 0, so Eq/Ne are exact).
      const std::string_view lit(literal.AsString());
      const std::string_view arena(col.arena);
      DispatchTyped<int>(
          form, col.nulls, null_keep,
          [&col, arena, lit](uint32_t r) {
            return arena
                .substr(col.offsets[r], col.offsets[r + 1] - col.offsets[r])
                .compare(lit);
          },
          0, selection);
      return true;
    }
    case ColumnBatch::Rep::kDict: {
      const size_t entries = col.dict_size();
      if (entries == 0) {
        return false;  // degenerate (all-null) dictionary: no typed values
      }
      // One dictionary-side ApplyBinaryOp per entry builds the verdict
      // table; rows then compare codes, not bytes. Works for any literal
      // class because the probe IS the row semantics.
      std::vector<uint8_t> table(entries, 0);
      for (size_t c = 0; c < entries; ++c) {
        const Value entry(col.arena.substr(
            col.offsets[c], col.offsets[c + 1] - col.offsets[c]));
        table[c] = Truthy(field_on_lhs ? ApplyBinaryOp(op, entry, literal)
                                       : ApplyBinaryOp(op, literal, entry))
                       ? 1
                       : 0;
      }
      if (col.nulls.empty()) {
        Compact(selection, [&](uint32_t r) {
          return table[static_cast<size_t>(col.ints[r])] != 0;
        });
        return true;
      }
      Compact(selection, [&](uint32_t r) {
        const bool is_null = BitmapGet(col.nulls, r);
        // Null rows carry placeholder code 0; the null mask overrides it.
        const bool hit = table[static_cast<size_t>(col.ints[r])] != 0;
        return ((!is_null & hit) | (is_null & null_keep)) != 0;
      });
      return true;
    }
    case ColumnBatch::Rep::kBool:
      return false;  // rare in pushed-down predicates; boxed path handles it
    case ColumnBatch::Rep::kGeneric:
      return false;
  }
  return false;
}

void FoldColumns(const std::vector<const ExprProgram*>& programs,
                 const ColumnBatch& batch, const uint32_t* selection,
                 size_t selected, FoldedColumns* out) {
  out->values.assign(programs.size(), {});
  auto row_at = [selection](size_t i) -> size_t {
    return selection != nullptr ? selection[i] : i;
  };
  for (size_t p = 0; p < programs.size(); ++p) {
    if (programs[p] == nullptr) {
      continue;
    }
    const ExprProgram& prog = *programs[p];
    std::vector<Value>& vals = out->values[p];
    vals.resize(selected);
    // Single-instruction programs (the dominant group-key / aggregate-arg
    // shape after lowering) gather as one typed contiguous loop instead of
    // setting up the interpreter per row.
    if (prog.insts.size() == 1 && prog.insts[0].dst == prog.result) {
      const IrInst& in = prog.insts[0];
      if (in.op == IrOp::kConst) {
        const Value& c = prog.consts[static_cast<size_t>(in.imm)];
        for (size_t i = 0; i < selected; ++i) {
          vals[i] = c;
        }
        continue;
      }
      if (in.op == IrOp::kLoadRequestId && in.a == 0) {
        for (size_t i = 0; i < selected; ++i) {
          vals[i] =
              Value(static_cast<int64_t>(batch.request_id(row_at(i))));
        }
        continue;
      }
      if (in.op == IrOp::kLoadTimestamp && in.a == 0) {
        for (size_t i = 0; i < selected; ++i) {
          vals[i] = Value(static_cast<int64_t>(batch.timestamp(row_at(i))));
        }
        continue;
      }
      if (in.op == IrOp::kLoadField && in.a == 0 && in.imm < 0) {
        const ColumnBatch::Column& col = batch.column(in.b);
        switch (col.rep) {
          case ColumnBatch::Rep::kBool:
            for (size_t i = 0; i < selected; ++i) {
              const size_t r = row_at(i);
              vals[i] = BitmapGet(col.nulls, r) ? Value()
                                                : Value(col.bools[r] != 0);
            }
            continue;
          case ColumnBatch::Rep::kInt:
            for (size_t i = 0; i < selected; ++i) {
              const size_t r = row_at(i);
              vals[i] =
                  BitmapGet(col.nulls, r) ? Value() : Value(col.ints[r]);
            }
            continue;
          case ColumnBatch::Rep::kDouble:
            for (size_t i = 0; i < selected; ++i) {
              const size_t r = row_at(i);
              vals[i] =
                  BitmapGet(col.nulls, r) ? Value() : Value(col.doubles[r]);
            }
            continue;
          case ColumnBatch::Rep::kString:
            for (size_t i = 0; i < selected; ++i) {
              const size_t r = row_at(i);
              vals[i] = BitmapGet(col.nulls, r)
                            ? Value()
                            : Value(col.arena.substr(
                                  col.offsets[r],
                                  col.offsets[r + 1] - col.offsets[r]));
            }
            continue;
          case ColumnBatch::Rep::kDict:
            for (size_t i = 0; i < selected; ++i) {
              const size_t r = row_at(i);
              if (BitmapGet(col.nulls, r)) {
                vals[i] = Value();
              } else {
                const size_t code = static_cast<size_t>(col.ints[r]);
                vals[i] = Value(col.arena.substr(
                    col.offsets[code],
                    col.offsets[code + 1] - col.offsets[code]));
              }
            }
            continue;
          case ColumnBatch::Rep::kGeneric:
            for (size_t i = 0; i < selected; ++i) {
              const size_t r = row_at(i);
              vals[i] =
                  BitmapGet(col.nulls, r) ? Value() : col.generic[r];
            }
            continue;
        }
      }
    }
    for (size_t i = 0; i < selected; ++i) {
      vals[i] = EvalProgramColumns(prog, batch, row_at(i));
    }
  }
}

}  // namespace scrub
