// Columnar kernels the expression IR runs on.
//
// RunCompareKernel is the branch-free selection-vector loop behind
// EvalProgramPredicateBatch's `field <cmp> literal` fast path (the
// agent-flush hot loop), and FoldColumns gathers group keys and aggregate
// arguments for a whole selection at once at central. Both execute lowered
// ExprPrograms' semantics exactly: the kernels probe ApplyBinaryOp for every
// verdict they cannot read off a typed column, and FoldColumns falls back to
// EvalProgramColumns for anything but a single load or constant.

#ifndef SRC_PLAN_VECTORIZED_H_
#define SRC_PLAN_VECTORIZED_H_

#include <cstdint>
#include <vector>

#include "src/event/column_batch.h"
#include "src/plan/expr_ir.h"

namespace scrub {

// ---- Branch-free selection-vector kernels ----------------------------------

// Compacts `selection` to the rows where `field <op> literal` (operand order
// per `field_on_lhs`) holds, exactly as the per-row ApplyBinaryOp fallback
// would, but as a typed contiguous loop with an arithmetic keep predicate —
// an unconditional `sel[kept] = r; kept += keep` compaction with no per-row
// branch, so the compiler can auto-vectorize it. The comparison forms are
// derived from Value::Compare's exact semantics (Compare() answers 0 when
// NaN is involved, so Le compiles to !(v > lit), never (v <= lit)), and the
// null-row verdict is probed once through ApplyBinaryOp itself, so the
// kernels cannot drift from the IR interpreter. Kernels exist for:
//   * int/double columns vs int/double literals,
//   * string columns vs string literals,
//   * dictionary columns vs any literal (one ApplyBinaryOp per dictionary
//     entry builds a per-code verdict table, then rows compare codes),
//   * any typed (non-generic) column vs a null literal (constant verdicts).
// Returns false — selection untouched — when no kernel matches; callers fall
// back to interpreting the program per row.
bool RunCompareKernel(const ColumnBatch& batch, size_t field, BinaryOp op,
                      const Value& literal, bool field_on_lhs,
                      std::vector<uint32_t>* selection);

// ---- Batched group-key / aggregate-argument evaluation ---------------------

// The per-program values for every selected row: values[p][i] is program p
// evaluated at selection[i]. A null program leaves its inner vector empty.
struct FoldedColumns {
  std::vector<std::vector<Value>> values;  // [program][selection index]
};

// Evaluates every program at every selected row in one pass per program.
// Programs that are a single LoadField / LoadRequestId / LoadTimestamp /
// Const instruction gather straight from the typed column storage (no
// per-row interpreter setup); everything else falls back to
// EvalProgramColumns row by row. Pure computation — no charges, no stats —
// so callers may precompute speculatively without observable effects.
void FoldColumns(const std::vector<const ExprProgram*>& programs,
                 const ColumnBatch& batch, const uint32_t* selection,
                 size_t selected, FoldedColumns* out);

}  // namespace scrub

#endif  // SRC_PLAN_VECTORIZED_H_
