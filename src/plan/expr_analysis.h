// Static analysis over the expression IR: verifier + abstract interpreter.
//
// Two layers, both running at query-install time (so their cost is amortized
// over every event the standing query ever evaluates):
//
//  * VerifyProgram — a structural verifier: operand registers in range and
//    defined before use (textually; jumps are forward-only so textual order
//    is a sound over-approximation), pool indexes valid, jump targets
//    forward and in bounds, type tags well-formed for their opcode, result
//    register defined. LowerExpr runs it on every program it builds and, in
//    every build, returns a failure as its status instead of the program:
//    a planner bug fails admission rather than shipping a broken program
//    to the fleet.
//
//  * AnalyzeProgram — a forward abstract interpreter over a product domain:
//    per-register type masks (which runtime classes a register may hold),
//    known-constant values, and conservative numeric intervals. Branches
//    join at their (forward) targets. The facts drive constant folding
//    (FoldProgram), always-true/always-false predicate classification, and
//    the semantic notes (division by a provably zero divisor, ordered
//    comparison against an always-null operand) the lint rules surface.
//
// AnalyzeConjunctSet lifts the analysis across a split WHERE: it extracts
// `field <cmp> literal` atoms from each conjunct program and intersects
// them per field, detecting unsatisfiable conjunct sets (`status == 200 AND
// status >= 500`) and conjuncts subsumed by the rest — the planner prunes
// the former wholesale (never_matches) and lint reports both.

#ifndef SRC_PLAN_EXPR_ANALYSIS_H_
#define SRC_PLAN_EXPR_ANALYSIS_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/plan/expr_ir.h"

namespace scrub {

// Structural well-formedness; OK means every instruction can execute without
// reading an undefined register or indexing outside a pool.
Status VerifyProgram(const ExprProgram& program);

// Abstract value of one register: the classes it may hold, its exact value
// when install-time decidable, and (when it may be numeric) a conservative
// bound on any numeric value it can take.
struct AbstractValue {
  TypeMask types = kMaskAny;
  std::optional<Value> constant;
  double num_min = 0.0;
  double num_max = 0.0;
  bool has_range = false;  // num_min/num_max valid

  std::string ToString() const;
};

enum class PredicateClass { kAlwaysTrue, kAlwaysFalse, kUnknown };
const char* PredicateClassName(PredicateClass c);

// Semantic findings surfaced to lint / explain, anchored to an instruction.
enum class AnalysisNoteKind {
  kDivisionByZero,       // divisor provably zero: the division is always null
  kNullOrderedCompare,   // <,<=,>,>= with an always-null operand: never true
};

struct AnalysisNote {
  AnalysisNoteKind kind = AnalysisNoteKind::kDivisionByZero;
  size_t inst = 0;
};

struct ProgramAnalysis {
  // Fact for each instruction's destination right after it executes (the
  // condition register's fact for jumps). Parallel to program.insts.
  std::vector<AbstractValue> inst_facts;
  // Fact for the result register at program exit (all paths joined).
  AbstractValue result;
  // Classification of the program used as a predicate (true iff the result
  // is boolean true).
  PredicateClass predicate = PredicateClass::kUnknown;
  std::vector<AnalysisNote> notes;
};

ProgramAnalysis AnalyzeProgram(const ExprProgram& program);

// When the analysis proved the result constant, rewrites `program` to a
// single kConst instruction. Returns true if it rewrote.
bool FoldProgram(ExprProgram* program, const ProgramAnalysis& analysis);

// ---------------------------------------------------------------------------
// Conjunct-set analysis.

struct ConjunctSetResult {
  // The conjuncts cannot all hold on any tuple: the filter ships nothing.
  bool contradiction = false;
  int contradiction_source = 0;      // field the empty intersection is on
  int contradiction_field = 0;
  // Conjuncts (indexes into the input) implied by the rest of the set.
  std::vector<int> redundant;
};

// Programs must share one lowering context (same source list). Only simple
// `field <cmp> literal` / `literal <cmp> field` atoms on path-free fields
// participate; anything else is conservatively opaque.
ConjunctSetResult AnalyzeConjunctSet(
    const std::vector<const ExprProgram*>& conjuncts);

}  // namespace scrub

#endif  // SRC_PLAN_EXPR_ANALYSIS_H_
