// Physical operator pipeline compiled from a CentralPlan.
//
// ScrubCentral historically grew one fold path per topology (single
// instance, shard, sharded coordinator), each re-deriving the same plan
// facts inline. This header is the single compilation step: CompilePhysical() turns a
// CentralPlan into a PhysicalPipeline — the operator sequence
//
//   Decode -> [Join] -> GroupFold | Project -> WindowClose -> Finalize
//
// plus the estimator parameterization (which aggregate slots scale under
// sampling, which get the Eq. 1-3 bounded treatment, whether the ratio
// fallback applies). Every deployment executes the *same* compiled pipeline;
// the executor (src/central/executor.h) interprets it against ColumnBatch
// selections through the InputChunk interface below.
//
// Topology is expressed as a role: a single instance runs every stage; a
// shard runs Decode..WindowClose and exports mergeable partials; the sharded
// coordinator runs only Finalize over globally merged state. Splitting the
// pipeline at WindowClose is what lets sampled plans shard: shards fold
// per-(group, host) readings locally, and the coordinator — the only place
// with the global per-host population counts Equations 1-3 need — runs the
// estimator once per (window, group), through the same Finalize body a
// single instance runs over its own per-(group, host) readings.

#ifndef SRC_PLAN_PHYSICAL_H_
#define SRC_PLAN_PHYSICAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/event/column_batch.h"
#include "src/event/event.h"
#include "src/plan/plan.h"

namespace scrub {

// One executor input: a selection of rows in a shared, immutable
// ColumnBatch. Operators consume chunks through the accessors, so window
// assignment and the join's equi-key probe read straight off columns
// without materializing Events.
struct InputChunk {
  std::shared_ptr<const ColumnBatch> columns;
  const uint32_t* selection = nullptr;  // rows of `columns`; nullptr = all
  size_t selected = 0;

  static InputChunk Columns(std::shared_ptr<const ColumnBatch> batch,
                            const uint32_t* selection, size_t selected) {
    InputChunk chunk;
    chunk.selected = selection != nullptr ? selected : batch->rows();
    chunk.columns = std::move(batch);
    chunk.selection = selection;
    return chunk;
  }

  size_t size() const { return selected; }
  // Row index into `columns` for chunk position i.
  size_t row(size_t i) const {
    return selection != nullptr ? selection[i] : i;
  }
  TimeMicros timestamp(size_t i) const { return columns->timestamp(row(i)); }
  RequestId request_id(size_t i) const {
    return columns->request_id(row(i));
  }
};

enum class PhysicalOpKind {
  kDecode,       // wire payload -> InputChunk (columnar)
  kJoin,         // symmetric hash join on request id, window-scoped
  kProject,      // raw mode: render select exprs per tuple, emit eagerly
  kGroupFold,    // group-key eval + accumulator update
  kWindowClose,  // lateness-gated close: completeness, orphans, emission
  kFinalize,     // accumulators -> values (+ Eq. 1-3 bounds under sampling)
};

const char* PhysicalOpKindName(PhysicalOpKind kind);

struct PhysicalOp {
  PhysicalOpKind kind = PhysicalOpKind::kDecode;
  std::string detail;  // parameterization, rendered by EXPLAIN
};

// Observed per-operator execution counters, one per PhysicalOp, indexed in
// parallel with PhysicalPipeline::ops. Counters are pure observers: they are
// charged at chunk granularity (one ThreadCpuNs read per operator per chunk,
// not per row), never feed the CostMeter, and never influence the fold — so
// collecting them cannot perturb transcripts. Shards export deltas inside
// WindowPartial envelopes (sideband: excluded from wire-size accounting) and
// the coordinator sums them, the same way completeness/fidelity ride.
struct OperatorMetrics {
  uint64_t rows_in = 0;   // rows presented to the operator
  uint64_t rows_out = 0;  // rows surviving it (join survivors, rows emitted)
  uint64_t batches = 0;   // chunks / windows the operator processed
  uint64_t cpu_ns = 0;    // CLOCK_THREAD_CPUTIME_ID ns attributed to it

  void Merge(const OperatorMetrics& other) {
    rows_in += other.rows_in;
    rows_out += other.rows_out;
    batches += other.batches;
    cpu_ns += other.cpu_ns;
  }
  // rows_out / rows_in, 1.0 when nothing was presented yet.
  double Selectivity() const {
    return rows_in == 0 ? 1.0
                        : static_cast<double>(rows_out) /
                              static_cast<double>(rows_in);
  }
  bool Empty() const {
    return rows_in == 0 && rows_out == 0 && batches == 0 && cpu_ns == 0;
  }
};

// Sums two parallel metric vectors (resizing `into` as needed): the
// shard -> coordinator merge and the DescribeQuery roll-up both use it.
void MergeOperatorMetrics(std::vector<OperatorMetrics>& into,
                          const std::vector<OperatorMetrics>& from);

// Where a compiled pipeline instance runs.
enum class PipelineRole {
  kSingleInstance,  // every stage, Finalize included
  kShard,           // Decode..WindowClose; exports mergeable WindowPartials
  kCoordinator,     // Finalize only, over globally merged partials
};

const char* PipelineRoleName(PipelineRole role);

struct PhysicalPipeline {
  PipelineRole role = PipelineRole::kSingleInstance;
  std::vector<PhysicalOp> ops;

  // ---- Finalize / estimator parameterization (compiled once) -------------
  // Aggregate slots that scale under sampling (COUNT / SUM), in slot order.
  std::vector<int> scaled_slots;
  // Slots that get the full Eq. 1-3 treatment at Finalize. Single instance:
  // scaled slots of ungrouped non-join sampled plans. Coordinator: every
  // scaled slot of a non-join sampled plan, bounded per group from the
  // shards' per-(group, host) readings. Shards never finalize.
  std::vector<int> bounded_aggregates;
  // Scaled slots not in bounded_aggregates fall back to the global ratio
  // estimate (Eq. 1 without bounds) when sampling is active: grouped plans
  // on a single instance, join plans everywhere.
  bool needs_scaling = false;
  // Fold per-(group, host) readings for the scaled slots, the Eq. 3 s_i^2
  // input: shards of sampled non-join plans (shipped in WindowPartials to
  // the coordinator's Finalize) and single instances with bounded slots
  // (read by their own Finalize).
  bool collect_group_readings = false;

  // One "Op(detail)" line per operator, newline-terminated (EXPLAIN). When
  // `metrics` is non-null, each line whose operator has observed counters is
  // annotated with rows in/out, selectivity, batches and CPU time — the
  // EXPLAIN ANALYZE rendering. Metric entries beyond ops.size() (e.g. the
  // coordinator's Finalize appended after shard ops) are ignored here;
  // callers with composite pipelines render them via AnnotateOp directly.
  std::string ToString(
      const std::vector<OperatorMetrics>* metrics = nullptr) const;
};

// One annotated "Op(detail)  [rows ...]" line (newline-terminated) for an
// operator with observed counters; falls back to the plain EXPLAIN line when
// `m` is null or empty. Shared by ToString(metrics) and the sharded-plan
// renderer, which stitches shard ops and the coordinator Finalize together.
std::string AnnotateOp(const PhysicalOp& op, const OperatorMetrics* m);

PhysicalPipeline CompilePhysical(const CentralPlan& plan, PipelineRole role);

}  // namespace scrub

#endif  // SRC_PLAN_PHYSICAL_H_
