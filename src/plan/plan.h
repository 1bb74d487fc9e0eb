// Query planning: the host/central split.
//
// This is the heart of Scrub's execution strategy (Section 4). Classical
// optimizers push work toward the data; Scrub does the opposite to protect
// the application hosts. The planner splits a validated query into:
//
//   * a HostPlan — ONLY selection (the WHERE conjuncts that touch that
//     host's event type), projection (null out fields the query never
//     reads), and event sampling. These all *reduce* host cost and bytes
//     shipped; nothing else ever runs host-side.
//
//   * a CentralPlan — the join (always the implicit equi-join on request
//     id), group-by, aggregation and windowing, executed at ScrubCentral.
//
// The same planner output is also consumed by the full-logging baseline's
// batch engine and the pushdown ablation, so all three answer queries
// identically. Plans carry expressions only as lowered ExprPrograms: the
// compiled trees are a planning-time intermediate and are not kept.

#ifndef SRC_PLAN_PLAN_H_
#define SRC_PLAN_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/plan/expr_ir.h"
#include "src/query/analyzer.h"

namespace scrub {

using QueryId = uint64_t;

// ---------------------------------------------------------------------------
// Host side.

struct HostSourcePlan {
  std::string event_type;
  int source_index = 0;  // position in the query's FROM list

  // Selection: the WHERE conjuncts that touch this source, compiled against
  // it alone; an event must satisfy all of them to be shipped.
  // predicate_nodes is their total compiled node count — the query object's
  // predicate size on the wire and in EXPLAIN.
  int predicate_nodes = 0;

  // The conjuncts lowered to the typed IR, constant-folded, with always-true
  // and implied (dead) conjuncts pruned — what every host-side filter
  // executes. When the analysis proves the conjunct set unsatisfiable,
  // never_matches is set and nothing ships.
  std::vector<ExprProgram> programs;
  bool never_matches = false;

  // The host filter on one event, as both baselines run it: a
  // never_matches source passes nothing, otherwise the programs run in order
  // and the first failure stops. Adds the instructions of every program run
  // to *insts_run (hosts charge predicate_term_ns per instruction).
  bool Selects(const Event& event, int64_t* insts_run) const;
  // The vectorized twin the agent runs at flush: compacts `selection` (row
  // indices into `cols`, in order) to the rows that pass, and returns the
  // instructions run summed over the rows each program saw.
  int64_t SelectBatch(const ColumnBatch& cols,
                      std::vector<uint32_t>* selection) const;

  // Projection: keep_field[i] is true iff the query reads schema field i.
  std::vector<bool> keep_field;
  int kept_fields = 0;
};

struct HostPlan {
  QueryId query_id = 0;
  TimeMicros start_time = 0;  // absolute; host collects in [start, end)
  TimeMicros end_time = 0;
  // Sampling counters are kept per slide period (slide == window for
  // tumbling queries).
  TimeMicros window_micros = 0;
  TimeMicros slide_micros = 0;
  double event_sample_rate = 1.0;
  std::vector<HostSourcePlan> sources;

  // Approximate size of this query object on the wire (dissemination cost).
  size_t WireSize() const;
  const HostSourcePlan* FindSource(std::string_view event_type) const;
};

// ---------------------------------------------------------------------------
// Central side.

// A scalar expression over finalized aggregates and group-key values,
// used to render select items such as 1000 * AVG(impression.cost).
enum class OutputKind { kLiteral, kGroupKey, kAggregate, kUnary, kBinary };

struct OutputExpr {
  OutputKind kind = OutputKind::kLiteral;
  Value literal;
  int index = 0;  // group-by position (kGroupKey) or aggregate slot (kAggregate)
  UnaryOp unary_op = UnaryOp::kNegate;
  BinaryOp binary_op = BinaryOp::kAdd;
  std::vector<OutputExpr> children;
};

struct AggregateSpec {
  AggregateFunc func = AggregateFunc::kCount;
  int64_t topk_k = 0;
  bool has_arg = false;
  ExprProgram arg_program;  // lowered + folded

  // COUNT/SUM estimates are scaled up under sampling (Eq. 1); AVG is a ratio
  // so scaling cancels; MIN/MAX/TOPK/COUNT_DISTINCT are never scaled.
  bool ScalesUnderSampling() const {
    return func == AggregateFunc::kCount || func == AggregateFunc::kSum;
  }
};

struct OutputColumn {
  std::string name;
  OutputExpr expr;
};

struct CentralPlan {
  QueryId query_id = 0;
  std::vector<std::string> sources;
  std::vector<SchemaPtr> schemas;
  bool is_join() const { return sources.size() > 1; }

  // Aggregate mode: group-by keys + aggregates + outputs.
  // Raw mode (no aggregates, no grouping): one program per select item,
  // evaluated per joined tuple. All expressions are lowered + folded.
  bool aggregate_mode = false;
  std::vector<ExprProgram> group_by_programs;    // aggregate mode
  std::vector<AggregateSpec> aggregates;         // aggregate mode
  std::vector<OutputColumn> outputs;             // aggregate mode
  std::vector<ExprProgram> raw_select_programs;  // raw mode
  std::vector<std::string> column_names;         // both modes, in select order

  TimeMicros window_micros = 0;
  TimeMicros slide_micros = 0;  // < window: sliding; == window: tumbling
  TimeMicros start_time = 0;
  TimeMicros end_time = 0;

  // Sampling bookkeeping for Eq. 1-3, filled in by the query server after
  // host-set resolution: N = hosts matched, n = hosts actually installed.
  double host_sample_rate = 1.0;
  double event_sample_rate = 1.0;
  uint64_t hosts_targeted = 0;
  uint64_t hosts_sampled = 0;

  bool SamplingActive() const {
    return host_sample_rate < 1.0 || event_sample_rate < 1.0;
  }
};

struct QueryPlan {
  HostPlan host;
  CentralPlan central;
};

// Splits an analyzed query. `submit_time` anchors the relative START /
// DURATION clauses into absolute simulation time.
Result<QueryPlan> PlanQuery(const AnalyzedQuery& analyzed, QueryId query_id,
                            TimeMicros submit_time);

// Evaluates an output column for one result row, given the row's group-key
// values and its finalized aggregate values.
Value EvalOutputExpr(const OutputExpr& expr,
                     const std::vector<Value>& group_key,
                     const std::vector<Value>& aggregate_values);

}  // namespace scrub

#endif  // SRC_PLAN_PLAN_H_
