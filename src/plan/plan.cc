#include "src/plan/plan.h"

#include <unordered_set>

#include "src/common/strings.h"
#include "src/plan/expr_analysis.h"

namespace scrub {

size_t HostPlan::WireSize() const {
  // Rough but deterministic: fixed header + per-source predicate nodes and
  // projection masks. Query objects are tiny compared to event traffic; this
  // only needs to be the right order of magnitude for dissemination cost.
  size_t n = 64;
  for (const HostSourcePlan& s : sources) {
    n += s.event_type.size() + 16;
    n += static_cast<size_t>(s.predicate_nodes) * 24;
    n += s.keep_field.size();
  }
  return n;
}

bool HostSourcePlan::Selects(const Event& event, int64_t* insts_run) const {
  if (never_matches) {
    return false;
  }
  for (const ExprProgram& program : programs) {
    *insts_run += static_cast<int64_t>(program.insts.size());
    if (!EvalProgramPredicateSingle(program, event)) {
      return false;
    }
  }
  return true;
}

int64_t HostSourcePlan::SelectBatch(const ColumnBatch& cols,
                                    std::vector<uint32_t>* selection) const {
  if (never_matches) {
    selection->clear();
  }
  int64_t insts_run = 0;
  for (const ExprProgram& program : programs) {
    if (selection->empty()) {
      break;
    }
    insts_run += static_cast<int64_t>(program.insts.size()) *
                 static_cast<int64_t>(selection->size());
    EvalProgramPredicateBatch(program, cols, selection);
  }
  return insts_run;
}

const HostSourcePlan* HostPlan::FindSource(std::string_view event_type) const {
  for (const HostSourcePlan& s : sources) {
    if (s.event_type == event_type) {
      return &s;
    }
  }
  return nullptr;
}

namespace {

// Lower to the IR and apply the analysis-driven constant fold. Every
// consumer (host filter, group keys, raw select, aggregate args) goes
// through this one helper, so all evaluators execute the same lowering.
Result<ExprProgram> LowerOptimized(const Expr& expr,
                                   const std::vector<std::string>& sources,
                                   const std::vector<SchemaPtr>& schemas,
                                   PredicateClass* predicate = nullptr) {
  Result<ExprProgram> program = LowerExpr(expr, sources, schemas);
  if (!program.ok()) {
    return program;
  }
  const ProgramAnalysis analysis = AnalyzeProgram(*program);
  FoldProgram(&*program, analysis);
  if (predicate != nullptr) {
    *predicate = analysis.predicate;
  }
  return program;
}

// A predicate's size on the wire: one per node, per nested-path step and
// per IN member.
int NodeCount(const Expr& e) {
  int n = 1 + static_cast<int>(e.path.size());
  for (const ExprPtr& c : e.children) {
    n += NodeCount(*c);
  }
  return n;
}

class Planner {
 public:
  Planner(const AnalyzedQuery& aq, QueryId query_id, TimeMicros submit_time)
      : aq_(aq), query_id_(query_id), submit_time_(submit_time) {}

  Result<QueryPlan> Run() {
    QueryPlan plan;
    Status s = BuildHostPlan(&plan.host);
    if (!s.ok()) {
      return s;
    }
    s = BuildCentralPlan(&plan.central);
    if (!s.ok()) {
      return s;
    }
    return plan;
  }

 private:
  Status BuildHostPlan(HostPlan* host) {
    const Query& q = aq_.query;
    host->query_id = query_id_;
    host->start_time = submit_time_ + q.start_offset_micros;
    host->end_time = host->start_time + q.duration_micros;
    host->window_micros = q.window_micros;
    host->slide_micros = q.slide_micros;
    host->event_sample_rate = q.event_sample_rate;

    for (size_t i = 0; i < q.sources.size(); ++i) {
      HostSourcePlan sp;
      sp.event_type = q.sources[i];
      sp.source_index = static_cast<int>(i);

      // This source's conjuncts (plus source-free constant conjuncts, which
      // apply to every event).
      const std::vector<std::string> single_source = {q.sources[i]};
      const std::vector<SchemaPtr> single_schema = {aq_.schemas[i]};
      for (size_t c = 0; c < aq_.conjuncts.size(); ++c) {
        const int src = aq_.conjunct_source[c];
        if (src != static_cast<int>(i) && src != -1) {
          continue;
        }
        // Lower/fold for the hot path: an always-true conjunct drops out, an
        // always-false one makes the whole source filter unsatisfiable.
        PredicateClass cls = PredicateClass::kUnknown;
        Result<ExprProgram> program = LowerOptimized(
            *aq_.conjuncts[c], single_source, single_schema, &cls);
        if (!program.ok()) {
          return program.status();
        }
        sp.predicate_nodes += NodeCount(*aq_.conjuncts[c]);
        if (cls == PredicateClass::kAlwaysFalse) {
          sp.never_matches = true;
        }
        if (cls == PredicateClass::kUnknown) {
          sp.programs.push_back(std::move(program).value());
        }
      }

      // Cross-conjunct reasoning: an unsatisfiable set (status == 200 AND
      // status >= 500) ships nothing; implied conjuncts are dead and drop
      // out of the executed filter (the implying conjuncts stay).
      std::vector<const ExprProgram*> refs;
      refs.reserve(sp.programs.size());
      for (const ExprProgram& p : sp.programs) {
        refs.push_back(&p);
      }
      const ConjunctSetResult set = AnalyzeConjunctSet(refs);
      if (set.contradiction) {
        sp.never_matches = true;
      } else {
        for (auto it = set.redundant.rbegin(); it != set.redundant.rend();
             ++it) {
          sp.programs.erase(sp.programs.begin() + *it);
        }
      }

      // Projection mask.
      const SchemaPtr& schema = aq_.schemas[i];
      sp.keep_field.assign(schema->field_count(), false);
      for (const std::string& field : aq_.fields_per_source[i]) {
        const int idx = schema->FieldIndex(field);
        if (idx >= 0) {
          sp.keep_field[static_cast<size_t>(idx)] = true;
          ++sp.kept_fields;
        }
        // System fields ride in the event header; nothing to keep.
      }
      host->sources.push_back(std::move(sp));
    }
    return OkStatus();
  }

  Status BuildCentralPlan(CentralPlan* central) {
    const Query& q = aq_.query;
    central->query_id = query_id_;
    central->sources = q.sources;
    central->schemas = aq_.schemas;
    central->window_micros = q.window_micros;
    central->slide_micros = q.slide_micros;
    central->start_time = submit_time_ + q.start_offset_micros;
    central->end_time = central->start_time + q.duration_micros;
    central->host_sample_rate = q.host_sample_rate;
    central->event_sample_rate = q.event_sample_rate;
    central->aggregate_mode = aq_.has_aggregates || !q.group_by.empty();

    for (const SelectItem& item : q.select) {
      central->column_names.push_back(
          item.alias.empty() ? item.expr->ToString() : item.alias);
    }

    if (!central->aggregate_mode) {
      for (const SelectItem& item : q.select) {
        Result<ExprProgram> program =
            LowerOptimized(*item.expr, q.sources, aq_.schemas);
        if (!program.ok()) {
          return program.status();
        }
        central->raw_select_programs.push_back(std::move(program).value());
      }
      return OkStatus();
    }

    for (const ExprPtr& g : q.group_by) {
      Result<ExprProgram> program =
          LowerOptimized(*g, q.sources, aq_.schemas);
      if (!program.ok()) {
        return program.status();
      }
      central->group_by_programs.push_back(std::move(program).value());
    }

    for (const SelectItem& item : q.select) {
      OutputColumn column;
      column.name =
          item.alias.empty() ? item.expr->ToString() : item.alias;
      Result<OutputExpr> out = BuildOutputExpr(*item.expr, central);
      if (!out.ok()) {
        return out.status();
      }
      column.expr = std::move(out).value();
      central->outputs.push_back(std::move(column));
    }
    return OkStatus();
  }

  // Rewrites a select-item expression into an OutputExpr, registering
  // aggregate slots and resolving field refs to group-by positions.
  Result<OutputExpr> BuildOutputExpr(const Expr& e, CentralPlan* central) {
    OutputExpr out;
    switch (e.kind) {
      case ExprKind::kLiteral:
        out.kind = OutputKind::kLiteral;
        out.literal = e.literal;
        return out;
      case ExprKind::kAggregate: {
        AggregateSpec spec;
        spec.func = e.agg_func;
        spec.topk_k = e.topk_k;
        if (!e.children.empty()) {
          Result<ExprProgram> arg = LowerOptimized(
              *e.children[0], aq_.query.sources, aq_.schemas);
          if (!arg.ok()) {
            return arg.status();
          }
          spec.has_arg = true;
          spec.arg_program = std::move(arg).value();
        }
        out.kind = OutputKind::kAggregate;
        out.index = static_cast<int>(central->aggregates.size());
        central->aggregates.push_back(std::move(spec));
        return out;
      }
      case ExprKind::kFieldRef: {
        for (size_t g = 0; g < aq_.query.group_by.size(); ++g) {
          const Expr& gb = *aq_.query.group_by[g];
          if (gb.qualifier == e.qualifier && gb.field == e.field &&
              gb.path == e.path) {
            out.kind = OutputKind::kGroupKey;
            out.index = static_cast<int>(g);
            return out;
          }
        }
        return InvalidArgument(StrFormat(
            "select field '%s' is not a GROUP BY key",
            e.ToString().c_str()));
      }
      case ExprKind::kUnary: {
        out.kind = OutputKind::kUnary;
        out.unary_op = e.unary_op;
        Result<OutputExpr> child = BuildOutputExpr(*e.children[0], central);
        if (!child.ok()) {
          return child;
        }
        out.children.push_back(std::move(child).value());
        return out;
      }
      case ExprKind::kBinary: {
        out.kind = OutputKind::kBinary;
        out.binary_op = e.binary_op;
        for (const ExprPtr& c : e.children) {
          Result<OutputExpr> child = BuildOutputExpr(*c, central);
          if (!child.ok()) {
            return child;
          }
          out.children.push_back(std::move(child).value());
        }
        return out;
      }
      default:
        return Unimplemented(StrFormat(
            "expression '%s' is not supported in an aggregated SELECT list",
            e.ToString().c_str()));
    }
  }

  const AnalyzedQuery& aq_;
  const QueryId query_id_;
  const TimeMicros submit_time_;
};

}  // namespace

Result<QueryPlan> PlanQuery(const AnalyzedQuery& analyzed, QueryId query_id,
                            TimeMicros submit_time) {
  Planner planner(analyzed, query_id, submit_time);
  return planner.Run();
}

Value EvalOutputExpr(const OutputExpr& expr,
                     const std::vector<Value>& group_key,
                     const std::vector<Value>& aggregate_values) {
  switch (expr.kind) {
    case OutputKind::kLiteral:
      return expr.literal;
    case OutputKind::kGroupKey:
      return group_key[static_cast<size_t>(expr.index)];
    case OutputKind::kAggregate:
      return aggregate_values[static_cast<size_t>(expr.index)];
    case OutputKind::kUnary:
      return ApplyUnaryOp(
          expr.unary_op,
          EvalOutputExpr(expr.children[0], group_key, aggregate_values));
    case OutputKind::kBinary:
      return ApplyBinaryOp(
          expr.binary_op,
          EvalOutputExpr(expr.children[0], group_key, aggregate_values),
          EvalOutputExpr(expr.children[1], group_key, aggregate_values));
  }
  return Value::Null();
}

}  // namespace scrub
