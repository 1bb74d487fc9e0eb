#include "src/plan/explain.h"

#include "src/common/strings.h"
#include "src/plan/expr_analysis.h"
#include "src/plan/physical.h"

namespace scrub {
namespace {

std::string IndentLines(const std::string& text, const char* pad) {
  std::string out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    out += pad;
    out.append(text, start, end - start);
    out += "\n";
    start = end + 1;
  }
  return out;
}

std::string DurationText(TimeMicros micros) {
  if (micros % kMicrosPerMinute == 0) {
    return StrFormat("%lld m",
                     static_cast<long long>(micros / kMicrosPerMinute));
  }
  if (micros % kMicrosPerSecond == 0) {
    return StrFormat("%lld s",
                     static_cast<long long>(micros / kMicrosPerSecond));
  }
  return StrFormat("%lld us", static_cast<long long>(micros));
}

// The planner compiles a conjunct into a source's filter when it reads that
// source or no source at all (a constant conjunct applies everywhere).
bool ConjunctTouches(const AnalyzedQuery& analyzed, size_t conjunct,
                     size_t source) {
  const int src = analyzed.conjunct_source[conjunct];
  return src == static_cast<int>(source) || src == -1;
}

size_t SourceConjunctCount(const AnalyzedQuery& analyzed, size_t source) {
  size_t n = 0;
  for (size_t c = 0; c < analyzed.conjuncts.size(); ++c) {
    n += ConjunctTouches(analyzed, c, source) ? 1 : 0;
  }
  return n;
}

}  // namespace

std::string ExplainPlan(const AnalyzedQuery& analyzed, const QueryPlan& plan,
                        const LintOptions& lint_options,
                        std::string_view query_text) {
  const Query& q = analyzed.query;
  std::string out;
  out += "query: " + q.ToString() + "\n";
  out += StrFormat("span: start=+%s duration=%s window=%s",
                   DurationText(q.start_offset_micros).c_str(),
                   DurationText(q.duration_micros).c_str(),
                   DurationText(q.window_micros).c_str());
  if (q.slide_micros != q.window_micros) {
    out += StrFormat(" slide=%s (sliding)",
                     DurationText(q.slide_micros).c_str());
  }
  out += "\n";

  out += "host plan (selection + projection + sampling ONLY):\n";
  if (plan.host.event_sample_rate < 1.0) {
    out += StrFormat("  event sampling: %.4g%% (coin flip before any "
                     "predicate work)\n",
                     plan.host.event_sample_rate * 100);
  }
  for (size_t i = 0; i < plan.host.sources.size(); ++i) {
    const HostSourcePlan& sp = plan.host.sources[i];
    out += StrFormat("  source '%s':\n", sp.event_type.c_str());
    const size_t conjuncts = SourceConjunctCount(analyzed, i);
    if (conjuncts == 0) {
      out += "    selection: none (every event ships)\n";
    } else {
      out += StrFormat("    selection: %zu conjunct(s), %d predicate "
                       "node(s) per event\n",
                       conjuncts, sp.predicate_nodes);
      for (size_t c = 0; c < analyzed.conjuncts.size(); ++c) {
        if (ConjunctTouches(analyzed, c, i)) {
          out += "      " + analyzed.conjuncts[c]->ToString() + "\n";
        }
      }
    }
    std::vector<std::string> kept;
    const SchemaPtr& schema = analyzed.schemas[i];
    for (size_t f = 0; f < sp.keep_field.size(); ++f) {
      if (sp.keep_field[f]) {
        kept.push_back(schema->field(f).name);
      }
    }
    out += StrFormat("    projection: %d of %zu fields ship (%s)\n",
                     sp.kept_fields, sp.keep_field.size(),
                     kept.empty() ? "metadata only"
                                  : StrJoin(kept, ", ").c_str());
  }

  const CentralPlan& central = plan.central;
  out += "central plan (ScrubCentral):\n";
  if (central.is_join()) {
    out += StrFormat("  join: %s on %.*s, scoped per window\n",
                     StrJoin(central.sources, " \xE2\x8B\x88 ").c_str(),
                     static_cast<int>(kRequestIdField.size()),
                     kRequestIdField.data());
  }
  if (!central.aggregate_mode) {
    out += StrFormat("  mode: raw projection, %zu column(s) per tuple\n",
                     central.raw_select_programs.size());
  } else {
    out += StrFormat("  group by: %zu key(s)\n",
                     central.group_by_programs.size());
    out += StrFormat("  aggregates: %zu\n", central.aggregates.size());
    for (const AggregateSpec& spec : central.aggregates) {
      out += StrFormat("    %s%s\n", AggregateFuncName(spec.func),
                       spec.func == AggregateFunc::kTopK
                           ? StrFormat("(k=%lld, SpaceSaving)",
                                       static_cast<long long>(spec.topk_k))
                                 .c_str()
                           : (spec.func == AggregateFunc::kCountDistinct
                                  ? " (HyperLogLog)"
                                  : ""));
    }
  }
  if (central.SamplingActive()) {
    out += StrFormat("  sampling: hosts %.4g%%, events %.4g%% — COUNT/SUM "
                     "scale per Eq. 1; ungrouped single-source COUNT/SUM "
                     "carry Eq. 2-3 error bounds\n",
                     central.host_sample_rate * 100,
                     central.event_sample_rate * 100);
  }
  out += "  physical pipeline:\n";
  const PhysicalPipeline pipeline =
      CompilePhysical(central, PipelineRole::kSingleInstance);
  for (const PhysicalOp& op : pipeline.ops) {
    out += StrFormat("    %s(%s)\n", PhysicalOpKindName(op.kind),
                     op.detail.c_str());
  }

  // Typed expression IR: the lowered, folded programs the row and columnar
  // evaluators execute, with the abstract interpreter's facts.
  out += "ir:\n";
  for (size_t i = 0; i < plan.host.sources.size(); ++i) {
    const HostSourcePlan& sp = plan.host.sources[i];
    const std::vector<std::string> single_source = {sp.event_type};
    const std::vector<SchemaPtr> single_schema = {analyzed.schemas[i]};
    if (sp.never_matches) {
      out += StrFormat("  source '%s': filter proven unsatisfiable — no "
                       "event ever ships\n",
                       sp.event_type.c_str());
    }
    const size_t pruned =
        SourceConjunctCount(analyzed, i) - sp.programs.size();
    if (pruned > 0 && !sp.never_matches) {
      out += StrFormat("  source '%s': %zu conjunct(s) folded away or "
                       "implied by the rest\n",
                       sp.event_type.c_str(), pruned);
    }
    for (size_t pi = 0; pi < sp.programs.size(); ++pi) {
      const ExprProgram& program = sp.programs[pi];
      const ProgramAnalysis analysis = AnalyzeProgram(program);
      out += StrFormat("  source '%s' filter program %zu: result %s, "
                       "predicate %s\n",
                       sp.event_type.c_str(), pi,
                       analysis.result.ToString().c_str(),
                       PredicateClassName(analysis.predicate));
      out += IndentLines(ProgramToString(program, single_source,
                                         single_schema),
                         "    ");
    }
  }
  {
    size_t agg_args = 0;
    size_t agg_insts = 0;
    for (const AggregateSpec& spec : central.aggregates) {
      if (spec.has_arg) {
        ++agg_args;
        agg_insts += spec.arg_program.insts.size();
      }
    }
    size_t central_insts = agg_insts;
    for (const ExprProgram& p : central.group_by_programs) {
      central_insts += p.insts.size();
    }
    for (const ExprProgram& p : central.raw_select_programs) {
      central_insts += p.insts.size();
    }
    out += StrFormat("  central: %zu group-key, %zu aggregate-arg, %zu "
                     "raw-select program(s), %zu instruction(s) total\n",
                     central.group_by_programs.size(), agg_args,
                     central.raw_select_programs.size(), central_insts);
  }

  const std::vector<Diagnostic> diags = LintQuery(analyzed, lint_options);
  if (diags.empty()) {
    out += "lint: clean\n";
  } else {
    out += "lint:\n";
    for (const Diagnostic& d : diags) {
      std::string rendered = RenderDiagnostic(d, query_text);
      out += "  ";
      for (const char c : rendered) {
        out += c;
        if (c == '\n') {
          out += "  ";
        }
      }
      out += "\n";
    }
  }
  return out;
}

std::string ExplainQuery(std::string_view query_text,
                         const SchemaRegistry& registry,
                         const AnalyzerOptions& options,
                         const LintOptions& lint_options) {
  Result<AnalyzedQuery> analyzed =
      ParseAndAnalyze(query_text, registry, options);
  if (!analyzed.ok()) {
    return "error: " + analyzed.status().ToString();
  }
  Result<QueryPlan> plan = PlanQuery(*analyzed, /*query_id=*/0,
                                     /*submit_time=*/0);
  if (!plan.ok()) {
    return "error: " + plan.status().ToString();
  }
  return ExplainPlan(*analyzed, *plan, lint_options, query_text);
}

}  // namespace scrub
