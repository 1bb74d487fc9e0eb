#include "src/plan/physical.h"

#include "src/common/strings.h"

namespace scrub {

const char* PhysicalOpKindName(PhysicalOpKind kind) {
  switch (kind) {
    case PhysicalOpKind::kDecode:
      return "Decode";
    case PhysicalOpKind::kJoin:
      return "Join";
    case PhysicalOpKind::kProject:
      return "Project";
    case PhysicalOpKind::kGroupFold:
      return "GroupFold";
    case PhysicalOpKind::kWindowClose:
      return "WindowClose";
    case PhysicalOpKind::kFinalize:
      return "Finalize";
  }
  return "?";
}

const char* PipelineRoleName(PipelineRole role) {
  switch (role) {
    case PipelineRole::kSingleInstance:
      return "single instance";
    case PipelineRole::kShard:
      return "shard";
    case PipelineRole::kCoordinator:
      return "coordinator";
  }
  return "?";
}

void MergeOperatorMetrics(std::vector<OperatorMetrics>& into,
                          const std::vector<OperatorMetrics>& from) {
  if (into.size() < from.size()) {
    into.resize(from.size());
  }
  for (size_t i = 0; i < from.size(); ++i) {
    into[i].Merge(from[i]);
  }
}

std::string AnnotateOp(const PhysicalOp& op, const OperatorMetrics* m) {
  if (m == nullptr || m->Empty()) {
    return StrFormat("%s(%s)\n", PhysicalOpKindName(op.kind),
                     op.detail.c_str());
  }
  return StrFormat(
      "%s(%s)  [rows %llu -> %llu, sel %.3f, batches %llu, cpu %.3f ms]\n",
      PhysicalOpKindName(op.kind), op.detail.c_str(),
      static_cast<unsigned long long>(m->rows_in),
      static_cast<unsigned long long>(m->rows_out), m->Selectivity(),
      static_cast<unsigned long long>(m->batches),
      static_cast<double>(m->cpu_ns) / 1e6);
}

std::string PhysicalPipeline::ToString(
    const std::vector<OperatorMetrics>* metrics) const {
  std::string out;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OperatorMetrics* m =
        metrics != nullptr && i < metrics->size() ? &(*metrics)[i] : nullptr;
    out += AnnotateOp(ops[i], m);
  }
  return out;
}

PhysicalPipeline CompilePhysical(const CentralPlan& plan, PipelineRole role) {
  PhysicalPipeline p;
  p.role = role;
  for (size_t i = 0; i < plan.aggregates.size(); ++i) {
    if (plan.aggregates[i].ScalesUnderSampling()) {
      p.scaled_slots.push_back(static_cast<int>(i));
    }
  }
  const bool sampling = plan.SamplingActive();
  switch (role) {
    case PipelineRole::kSingleInstance:
      p.needs_scaling = sampling;
      // Only ungrouped non-join plans get single-instance Eq. 1-3 bounds,
      // from the per-(group, host) readings the fold collects for them;
      // grouped scaled slots use the ratio fallback.
      if (sampling && plan.group_by_programs.empty() && !plan.is_join()) {
        p.bounded_aggregates = p.scaled_slots;
      }
      p.collect_group_readings = !p.bounded_aggregates.empty();
      break;
    case PipelineRole::kShard:
      // Shards neither scale nor bound: the estimator needs the global
      // per-host population view, which only the coordinator has. Shards
      // collect the per-(group, host) readings it will need.
      p.collect_group_readings =
          sampling && plan.aggregate_mode && !plan.is_join();
      break;
    case PipelineRole::kCoordinator:
      p.needs_scaling = sampling;
      // Per-(group, host) readings arrive in the shards' partials, so every
      // scaled slot of a non-join plan is bounded — per group, which the
      // single instance cannot do. Join plans keep the ratio fallback (the
      // join output is not a per-host sample of anything).
      if (sampling && !plan.is_join()) {
        p.bounded_aggregates = p.scaled_slots;
      }
      break;
  }

  const auto add = [&p](PhysicalOpKind kind, std::string detail) {
    PhysicalOp op;
    op.kind = kind;
    op.detail = std::move(detail);
    p.ops.push_back(std::move(op));
  };

  if (role == PipelineRole::kCoordinator) {
    // The coordinator's whole job is the pipeline tail; everything up to
    // WindowClose already ran on the shards.
    if (!plan.aggregate_mode) {
      add(PhysicalOpKind::kFinalize,
          "forward shard rows (each joined tuple wholly on one shard)");
    } else if (!sampling) {
      add(PhysicalOpKind::kFinalize,
          "merge shard partials per (window, group), exact");
    } else if (!p.bounded_aggregates.empty()) {
      add(PhysicalOpKind::kFinalize,
          StrFormat("merge shard partials + per-host counters; Eq. 1-3 "
                    "estimate with error bound per group on %zu slot(s)",
                    p.bounded_aggregates.size()));
    } else {
      add(PhysicalOpKind::kFinalize,
          "merge shard partials; ratio scale (Eq. 1), no bounds");
    }
    return p;
  }

  add(PhysicalOpKind::kDecode,
      role == PipelineRole::kShard
          ? "ColumnBatch selection (router re-buckets by request id)"
          : "ColumnBatch selection");
  if (plan.is_join()) {
    add(PhysicalOpKind::kJoin,
        StrFormat("%s on __request_id, window-scoped; columnar inputs "
                  "materialize join survivors only",
                  StrJoin(plan.sources, " \xE2\x8B\x88 ").c_str()));
  }
  if (plan.aggregate_mode) {
    add(PhysicalOpKind::kGroupFold,
        StrFormat("%zu key(s), %zu aggregate(s)",
                  plan.group_by_programs.size(), plan.aggregates.size()));
  } else {
    add(PhysicalOpKind::kProject,
        StrFormat("raw, %zu column(s) per tuple, emitted eagerly",
                  plan.raw_select_programs.size()));
  }
  add(PhysicalOpKind::kWindowClose,
      role == PipelineRole::kShard
          ? "emit mergeable WindowPartial per window"
          : StrFormat("%s window, lateness-gated",
                      plan.slide_micros > 0 &&
                              plan.slide_micros < plan.window_micros
                          ? "sliding"
                          : "tumbling"));
  if (role == PipelineRole::kShard) {
    return p;  // Finalize runs at the coordinator
  }
  if (plan.aggregate_mode) {
    if (!sampling) {
      add(PhysicalOpKind::kFinalize, "exact");
    } else if (!p.bounded_aggregates.empty()) {
      add(PhysicalOpKind::kFinalize,
          StrFormat("Eq. 1-3 estimate with error bound on %zu slot(s)",
                    p.bounded_aggregates.size()));
    } else {
      add(PhysicalOpKind::kFinalize, "ratio scale (Eq. 1), no bounds");
    }
  }
  return p;
}

}  // namespace scrub
