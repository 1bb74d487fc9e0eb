#include "src/baseline/pushdown_agent.h"

#include <algorithm>

#include "src/common/strings.h"

namespace scrub {

Result<PushdownPlan> BuildPushdownPlan(const AnalyzedQuery& analyzed,
                                       QueryId query_id,
                                       TimeMicros submit_time) {
  const Query& q = analyzed.query;
  if (q.sources.size() != 1) {
    return Unimplemented("pushdown supports single-source queries only");
  }
  if (!analyzed.has_aggregates) {
    return Unimplemented("pushdown supports aggregate queries only");
  }
  if (q.slide_micros != q.window_micros && q.slide_micros != 0) {
    return Unimplemented("pushdown supports tumbling windows only");
  }
  Result<QueryPlan> plan = PlanQuery(analyzed, query_id, submit_time);
  if (!plan.ok()) {
    return plan.status();
  }
  for (const AggregateSpec& spec : plan->central.aggregates) {
    if (spec.func == AggregateFunc::kCountDistinct ||
        spec.func == AggregateFunc::kTopK) {
      return Unimplemented(StrFormat(
          "pushdown does not support %s", AggregateFuncName(spec.func)));
    }
  }
  PushdownPlan out;
  out.query_id = query_id;
  out.source = std::move(plan->host.sources[0]);
  out.group_by = std::move(plan->central.group_by_programs);
  out.aggregates = std::move(plan->central.aggregates);
  out.outputs = std::move(plan->central.outputs);
  out.window_micros = plan->central.window_micros;
  out.start_time = plan->central.start_time;
  out.end_time = plan->central.end_time;
  return out;
}

size_t GroupPartial::WireSize() const {
  size_t n = 8;
  for (const Value& v : key) {
    n += v.WireSize();
  }
  n += counts.size() * 8 + sums.size() * 8;
  for (const Value& v : mins) {
    n += v.WireSize();
  }
  for (const Value& v : maxs) {
    n += v.WireSize();
  }
  return n;
}

size_t PartialBatch::WireSize() const {
  size_t n = 32;
  for (const GroupPartial& g : groups) {
    n += g.WireSize();
  }
  return n;
}

void PushdownAgent::InstallQuery(PushdownPlan plan) {
  const QueryId id = plan.query_id;
  queries_.erase(id);
  ActiveQuery q;
  q.plan = std::move(plan);
  queries_.emplace(id, std::move(q));
}

void PushdownAgent::RemoveQuery(QueryId query_id) {
  queries_.erase(query_id);
}

TimeMicros PushdownAgent::WindowStartFor(const ActiveQuery& q,
                                         TimeMicros ts) const {
  const TimeMicros w = q.plan.window_micros;
  if (w <= 0) {
    return q.plan.start_time;
  }
  return q.plan.start_time + ((ts - q.plan.start_time) / w) * w;
}

size_t PushdownAgent::current_state_entries() const {
  size_t n = 0;
  for (const auto& [qid, q] : queries_) {
    for (const auto& [start, groups] : q.windows) {
      n += groups.size();
    }
  }
  return n;
}

int64_t PushdownAgent::LogEvent(const Event& event) {
  int64_t ns = costs_.log_fixed_ns +
               costs_.log_per_field_ns *
                   static_cast<int64_t>(event.field_count());
  const TimeMicros ts = event.timestamp();
  for (auto& [qid, q] : queries_) {
    if (ts < q.plan.start_time || ts >= q.plan.end_time ||
        event.type_name() != q.plan.source.event_type) {
      continue;
    }
    // Selection: identical to Scrub's host-side cost.
    int64_t insts = 0;
    const bool pass = q.plan.source.Selects(event, &insts);
    ns += costs_.predicate_term_ns * insts;
    if (!pass) {
      continue;
    }
    // Group-by + aggregation ON THE HOST — the work Scrub refuses to do
    // here.
    std::vector<Value> key;
    key.reserve(q.plan.group_by.size());
    for (const ExprProgram& g : q.plan.group_by) {
      ns += costs_.predicate_term_ns * static_cast<int64_t>(g.insts.size());
      key.push_back(EvalProgramSingle(g, event));
    }
    auto& groups = q.windows[WindowStartFor(q, ts)];
    GroupPartial& partial = groups[key];
    if (partial.counts.empty()) {
      ns += costs_.enqueue_ns;  // table insert
      partial.key = key;
      partial.counts.assign(q.plan.aggregates.size(), 0);
      partial.sums.assign(q.plan.aggregates.size(), 0.0);
      partial.mins.resize(q.plan.aggregates.size());
      partial.maxs.resize(q.plan.aggregates.size());
    }
    for (size_t i = 0; i < q.plan.aggregates.size(); ++i) {
      const AggregateSpec& spec = q.plan.aggregates[i];
      ns += costs_.central_group_update_ns;  // same unit work, host-side now
      Value arg;
      if (spec.has_arg) {
        arg = EvalProgramSingle(spec.arg_program, event);
        if (arg.is_null()) {
          continue;
        }
      }
      switch (spec.func) {
        case AggregateFunc::kCount:
          ++partial.counts[i];
          break;
        case AggregateFunc::kSum:
        case AggregateFunc::kAvg:
          ++partial.counts[i];
          partial.sums[i] += arg.is_numeric() ? arg.AsNumber() : 0.0;
          break;
        case AggregateFunc::kMin:
          if (partial.mins[i].is_null() ||
              arg.Compare(partial.mins[i]) < 0) {
            partial.mins[i] = arg;
          }
          break;
        case AggregateFunc::kMax:
          if (partial.maxs[i].is_null() ||
              arg.Compare(partial.maxs[i]) > 0) {
            partial.maxs[i] = arg;
          }
          break;
        default:
          break;
      }
    }
  }
  peak_state_entries_ = std::max(peak_state_entries_,
                                 current_state_entries());
  meter_->ChargeScrub(ns);
  return ns;
}

std::vector<PartialBatch> PushdownAgent::Flush(TimeMicros now) {
  std::vector<PartialBatch> batches;
  for (auto it = queries_.begin(); it != queries_.end();) {
    ActiveQuery& q = it->second;
    const bool expired = now >= q.plan.end_time;
    for (auto wit = q.windows.begin(); wit != q.windows.end();) {
      const TimeMicros window_end = wit->first + q.plan.window_micros;
      if (!expired && window_end > now) {
        break;  // window still open; later windows too (map is ordered)
      }
      PartialBatch batch;
      batch.query_id = it->first;
      batch.host = host_;
      batch.window_start = wit->first;
      batch.groups.reserve(wit->second.size());
      for (auto& [key, partial] : wit->second) {
        batch.groups.push_back(std::move(partial));
      }
      meter_->ChargeScrub(static_cast<int64_t>(batch.WireSize()) *
                          costs_.serialize_per_byte_ns);
      batches.push_back(std::move(batch));
      wit = q.windows.erase(wit);
    }
    if (expired) {
      it = queries_.erase(it);
    } else {
      ++it;
    }
  }
  return batches;
}

void PushdownCoordinator::Ingest(const PartialBatch& batch) {
  auto& window = windows_[batch.window_start];
  for (const GroupPartial& g : batch.groups) {
    std::string rendered;
    for (const Value& v : g.key) {
      rendered += v.ToString();
      rendered += '|';
    }
    auto& [key, merged] = window[rendered];
    if (merged.counts.empty()) {
      key = g.key;
      merged.counts.assign(g.counts.size(), 0);
      merged.sums.assign(g.sums.size(), 0.0);
      merged.mins.resize(g.mins.size());
      merged.maxs.resize(g.maxs.size());
    }
    for (size_t i = 0; i < g.counts.size(); ++i) {
      merged.counts[i] += g.counts[i];
      merged.sums[i] += g.sums[i];
      if (!g.mins[i].is_null() &&
          (merged.mins[i].is_null() ||
           g.mins[i].Compare(merged.mins[i]) < 0)) {
        merged.mins[i] = g.mins[i];
      }
      if (!g.maxs[i].is_null() &&
          (merged.maxs[i].is_null() ||
           g.maxs[i].Compare(merged.maxs[i]) > 0)) {
        merged.maxs[i] = g.maxs[i];
      }
    }
  }
}

std::vector<ResultRow> PushdownCoordinator::Finalize() const {
  std::vector<ResultRow> rows;
  for (const auto& [start, groups] : windows_) {
    for (const auto& [rendered, entry] : groups) {
      const auto& [key, merged] = entry;
      std::vector<Value> agg_values(plan_.aggregates.size());
      for (size_t i = 0; i < plan_.aggregates.size(); ++i) {
        switch (plan_.aggregates[i].func) {
          case AggregateFunc::kCount:
            agg_values[i] = Value(static_cast<int64_t>(merged.counts[i]));
            break;
          case AggregateFunc::kSum:
            agg_values[i] = Value(merged.sums[i]);
            break;
          case AggregateFunc::kAvg:
            agg_values[i] =
                merged.counts[i] == 0
                    ? Value::Null()
                    : Value(merged.sums[i] /
                            static_cast<double>(merged.counts[i]));
            break;
          case AggregateFunc::kMin:
            agg_values[i] = merged.mins[i];
            break;
          case AggregateFunc::kMax:
            agg_values[i] = merged.maxs[i];
            break;
          default:
            break;
        }
      }
      ResultRow row;
      row.query_id = plan_.query_id;
      row.window_start = start;
      row.window_end = start + plan_.window_micros;
      for (const OutputColumn& column : plan_.outputs) {
        row.values.push_back(EvalOutputExpr(column.expr, key, agg_values));
        row.error_bounds.push_back(0.0);
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace scrub
