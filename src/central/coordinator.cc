#include "src/central/coordinator.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"
#include "src/common/worker_pool.h"

namespace scrub {

Status PartialCoordinator::InstallQuery(const CentralPlan& plan,
                                        ResultSink sink) {
  if (sink == nullptr) {
    return InvalidArgument("result sink must be set");
  }
  if (coordinators_.count(plan.query_id) > 0) {
    return AlreadyExists(
        StrFormat("query %llu already installed at coordinator",
                  static_cast<unsigned long long>(plan.query_id)));
  }
  Coordinator c;
  c.plan = plan;
  c.pipeline = CompilePhysical(plan, PipelineRole::kCoordinator);
  c.sink = std::move(sink);
  c.raw = !plan.aggregate_mode;
  coordinators_.emplace(plan.query_id, std::move(c));
  return OkStatus();
}

void PartialCoordinator::RemoveQuery(QueryId query_id) {
  const auto it = coordinators_.find(query_id);
  if (it == coordinators_.end()) {
    return;
  }
  for (auto& [start, groups] : it->second.windows) {
    FinalizeWindow(it->second, start, groups);
  }
  retired_stats_[query_id] = it->second.stats;
  coordinators_.erase(it);
}

const CentralPlan* PartialCoordinator::PlanFor(QueryId query_id) const {
  const auto it = coordinators_.find(query_id);
  return it == coordinators_.end() ? nullptr : &it->second.plan;
}

bool PartialCoordinator::AdmitSequenced(QueryId query_id, HostId sender,
                                        uint64_t epoch, uint64_t seq) {
  const auto it = coordinators_.find(query_id);
  if (it == coordinators_.end()) {
    return false;  // raced teardown
  }
  Coordinator& c = it->second;
  if (seq != 0 && !c.dedup[sender][epoch].Insert(seq)) {
    ++c.stats.batches_duplicate;
    return false;
  }
  ++c.stats.batches;
  return true;
}

void PartialCoordinator::AbsorbCounters(
    QueryId query_id, HostId host,
    const std::vector<WindowCounter>& counters) {
  const auto it = coordinators_.find(query_id);
  if (it == coordinators_.end()) {
    return;
  }
  Coordinator& c = it->second;
  const bool keep_counters = c.plan.SamplingActive();
  for (const WindowCounter& counter : counters) {
    if (counter.window_start < c.plan.start_time ||
        counter.window_start >= c.plan.end_time) {
      continue;
    }
    // A slot at or before the watermark can only feed windows that already
    // finalized (windows covering slot S start in (S - window, S]).
    if (counter.window_start <= c.closed_through) {
      continue;
    }
    c.window_hosts[counter.window_start].insert(host);
    if (counter.shed > 0) {
      c.window_shed[counter.window_start] += counter.shed;
    }
    if (keep_counters) {
      HostCounter& hc = c.window_counters[counter.window_start][host];
      hc.population += counter.seen;
      hc.sampled += counter.sampled;
    }
  }
}

void PartialCoordinator::AbsorbPartial(WindowPartial&& partial) {
  const auto it = coordinators_.find(partial.query_id);
  if (it == coordinators_.end()) {
    return;
  }
  Coordinator& c = it->second;
  // Shard-side operator metrics merge even off a late partial: the shard
  // did that work whether or not the window can still absorb its groups.
  if (!partial.op_metrics.empty()) {
    MergeOperatorMetrics(c.stats.upstream_op_metrics, partial.op_metrics);
  }
  if (partial.window_start <= c.closed_through) {
    // The window already finalized and emitted; merging now would re-create
    // it and double-emit at expiry. Count the loss instead — lateness
    // budgets, not silent corruption, are the tuning knob.
    ++c.partials_late;
    return;
  }
  if (partial.input_events > 0 || partial.shed_events > 0) {
    WindowShed& ws = c.window_fidelity[partial.window_start];
    ws.input_events += partial.input_events;
    ws.shed_events += partial.shed_events;
  }
  auto& window = c.windows[partial.window_start];
  for (size_t g = 0; g < partial.keys.size(); ++g) {
    // Reuse the hash the shard computed at fold time; recompute only for
    // partials from senders that predate hash caching.
    HashedGroupKey hk =
        g < partial.key_hashes.size()
            ? HashedGroupKey(std::move(partial.keys[g]),
                             partial.key_hashes[g])
            : HashedGroupKey(std::move(partial.keys[g]));
    CoordGroup& merged = window[std::move(hk)];
    if (merged.accumulators.empty()) {
      meter_.ChargeScrub(
          static_cast<int64_t>(partial.accumulators[g].size()) *
          config_.costs.central_group_update_ns);
      merged.accumulators = std::move(partial.accumulators[g]);
    } else {
      for (size_t a = 0; a < merged.accumulators.size(); ++a) {
        meter_.ChargeScrub(config_.costs.central_group_update_ns);
        merged.accumulators[a].Merge(std::move(partial.accumulators[g][a]));
      }
    }
    if (g < partial.group_readings.size()) {
      // Merge the per-(group, host) readings; RunningStats merge is exact,
      // so shard/region boundaries don't affect the estimator.
      for (GroupHostReadings& ghr : partial.group_readings[g]) {
        std::vector<RunningStats>& dst = merged.host_readings[ghr.host];
        if (dst.size() < ghr.readings.size()) {
          dst.resize(ghr.readings.size());
        }
        for (size_t s = 0; s < ghr.readings.size(); ++s) {
          dst[s].Merge(ghr.readings[s]);
        }
      }
    }
  }
}

void PartialCoordinator::ForwardRow(const ResultRow& row) {
  const auto it = coordinators_.find(row.query_id);
  if (it == coordinators_.end()) {
    return;
  }
  Coordinator& c = it->second;
  if (config_.collect_op_metrics && !c.pipeline.ops.empty()) {
    // Raw-mode Finalize is a passthrough; row counts only (no per-row clock).
    if (c.stats.op_metrics.empty()) {
      c.stats.op_metrics.resize(c.pipeline.ops.size());
    }
    OperatorMetrics& m = c.stats.op_metrics.front();
    m.rows_in += 1;
    m.rows_out += 1;
  }
  ++c.stats.rows_emitted;
  c.sink(row);
}

void PartialCoordinator::FinalizeWindow(Coordinator& c, TimeMicros start,
                                        CoordinatorGroups& groups) {
  // The coordinator pipeline is the single Finalize op; one timed batch per
  // finalized window.
  const bool metrics = config_.collect_op_metrics && !c.pipeline.ops.empty();
  uint64_t t0 = 0;
  uint64_t groups_in = 0;
  if (metrics) {
    if (c.stats.op_metrics.empty()) {
      c.stats.op_metrics.resize(c.pipeline.ops.size());
    }
    t0 = WorkerPool::ThreadCpuNs();
    groups_in = groups.size();
  }
  const CentralPlan& plan = c.plan;
  // Completeness: union of hosts heard from across the slide-grid slots the
  // window covers. An empty union means no counters ever flowed (hand-built
  // batches) — expected set unknown, report 1.0.
  double completeness = 1.0;
  if (plan.hosts_sampled > 0) {
    std::set<HostId> hosts;
    for (auto sit = c.window_hosts.lower_bound(start);
         sit != c.window_hosts.end() &&
         sit->first < start + plan.window_micros;
         ++sit) {
      hosts.insert(sit->second.begin(), sit->second.end());
    }
    if (!hosts.empty()) {
      completeness =
          std::min(1.0, static_cast<double>(hosts.size()) /
                            static_cast<double>(plan.hosts_sampled));
    }
  }
  // Fidelity: central-side shed from the partials, agent-side shed from the
  // counters of every slide-grid slot the window covers — the same ratio
  // the single-instance close computes per window.
  uint64_t input_events = 0;
  uint64_t shed_events = 0;
  const auto fit = c.window_fidelity.find(start);
  if (fit != c.window_fidelity.end()) {
    input_events = fit->second.input_events;
    shed_events = std::min(fit->second.shed_events, input_events);
  }
  uint64_t agent_shed = 0;
  for (auto sit = c.window_shed.lower_bound(start);
       sit != c.window_shed.end() && sit->first < start + plan.window_micros;
       ++sit) {
    agent_shed += sit->second;
  }
  const uint64_t attempted = input_events + agent_shed;
  const double fidelity =
      attempted == 0 ? 1.0
                     : static_cast<double>(input_events - shed_events) /
                           static_cast<double>(attempted);
  ++c.stats.windows_closed;
  c.stats.completeness_sum += completeness;
  c.stats.completeness_min = std::min(c.stats.completeness_min, completeness);
  if (completeness < 1.0) {
    ++c.stats.windows_incomplete;
  }
  c.stats.agent_events_shed += agent_shed;
  c.stats.fidelity_sum += fidelity;
  c.stats.fidelity_min = std::min(c.stats.fidelity_min, fidelity);
  if (fidelity < 1.0) {
    ++c.stats.windows_lossy;
  }
  // Finalize-stage sampling inputs: global per-host M_i / m_i summed over
  // the slots this window covers, and the ratio fallback scale (Eq. 1) for
  // scaled slots outside the bounded set (join plans).
  const bool sampling = plan.SamplingActive();
  std::map<HostId, HostCounter> host_counters;
  double ratio_scale = 1.0;
  if (sampling) {
    for (auto sit = c.window_counters.lower_bound(start);
         sit != c.window_counters.end() &&
         sit->first < start + plan.window_micros;
         ++sit) {
      for (const auto& [host, counter] : sit->second) {
        HostCounter& hc = host_counters[host];
        hc.population += counter.population;
        hc.sampled += counter.sampled;
      }
    }
    uint64_t population = 0;
    uint64_t sampled = 0;
    for (const auto& [host, hc] : host_counters) {
      population += hc.population;
      sampled += hc.sampled;
    }
    if (sampled > 0 && population > 0) {
      ratio_scale =
          static_cast<double>(population) / static_cast<double>(sampled);
    }
    if (plan.hosts_sampled > 0 && plan.hosts_targeted > 0) {
      ratio_scale *= static_cast<double>(plan.hosts_targeted) /
                     static_cast<double>(plan.hosts_sampled);
    }
  }
  // Ungrouped queries emit a row even for empty windows (series stay
  // continuous), matching single-instance behaviour.
  if (plan.group_by_programs.empty() && groups.empty()) {
    groups[HashedGroupKey(GroupKey{})].accumulators.resize(
        plan.aggregates.size());
  }
  const std::vector<int>& bounded = c.pipeline.bounded_aggregates;
  // Same canonical order as the single-instance close: merge order depends
  // on shard/region partial arrival, which must not leak into row order.
  std::vector<std::pair<const HashedGroupKey*, CoordGroup*>> ordered;
  ordered.reserve(groups.size());
  for (auto& [hashed_key, group] : groups) {
    ordered.emplace_back(&hashed_key, &group);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return CanonicalGroupOrder(*a.first, *b.first);
            });
  for (auto& [hashed_key_ptr, group_ptr] : ordered) {
    const HashedGroupKey& hashed_key = *hashed_key_ptr;
    CoordGroup& group = *group_ptr;
    if (group.accumulators.empty()) {
      group.accumulators.resize(plan.aggregates.size());
    }
    std::vector<Value> agg_values(plan.aggregates.size());
    std::vector<double> agg_bounds(plan.aggregates.size(), 0.0);
    for (size_t i = 0; i < plan.aggregates.size(); ++i) {
      const AggregateSpec& spec = plan.aggregates[i];
      const auto bounded_it =
          std::find(bounded.begin(), bounded.end(), static_cast<int>(i));
      if (sampling && bounded_it != bounded.end()) {
        // Per-group Eq. 1-3: this group's readings for the slot, per host,
        // against the *global* per-host population counters. Sampled events
        // from a host that landed in other groups are zero readings for
        // this one (m_h - count_{h,g}).
        const size_t s =
            static_cast<size_t>(bounded_it - bounded.begin());
        std::vector<HostSampleStats> host_stats;
        for (const auto& [host, hc] : host_counters) {
          HostSampleStats h;
          h.population = hc.population;
          uint64_t observed = 0;
          const auto rit = group.host_readings.find(host);
          if (rit != group.host_readings.end() && s < rit->second.size()) {
            h.readings = rit->second[s];
            observed = h.readings.count();
          }
          const uint64_t zeros =
              hc.sampled > observed ? hc.sampled - observed : 0;
          if (zeros > 0) {
            h.readings.Merge(RunningStats::Constant(zeros, 0.0));
          }
          host_stats.push_back(std::move(h));
        }
        // Hosts that shipped events but no counters (hand-built batches):
        // no population info, so the observed readings stand in for it.
        for (const auto& [host, readings] : group.host_readings) {
          if (host_counters.count(host) > 0) {
            continue;
          }
          HostSampleStats h;
          if (s < readings.size()) {
            h.readings = readings[s];
          }
          h.population = h.readings.count();
          host_stats.push_back(std::move(h));
        }
        agg_values[i] = FinalizeBoundedSlot(
            spec, group.accumulators[i], std::move(host_stats),
            plan.hosts_sampled, plan.hosts_targeted, ratio_scale,
            &agg_bounds[i]);
        continue;
      }
      const double scale =
          (c.pipeline.needs_scaling && spec.ScalesUnderSampling())
              ? ratio_scale
              : 1.0;
      agg_values[i] = FinalizeAccumulator(spec, group.accumulators[i], scale);
    }
    ResultRow row;
    row.query_id = plan.query_id;
    row.window_start = start;
    row.window_end = start + plan.window_micros;
    row.completeness = completeness;
    row.fidelity = fidelity;
    for (const OutputColumn& column : plan.outputs) {
      row.values.push_back(
          EvalOutputExpr(column.expr, hashed_key.key, agg_values));
      row.error_bounds.push_back(
          column.expr.kind == OutputKind::kAggregate
              ? agg_bounds[static_cast<size_t>(column.expr.index)]
              : 0.0);
    }
    ++c.stats.groups_emitted;
    ++c.stats.rows_emitted;
    c.sink(row);
  }
  if (metrics) {
    OperatorMetrics& m = c.stats.op_metrics.front();
    m.rows_in += groups_in;
    m.rows_out += ordered.size();
    m.batches += 1;
    m.cpu_ns += WorkerPool::ThreadCpuNs() - t0;
  }
  c.closed_through = std::max(c.closed_through, start);
}

void PartialCoordinator::OnTick(TimeMicros now) {
  for (auto cit = coordinators_.begin(); cit != coordinators_.end();) {
    Coordinator& c = cit->second;
    // Ascending start order (std::map), so closed_through stays monotone.
    for (auto wit = c.windows.begin(); wit != c.windows.end();) {
      const TimeMicros window_end = wit->first + c.plan.window_micros;
      if (window_end + config_.allowed_lateness <= now ||
          now >= c.plan.end_time + config_.allowed_lateness) {
        FinalizeWindow(c, wit->first, wit->second);
        c.window_fidelity.erase(wit->first);
        wit = c.windows.erase(wit);
      } else {
        ++wit;
      }
    }
    // GC completeness / counter slots no still-open window can cover.
    while (!c.window_hosts.empty() &&
           c.window_hosts.begin()->first + c.plan.window_micros +
                   config_.allowed_lateness <=
               now) {
      c.window_hosts.erase(c.window_hosts.begin());
    }
    while (!c.window_counters.empty() &&
           c.window_counters.begin()->first + c.plan.window_micros +
                   config_.allowed_lateness <=
               now) {
      c.window_counters.erase(c.window_counters.begin());
    }
    while (!c.window_shed.empty() &&
           c.window_shed.begin()->first + c.plan.window_micros +
                   config_.allowed_lateness <=
               now) {
      c.window_shed.erase(c.window_shed.begin());
    }
    if (now >= c.plan.end_time + config_.allowed_lateness) {
      retired_stats_[cit->first] = c.stats;
      cit = coordinators_.erase(cit);
    } else {
      ++cit;
    }
  }
}

uint64_t PartialCoordinator::DuplicateBatches(QueryId query_id) const {
  const auto it = coordinators_.find(query_id);
  if (it != coordinators_.end()) {
    return it->second.stats.batches_duplicate;
  }
  const auto rit = retired_stats_.find(query_id);
  return rit == retired_stats_.end() ? 0 : rit->second.batches_duplicate;
}

uint64_t PartialCoordinator::LatePartials(QueryId query_id) const {
  const auto it = coordinators_.find(query_id);
  return it == coordinators_.end() ? 0 : it->second.partials_late;
}

const CentralQueryStats* PartialCoordinator::StatsFor(
    QueryId query_id) const {
  const auto it = coordinators_.find(query_id);
  if (it != coordinators_.end()) {
    return &it->second.stats;
  }
  const auto rit = retired_stats_.find(query_id);
  return rit == retired_stats_.end() ? nullptr : &rit->second;
}

}  // namespace scrub
