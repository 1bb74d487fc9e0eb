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
    SlotCounters& slot = c.slots[counter.window_start];
    HostCounts& hc = slot.hosts[host];
    hc.population += counter.seen;
    hc.sampled += counter.sampled;
    slot.shed += counter.shed;
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
  GroupTable& window = c.windows[partial.window_start];
  for (size_t g = 0; g < partial.keys.size(); ++g) {
    // Reuse the hash the shard computed at fold time; recompute only for
    // partials from senders that predate hash caching.
    const size_t hash = g < partial.key_hashes.size()
                            ? partial.key_hashes[g]
                            : GroupKeyHash{}(partial.keys[g]);
    uint32_t found = window.Find(partial.keys[g], hash);
    const bool fresh = found == GroupTable::kNone;
    if (fresh) {
      found = window.Insert(std::move(partial.keys[g]), hash);
    }
    GroupState& merged = window[found].state;
    if (fresh) {
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
                                        GroupTable& groups) {
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
  // Sum the slide-grid slots the window covers: the union of hosts heard
  // from with their global M_i / m_i, in host order, and the agent shed.
  std::map<HostId, HostCounts> hosts;
  uint64_t agent_shed = 0;
  for (auto sit = c.slots.lower_bound(start);
       sit != c.slots.end() && sit->first < start + plan.window_micros;
       ++sit) {
    for (const auto& [host, counts] : sit->second.hosts) {
      HostCounts& hc = hosts[host];
      hc.population += counts.population;
      hc.sampled += counts.sampled;
    }
    agent_shed += sit->second.shed;
  }
  // An empty union means no counters ever flowed (hand-built batches):
  // expected set unknown, report 1.0.
  double completeness = 1.0;
  if (plan.hosts_sampled > 0 && !hosts.empty()) {
    completeness = std::min(1.0, static_cast<double>(hosts.size()) /
                                     static_cast<double>(plan.hosts_sampled));
  }
  // Fidelity: central-side shed from the partials, agent-side shed from the
  // counters.
  WindowShed central;
  const auto fit = c.window_fidelity.find(start);
  if (fit != c.window_fidelity.end()) {
    central = fit->second;
  }
  const double fidelity =
      RecordWindowClose(c.stats, completeness, central.input_events,
                        central.shed_events, agent_shed);
  const size_t rows = FinalizeGroups(
      plan, c.pipeline, start, completeness, fidelity,
      {hosts.begin(), hosts.end()}, groups, c.stats, c.sink);
  if (metrics) {
    OperatorMetrics& m = c.stats.op_metrics.front();
    m.rows_in += groups_in;
    m.rows_out += rows;
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
    // GC counter slots no still-open window can cover.
    while (!c.slots.empty() && c.slots.begin()->first + c.plan.window_micros +
                                       config_.allowed_lateness <=
                                   now) {
      c.slots.erase(c.slots.begin());
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
