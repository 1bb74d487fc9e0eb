#include "src/central/central.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"

namespace scrub {

Status ScrubCentral::Install(const CentralPlan& plan, QueryState q) {
  if (queries_.count(plan.query_id) > 0) {
    return AlreadyExists(StrFormat("query %llu already installed at central",
                                   static_cast<unsigned long long>(
                                       plan.query_id)));
  }
  queries_.emplace(plan.query_id, std::move(q));
  return OkStatus();
}

Status ScrubCentral::InstallQuery(const CentralPlan& plan, ResultSink sink) {
  if (queries_.count(plan.query_id) > 0) {
    return AlreadyExists(StrFormat("query %llu already installed at central",
                                   static_cast<unsigned long long>(
                                       plan.query_id)));
  }
  if (sink == nullptr) {
    return InvalidArgument("result sink must be set");
  }
  QueryState q;
  q.plan = plan;
  q.pipeline = CompilePhysical(plan, PipelineRole::kSingleInstance);
  q.sink = std::move(sink);
  return Install(plan, std::move(q));
}

Status ScrubCentral::InstallQueryPartial(const CentralPlan& plan,
                                         PartialSink sink) {
  if (sink == nullptr) {
    return InvalidArgument("partial sink must be set");
  }
  if (!plan.aggregate_mode) {
    return Unimplemented("partial mode requires an aggregate-mode plan");
  }
  QueryState q;
  q.plan = plan;
  q.pipeline = CompilePhysical(plan, PipelineRole::kShard);
  q.partial_sink = std::move(sink);
  return Install(plan, std::move(q));
}

void ScrubCentral::RemoveQuery(QueryId query_id) {
  const auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return;
  }
  QueryState& q = it->second;
  for (auto& [start, window] : q.windows) {
    executor_.CloseWindow(q, &window);
  }
  // Stamp the accountant's high-water mark into the stats snapshot before
  // ReleaseAll forgets the query, so post-mortem DescribeQuery still shows
  // the honest peak (the same survival trick last_encodings uses).
  q.stats.peak_state_bytes =
      std::max<uint64_t>(q.stats.peak_state_bytes, accountant_.peak(query_id));
  retired_stats_[query_id] = q.stats;
  queries_.erase(it);
  // Windows release their charges as they close; this sweeps any residue so
  // a retired query never pins budget.
  accountant_.ReleaseAll(query_id);
}

Status ScrubCentral::IngestBatch(const EventBatch& batch, TimeMicros now) {
  (void)now;
  const auto it = queries_.find(batch.query_id);
  if (it == queries_.end()) {
    // Query already retired; traffic raced the teardown. Not an error.
    return OkStatus();
  }
  QueryState& q = it->second;
  ++q.stats.batches;

  // Duplicate suppression before any counter or event is folded in: a
  // retransmission that raced its ack must not double-count M_i/m_i or
  // re-ingest events. seq == 0 batches (hand-built, shard sub-batches)
  // bypass dedup.
  if (batch.seq != 0 &&
      !q.dedup[batch.host][batch.epoch].Insert(batch.seq)) {
    ++q.stats.batches_duplicate;
    return OkStatus();
  }

  // Fold the agent's sampling counters into per-window host stats. A
  // counter covers one slide period; every window containing that period
  // absorbs it.
  for (const WindowCounter& counter : batch.counters) {
    for (WindowState* w : executor_.WindowsFor(q, counter.window_start)) {
      HostWindowStats& hs = w->host_stats[batch.host];
      hs.population += counter.seen;
      hs.sampled += counter.sampled;
      hs.shed += counter.shed;
      hs.readings.resize(q.pipeline.bounded_aggregates.size());
    }
  }

  if (batch.event_count == 0) {
    return OkStatus();
  }
  return executor_.DecodeAndFold(q, batch.host, batch);
}

Status ScrubCentral::IngestColumns(QueryId query_id, HostId host,
                                   std::shared_ptr<const ColumnBatch> batch,
                                   const uint32_t* selection,
                                   size_t selected) {
  const auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return OkStatus();  // raced teardown, mirror IngestBatch
  }
  QueryState& q = it->second;
  ++q.stats.batches;
  executor_.StampDecodeRows(
      q, selection != nullptr ? selected : batch->rows());
  executor_.Fold(q, host,
                 InputChunk::Columns(std::move(batch), selection, selected));
  return OkStatus();
}

Status ScrubCentral::IngestJoinColumns(QueryId query_id, HostId host,
                                       const ColumnJoinSlice& slice) {
  const auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return OkStatus();  // raced teardown, mirror IngestBatch
  }
  QueryState& q = it->second;
  ++q.stats.batches;
  executor_.StampDecodeRows(q, slice.order.size());
  executor_.FoldColumnJoin(q, host, slice);
  return OkStatus();
}

void ScrubCentral::OnTick(TimeMicros now) {
  std::vector<QueryId> to_retire;
  for (auto& [qid, q] : queries_) {
    const TimeMicros lateness = config_.allowed_lateness;
    for (auto it = q.windows.begin(); it != q.windows.end();) {
      WindowState& w = it->second;
      const TimeMicros window_end = w.start + q.plan.window_micros;
      if (window_end + lateness <= now) {
        executor_.CloseWindow(q, &w);
        q.closed_through = std::max(q.closed_through, w.start);
        it = q.windows.erase(it);
      } else {
        ++it;
      }
    }
    if (now >= q.plan.end_time + lateness) {
      to_retire.push_back(qid);
    }
  }
  for (const QueryId qid : to_retire) {
    RemoveQuery(qid);
  }
}

const CentralQueryStats* ScrubCentral::StatsFor(QueryId query_id) const {
  const auto it = queries_.find(query_id);
  if (it != queries_.end()) {
    return &it->second.stats;
  }
  const auto rit = retired_stats_.find(query_id);
  return rit == retired_stats_.end() ? nullptr : &rit->second;
}

size_t ScrubCentral::OpenWindows(QueryId query_id) const {
  const auto it = queries_.find(query_id);
  return it == queries_.end() ? 0 : it->second.windows.size();
}

const PhysicalPipeline* ScrubCentral::PipelineFor(QueryId query_id) const {
  const auto it = queries_.find(query_id);
  return it == queries_.end() ? nullptr : &it->second.pipeline;
}

}  // namespace scrub
