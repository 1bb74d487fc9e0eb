#include "src/agent/agent.h"

#include <algorithm>

#include "src/event/wire.h"

namespace scrub {

void ScrubAgent::InstallQuery(const HostPlan& plan) {
  // Idempotent: a retried install whose predecessor was delivered but whose
  // ack was lost must not wipe staged events or stats. Plans are immutable
  // per query id, so "already installed" means "nothing to do".
  if (queries_.count(plan.query_id) > 0) {
    return;
  }
  ActiveQuery& q = queries_.emplace(plan.query_id, ActiveQuery(plan))
                       .first->second;
  q.stats.preaggregated = plan.preaggregate;
  for (const HostSourcePlan& sp : plan.sources) {
    q.stats.source_types.push_back(sp.event_type);
  }
}

void ScrubAgent::RemoveQuery(QueryId query_id) {
  queries_.erase(query_id);
  staging_accountant_.ReleaseAll(query_id);  // staged events die with it
}

TimeMicros ScrubAgent::WindowStartFor(const ActiveQuery& q,
                                      TimeMicros ts) const {
  // Counters are kept per slide period; for tumbling queries the slide
  // equals the window, so this is the window grid.
  TimeMicros grid = q.plan.slide_micros;
  if (grid <= 0) {
    grid = q.plan.window_micros;
  }
  if (grid <= 0) {
    return q.plan.start_time;
  }
  const TimeMicros rel = ts - q.plan.start_time;
  return q.plan.start_time + (rel / grid) * grid;
}

int64_t ScrubAgent::LogEvent(const Event& event) {
  ++total_events_logged_;
  const CostModel& c = config_.costs;
  // Fixed cost of the instrumentation point itself: metadata stamping plus
  // the active-query table lookup. Paid once per log() call whether or not
  // any query matches — this is the "no active query" floor the paper's
  // Section 9 measures.
  int64_t ns = c.log_fixed_ns +
               c.log_per_field_ns * static_cast<int64_t>(event.field_count());

  const TimeMicros ts = event.timestamp();
  // The event is copied once, when the first query keeps it; every keeping
  // query then records the same row of the shared batch.
  bool appended = false;
  uint32_t shared_row = 0;
  for (auto& [qid, q] : queries_) {
    // Span check: cheap, and implements local self-expiry.
    if (ts < q.plan.start_time || ts >= q.plan.end_time) {
      continue;
    }
    const HostSourcePlan* sp = q.plan.FindSource(event.type_name());
    if (sp == nullptr) {
      continue;
    }
    ++q.stats.events_considered;

    // Window counters: M_i before anything else.
    const TimeMicros window_start = WindowStartFor(q, ts);
    WindowCounter& counter = q.pending_counters[window_start];
    counter.window_start = window_start;
    ++counter.seen;

    // 1. Event sampling, before any other per-query work.
    if (q.plan.event_sample_rate < 1.0) {
      ns += c.sample_flip_ns;
      if (!rng_.NextBool(q.plan.event_sample_rate)) {
        ++q.stats.events_sampled_out;
        continue;
      }
    }
    ++counter.sampled;

    // Pre-aggregation path: selection runs here on the folded IR, then the
    // event folds into its slot's delta cells — the same arithmetic
    // central's accumulator update runs, so shipping deltas changes bytes,
    // never results.
    if (q.plan.preaggregate) {
      int64_t insts = 0;
      const bool selected = sp->Selects(event, &insts);
      ns += c.predicate_term_ns * insts;
      if (!selected) {
        ++q.stats.events_filtered;
        continue;
      }
      ns += PreAggFold(q, event, ts);
      continue;
    }

    // 2. Staging: record the sampled event's row in the shared staging
    // batch of its type and defer selection + projection to the flush,
    // where they run vectorized. Only the enqueue cost is paid at log()
    // time; the predicate and projection charges move to flush, where the
    // work actually runs. Capacity and budget are per query; shedding,
    // never blocking.
    ns += c.enqueue_ns;
    const size_t si = static_cast<size_t>(sp - q.plan.sources.data());
    if (q.columns.empty()) {
      q.columns.resize(q.plan.sources.size());
    }
    if (StagedRows(q) >= config_.staging_capacity) {
      ++q.stats.events_dropped;
      ++counter.shed;
    } else if (staging_accountant_.active() &&
               !staging_accountant_.TryCharge(q.plan.query_id,
                                              event.WireSize())) {
      // Staging keeps the un-projected event until the flush, so the budget
      // is charged at the full wire size.
      ++q.stats.events_dropped;
      ++counter.shed;
    } else {
      if (!appended) {
        ColumnBatch& shared =
            staging_.try_emplace(event.type_name(), event.schema())
                .first->second;
        shared_row = static_cast<uint32_t>(shared.rows());
        shared.AppendEvent(event);
        appended = true;
      }
      q.columns[si].push_back(shared_row);
      if (q.plan.sources.size() > 1) {
        q.staging_order.push_back(static_cast<uint8_t>(si));
      }
    }
  }

  meter_->ChargeScrub(ns);
  return ns;
}

void ScrubAgent::Ship(QueryId query_id, ActiveQuery& q, EventBatch batch,
                      TimeMicros now, std::vector<EventBatch>* batches) {
  batch.query_id = query_id;
  batch.host = host_;
  batch.seq = ++next_seq_[query_id];
  batch.epoch = epoch_;
  for (auto& [window_start, counter] : q.pending_counters) {
    batch.counters.push_back(counter);
  }
  q.pending_counters.clear();
  q.stats.events_shipped += batch.event_count;
  // Serialization is Scrub work on the host.
  meter_->ChargeScrub(static_cast<int64_t>(batch.payload.size()) *
                      config_.costs.serialize_per_byte_ns);
  ++q.stats.batches_sent;
  HoldForRetransmit(q, query_id, batch, now);
  batches->push_back(std::move(batch));
}

void ScrubAgent::HoldForRetransmit(ActiveQuery& q, QueryId query_id,
                                   const EventBatch& batch, TimeMicros now) {
  if (config_.retransmit_budget == 0) {
    return;
  }
  std::deque<PendingBatch>& held = retransmit_[query_id];
  PendingBatch pending;
  pending.batch = batch;
  pending.next_retry = now + BackoffFor(0);
  pending.deadline = now + config_.retransmit_budget;
  held.push_back(std::move(pending));
  while (held.size() > config_.retransmit_capacity) {
    ++q.stats.batches_evicted;
    q.stats.events_abandoned += held.front().batch.event_count;
    held.pop_front();
  }
}

size_t ScrubAgent::StagedRows(const ActiveQuery& q) const {
  size_t rows = 0;
  for (const std::vector<uint32_t>& r : q.columns) {
    rows += r.size();
  }
  return rows;
}

size_t ScrubAgent::shared_staged_rows() const {
  size_t rows = 0;
  for (const auto& [type, batch] : staging_) {
    rows += batch.rows();
  }
  return rows;
}

int64_t ScrubAgent::SelectStaged(const HostSourcePlan& sp,
                                 const ColumnBatch& cols,
                                 std::vector<uint32_t>* selection,
                                 AgentQueryStats* stats) const {
  const CostModel& c = config_.costs;
  const size_t staged = selection->size();
  const int64_t ns = c.predicate_term_ns * sp.SelectBatch(cols, selection);
  stats->events_filtered += staged - selection->size();
  stats->events_staged += selection->size();
  return ns + c.projection_per_field_ns * sp.kept_fields *
                  static_cast<int64_t>(selection->size());
}

void ScrubAgent::FlushColumns(QueryId query_id, ActiveQuery& q,
                              TimeMicros now,
                              std::vector<EventBatch>* batches) {
  if (q.columns.empty() || q.columns[0].empty()) {
    return;
  }
  const HostSourcePlan& sp = q.plan.sources[0];
  const ColumnBatch& cols = staging_.at(sp.event_type);
  std::vector<uint32_t> selection = std::move(q.columns[0]);
  q.columns[0].clear();
  meter_->ChargeScrub(SelectStaged(sp, cols, &selection, &q.stats));

  const size_t max_batch = config_.max_batch_events;
  for (size_t start = 0; start < selection.size(); start += max_batch) {
    const size_t n = std::min(max_batch, selection.size() - start);
    EventBatch batch;
    batch.format = BatchFormat::kColumnar;
    batch.event_count = n;
    if (q.stats.last_encodings.empty()) {
      q.stats.last_encodings.resize(1);
    }
    EncodeColumnBatch(cols, selection.data() + start, n, &sp.keep_field,
                      &batch.payload, &q.stats.last_encodings[0]);
    Ship(query_id, q, std::move(batch), now, batches);
  }
}

void ScrubAgent::FlushColumnJoin(QueryId query_id, ActiveQuery& q,
                                 TimeMicros now,
                                 std::vector<EventBatch>* batches) {
  if (q.staging_order.empty()) {
    return;
  }
  const size_t num_sources = q.plan.sources.size();
  std::vector<std::vector<uint32_t>> staged = std::move(q.columns);
  q.columns.clear();
  std::vector<uint8_t> order = std::move(q.staging_order);
  q.staging_order.clear();

  // Per-source selection over the query's own rows.
  int64_t ns = 0;
  std::vector<const ColumnBatch*> source_batch(num_sources, nullptr);
  std::vector<std::vector<bool>> survived(num_sources);
  for (size_t si = 0; si < num_sources; ++si) {
    if (staged[si].empty()) {
      continue;
    }
    const HostSourcePlan& sp = q.plan.sources[si];
    const ColumnBatch& cols = staging_.at(sp.event_type);
    source_batch[si] = &cols;
    std::vector<uint32_t> selection = staged[si];
    ns += SelectStaged(sp, cols, &selection, &q.stats);
    survived[si].assign(cols.rows(), false);
    for (const uint32_t r : selection) {
      survived[si][r] = true;
    }
  }
  meter_->ChargeScrub(ns);

  // Walk the arrival interleave once: surviving events keep their original
  // order.
  struct Arrival {
    uint8_t source;
    uint32_t row;
  };
  std::vector<Arrival> arrivals;
  std::vector<uint32_t> cursor(num_sources, 0);
  for (const uint8_t s : order) {
    const uint32_t r = staged[s][cursor[s]++];
    if (!survived[s].empty() && survived[s][r]) {
      arrivals.push_back({s, r});
    }
  }

  if (!arrivals.empty()) {
    // Reset only when this flush ships data, so a trailing empty drain
    // does not wipe the "most recent shipped encodings" report.
    q.stats.last_encodings.assign(num_sources, {});
  }
  const size_t max_batch = config_.max_batch_events;
  for (size_t start = 0; start < arrivals.size(); start += max_batch) {
    const size_t n = std::min(max_batch, arrivals.size() - start);
    // Per-source row lists for this chunk. Rows within a source are in row
    // order (arrival order restricted to the source), so each section is a
    // plain ascending selection.
    std::vector<std::vector<uint32_t>> chunk_rows(num_sources);
    for (size_t i = 0; i < n; ++i) {
      chunk_rows[arrivals[start + i].source].push_back(
          arrivals[start + i].row);
    }
    // Sections carry only the sources present in this chunk, in plan order;
    // the order bytes index sections. Central re-identifies each section's
    // source by its schema type name.
    std::vector<ColumnJoinSection> sections;
    std::vector<int> section_of(num_sources, -1);
    for (size_t si = 0; si < num_sources; ++si) {
      if (chunk_rows[si].empty()) {
        continue;
      }
      section_of[si] = static_cast<int>(sections.size());
      ColumnJoinSection section;
      section.batch = source_batch[si];
      section.selection = chunk_rows[si].data();
      section.selected = chunk_rows[si].size();
      section.keep_field = &q.plan.sources[si].keep_field;
      sections.push_back(section);
    }
    std::vector<uint8_t> chunk_order(n);
    for (size_t i = 0; i < n; ++i) {
      chunk_order[i] =
          static_cast<uint8_t>(section_of[arrivals[start + i].source]);
    }

    EventBatch batch;
    batch.format = BatchFormat::kColumnarJoin;
    batch.event_count = n;
    std::vector<std::vector<int>> encodings;
    EncodeColumnJoinBatch(sections, chunk_order, &batch.payload, &encodings);
    size_t section = 0;
    for (size_t si = 0; si < num_sources; ++si) {
      if (section_of[si] >= 0) {
        q.stats.last_encodings[si] = std::move(encodings[section++]);
      }
    }
    Ship(query_id, q, std::move(batch), now, batches);
  }
}

int64_t ScrubAgent::PreAggFold(ActiveQuery& q, const Event& event,
                               TimeMicros ts) {
  const CostModel& c = config_.costs;
  int64_t ns = c.enqueue_ns;
  ActiveQuery::PreAggState& slot = q.preagg[WindowStartFor(q, ts)];
  ++slot.events;
  ++q.stats.events_staged;

  GroupKey key;
  key.reserve(q.plan.group_by_programs.size());
  for (const ExprProgram& g : q.plan.group_by_programs) {
    ns += c.predicate_term_ns * static_cast<int64_t>(g.insts.size());
    key.push_back(EvalProgramSingle(g, event));
  }
  HashedGroupKey hk(std::move(key));
  size_t idx;
  const auto it = slot.index.find(hk);
  if (it != slot.index.end()) {
    idx = it->second;
  } else {
    idx = slot.groups.size();
    PreAggGroup group;
    group.keys = hk.key;
    group.cells.resize(q.plan.preagg.size());
    slot.groups.push_back(std::move(group));
    slot.index.emplace(std::move(hk), idx);
  }

  PreAggGroup& group = slot.groups[idx];
  for (size_t i = 0; i < q.plan.preagg.size(); ++i) {
    const HostPlan::PreAggSpec& spec = q.plan.preagg[i];
    // The aggregation CPU the flat topology spends at central runs here on
    // the application host — the cost the ablation makes visible.
    ns += c.central_group_update_ns;
    Value arg;
    if (spec.has_arg) {
      arg = EvalProgramSingle(spec.arg_program, event);
      if (arg.is_null()) {
        continue;  // SQL semantics, mirroring central's accumulator update
      }
    }
    PreAggCell& cell = group.cells[i];
    ++cell.count;
    if (spec.func == AggregateFunc::kSum) {
      cell.sum += arg.is_numeric() ? arg.AsNumber() : 0.0;
    }
  }
  return ns;
}

void ScrubAgent::FlushPreAgg(QueryId query_id, ActiveQuery& q, TimeMicros now,
                             std::vector<EventBatch>* batches) {
  if (q.preagg.empty()) {
    return;
  }
  std::vector<PreAggSlot> slots;
  slots.reserve(q.preagg.size());
  uint64_t events = 0;
  for (auto& [start, state] : q.preagg) {
    PreAggSlot slot;
    slot.window_start = start;
    slot.events = state.events;
    slot.groups = std::move(state.groups);
    events += state.events;
    slots.push_back(std::move(slot));
  }
  q.preagg.clear();

  EventBatch batch;
  batch.format = BatchFormat::kPreAgg;
  batch.event_count = events;
  batch.payload = EncodePreAggBatch(slots);
  Ship(query_id, q, std::move(batch), now, batches);
}

std::vector<EventBatch> ScrubAgent::Flush(TimeMicros now,
                                          std::vector<QueryId>* expired) {
  std::vector<EventBatch> batches;
  for (auto it = queries_.begin(); it != queries_.end();) {
    ActiveQuery& q = it->second;
    // Heartbeat: make sure the current window has a counter entry even if
    // no event touched it, so ScrubCentral counts this host as reachable
    // for the window. operator[] creates a zeroed counter if absent.
    if (config_.flush_heartbeats && now >= q.plan.start_time) {
      const TimeMicros hb_ts = std::min(now, q.plan.end_time - 1);
      const TimeMicros w = WindowStartFor(q, hb_ts);
      q.pending_counters[w].window_start = w;
      // A flush landing exactly on a slot boundary belongs to the slot that
      // just OPENED, so the slot that just closed under it would never hear
      // from an event-less host (with window <= flush interval the first
      // window reports only event-bearing hosts). Cover it explicitly; the
      // slot map dedups, so off-boundary flushes add nothing.
      if (hb_ts - 1 >= q.plan.start_time) {
        const TimeMicros prev = WindowStartFor(q, hb_ts - 1);
        q.pending_counters[prev].window_start = prev;
      }
    }
    if (q.plan.preaggregate) {
      FlushPreAgg(it->first, q, now, &batches);
    } else if (q.plan.sources.size() > 1) {
      FlushColumnJoin(it->first, q, now, &batches);
    } else {
      FlushColumns(it->first, q, now, &batches);
    }
    // Counters no event batch carried (heartbeats, flushes whose staged
    // events were all filtered) ship counters-only: no events, no payload.
    if (!q.pending_counters.empty()) {
      EventBatch batch;
      Ship(it->first, q, std::move(batch), now, &batches);
    }
    // A flush drains the query's row lists completely, so its whole byte
    // charge comes back.
    if (staging_accountant_.active()) {
      staging_accountant_.ReleaseAll(it->first);
    }
    // Retire expired queries after their final drain.
    if (now >= q.plan.end_time) {
      if (expired != nullptr) {
        expired->push_back(it->first);
      }
      retired_stats_[it->first] = q.stats;
      it = queries_.erase(it);
    } else {
      ++it;
    }
  }
  // Every query's row list was drained above (and removed queries took
  // theirs with them), so nothing references the shared rows any more.
  for (auto& [type, batch] : staging_) {
    batch.Clear();
  }
  return batches;
}

TimeMicros ScrubAgent::BackoffFor(int attempts) {
  TimeMicros base = config_.retransmit_backoff;
  for (int i = 0; i < attempts && base < 8 * config_.retransmit_backoff;
       ++i) {
    base *= 2;
  }
  // +/-25% jitter so a fleet's retries do not synchronize.
  const TimeMicros quarter = std::max<TimeMicros>(base / 4, 1);
  return base - quarter +
         static_cast<TimeMicros>(
             retry_rng_.NextBelow(static_cast<uint64_t>(2 * quarter)));
}

std::vector<EventBatch> ScrubAgent::Retransmits(TimeMicros now) {
  std::vector<EventBatch> out;
  for (auto it = retransmit_.begin(); it != retransmit_.end();) {
    std::deque<PendingBatch>& held = it->second;
    AgentQueryStats* stats = MutableStatsFor(it->first);
    for (auto pit = held.begin(); pit != held.end();) {
      if (now >= pit->deadline) {
        // Budget spent: the window this data belonged to has closed at
        // central anyway. Shed and count.
        if (stats != nullptr) {
          ++stats->batches_expired;
          stats->events_abandoned += pit->batch.event_count;
        }
        pit = held.erase(pit);
        continue;
      }
      if (now >= pit->next_retry) {
        out.push_back(pit->batch);
        ++pit->attempts;
        if (stats != nullptr) {
          ++stats->batches_retransmitted;
        }
        pit->next_retry = now + BackoffFor(pit->attempts);
      }
      ++pit;
    }
    it = held.empty() ? retransmit_.erase(it) : std::next(it);
  }
  return out;
}

void ScrubAgent::OnAck(QueryId query_id, uint64_t seq) {
  const auto it = retransmit_.find(query_id);
  if (it == retransmit_.end()) {
    return;
  }
  std::deque<PendingBatch>& held = it->second;
  for (auto pit = held.begin(); pit != held.end(); ++pit) {
    if (pit->batch.seq == seq) {
      AgentQueryStats* stats = MutableStatsFor(query_id);
      if (stats != nullptr) {
        ++stats->batches_acked;
      }
      held.erase(pit);
      break;
    }
  }
  if (held.empty()) {
    retransmit_.erase(it);
  }
}

size_t ScrubAgent::pending_retransmits() const {
  size_t n = 0;
  for (const auto& [qid, held] : retransmit_) {
    n += held.size();
  }
  return n;
}

AgentQueryStats* ScrubAgent::MutableStatsFor(QueryId query_id) {
  const auto it = queries_.find(query_id);
  if (it != queries_.end()) {
    return &it->second.stats;
  }
  const auto rit = retired_stats_.find(query_id);
  return rit == retired_stats_.end() ? nullptr : &rit->second;
}

const AgentQueryStats* ScrubAgent::StatsFor(QueryId query_id) const {
  const auto it = queries_.find(query_id);
  if (it != queries_.end()) {
    return &it->second.stats;
  }
  const auto rit = retired_stats_.find(query_id);
  return rit == retired_stats_.end() ? nullptr : &rit->second;
}

}  // namespace scrub
