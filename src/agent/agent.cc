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
  for (const HostSourcePlan& sp : plan.sources) {
    q.stats.source_types.push_back(sp.event_type);
  }
  routes_stale_ = true;
}

void ScrubAgent::RemoveQuery(QueryId query_id) {
  if (queries_.erase(query_id) > 0) {
    routes_stale_ = true;
  }
  staging_accountant_.ReleaseAll(query_id);  // staged events die with it
  ReleaseDrainedQueue(query_id);
}

void ScrubAgent::RebuildRoutes() {
  // Routes are refilled in place, so a rebuild allocates only for a type
  // no query read before.
  for (auto& [type, route] : routes_) {
    route.entries.clear();
  }
  // queries_ order is the order LogEvent offers an event to its readers,
  // and so the order the sampling RNG draws in.
  for (auto& [qid, q] : queries_) {
    for (size_t si = 0; si < q.plan.sources.size(); ++si) {
      const std::string& type = q.plan.sources[si].event_type;
      // A plan reading one type twice stages it as its first source only.
      if (q.plan.FindSource(type) != &q.plan.sources[si]) {
        continue;
      }
      routes_[type].entries.push_back({&q, static_cast<uint32_t>(si)});
    }
  }
  std::erase_if(routes_,
                [](const auto& route) { return route.second.entries.empty(); });
  routes_stale_ = false;
}

ScrubAgent::Route* ScrubAgent::RouteFor(const Event& event) {
  if (routes_stale_) {
    RebuildRoutes();
  }
  const auto it = routes_.find(event.type_name());
  return it == routes_.end() ? nullptr : &it->second;
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

WindowCounter& ScrubAgent::CounterFor(ActiveQuery& q, TimeMicros ts) {
  if (q.slot_counter != nullptr && ts >= q.slot_lo && ts < q.slot_hi) {
    return *q.slot_counter;
  }
  const TimeMicros window_start = WindowStartFor(q, ts);
  WindowCounter& counter = q.pending_counters[window_start];
  counter.window_start = window_start;
  // The slot is one grid cell; an untimed plan has one slot, its span.
  TimeMicros grid = q.plan.slide_micros;
  if (grid <= 0) {
    grid = q.plan.window_micros;
  }
  q.slot_lo = window_start;
  q.slot_hi = grid <= 0 || window_start > q.plan.end_time - grid
                  ? q.plan.end_time
                  : window_start + grid;
  q.slot_counter = &counter;
  return counter;
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

  Route* route = RouteFor(event);
  if (route == nullptr) {
    meter_->ChargeScrub(ns);
    return ns;
  }
  const TimeMicros ts = event.timestamp();
  // The event is copied once, when the first query keeps it; every keeping
  // query then records the same row of the shared batch.
  bool appended = false;
  uint32_t shared_row = 0;
  for (const Route::Entry& entry : route->entries) {
    ActiveQuery& q = *entry.query;
    // Span check: cheap, and implements local self-expiry.
    if (ts < q.plan.start_time || ts >= q.plan.end_time) {
      continue;
    }
    ++q.stats.events_considered;

    // Window counters: M_i before anything else.
    WindowCounter& counter = CounterFor(q, ts);
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

    // 2. Staging: record the sampled event's row in the shared staging
    // batch of its type and defer selection + projection to the flush,
    // where they run vectorized. Only the enqueue cost is paid at log()
    // time; the predicate and projection charges move to flush, where the
    // work actually runs. Capacity and budget are per query; shedding,
    // never blocking.
    ns += c.enqueue_ns;
    if (q.staged >= config_.staging_capacity) {
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
        if (route->staging == nullptr) {
          route->staging =
              &staging_.try_emplace(event.type_name(), event.schema())
                   .first->second;
        }
        shared_row = static_cast<uint32_t>(route->staging->rows());
        route->staging->AppendEvent(event);
        appended = true;
      }
      q.columns[entry.source].push_back(shared_row);
      ++q.staged;
      if (q.plan.sources.size() > 1) {
        q.staging_order.push_back(static_cast<uint8_t>(entry.source));
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
  q.slot_counter = nullptr;
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
  // Selection compacts the row list in place; it is cleared (capacity
  // kept) once the batches are encoded.
  std::vector<uint32_t>& selection = q.columns[0];
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
    std::string payload;
    EncodeColumnBatch(cols, selection.data() + start, n, &sp.keep_field,
                      &payload, &q.stats.last_encodings[0]);
    batch.payload = BatchPayload(std::move(payload));
    Ship(query_id, q, std::move(batch), now, batches);
  }
  selection.clear();
}

void ScrubAgent::FlushColumnJoin(QueryId query_id, ActiveQuery& q,
                                 TimeMicros now,
                                 std::vector<EventBatch>* batches) {
  if (q.staging_order.empty()) {
    return;
  }
  const size_t num_sources = q.plan.sources.size();
  // The row lists and the interleave are read in place and cleared
  // (capacity kept) at the end.
  std::vector<std::vector<uint32_t>>& staged = q.columns;
  std::vector<uint8_t>& order = q.staging_order;

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
    std::string payload;
    EncodeColumnJoinBatch(sections, chunk_order, &payload, &encodings);
    batch.payload = BatchPayload(std::move(payload));
    size_t section = 0;
    for (size_t si = 0; si < num_sources; ++si) {
      if (section_of[si] >= 0) {
        q.stats.last_encodings[si] = std::move(encodings[section++]);
      }
    }
    Ship(query_id, q, std::move(batch), now, batches);
  }
  for (std::vector<uint32_t>& rows : staged) {
    rows.clear();
  }
  order.clear();
}

std::vector<EventBatch> ScrubAgent::Flush(TimeMicros now,
                                          std::vector<QueryId>* expired) {
  std::vector<EventBatch> batches;
  bool retired = false;
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
    if (q.plan.sources.size() > 1) {
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
    q.staged = 0;
    if (staging_accountant_.active()) {
      staging_accountant_.ReleaseAll(it->first);
    }
    // Retire expired queries after their final drain.
    if (now >= q.plan.end_time) {
      if (expired != nullptr) {
        expired->push_back(it->first);
      }
      retired_stats_[it->first] = q.stats;
      const QueryId query_id = it->first;
      it = queries_.erase(it);
      ReleaseDrainedQueue(query_id);
      retired = true;
    } else {
      ++it;
    }
  }
  if (retired) {
    routes_stale_ = true;
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
    it = held.empty() && !HasQuery(it->first) ? retransmit_.erase(it)
                                              : std::next(it);
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
  ReleaseDrainedQueue(query_id);
}

void ScrubAgent::ReleaseDrainedQueue(QueryId query_id) {
  const auto it = retransmit_.find(query_id);
  if (it != retransmit_.end() && it->second.empty() && !HasQuery(query_id)) {
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
