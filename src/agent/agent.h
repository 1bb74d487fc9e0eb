// ScrubAgent: the per-host component.
//
// The agent is the only Scrub code that runs on application hosts, and it is
// deliberately tiny: for each log() call it does (at most) an event-sampling
// coin flip and an enqueue into bounded staging; at flush it runs the
// host-side selection conjuncts and projection over the staged events,
// vectorized, and ships them. Joins, grouping and aggregation never run here
// (Section 4). Three protective properties the paper calls out:
//
//  * log() never blocks: staging sheds (and counts) events when full rather
//    than back-pressuring the application thread.
//  * Sampling happens before any other per-query work, so a 10% event sample
//    cuts ~90% of the agent's per-event cost, not just its output volume.
//  * Queries self-expire: an event arriving after the plan's end_time
//    deactivates the query locally even if the teardown message is in
//    flight, so a forgotten query cannot load the host.
//
// Staging is columnar and shared across queries: the agent copies each
// logged event at most once, into one staging ColumnBatch per event type,
// and each query that keeps the event records only its row index. Host cost
// therefore grows with the number of live queries by a per-query index push,
// not by a per-query copy of the event. Pre-aggregating queries
// (HostPlan::preaggregate) are the one exception: they select at log() time
// and fold into per-group delta cells instead of staging events.
//
// Every unit of work is charged to the host's CostMeter in simulated
// nanoseconds; LogEvent returns the charge so the application can add it to
// the request's latency (that is how E7/E8 measure the paper's 2.5% CPU /
// 1% latency overheads).

#ifndef SRC_AGENT_AGENT_H_
#define SRC_AGENT_AGENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/cost_model.h"
#include "src/common/rng.h"
#include "src/common/spill.h"
#include "src/cluster/host_registry.h"
#include "src/event/column_batch.h"
#include "src/event/event.h"
#include "src/event/wire.h"
#include "src/plan/expr_eval.h"
#include "src/plan/group_key.h"
#include "src/plan/plan.h"

namespace scrub {

// Per-window counters for the sampling estimator (Eqs. 1-3): `seen` is M_i
// (every event of the type logged in the window, before sampling and before
// selection), `sampled` is m_i (events that survived the coin flip, before
// selection). ScrubCentral reconstructs the zero readings for sampled
// events the selection then filtered out.
struct WindowCounter {
  TimeMicros window_start = 0;
  uint64_t seen = 0;
  uint64_t sampled = 0;
  // Events this host sampled for the window but shed before shipping
  // (staging capacity or staging byte budget hit). Central folds this
  // into the window's fidelity — honest accounting, never the estimator.
  uint64_t shed = 0;
};

// One flush's worth of traffic from a host to ScrubCentral for one query.
//
// `seq` numbers batches per (host, query) starting at 1; ScrubCentral acks
// and dedups on it. seq == 0 means "unsequenced": hand-built batches and
// re-bucketed shard sub-batches bypass dedup entirely. `epoch` is the
// agent's incarnation, bumped when a host restarts, so a fresh agent's
// restarting sequence numbers are not mistaken for duplicates.
struct EventBatch {
  QueryId query_id = 0;
  HostId host = kInvalidHost;
  uint64_t seq = 0;
  uint64_t epoch = 0;
  BatchFormat format = BatchFormat::kColumnar;  // how `payload` is laid out
  // EncodeColumnBatch (kColumnar), EncodeColumnJoinBatch (kColumnarJoin) or
  // EncodePreAggBatch (kPreAgg). A counters-only batch has event_count 0
  // and an empty payload; central never reads it.
  std::string payload;
  size_t event_count = 0;
  std::vector<WindowCounter> counters;  // deltas since the previous flush

  // Honest wire accounting: the encoded events, each counter's window start
  // plus three u64 readings (seen, sampled, shed), and the header (query_id
  // 8 + host 4 + seq 8 + epoch 8 + event_count 4 + counter_count 4 +
  // format 1).
  size_t WireSize() const {
    return payload.size() + 32 * counters.size() + 37;
  }
};

struct AgentConfig {
  // Sampled events staged per query between flushes. Staging happens before
  // selection (selection runs at flush), so the cap counts every sampled
  // event of the query's types, not only the ones that will pass its WHERE.
  size_t staging_capacity = 8192;
  // Byte budget over one query's staged events (full, un-projected logical
  // wire sizes; 0 = unlimited). The capacity bounds entries; this bounds
  // bytes, so a query over wide events cannot balloon the host. The
  // degradation here is drop-and-count (log() never blocks, never spills);
  // every drop is counted per window and folded into central's fidelity.
  size_t staging_budget_bytes = 0;
  size_t max_batch_events = 1024;  // flush splits batches beyond this
  // Reliable delivery. A flushed batch is held for retransmission until
  // acked; unacked batches are re-sent with exponential backoff + jitter
  // until `retransmit_budget` has elapsed since the flush, then shed and
  // counted. retransmit_budget == 0 disables the retransmit path (unit-test
  // agents that are never acked would otherwise hold batches forever);
  // ScrubSystem derives a budget from the central's allowed lateness.
  size_t retransmit_capacity = 64;          // held batches per query
  TimeMicros retransmit_backoff = 250 * kMicrosPerMilli;  // first retry
  TimeMicros retransmit_budget = 0;
  // When set, every flush emits at least one (possibly zero) window counter
  // per in-span query, so ScrubCentral can tell "host reachable, nothing to
  // report" from "host silent" — the basis of completeness accounting.
  bool flush_heartbeats = false;
  CostModel costs;
};

struct AgentQueryStats {
  // Sampling and drops are counted at log() time; selection runs at flush,
  // so events_filtered and events_staged (events that passed selection)
  // settle only when a flush drains the query's staging.
  uint64_t events_considered = 0;  // log() calls of a matching type
  uint64_t events_sampled_out = 0;
  uint64_t events_filtered = 0;    // failed selection
  uint64_t events_staged = 0;
  uint64_t events_dropped = 0;     // staging capacity or byte budget hit
  uint64_t events_shipped = 0;
  // Reliable-delivery accounting.
  uint64_t batches_sent = 0;          // first transmissions
  uint64_t batches_retransmitted = 0; // re-sends of unacked batches
  uint64_t batches_acked = 0;
  uint64_t batches_expired = 0;       // retransmit budget spent, shed
  uint64_t batches_evicted = 0;       // retransmit buffer overflow, shed
  uint64_t events_abandoned = 0;      // events in shed batches
  // Per-source, per-field wire encoding chosen by the most recent columnar
  // flush that shipped data (EncodeColumnBatch's convention: -1 dropped or
  // all-null, 0 plain, n > 0 dictionary with n entries). Empty until a
  // columnar flush ships; pre-aggregating queries never fill it.
  std::vector<std::vector<int>> last_encodings;
  // Staging shape, fixed at install: whether this query pre-aggregates
  // instead of staging events, and the plan-ordered source event types.
  // Lives in the stats (not the ActiveQuery) so DescribeQuery can still
  // render it after teardown.
  bool preaggregated = false;
  std::vector<std::string> source_types;
};

class ScrubAgent {
 public:
  // `epoch` is the host's incarnation number; ScrubSystem bumps it when a
  // crashed host restarts with a fresh agent.
  ScrubAgent(HostId host, CostMeter* meter, AgentConfig config,
             uint64_t sampling_seed, uint64_t epoch = 0)
      : host_(host),
        meter_(meter),
        config_(config),
        rng_(sampling_seed),
        // A separate stream for retry jitter, so retransmission timing never
        // perturbs the event-sampling coin flips (faulted and clean runs
        // must sample identically).
        retry_rng_(sampling_seed ^ 0x9E3779B97F4A7C15ULL),
        epoch_(epoch) {
    staging_accountant_.set_budgets(config_.staging_budget_bytes,
                                    /*total_bytes=*/0);
  }

  // Installs a query object received from the query server. Idempotent: a
  // duplicate install (retry that raced its ack) is a no-op, preserving
  // staged events and stats.
  void InstallQuery(const HostPlan& plan);
  void RemoveQuery(QueryId query_id);
  size_t active_queries() const { return queries_.size(); }
  bool HasQuery(QueryId query_id) const { return queries_.count(query_id) > 0; }

  // The application-facing instrumentation point. Processes the event
  // against every active query, charges the host CostMeter, and returns the
  // simulated nanoseconds spent (so callers can fold it into request
  // latency). The event is copied at most once, into the shared staging
  // batch of its type, however many queries keep it.
  int64_t LogEvent(const Event& event);

  // Runs selection and projection over each query's staged events, ships
  // the survivors in batches (at most max_batch_events each) and emits
  // counter deltas. Counters that no event batch carried (heartbeats, or a
  // flush whose staged events were all filtered) ship in one counters-only
  // batch: event_count 0, empty payload. Also retires
  // queries whose span has passed `now` (returns their ids in `expired` if
  // non-null). Every flush ends with the shared staging batches empty.
  std::vector<EventBatch> Flush(TimeMicros now,
                                std::vector<QueryId>* expired = nullptr);

  // Batches whose retry timer has come due (their retransmit copies stay
  // buffered until acked or expired). Also sheds batches whose retransmit
  // budget is spent.
  std::vector<EventBatch> Retransmits(TimeMicros now);

  // ScrubCentral acked (host, query, seq): drop the retransmit copy.
  void OnAck(QueryId query_id, uint64_t seq);

  size_t pending_retransmits() const;
  uint64_t epoch() const { return epoch_; }

  const AgentQueryStats* StatsFor(QueryId query_id) const;
  uint64_t total_events_logged() const { return total_events_logged_; }
  // Rows held across the shared columnar staging batches (zero after every
  // Flush).
  size_t shared_staged_rows() const;

 private:
  struct ActiveQuery {
    HostPlan plan;
    // Sampled events are staged un-filtered in the agent's shared per-type
    // batch (`staging_`); selection and projection run vectorized at flush.
    // Per plan source (lazily sized to plan.sources), this query's staged
    // row indices into the shared batch of that source's event type, in
    // ascending (arrival) order. Single-source plans use slot 0; joins
    // stage every source and record the arrival interleave in
    // `staging_order` so the central join folds events in arrival order.
    std::vector<std::vector<uint32_t>> columns;
    // Source index of each column-staged event, in arrival order. Only
    // maintained for multi-source plans (a single source's arrival order is
    // its row list's order).
    std::vector<uint8_t> staging_order;
    // Counter deltas keyed by window start, flushed incrementally.
    std::map<TimeMicros, WindowCounter> pending_counters;
    // Pre-aggregation path (plan.preaggregate): selected events fold into
    // per-(slot, group) COUNT/SUM delta cells; a flush ships one kPreAgg
    // batch of deltas instead of the events. `index` maps a hashed group
    // key to its position in `groups`, which preserves first-touch order so
    // the encoded payload is a deterministic function of the event stream.
    struct PreAggState {
      uint64_t events = 0;  // selected events folded into this slot
      std::unordered_map<HashedGroupKey, size_t, HashedGroupKeyHash> index;
      std::vector<PreAggGroup> groups;
    };
    std::map<TimeMicros, PreAggState> preagg;
    AgentQueryStats stats;

    explicit ActiveQuery(const HostPlan& p) : plan(p) {}
  };

  // A flushed batch awaiting its ack.
  struct PendingBatch {
    EventBatch batch;
    TimeMicros next_retry = 0;
    TimeMicros deadline = 0;  // flush time + retransmit budget
    int attempts = 0;
  };

  // Vectorized selection over one source's staged rows of `cols`: each
  // conjunct compacts `selection`, charged only for the rows that reached
  // it, and projection is charged per surviving row (it is column selection
  // on the wire, never materialized). Counts filtered and staged events;
  // returns the simulated nanoseconds spent.
  int64_t SelectStaged(const HostSourcePlan& sp, const ColumnBatch& cols,
                       std::vector<uint32_t>* selection,
                       AgentQueryStats* stats) const;

  // Flush pass for a single-source query: select + project the query's rows
  // of the shared staging batch and append the resulting kColumnar batches
  // to `batches`.
  void FlushColumns(QueryId query_id, ActiveQuery& q, TimeMicros now,
                    std::vector<EventBatch>* batches);

  // Join twin of FlushColumns: per-source selection, then the surviving
  // events are chunked in arrival order (per staging_order) into
  // kColumnarJoin batches carrying one columnar section per source plus the
  // interleave, so central folds them in the order they were logged.
  void FlushColumnJoin(QueryId query_id, ActiveQuery& q, TimeMicros now,
                       std::vector<EventBatch>* batches);

  // Total rows staged across a query's per-source row lists.
  size_t StagedRows(const ActiveQuery& q) const;

  // Pre-aggregation path: folds one selected event into its slot's delta
  // cells (returns the CPU charged), and flushes the accumulated deltas as
  // a single kPreAgg batch.
  int64_t PreAggFold(ActiveQuery& q, const Event& event, TimeMicros ts);
  void FlushPreAgg(QueryId query_id, ActiveQuery& q, TimeMicros now,
                   std::vector<EventBatch>* batches);

  // Sends one flushed batch: stamps the header (next sequence number),
  // attaches the query's pending counter deltas (so they ride with the
  // first batch of the flush), charges serialization, counts the shipment,
  // keeps a retransmit copy and appends the batch to `batches`.
  void Ship(QueryId query_id, ActiveQuery& q, EventBatch batch,
            TimeMicros now, std::vector<EventBatch>* batches);

  // Keeps a retransmit copy of a just-flushed batch, budget permitting.
  void HoldForRetransmit(ActiveQuery& q, QueryId query_id,
                         const EventBatch& batch, TimeMicros now);

  TimeMicros WindowStartFor(const ActiveQuery& q, TimeMicros ts) const;

  // Records one staged-but-shed event in the window's counter, so central
  // can fold the loss into that window's fidelity.
  void CountShed(ActiveQuery& q, TimeMicros ts);

  // Stats survive retirement; explicit RemoveQuery discards them (existing
  // behavior), in which case this returns nullptr.
  AgentQueryStats* MutableStatsFor(QueryId query_id);

  // Exponential backoff with +/-25% jitter from the retry stream.
  TimeMicros BackoffFor(int attempts);

  HostId host_;
  CostMeter* meter_;
  AgentConfig config_;
  Rng rng_;
  Rng retry_rng_;
  uint64_t epoch_;
  // Logical bytes staged per query, against staging_budget_bytes. Released
  // when a flush drains the query's row lists.
  MemoryAccountant staging_accountant_;
  std::unordered_map<QueryId, ActiveQuery> queries_;
  // Staging shared by every query: one batch per event type, each
  // created from the first kept event's schema (the agent holds no
  // SchemaRegistry). An event enters its type's batch at most once, when
  // the first query keeps it; queries hold row indices into it. Cleared
  // (capacity kept) at the end of every Flush, when no row list references
  // it any more.
  std::unordered_map<std::string, ColumnBatch> staging_;
  std::unordered_map<QueryId, AgentQueryStats> retired_stats_;
  // Retransmit buffers outlive query retirement: the final flush's batches
  // are still owed to ScrubCentral. They drain via ack or deadline.
  std::map<QueryId, std::deque<PendingBatch>> retransmit_;
  std::unordered_map<QueryId, uint64_t> next_seq_;
  uint64_t total_events_logged_ = 0;
};

}  // namespace scrub

#endif  // SRC_AGENT_AGENT_H_
