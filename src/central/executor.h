// The physical-operator executor: one engine for every central deployment.
//
// ScrubCentral's fold logic used to live as three divergent code paths
// (row fold, columnar fold, sharded re-bucket layer). The executor carves it
// into the per-operator units a compiled PhysicalPipeline names, over one
// input representation — ColumnBatch selections:
//
//   Decode      — wire payload -> InputChunk (a ColumnBatch selection).
//   Join        — symmetric hash join on request id, window-scoped, over a
//                 flat JoinBuffer. Inputs probe on the request-id column and
//                 stay (batch, row) references into batches the window
//                 pins; joined tuples evaluate straight off those columns,
//                 so no joined event is materialized as an Event.
//   GroupFold   — group-key evaluation + accumulator update (or, raw mode,
//                 Project: eager per-tuple row emission) into the window's
//                 flat GroupTable. A row that hits an existing group
//                 allocates nothing: its values come from the chunk's
//                 slot-indexed column evaluations (ChunkEvalCache), its key
//                 is built in a scratch key on the Fold's stack, and its
//                 covering windows and host presence resolve once per
//                 slide-grid cell, not per row.
//   WindowClose — lateness-gated close: completeness, orphan accounting,
//                 then row emission (single instance) or a mergeable
//                 WindowPartial (shard role).
//   Finalize    — accumulators -> values, written once (FinalizeGroups) and
//                 called by both the single-instance close and the
//                 PartialCoordinator. Under sampling this is where the
//                 Eq. 1-3 estimator runs, over per-(group, host) readings:
//                 folded locally on a single instance, merged from shard
//                 partials at the coordinator, which is what lets sampled
//                 plans shard.
//
// The executor holds no per-query state: it interprets a QueryState, which
// the owning facility (ScrubCentral) maps by query id. Distinct QueryStates
// may be executed concurrently (shards touch disjoint state); one may not.
//
// Everything here preserves the exact observable sequence of the code it
// was carved from — meter charges, stats increments, group and host
// insertion orders — so transcripts are byte-identical to the pre-executor
// central for every worker-count x pipeline combination (the determinism
// suites enforce it).

#ifndef SRC_CENTRAL_EXECUTOR_H_
#define SRC_CENTRAL_EXECUTOR_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/agent/agent.h"
#include "src/common/cost_model.h"
#include "src/common/spill.h"
#include "src/common/state_bytes.h"
#include "src/event/schema.h"
#include "src/event/wire.h"
#include "src/plan/group_key.h"
#include "src/plan/physical.h"
#include "src/plan/plan.h"
#include "src/plan/vectorized.h"
#include "src/query/analyzer.h"
#include "src/sketch/hyperloglog.h"
#include "src/sketch/multistage.h"
#include "src/sketch/space_saving.h"

namespace scrub {

// Group keys and mergeable aggregate state are shared with the sharded
// deployment (ShardedCentral) and the regional combiner tier, whose
// coordinators merge per-shard / per-region partials. The key types live in
// src/plan/group_key.h.

// One aggregate's running state within one group. Mergeable: partials from
// independent shards combine into the same state one stream would build.
struct AggAccumulator {
  uint64_t count = 0;
  double sum = 0.0;
  bool has_minmax = false;
  Value min_value;
  Value max_value;
  std::unique_ptr<HyperLogLog> hll;
  std::unique_ptr<SpaceSaving<Value, ValueHash>> topk;

  void Merge(AggAccumulator&& other);
  // Deep copy (sketches included). The combiner tier holds clones of
  // in-flight partials for retransmission; the merge-algebra property tests
  // replay the same inputs through many merge orders.
  AggAccumulator Clone() const;
};

// Finalizes one accumulator to its result value on the exact path (scale
// multiplies COUNT/SUM/TOPK counts; pass 1.0 when sampling is off).
Value FinalizeAccumulator(const AggregateSpec& spec,
                          const AggAccumulator& acc, double scale);

// Per-host readings for the pipeline's scaled slots within one group, as
// shipped shard -> coordinator (Eq. 3 needs per-host variance, so sums are
// not enough).
struct GroupHostReadings {
  HostId host = kInvalidHost;
  std::vector<RunningStats> readings;  // parallel to pipeline.scaled_slots
};

// One shard's finished window, shipped to the sharded coordinator. Shards
// report no completeness: the coordinator computes it from the counters.
struct WindowPartial {
  QueryId query_id = 0;
  TimeMicros window_start = 0;
  std::vector<GroupKey> keys;
  // GroupKeyHash of each key, parallel to `keys`: the coordinator's merge
  // reuses the shard's hashes instead of rehashing.
  std::vector<size_t> key_hashes;
  std::vector<std::vector<AggAccumulator>> accumulators;  // parallel to keys
  // Sampled plans only: per-(group, host) readings for the scaled slots,
  // parallel to `keys` (empty otherwise). The coordinator merges these
  // across shards and runs the Eq. 1-3 estimator per group.
  std::vector<std::vector<GroupHostReadings>> group_readings;
  // Fidelity inputs, shipped raw so the coordinator can compute the exact
  // ratio across shards: events routed to this shard's window, and the
  // subset it shed under pressure (budget shed, spill I/O losses).
  uint64_t input_events = 0;
  uint64_t shed_events = 0;
  // Operator-metrics delta since this shard's previous export (parallel to
  // the shard pipeline's ops; empty when collection is off). Sideband
  // observability: excluded from wire-size accounting, merged by the
  // coordinator into upstream_op_metrics the way completeness/fidelity ride.
  std::vector<OperatorMetrics> op_metrics;

  WindowPartial Clone() const;
};

using PartialSink = std::function<void(WindowPartial&&)>;

struct ResultRow {
  QueryId query_id = 0;
  TimeMicros window_start = 0;
  TimeMicros window_end = 0;
  std::vector<Value> values;          // one per select column
  // error_bounds[i] is the ± half-width of the 95% interval when column i is
  // a sampled COUNT/SUM (Eq. 2); 0 means exact / not applicable.
  std::vector<double> error_bounds;
  // Fraction of the hosts the plan expected to hear from whose contribution
  // (events or heartbeat counters) reached central before this window
  // closed. 1.0 = every expected host reported; below that, the window's
  // answer is partition/crash-degraded and the user can tell.
  double completeness = 1.0;
  // Fraction of the events that reached (or were staged for) this window
  // that actually folded into the answer. Below 1.0 the window shed under
  // memory pressure — at the agent's staging buffer, at the central budget
  // with spill unavailable, or to a spill I/O fault — and the result is
  // honest-but-lossy rather than exact-looking (DESIGN.md §13).
  double fidelity = 1.0;

  std::string ToString() const;
};

using ResultSink = std::function<void(const ResultRow&)>;

// Duplicate suppression for sequenced batches from one (host, epoch): a
// contiguous watermark plus the out-of-order seqs beyond it, so state stays
// O(reorder depth), not O(batches). Shared with ShardedCentral, which dedups
// at the router before re-bucketing.
struct SeqTracker {
  uint64_t contiguous = 0;  // every seq <= this has been seen
  std::set<uint64_t> ahead;

  // Returns false (duplicate) if seq was already recorded.
  bool Insert(uint64_t seq) {
    if (seq <= contiguous || ahead.count(seq) > 0) {
      return false;
    }
    ahead.insert(seq);
    while (!ahead.empty() && *ahead.begin() == contiguous + 1) {
      ++contiguous;
      ahead.erase(ahead.begin());
    }
    return true;
  }
};

struct CentralConfig {
  // How long past a window's end central waits for stragglers.
  TimeMicros allowed_lateness = 2 * kMicrosPerSecond;
  // Join-state bound: at most this many distinct request ids buffered per
  // (query, window). Beyond it, new request ids are shed and counted —
  // accuracy traded for bounded memory, the paper's standing policy.
  size_t max_join_requests_per_window = 1 << 20;
  size_t topk_capacity_factor = 10;  // SpaceSaving counters per requested k
  size_t min_topk_capacity = 100;
  int hll_precision = kDefaultHllPrecision;
  // ---- Memory-pressure resilience (DESIGN.md §13) ----
  // Logical-byte budgets over WindowState group tables and join buffers
  // (0 = unlimited). When a query crosses its budget, its open windows
  // switch to defer-and-replay spill; when the central total crosses, every
  // query's do. Charges use logical (wire) sizes, so a budget is crossed at
  // the same event however the events were batched.
  size_t query_state_budget_bytes = 0;
  size_t central_state_budget_bytes = 0;
  // Track state bytes (accountant high-water marks) even without budgets.
  bool track_state_bytes = false;
  // Where spill runs live. Empty = spill disabled: over-budget events take
  // the degradation ladder's last rung (counted shed + fidelity flag).
  std::string spill_dir;
  // Namespaces spill file names; ShardedCentral gives each shard its own.
  std::string spill_instance = "central";
  uint64_t spill_seed = 1;
  // Cumulative spill-file bytes one query may write (0 = unlimited); beyond
  // it, over-budget events are shed and counted.
  size_t max_spill_bytes_per_query = 0;
  // Seeded per-record spill I/O failures (chaos testing).
  SpillFaultSpec spill_faults;
  // Operator-level metrics plane (DESIGN.md §16): per-op rows/batches/CPU
  // counters charged at chunk granularity. Pure observers — disabling them
  // changes no transcript byte; the bench gate holds their overhead under 5%.
  bool collect_op_metrics = true;
  CostModel costs;
};

struct CentralQueryStats {
  uint64_t batches = 0;
  uint64_t batches_duplicate = 0;  // dedup hits: retransmit raced its ack
  uint64_t events_ingested = 0;
  uint64_t events_late = 0;        // dropped: window already closed
  uint64_t tuples_joined = 0;      // joined tuples processed (join queries)
  uint64_t join_orphans = 0;       // events never matched by window close
  uint64_t join_shed = 0;          // events dropped: join buffer at capacity
  uint64_t groups_emitted = 0;
  uint64_t rows_emitted = 0;
  // Completeness accounting across closed windows.
  uint64_t windows_closed = 0;
  uint64_t windows_incomplete = 0;  // closed with completeness < 1
  double completeness_min = 1.0;
  double completeness_sum = 0.0;    // mean = sum / windows_closed
  // Memory-pressure accounting (DESIGN.md §13).
  uint64_t events_spilled = 0;     // deferred to disk under budget pressure
  uint64_t spill_runs = 0;         // windows that opened a spill run
  uint64_t spill_bytes = 0;        // cumulative run bytes written
  uint64_t spill_write_failures = 0;  // records lost on append (counted shed)
  uint64_t spill_read_failures = 0;   // replays aborted (remainder shed)
  uint64_t events_shed = 0;   // central-side counted shed, all ladder rungs
  uint64_t agent_events_shed = 0;  // staging shed reported via counters
  // Fidelity accounting across closed windows (mirrors completeness).
  uint64_t windows_lossy = 0;  // closed with fidelity < 1
  double fidelity_min = 1.0;
  double fidelity_sum = 0.0;  // mean = sum / windows_closed
  // ---- Operator-metrics plane (DESIGN.md §16) ----
  // One entry per op of the *local* compiled pipeline (parallel to
  // PhysicalPipeline::ops; empty until the first metered chunk or when
  // collection is off). For join pipelines the chunk-granularity CPU timer
  // lands on the Join op (the fold is fused into the probe loop); the
  // GroupFold/Project entry still carries honest row counts.
  std::vector<OperatorMetrics> op_metrics;
  // Coordinator role only: shard-side op metrics summed from WindowPartial
  // deltas (parallel to the *shard* pipeline's ops). Lets EXPLAIN ANALYZE
  // render the full sharded plan: upstream ops + the local Finalize.
  std::vector<OperatorMetrics> upstream_op_metrics;
  // Final accountant high-water mark, stamped at teardown (the accountant
  // forgets a retired query, so post-mortem DescribeQuery reads this).
  uint64_t peak_state_bytes = 0;
};

// ---------------------------------------------------------------------------
// Execution state the operators fold into.

struct GroupState {
  std::vector<AggAccumulator> accumulators;  // key lives in the table
  // The one per-host reading store for the Eq. 1-3 estimator
  // (pipeline.collect_group_readings): this group's readings per host for
  // the scaled slots. A single instance finalizes from it; a shard exports
  // it into WindowPartial::group_readings and the coordinator merges it
  // back into its own GroupStates. Keyed sorted so the export order, and
  // hence the coordinator's merge, is deterministic.
  std::map<HostId, std::vector<RunningStats>> host_readings;
};

// One window's groups, on a single instance, a shard or the coordinator.
// The shape of JoinBuffer:
//
//  * an open-addressing index (power-of-two, linear probing, load <= 1/2)
//    over HashMix64 of the key's GroupKeyHash, whose slots hold group + 1;
//  * groups in one deque in first-insertion order, each holding its key
//    (stored once, beside its hash) and its GroupState. A deque, not a
//    vector: growing never moves a group or holds two copies of the groups
//    (a vector raised join's max_rss_mb by 4.7%), and references to a
//    group survive later inserts.
//
// Find probes with borrowed key values, so a row that hits an existing
// group allocates nothing; only Insert takes a key in. Keys equal under
// Value::operator== (int 1 and double 1.0) are one group, keyed by the
// first arrival.
class GroupTable {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  struct Group {
    HashedGroupKey key;
    GroupState state;
  };

  size_t size() const { return groups_.size(); }
  bool empty() const { return groups_.empty(); }
  Group& operator[](uint32_t g) { return groups_[g]; }
  // First-insertion order.
  std::deque<Group>::iterator begin() { return groups_.begin(); }
  std::deque<Group>::iterator end() { return groups_.end(); }

  // Index of the group whose key equals `key` (GroupKeyHash `hash`), or
  // kNone.
  uint32_t Find(std::span<const Value> key, size_t hash) const;
  // Appends a group for `key` (absent) with an empty state and returns its
  // index.
  uint32_t Insert(GroupKey key, size_t hash);

 private:
  void Grow();

  std::vector<uint32_t> index_;  // group + 1 per slot, 0 = empty
  std::deque<Group> groups_;
};

// One host's sampling counters over one window (Eqs. 1-3).
struct HostCounts {
  uint64_t population = 0;  // M_i: events the agent saw
  uint64_t sampled = 0;     // m_i: events it sampled (shipped or filtered)
};
using HostCountList = std::vector<std::pair<HostId, HostCounts>>;

// Books one closed window into `stats` and returns its fidelity: the
// fraction of the events bound for the window (central input plus the
// agent's staging shed) that folded in. Shared by every window close.
double RecordWindowClose(CentralQueryStats& stats, double completeness,
                         uint64_t input_events, uint64_t shed_events,
                         uint64_t agent_shed);

// The Finalize operator, shared by the single-instance close and the
// PartialCoordinator. Adds the empty ungrouped group, computes the Eq. 1
// ratio scale from `hosts`, finalizes every slot (Eq. 1-3 with a bound on
// the pipeline's bounded slots, else exact or ratio-scaled), and emits one
// row per group in canonical order. `hosts` lists each host's M_i / m_i in
// the order the estimator sums them; a host's sampled events missing from
// a group's readings are that group's zero readings, and hosts with
// readings but no counters follow with M_i = their reading count. Returns
// the number of rows emitted.
size_t FinalizeGroups(const CentralPlan& plan,
                      const PhysicalPipeline& pipeline, TimeMicros start,
                      double completeness, double fidelity,
                      const HostCountList& hosts, GroupTable& groups,
                      CentralQueryStats& stats, const ResultSink& sink);

// Per-host bookkeeping within one window: counters, plus presence (every
// host heard from has an entry, which is what completeness counts).
struct HostWindowStats {
  HostCounts counts;
  // Events the agent staged for this window but shed before shipping
  // (staging buffer/budget overflow), from agent counters. Folded into the
  // window's fidelity, never into the sampling estimator.
  uint64_t shed = 0;
};

// The symmetric hash join's window-scoped buffer (DESIGN.md §11.2). One
// flat structure per window instead of a node per request id:
//
//  * an open-addressing index (power-of-two, linear probing, load <= 1/2)
//    over HashMix64(rid), whose slots hold bucket + 1 so every request-id
//    value, 0 and UINT64_MAX included, is a legal key;
//  * buckets in first-arrival order, each with a per-source chain
//    (head / tail / count);
//  * POD entries chained per source in arrival order, so a probe visits
//    partners in exactly the order they arrived;
//  * entries reference rows of batches the buffer pins once per window
//    (spill replay folds decoded blocks, pinned the same way).
//
// Teardown frees a handful of vectors, independent of the request count.
class JoinBuffer {
 public:
  static_assert(kMaxJoinSources == 2,
                "buckets inline one chain per source; size them for the "
                "admitted join width");
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  // One buffered event: (batch, row) into a pinned batch.
  struct Entry {
    const ColumnBatch* batch;
    uint32_t row;
    uint32_t next;  // next entry of the same (request id, source), or kNone
  };
  struct Bucket {
    RequestId rid;
    std::array<uint32_t, kMaxJoinSources> head;
    std::array<uint32_t, kMaxJoinSources> tail;
    std::array<uint32_t, kMaxJoinSources> count;
  };

  const std::vector<Bucket>& buckets() const { return buckets_; }
  const Entry& entry(uint32_t e) const { return entries_[e]; }

  // Bucket index of `rid`, or kNone.
  uint32_t Find(RequestId rid) const;
  // Adds an empty bucket for `rid` (absent) and returns its index.
  uint32_t Insert(RequestId rid);
  // Appends one event to the tail of bucket b's chain for `source`.
  void AppendColumns(uint32_t b, size_t source,
                     const std::shared_ptr<const ColumnBatch>& batch,
                     uint32_t row);

 private:
  void Grow();

  std::vector<uint32_t> index_;  // bucket + 1 per slot, 0 = empty
  std::vector<Bucket> buckets_;
  std::vector<Entry> entries_;
  std::vector<std::shared_ptr<const ColumnBatch>> pinned_;
};

struct WindowState {
  TimeMicros start = 0;
  GroupTable groups;
  JoinBuffer join;  // join plans only
  std::unordered_map<HostId, HostWindowStats> host_stats;
  bool closed = false;
  // ---- Memory-pressure bookkeeping (DESIGN.md §13) ----
  uint64_t input_events = 0;  // events routed here (folded, deferred or shed)
  uint64_t shed_events = 0;   // counted central-side shed
  size_t state_bytes = 0;     // bytes charged to the accountant, released at
                              // close
  // Defer-and-replay spill: non-null once the window crossed its budget.
  // Every later event appends here in arrival order and replays through the
  // ordinary fold at close, which is what keeps transcripts byte-identical
  // to the unbounded run.
  std::unique_ptr<SpillRun> spill;
  bool shedding = false;   // ladder bottom: spill unavailable or failed open
  bool replaying = false;  // close-time replay in progress
};

// Everything one installed query needs to execute: the plan, its compiled
// pipeline, the open windows, and the facility-level bookkeeping (sinks,
// dedup, stats). Owned by ScrubCentral; interpreted by the Executor.
struct QueryState {
  CentralPlan plan;
  PhysicalPipeline pipeline;
  ResultSink sink;           // row mode
  PartialSink partial_sink;  // shard mode (exactly one of the two is set)
  CentralQueryStats stats;
  std::map<TimeMicros, WindowState> windows;  // keyed by window start
  // Dedup state per sending host, keyed by agent incarnation (epoch).
  std::unordered_map<HostId, std::map<uint64_t, SeqTracker>> dedup;
  // Windows at or before this start have been emitted and erased; events
  // mapping into them are late.
  TimeMicros closed_through = std::numeric_limits<TimeMicros>::min();
  // ---- Operator-metrics bookkeeping (observers only; DESIGN.md §16) ----
  // Cached op indexes into pipeline.ops / stats.op_metrics, filled lazily
  // from the compiled pipeline on the first metered call (-1 = op absent).
  int op_decode = -1;
  int op_join = -1;
  int op_fold = -1;  // kGroupFold or kProject
  int op_close = -1;
  int op_finalize = -1;
  bool op_index_ready = false;
  // Shard role: counters already shipped in earlier partials, so each
  // export carries only the delta (retransmitted envelopes are deduped by
  // the coordinator before absorption, so deltas never double-count).
  std::vector<OperatorMetrics> exported_op_metrics;
};

// ---------------------------------------------------------------------------

// A decoded kColumnarJoin batch (or a re-bucketed slice of one): the shared
// per-source columnar sections plus this consumer's arrival-order interleave.
// order[i] names the section of the i-th event, rows[i] (parallel) its row
// within that section. Sections are shared so join buffers can pin them
// past the fold.
struct ColumnJoinSlice {
  std::vector<std::shared_ptr<const ColumnBatch>> sections;
  std::vector<uint8_t> order;
  std::vector<uint32_t> rows;
};

// Per-chunk column evaluations in fixed slots. In aggregate mode group-by
// program g sits at slot g and aggregate i's argument at slot G + i (G =
// group-by count; argument-less aggregates leave their slot empty); in raw
// mode select program j sits at slot j. Built once per non-join chunk, so a
// row reads its values by (slot, position) with no lookup.
//
// A slot whose program is one path-free LoadField over a kInt, kDouble or
// kBool column is a typed read: At() reads the column in place through the
// selection and builds the Value straight into the caller's scratch (a set
// null bit, as on every row of a dropped wire column, gives a null Value
// without touching storage). Every other slot — string, dict and kGeneric
// columns, path loads, request id / timestamp / constant loads and
// multi-instruction programs — is materialized once per chunk by
// FoldColumns and read by reference. A kGeneric column (a type-drifted
// field, or hostile wire bytes, DESIGN §15.2) is never read as typed: its
// rep is checked per chunk, so it takes the materialized path.
//
// Typed reads hold raw pointers into one chunk's column storage and
// selection, so a cache must never outlive the chunk it was built from:
// Fold keeps it on its stack beside the chunk, and spill replay's
// per-block caches die before the blocks they read. Pure computation:
// building or reading it changes no observable (charges, stats,
// transcripts).
class ChunkEvalCache {
 public:
  void Build(const CentralPlan& plan, const ColumnBatch& batch,
             const uint32_t* selection, size_t selected);
  // The value of `slot` at chunk position `pos`: `scratch`, filled in
  // place, for a typed read; a reference to the materialized value
  // otherwise.
  const Value& At(size_t slot, size_t pos, Value& scratch) const {
    const ColumnBatch::Column* col = typed_[slot];
    if (col == nullptr) {
      return folded_.values[slot][pos];
    }
    const size_t r = selection_ != nullptr ? selection_[pos] : pos;
    if (BitmapGet(col->nulls, r)) {
      scratch = Value();
    } else if (col->rep == ColumnBatch::Rep::kInt) {
      scratch = Value(col->ints[r]);
    } else if (col->rep == ColumnBatch::Rep::kDouble) {
      scratch = Value(col->doubles[r]);
    } else {
      scratch = Value(col->bools[r] != 0);
    }
    return scratch;
  }

 private:
  FoldedColumns folded_;
  // Per slot: the column a typed read reads, or null (materialized slot).
  std::vector<const ColumnBatch::Column*> typed_;
  const uint32_t* selection_ = nullptr;
};

class Executor {
 public:
  // `accountant` and `spill` may be null (no budgets, no spill): every
  // pressure path is then skipped and the fold is exactly the pre-spill one.
  Executor(const SchemaRegistry* registry, const CentralConfig* config,
           CostMeter* meter, MemoryAccountant* accountant = nullptr,
           SpillManager* spill = nullptr)
      : registry_(registry), config_(config), meter_(meter),
        accountant_(accountant), spill_(spill) {}

  // Decode operator: wire payload -> InputChunk, then Fold. (The dedup and
  // counter admission stays with the owning facility.)
  Status DecodeAndFold(QueryState& q, HostId host, const EventBatch& batch);

  // Window-assigns each chunk position, then runs Join / GroupFold /
  // Project per covering window.
  void Fold(QueryState& q, HostId host, const InputChunk& chunk);

  // Folds a decoded (or re-bucketed) kColumnarJoin slice by replaying its
  // arrival interleave: consecutive same-section positions fold as one
  // columnar chunk, which preserves the exact per-position transcript of
  // folding the interleave one event at a time (Fold's per-chunk preamble
  // has no observable effects).
  void FoldColumnJoin(QueryState& q, HostId host,
                      const ColumnJoinSlice& slice);

  // Books decode rows for pre-decoded ingestion (the sharded router decodes
  // once and feeds shards column selections directly): honest row and batch
  // counts on the Decode op, no CPU stamp — the decode time was spent at
  // the router, not on this shard. Mirrors the fused-join convention.
  void StampDecodeRows(QueryState& q, size_t rows);

  // WindowClose operator: completeness + orphan accounting, then Finalize
  // (row emission) or WindowPartial export (shard role).
  void CloseWindow(QueryState& q, WindowState* w);

  TimeMicros WindowStartFor(const QueryState& q, TimeMicros ts) const;
  // Fills `out` with the still-open windows covering ts, newest first: one
  // for tumbling queries, up to window/slide for sliding queries. A window
  // running past the query's end_time is never created (admission keeps
  // the duration a multiple of the slide, so full windows cover the span),
  // so a sliding query emits no half-filled trailing rows. Empty when ts is
  // out of span or every covering window has already closed (late data).
  void WindowsFor(QueryState& q, TimeMicros ts,
                  std::vector<WindowState*>* out);
  // Observed fraction of the plan's expected host set for this window.
  double WindowCompleteness(const QueryState& q, const WindowState& w) const;

 private:
  // ---- Operator-metrics plane (DESIGN.md §16). Counters are charged at
  // chunk granularity (one thread-CPU clock read per operator per chunk) and
  // never observed by the fold itself, so collection cannot perturb
  // transcripts and its overhead stays within the 5% bench gate.
  bool MetricsOn() const { return config_->collect_op_metrics; }
  // Sizes stats.op_metrics and caches the pipeline's op indexes (idempotent;
  // derived purely from the compiled pipeline).
  void EnsureOpIndex(QueryState& q) const;
  // Books one Fold chunk against the Join (join plans) or GroupFold/Project
  // op: rows in/out from the stats deltas across the chunk, CPU since `t0`.
  void StampFoldMetrics(QueryState& q, size_t rows, uint64_t t0,
                        uint64_t joined0, uint64_t emitted0, uint64_t late0,
                        uint64_t shed0, uint64_t spilled0) const;
  // The timestamps [*lo, *hi) that share ts's covering windows: its
  // slide-grid cell within the span, or an empty range when ts is out of
  // span or the window is not a multiple of the slide (hand-built plans).
  void CoverCell(const QueryState& q, TimeMicros ts, TimeMicros* lo,
                 TimeMicros* hi) const;
  // One chunk position folded into one covering window: the Join or
  // GroupFold/Project operator. Under memory pressure the event is deferred
  // to the window's spill run (or shed and counted) instead. The caller has
  // already recorded the host in the window's host_stats. `cache` holds
  // the chunk's column evaluations (non-join plans); `key` is the caller's
  // scratch group key, reused row to row.
  void FoldInto(QueryState& q, WindowState& w, const InputChunk& chunk,
                size_t i, int column_source, HostId host,
                const ChunkEvalCache& cache, GroupKey& key);
  // True once the query (or the whole central) is over its state budget.
  bool OverBudget(const QueryState& q) const;
  // Pressure path for one event: append to the window's spill run, opening
  // it on first use, or fall down the ladder to counted shed.
  void SpillOrShed(QueryState& q, WindowState& w, const InputChunk& chunk,
                   size_t i, HostId host);
  void ShedEvent(QueryState& q, WindowState& w);
  // Replays the window's spill run through the ordinary columnar fold in
  // record order: records decode into per-type ColumnBatch blocks that are
  // never mutated once they fold (join buffers pin them). Counts records a
  // read or decode failure lost; then discards the run.
  void ReplaySpill(QueryState& q, WindowState* w);
  // Accountant charge tied to the window (released when the window closes).
  void ChargeState(QueryState& q, WindowState& w, size_t bytes);
  // Join operator. `source` is the chunk's source index (a chunk carries
  // one schema; -1 = not a source of this query).
  void JoinFold(QueryState& q, WindowState& w, const InputChunk& chunk,
                size_t i, int source, HostId host, GroupKey& key);
  // GroupFold/Project with the tuple's shape abstracted behind an
  // expression evaluator, `eval(program, slot, scratch) -> const Value&`
  // with ChunkEvalCache's slot numbering: one body for single-source rows
  // and join tuples, so the folds cannot drift from each other. `eval`
  // returns either `scratch`, filled in place, or a reference to a value
  // that outlives the call; a group key slot is its own scratch, so a
  // typed read lands straight in the key. The group key is built in `key`
  // and copied into the window's table only when the group is new.
  // Defined in the .cc (every instantiation lives there).
  template <typename EvalFn>
  void GroupFoldWith(QueryState& q, WindowState& w, HostId host,
                     GroupKey& key, EvalFn&& eval);
  // GroupFold/Project straight off the chunk's evaluated columns (non-join
  // plans) at chunk position `pos`.
  void GroupFoldColumn(QueryState& q, WindowState& w, HostId host,
                       const ChunkEvalCache& cache, size_t pos,
                       GroupKey& key);
  // GroupFold/Project over a join tuple, column-direct on every side.
  void GroupFoldMixed(QueryState& q, WindowState& w,
                      std::span<const TupleSlot> slots, HostId host,
                      GroupKey& key);
  // Accumulator update with the argument already evaluated (shared by both
  // folds; `arg` is null for argument-less aggregates).
  void UpdateAccumulatorValue(const AggregateSpec& spec, AggAccumulator* acc,
                              const Value& arg);
  // Sampled plans with Eq. 1-3 slots (pipeline.collect_group_readings):
  // fold this row's readings for the scaled slots into the group's per-host
  // stats. `eval` evaluates an aggregate argument against the row's
  // representation, as in GroupFoldWith.
  template <typename EvalArg>
  void CollectGroupReadings(QueryState& q, GroupState* group, HostId host,
                            EvalArg&& eval) {
    if (!q.pipeline.collect_group_readings) {
      return;
    }
    std::vector<RunningStats>& readings = group->host_readings[host];
    readings.resize(q.pipeline.scaled_slots.size());
    const size_t args = q.plan.group_by_programs.size();
    for (size_t s = 0; s < q.pipeline.scaled_slots.size(); ++s) {
      const size_t agg = static_cast<size_t>(q.pipeline.scaled_slots[s]);
      const AggregateSpec& spec = q.plan.aggregates[agg];
      double v = 1.0;  // COUNT: indicator reading
      if (spec.func == AggregateFunc::kSum) {
        Value scratch;
        const Value& arg = eval(spec.arg_program, args + agg, scratch);
        v = arg.is_numeric() ? arg.AsNumber() : 0.0;
      }
      readings[s].Add(v);
    }
  }

  const SchemaRegistry* registry_;
  const CentralConfig* config_;
  CostMeter* meter_;
  MemoryAccountant* accountant_;
  SpillManager* spill_;
};

}  // namespace scrub

#endif  // SRC_CENTRAL_EXECUTOR_H_
