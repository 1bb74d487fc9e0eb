#include "src/central/executor.h"

#include <algorithm>
#include <cmath>

#include "src/common/strings.h"
#include "src/common/worker_pool.h"
#include "src/plan/vectorized.h"

namespace scrub {

namespace {

// Bytes a newly created group will hold: its key, one accumulator per
// aggregate, and the sketches COUNT DISTINCT / TOPK slots allocate on first
// update (charged up front — they are created by the group's first row with
// near certainty, and charging here keeps the sequence deterministic).
// The sizes are the representation-independent literals of
// src/common/state_bytes.h, never sizeof or capacity (DESIGN.md §13.1).
size_t GroupCreationBytes(const CentralConfig& config, const CentralPlan& plan,
                          const GroupKey& key) {
  size_t bytes = kGroupStateBytes + plan.aggregates.size() * kAccumulatorBytes;
  for (const Value& v : key) {
    bytes += v.WireSize();
  }
  for (const AggregateSpec& spec : plan.aggregates) {
    if (spec.func == AggregateFunc::kCountDistinct) {
      bytes += (size_t{1} << config.hll_precision) + kHllStructBytes;
    } else if (spec.func == AggregateFunc::kTopK) {
      bytes += kTopKCounterBytes *
               std::max(config.min_topk_capacity,
                        static_cast<size_t>(spec.topk_k) *
                            config.topk_capacity_factor);
    }
  }
  return bytes;
}

// Index of `type` among the plan's sources, or -1.
int SourceIndex(const CentralPlan& plan, const std::string& type) {
  for (size_t s = 0; s < plan.sources.size(); ++s) {
    if (plan.sources[s] == type) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

// Spill records carry the host as a u32. Fleet hosts are non-negative and
// kInvalidHost marks a batch sent without one; both round-trip. The writer
// sheds any other host, so replay reads one as corruption.
bool SpillableHost(HostId host) { return host >= kInvalidHost; }

}  // namespace

uint32_t JoinBuffer::Find(RequestId rid) const {
  if (index_.empty()) {
    return kNone;
  }
  const size_t mask = index_.size() - 1;
  for (size_t slot = HashMix64(rid) & mask;; slot = (slot + 1) & mask) {
    const uint32_t b = index_[slot];
    if (b == 0) {
      return kNone;
    }
    if (buckets_[b - 1].rid == rid) {
      return b - 1;
    }
  }
}

uint32_t JoinBuffer::Insert(RequestId rid) {
  if ((buckets_.size() + 1) * 2 > index_.size()) {
    Grow();
  }
  const uint32_t b = static_cast<uint32_t>(buckets_.size());
  Bucket& bucket = buckets_.emplace_back();
  bucket.rid = rid;
  bucket.head.fill(kNone);
  bucket.tail.fill(kNone);
  bucket.count.fill(0);
  const size_t mask = index_.size() - 1;
  size_t slot = HashMix64(rid) & mask;
  while (index_[slot] != 0) {
    slot = (slot + 1) & mask;
  }
  index_[slot] = b + 1;
  return b;
}

void JoinBuffer::Grow() {
  index_.assign(std::max<size_t>(16, index_.size() * 2), 0);
  const size_t mask = index_.size() - 1;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    size_t slot = HashMix64(buckets_[b].rid) & mask;
    while (index_[slot] != 0) {
      slot = (slot + 1) & mask;
    }
    index_[slot] = static_cast<uint32_t>(b + 1);
  }
}

void JoinBuffer::AppendColumns(uint32_t b, size_t source,
                               const std::shared_ptr<const ColumnBatch>& batch,
                               uint32_t row) {
  // A chunk's entries share one batch, and a kColumnarJoin interleave
  // alternates between at most kMaxJoinSources sections, so checking the
  // newest pins keeps each batch pinned once per window.
  const auto newest =
      pinned_.end() -
      static_cast<std::ptrdiff_t>(std::min(pinned_.size(), kMaxJoinSources));
  if (std::find(newest, pinned_.end(), batch) == pinned_.end()) {
    pinned_.push_back(batch);
  }
  const uint32_t e = static_cast<uint32_t>(entries_.size());
  entries_.push_back(Entry{batch.get(), row, kNone});
  Bucket& bucket = buckets_[b];
  if (bucket.tail[source] == kNone) {
    bucket.head[source] = e;
  } else {
    entries_[bucket.tail[source]].next = e;
  }
  bucket.tail[source] = e;
  ++bucket.count[source];
}

void AggAccumulator::Merge(AggAccumulator&& other) {
  count += other.count;
  sum += other.sum;
  if (other.has_minmax) {
    if (!has_minmax) {
      min_value = std::move(other.min_value);
      max_value = std::move(other.max_value);
      has_minmax = true;
    } else {
      if (other.min_value.Compare(min_value) < 0) {
        min_value = std::move(other.min_value);
      }
      if (other.max_value.Compare(max_value) > 0) {
        max_value = std::move(other.max_value);
      }
    }
  }
  if (other.hll != nullptr) {
    if (hll == nullptr) {
      hll = std::move(other.hll);
    } else {
      hll->Merge(*other.hll);
    }
  }
  if (other.topk != nullptr) {
    if (topk == nullptr) {
      topk = std::move(other.topk);
    } else {
      topk->Merge(*other.topk);
    }
  }
}

AggAccumulator AggAccumulator::Clone() const {
  AggAccumulator copy;
  copy.count = count;
  copy.sum = sum;
  copy.has_minmax = has_minmax;
  copy.min_value = min_value;
  copy.max_value = max_value;
  if (hll != nullptr) {
    copy.hll = std::make_unique<HyperLogLog>(*hll);
  }
  if (topk != nullptr) {
    copy.topk = std::make_unique<SpaceSaving<Value, ValueHash>>(*topk);
  }
  return copy;
}

WindowPartial WindowPartial::Clone() const {
  WindowPartial copy;
  copy.query_id = query_id;
  copy.window_start = window_start;
  copy.completeness = completeness;
  copy.keys = keys;
  copy.key_hashes = key_hashes;
  copy.accumulators.reserve(accumulators.size());
  for (const std::vector<AggAccumulator>& group : accumulators) {
    std::vector<AggAccumulator> cloned;
    cloned.reserve(group.size());
    for (const AggAccumulator& acc : group) {
      cloned.push_back(acc.Clone());
    }
    copy.accumulators.push_back(std::move(cloned));
  }
  copy.group_readings = group_readings;
  copy.input_events = input_events;
  copy.shed_events = shed_events;
  copy.op_metrics = op_metrics;
  return copy;
}

void Executor::EnsureOpIndex(QueryState& q) const {
  if (q.op_index_ready) {
    return;
  }
  q.op_index_ready = true;
  q.stats.op_metrics.resize(q.pipeline.ops.size());
  for (size_t i = 0; i < q.pipeline.ops.size(); ++i) {
    switch (q.pipeline.ops[i].kind) {
      case PhysicalOpKind::kDecode:
        q.op_decode = static_cast<int>(i);
        break;
      case PhysicalOpKind::kJoin:
        q.op_join = static_cast<int>(i);
        break;
      case PhysicalOpKind::kProject:
      case PhysicalOpKind::kGroupFold:
        q.op_fold = static_cast<int>(i);
        break;
      case PhysicalOpKind::kWindowClose:
        q.op_close = static_cast<int>(i);
        break;
      case PhysicalOpKind::kFinalize:
        q.op_finalize = static_cast<int>(i);
        break;
    }
  }
}

void Executor::StampFoldMetrics(QueryState& q, size_t rows, uint64_t t0,
                                uint64_t joined0, uint64_t emitted0,
                                uint64_t late0, uint64_t shed0,
                                uint64_t spilled0) const {
  const int target = q.op_join >= 0 ? q.op_join : q.op_fold;
  if (target < 0) {
    return;
  }
  OperatorMetrics& m = q.stats.op_metrics[static_cast<size_t>(target)];
  m.rows_in += rows;
  m.batches += 1;
  m.cpu_ns += WorkerPool::ThreadCpuNs() - t0;
  if (q.op_join >= 0) {
    // Join pipelines fuse probe and fold in one loop, so the chunk's CPU
    // lands on Join; the downstream op still gets honest row counts.
    const uint64_t tuples = q.stats.tuples_joined - joined0;
    m.rows_out += tuples;
    if (q.op_fold >= 0) {
      OperatorMetrics& f = q.stats.op_metrics[static_cast<size_t>(q.op_fold)];
      f.rows_in += tuples;
      f.rows_out += q.plan.aggregate_mode
                        ? tuples
                        : q.stats.rows_emitted - emitted0;
      f.batches += 1;
    }
    return;
  }
  if (!q.plan.aggregate_mode) {
    // Project emits eagerly; sliding windows can fan one row out to several
    // emissions, so selectivity above 1.0 is honest, not a bug.
    m.rows_out += q.stats.rows_emitted - emitted0;
    return;
  }
  // GroupFold: rows that actually reached an accumulator this chunk — late,
  // shed and spilled rows didn't. Saturating: under sliding windows one row
  // can shed in several covering windows.
  const uint64_t rejected = (q.stats.events_late - late0) +
                            (q.stats.events_shed - shed0) +
                            (q.stats.events_spilled - spilled0);
  m.rows_out += rows > rejected ? rows - rejected : 0;
}

Value FinalizeAccumulator(const AggregateSpec& spec,
                          const AggAccumulator& acc, double scale) {
  switch (spec.func) {
    case AggregateFunc::kCount:
      if (scale == 1.0) {
        return Value(static_cast<int64_t>(acc.count));
      }
      return Value(static_cast<double>(acc.count) * scale);
    case AggregateFunc::kSum:
      return Value(acc.sum * scale);
    case AggregateFunc::kAvg:
      if (acc.count == 0) {
        return Value::Null();
      }
      return Value(acc.sum / static_cast<double>(acc.count));
    case AggregateFunc::kMin:
      return acc.has_minmax ? acc.min_value : Value::Null();
    case AggregateFunc::kMax:
      return acc.has_minmax ? acc.max_value : Value::Null();
    case AggregateFunc::kCountDistinct:
      if (acc.hll == nullptr) {
        return Value(int64_t{0});
      }
      return Value(static_cast<int64_t>(std::llround(acc.hll->Estimate())));
    case AggregateFunc::kTopK: {
      std::vector<Value> rows;
      if (acc.topk != nullptr) {
        for (const auto& entry :
             acc.topk->TopK(static_cast<size_t>(spec.topk_k))) {
          const double shown = static_cast<double>(entry.count) * scale;
          rows.push_back(Value(StrFormat(
              "%s:%.0f", entry.key.ToString().c_str(), shown)));
        }
      }
      return Value(std::move(rows));
    }
  }
  return Value::Null();
}

Value FinalizeBoundedSlot(const AggregateSpec& spec, const AggAccumulator& acc,
                          std::vector<HostSampleStats> hosts,
                          uint64_t hosts_sampled, uint64_t hosts_targeted,
                          double fallback_scale, double* error_bound) {
  *error_bound = 0.0;
  // Sampled hosts that reported nothing this window estimate zero totals.
  const uint64_t reporting = hosts.size();
  for (uint64_t i = reporting; i < hosts_sampled; ++i) {
    hosts.emplace_back();
  }
  const uint64_t total_hosts =
      std::max<uint64_t>(hosts_targeted, hosts.size());
  if (!hosts.empty()) {
    Result<ApproxSum> est = EstimateSum(hosts, total_hosts, 0.95);
    if (est.ok()) {
      *error_bound = std::isfinite(est->error_bound) ? est->error_bound : 0.0;
      return Value(est->estimate);
    }
  }
  // Exact-path finalization on estimator failure (no hosts at all).
  return FinalizeAccumulator(spec, acc, fallback_scale);
}

std::string ResultRow::ToString() const {
  std::string out = StrFormat("[%lld, %lld) ",
                              static_cast<long long>(window_start),
                              static_cast<long long>(window_end));
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) {
      out += " | ";
    }
    out += values[i].ToString();
    if (i < error_bounds.size() && error_bounds[i] > 0) {
      out += StrFormat(" ±%.3g", error_bounds[i]);
    }
  }
  if (completeness < 1.0) {
    out += StrFormat(" [completeness %.2f]", completeness);
  }
  if (fidelity < 1.0) {
    out += StrFormat(" [fidelity %.2f]", fidelity);
  }
  return out;
}

TimeMicros Executor::WindowStartFor(const QueryState& q, TimeMicros ts) const {
  // Window starts sit on the slide grid (slide == window for tumbling).
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

std::vector<WindowState*> Executor::WindowsFor(QueryState& q, TimeMicros ts) {
  std::vector<WindowState*> out;
  if (ts < q.plan.start_time || ts >= q.plan.end_time) {
    return out;
  }
  const TimeMicros window = q.plan.window_micros;
  TimeMicros slide = q.plan.slide_micros;
  if (slide <= 0) {
    slide = window;
  }
  // Newest covering window first, then earlier ones on the slide grid until
  // the window no longer covers ts.
  for (TimeMicros start = WindowStartFor(q, ts);
       start > ts - window && start >= q.plan.start_time; start -= slide) {
    if (start <= q.closed_through) {
      break;  // this and all earlier covering windows have emitted
    }
    WindowState& w = q.windows[start];
    w.start = start;
    out.push_back(&w);
    if (slide <= 0) {
      break;  // untimed single-window query
    }
  }
  return out;
}

Status Executor::DecodeAndFold(QueryState& q, HostId host,
                               const EventBatch& batch) {
  // Decode-operator metrics: one clock read before the wire decode, one
  // after; the fold stages time themselves.
  const bool metrics = MetricsOn();
  uint64_t t0 = 0;
  if (metrics) {
    EnsureOpIndex(q);
    t0 = WorkerPool::ThreadCpuNs();
  }
  const auto stamp_decode = [&](size_t rows_out) {
    if (!metrics || q.op_decode < 0) {
      return;
    }
    OperatorMetrics& m = q.stats.op_metrics[static_cast<size_t>(q.op_decode)];
    m.rows_in += batch.event_count;
    m.rows_out += rows_out;
    m.batches += 1;
    m.cpu_ns += WorkerPool::ThreadCpuNs() - t0;
  };
  if (batch.format == BatchFormat::kPreAgg) {
    Result<std::vector<PreAggSlot>> slots = DecodePreAggBatch(batch.payload);
    if (!slots.ok()) {
      return slots.status();
    }
    stamp_decode(slots->size());
    FoldPreAgg(q, host, *slots);
    return OkStatus();
  }
  if (batch.format == BatchFormat::kColumnar) {
    Result<ColumnBatch> cols = DecodeColumnBatch(*registry_, batch.payload);
    if (!cols.ok()) {
      return cols.status();
    }
    // Shared ownership so a window's join buffer can pin the batch past the
    // chunk's lifetime (its entries are (batch, row) references).
    auto shared = std::make_shared<const ColumnBatch>(std::move(*cols));
    stamp_decode(shared->rows());
    Fold(q, host, InputChunk::Columns(std::move(shared), /*selection=*/nullptr,
                                      /*selected=*/0));
    return OkStatus();
  }
  if (batch.format == BatchFormat::kColumnarJoin) {
    Result<ColumnJoinBatch> join =
        DecodeColumnJoinBatch(*registry_, batch.payload);
    if (!join.ok()) {
      return join.status();
    }
    // Sections are shared for the same reason as single-source columnar
    // batches: join buffers pin them past the fold.
    ColumnJoinSlice slice;
    slice.sections.reserve(join->sections.size());
    for (ColumnBatch& section : join->sections) {
      slice.sections.push_back(
          std::make_shared<const ColumnBatch>(std::move(section)));
    }
    slice.order = std::move(join->order);
    // The interleave consumes each section's rows in order, so position i's
    // row is its section's running count.
    slice.rows.resize(slice.order.size());
    std::vector<uint32_t> cursor(slice.sections.size(), 0);
    for (size_t i = 0; i < slice.order.size(); ++i) {
      slice.rows[i] = cursor[slice.order[i]]++;
    }
    stamp_decode(slice.order.size());
    FoldColumnJoin(q, host, slice);
    return OkStatus();
  }
  return InvalidArgument(StrFormat("batch format %d cannot be folded",
                                   static_cast<int>(batch.format)));
}

void Executor::StampDecodeRows(QueryState& q, size_t rows) {
  if (!MetricsOn()) {
    return;
  }
  EnsureOpIndex(q);
  if (q.op_decode < 0) {
    return;
  }
  OperatorMetrics& m = q.stats.op_metrics[static_cast<size_t>(q.op_decode)];
  m.rows_in += rows;
  m.rows_out += rows;
  m.batches += 1;
}

void Executor::FoldPreAgg(QueryState& q, HostId host,
                          const std::vector<PreAggSlot>& slots) {
  const bool metrics = MetricsOn();
  uint64_t t0 = 0;
  uint64_t ingested0 = 0;
  uint64_t late0 = 0;
  if (metrics) {
    EnsureOpIndex(q);
    t0 = WorkerPool::ThreadCpuNs();
    ingested0 = q.stats.events_ingested;
    late0 = q.stats.events_late;
  }
  const CentralPlan& plan = q.plan;
  for (const PreAggSlot& slot : slots) {
    meter_->ChargeScrub(config_->costs.central_ingest_ns);
    q.stats.events_ingested += slot.events;
    const std::vector<WindowState*> windows = WindowsFor(q, slot.window_start);
    if (windows.empty()) {
      q.stats.events_late += slot.events;
      continue;
    }
    for (WindowState* w : windows) {
      w->input_events += slot.events;
      HostWindowStats& hs = w->host_stats[host];
      hs.readings.resize(q.pipeline.bounded_aggregates.size());
      hs.received += slot.events;
      for (const PreAggGroup& g : slot.groups) {
        GroupKey key = g.keys;  // each covering window owns its key
        HashedGroupKey hk(std::move(key));
        const bool track = accountant_ != nullptr && accountant_->active();
        const size_t creation_bytes =
            track ? GroupCreationBytes(*config_, plan, hk.key) : 0;
        GroupState& group = w->groups[std::move(hk)];
        if (group.accumulators.empty()) {
          group.accumulators.resize(plan.aggregates.size());
          if (track) {
            ChargeState(q, *w, creation_bytes);
          }
        }
        const size_t cells = std::min(g.cells.size(),
                                      group.accumulators.size());
        for (size_t i = 0; i < cells; ++i) {
          meter_->ChargeScrub(config_->costs.central_group_update_ns);
          group.accumulators[i].count += g.cells[i].count;
          group.accumulators[i].sum += g.cells[i].sum;
        }
      }
    }
  }
  if (metrics && q.op_fold >= 0) {
    // Pre-aggregated deltas fold straight into GroupFold (no join, no
    // per-row representation): rows are the events the slots represent.
    OperatorMetrics& m = q.stats.op_metrics[static_cast<size_t>(q.op_fold)];
    const uint64_t represented = q.stats.events_ingested - ingested0;
    m.rows_in += represented;
    m.rows_out += represented - (q.stats.events_late - late0);
    m.batches += 1;
    m.cpu_ns += WorkerPool::ThreadCpuNs() - t0;
  }
}

void Executor::FoldColumnJoin(QueryState& q, HostId host,
                              const ColumnJoinSlice& slice) {
  size_t i = 0;
  while (i < slice.order.size()) {
    const uint8_t s = slice.order[i];
    size_t j = i + 1;
    while (j < slice.order.size() && slice.order[j] == s) {
      ++j;
    }
    Fold(q, host,
         InputChunk::Columns(slice.sections[s], slice.rows.data() + i,
                             j - i));
    i = j;
  }
}

void Executor::Fold(QueryState& q, HostId host, const InputChunk& chunk) {
  // Chunk-granularity operator metrics: snapshot the stats the fold already
  // maintains, stamp the deltas once at the end. No per-row clock reads.
  const bool metrics = MetricsOn();
  uint64_t t0 = 0;
  uint64_t joined0 = 0;
  uint64_t emitted0 = 0;
  uint64_t late0 = 0;
  uint64_t shed0 = 0;
  uint64_t spilled0 = 0;
  if (metrics) {
    EnsureOpIndex(q);
    t0 = WorkerPool::ThreadCpuNs();
    joined0 = q.stats.tuples_joined;
    emitted0 = q.stats.rows_emitted;
    late0 = q.stats.events_late;
    shed0 = q.stats.events_shed;
    spilled0 = q.stats.events_spilled;
  }
  // A chunk carries one schema, so the join's source index resolves once per
  // chunk.
  const int column_source =
      q.plan.is_join()
          ? SourceIndex(q.plan, chunk.columns->schema()->type_name())
          : -1;
  // Non-join chunks precompute the group-key / aggregate-argument programs
  // in one vectorized pass per program (FoldColumns). Pure computation, so
  // the transcript is identical with or without it.
  ChunkEvalCache cache;
  const ChunkEvalCache* cache_ptr = nullptr;
  if (!q.plan.is_join()) {
    std::vector<const ExprProgram*> programs;
    const auto add = [&](const ExprProgram& p) {
      if (cache.index.emplace(&p, programs.size()).second) {
        programs.push_back(&p);
      }
    };
    if (q.plan.aggregate_mode) {
      for (const ExprProgram& g : q.plan.group_by_programs) {
        add(g);
      }
      for (const AggregateSpec& spec : q.plan.aggregates) {
        if (spec.has_arg) {
          add(spec.arg_program);
        }
      }
    } else {
      for (const ExprProgram& e : q.plan.raw_select_programs) {
        add(e);
      }
    }
    if (!programs.empty()) {
      FoldColumns(programs, *chunk.columns, chunk.selection, chunk.size(),
                  &cache.folded);
      cache_ptr = &cache;
    }
  }
  const size_t n = chunk.size();
  for (size_t i = 0; i < n; ++i) {
    meter_->ChargeScrub(config_->costs.central_ingest_ns);
    ++q.stats.events_ingested;
    const std::vector<WindowState*> windows =
        WindowsFor(q, chunk.timestamp(i));
    if (windows.empty()) {
      ++q.stats.events_late;
      continue;
    }
    for (WindowState* w : windows) {
      FoldInto(q, *w, chunk, i, column_source, host, cache_ptr);
    }
  }
  if (metrics) {
    StampFoldMetrics(q, n, t0, joined0, emitted0, late0, shed0, spilled0);
  }
}

void Executor::FoldInto(QueryState& q, WindowState& w, const InputChunk& chunk,
                        size_t i, int column_source, HostId host,
                        const ChunkEvalCache* cache) {
  if (!w.replaying) {
    ++w.input_events;  // fidelity denominator: folded, deferred, or shed
    if (w.shedding) {
      ShedEvent(q, w);
      return;
    }
    if (w.spill != nullptr ||
        (accountant_ != nullptr && accountant_->active() && OverBudget(q))) {
      // Deferring must still record the host's first touch now: host_stats
      // insertion order feeds float summation in Finalize, and the unbounded
      // run inserts hosts in arrival order, not replay order.
      w.host_stats[host];
      SpillOrShed(q, w, chunk, i, host);
      return;
    }
  }
  HostWindowStats& hs = w.host_stats[host];
  hs.readings.resize(q.pipeline.bounded_aggregates.size());
  ++hs.received;

  if (q.plan.is_join()) {
    JoinFold(q, w, chunk, i, column_source, host);
    return;
  }

  const ColumnBatch& batch = *chunk.columns;
  const size_t row = chunk.row(i);
  // Per-host readings for the Eq. 1-3 slots.
  for (size_t b = 0; b < q.pipeline.bounded_aggregates.size(); ++b) {
    const AggregateSpec& spec = q.plan.aggregates[static_cast<size_t>(
        q.pipeline.bounded_aggregates[b])];
    double v = 1.0;  // COUNT: indicator reading
    if (spec.func == AggregateFunc::kSum) {
      const Value* cached =
          cache != nullptr ? cache->Lookup(spec.arg_program, i) : nullptr;
      const Value arg =
          cached != nullptr ? *cached
                            : EvalProgramColumns(spec.arg_program, batch, row);
      v = arg.is_numeric() ? arg.AsNumber() : 0.0;
    }
    hs.readings[b].Add(v);
  }
  GroupFoldColumn(q, w, batch, row, host, cache, i);
}

bool Executor::OverBudget(const QueryState& q) const {
  return accountant_->OverBudget(q.plan.query_id);
}

void Executor::ShedEvent(QueryState& q, WindowState& w) {
  ++w.shed_events;
  ++q.stats.events_shed;
}

void Executor::ChargeState(QueryState& q, WindowState& w, size_t bytes) {
  accountant_->Charge(q.plan.query_id, bytes);
  w.state_bytes += bytes;
}

void Executor::SpillOrShed(QueryState& q, WindowState& w,
                           const InputChunk& chunk, size_t i, HostId host) {
  if (!SpillableHost(host)) {
    ShedEvent(q, w);  // replay could not tell this host from a corrupt one
    return;
  }
  if (w.spill == nullptr) {
    w.spill =
        spill_ == nullptr ? nullptr : spill_->Open(q.plan.query_id, w.start);
    if (w.spill == nullptr) {
      // Ladder bottom: spill disabled or the run failed to open. The window
      // stays in shed mode — retrying the open per event would make the
      // fault surface nondeterministic.
      w.shedding = true;
      ShedEvent(q, w);
      return;
    }
    ++q.stats.spill_runs;
  }
  if (config_->max_spill_bytes_per_query > 0 &&
      q.stats.spill_bytes >= config_->max_spill_bytes_per_query) {
    ShedEvent(q, w);  // spill budget exhausted: this event is counted shed
    return;
  }
  std::string payload;
  EncodeEvent(chunk.columns->MaterializeEvent(chunk.row(i)), &payload);
  meter_->ChargeScrub(static_cast<int64_t>(payload.size()) *
                      config_->costs.serialize_per_byte_ns);
  const size_t wrote = w.spill->Append(static_cast<uint32_t>(host), payload);
  if (wrote == 0) {
    ++q.stats.spill_write_failures;
    ShedEvent(q, w);  // exactly this record lost; the run stays replayable
    return;
  }
  ++q.stats.events_spilled;
  q.stats.spill_bytes += wrote;
}

void Executor::ReplaySpill(QueryState& q, WindowState* w) {
  if (w->spill == nullptr) {
    return;
  }
  SpillRun& run = *w->spill;
  uint64_t replayed = 0;
  if (run.BeginReplay()) {
    w->replaying = true;
    // Records decode into per-type blocks of up to kReplayBlockSize, which
    // then fold one position at a time in record order, each with its own
    // host. A block is never appended to once it folds: join buffers pin it.
    constexpr size_t kReplayBlockSize = 1024;
    struct Record {
      size_t block;
      uint32_t row;
      HostId host;
    };
    bool more = true;
    while (more) {
      std::vector<std::shared_ptr<ColumnBatch>> blocks;
      std::vector<Record> records;
      uint32_t host = 0;
      std::string payload;
      while (records.size() < kReplayBlockSize &&
             (more = run.Next(&host, &payload))) {
        size_t offset = 0;
        Result<Event> event = DecodeEvent(*registry_, payload, &offset);
        if (!event.ok() || !SpillableHost(static_cast<HostId>(host))) {
          more = false;  // corrupt record: the remainder is lost, counted below
          break;
        }
        size_t b = 0;
        while (b < blocks.size() &&
               blocks[b]->schema()->type_name() != event->type_name()) {
          ++b;
        }
        if (b == blocks.size()) {
          blocks.push_back(std::make_shared<ColumnBatch>(event->schema()));
        }
        blocks[b]->AppendEvent(*event);
        records.push_back(
            Record{b, static_cast<uint32_t>(blocks[b]->rows() - 1),
                   static_cast<HostId>(host)});
      }
      std::vector<int> sources;  // join source of each block, or -1
      for (const std::shared_ptr<ColumnBatch>& block : blocks) {
        sources.push_back(SourceIndex(q.plan, block->schema()->type_name()));
      }
      for (const Record& r : records) {
        FoldInto(q, *w, InputChunk::Columns(blocks[r.block], &r.row, 1), 0,
                 sources[r.block], r.host);
        ++replayed;
      }
    }
    w->replaying = false;
  }
  const uint64_t lost = run.records() - replayed;
  if (lost > 0) {
    ++q.stats.spill_read_failures;
    w->shed_events += lost;
    q.stats.events_shed += lost;
  }
  w->spill.reset();  // closes and unlinks the run
}

void Executor::JoinFold(QueryState& q, WindowState& w, const InputChunk& chunk,
                        size_t i, int source, HostId host) {
  // Symmetric hash join on request id, scoped to the window.
  if (source < 0) {
    return;  // not part of this query (shouldn't happen: host filtered)
  }
  const RequestId rid = chunk.request_id(i);
  const bool track = accountant_ != nullptr && accountant_->active();
  JoinBuffer& buffer = w.join;
  uint32_t b = buffer.Find(rid);
  if (b == JoinBuffer::kNone) {
    if (buffer.buckets().size() >= config_->max_join_requests_per_window) {
      ++q.stats.join_shed;  // shed, never grow without bound
      ShedEvent(q, w);      // dents the window's fidelity like any shed
      return;
    }
    b = buffer.Insert(rid);
    if (track) {
      ChargeState(q, w,
                  kJoinBucketBytes + q.plan.sources.size() * kJoinSourceBytes);
    }
  }
  // Probe the other side before inserting: new tuples are exactly the cross
  // product of this event with previously arrived partners, visited in
  // arrival order. Every side evaluates straight off its batch and never
  // materializes an Event.
  std::array<TupleSlot, kMaxJoinSources> slots{};
  slots[static_cast<size_t>(source)] =
      TupleSlot{chunk.columns.get(), static_cast<uint32_t>(chunk.row(i))};
  const std::span<const TupleSlot> tuple(slots.data(), q.plan.sources.size());
  for (size_t other = 0; other < tuple.size(); ++other) {
    if (static_cast<int>(other) == source) {
      continue;
    }
    for (uint32_t e = buffer.buckets()[b].head[other]; e != JoinBuffer::kNone;
         e = buffer.entry(e).next) {
      meter_->ChargeScrub(config_->costs.central_join_probe_ns);
      const JoinBuffer::Entry& partner = buffer.entry(e);
      slots[other] = TupleSlot{partner.batch, partner.row};
      ++q.stats.tuples_joined;
      GroupFoldMixed(q, w, tuple, host);
    }
    slots[other] = TupleSlot{};  // absent again for the next partner source
  }
  if (track) {
    ChargeState(q, w,
                kJoinEventBytes + chunk.columns->RowWireSize(chunk.row(i)));
  }
  buffer.AppendColumns(b, static_cast<size_t>(source), chunk.columns,
                       static_cast<uint32_t>(chunk.row(i)));
}

// The one group-fold body. Single-source (batch, row) folds and join tuples
// funnel through here with their own `eval`, so the raw-emission path, group
// creation and accounting, the Eq. 1-3 readings, and the null-skip aggregate
// update cannot drift between them.
template <typename EvalFn>
void Executor::GroupFoldWith(QueryState& q, WindowState& w, HostId host,
                             EvalFn&& eval) {
  const CentralPlan& plan = q.plan;
  if (!plan.aggregate_mode) {
    // Project operator: raw rows render and emit eagerly.
    ResultRow row;
    row.query_id = plan.query_id;
    row.window_start = w.start;
    row.window_end = w.start + plan.window_micros;
    row.values.reserve(plan.raw_select_programs.size());
    for (const ExprProgram& e : plan.raw_select_programs) {
      row.values.push_back(eval(e));
    }
    row.error_bounds.assign(row.values.size(), 0.0);
    ++q.stats.rows_emitted;
    q.sink(row);
    return;
  }

  GroupKey key;
  key.reserve(plan.group_by_programs.size());
  for (const ExprProgram& g : plan.group_by_programs) {
    key.push_back(eval(g));
  }
  // One hash per row, reused for the map probe (and, pre-bucketed, by the
  // sharded router).
  HashedGroupKey hk(std::move(key));
  const bool track = accountant_ != nullptr && accountant_->active();
  const size_t creation_bytes =
      track ? GroupCreationBytes(*config_, plan, hk.key) : 0;
  GroupState& group = w.groups[std::move(hk)];
  if (group.accumulators.empty()) {
    group.accumulators.resize(plan.aggregates.size());
    if (track) {
      ChargeState(q, w, creation_bytes);
    }
  }
  CollectGroupReadings(q, &group, host, eval);
  for (size_t i = 0; i < plan.aggregates.size(); ++i) {
    meter_->ChargeScrub(config_->costs.central_group_update_ns);
    const AggregateSpec& spec = plan.aggregates[i];
    Value arg;
    if (spec.has_arg) {
      arg = eval(spec.arg_program);
      if (arg.is_null()) {
        continue;  // SQL-style: aggregates skip null arguments
      }
    }
    UpdateAccumulatorValue(spec, &group.accumulators[i], arg);
  }
}

void Executor::GroupFoldColumn(QueryState& q, WindowState& w,
                               const ColumnBatch& batch, size_t row,
                               HostId host, const ChunkEvalCache* cache,
                               size_t pos) {
  GroupFoldWith(q, w, host, [&](const ExprProgram& e) {
    const Value* cached = cache != nullptr ? cache->Lookup(e, pos) : nullptr;
    return cached != nullptr ? *cached : EvalProgramColumns(e, batch, row);
  });
}

void Executor::GroupFoldMixed(QueryState& q, WindowState& w,
                              std::span<const TupleSlot> slots, HostId host) {
  GroupFoldWith(q, w, host, [&](const ExprProgram& e) {
    return EvalProgramMixed(e, slots);
  });
}

void Executor::UpdateAccumulatorValue(const AggregateSpec& spec,
                                      AggAccumulator* acc, const Value& arg) {
  switch (spec.func) {
    case AggregateFunc::kCount:
      ++acc->count;
      return;
    case AggregateFunc::kSum:
      ++acc->count;
      acc->sum += arg.is_numeric() ? arg.AsNumber() : 0.0;
      return;
    case AggregateFunc::kAvg:
      ++acc->count;
      acc->sum += arg.is_numeric() ? arg.AsNumber() : 0.0;
      return;
    case AggregateFunc::kMin:
    case AggregateFunc::kMax:
      if (!acc->has_minmax) {
        acc->min_value = arg;
        acc->max_value = arg;
        acc->has_minmax = true;
      } else {
        if (arg.Compare(acc->min_value) < 0) {
          acc->min_value = arg;
        }
        if (arg.Compare(acc->max_value) > 0) {
          acc->max_value = arg;
        }
      }
      return;
    case AggregateFunc::kCountDistinct:
      if (acc->hll == nullptr) {
        acc->hll = std::make_unique<HyperLogLog>(config_->hll_precision);
      }
      acc->hll->AddHash(HashMix64(arg.Hash()));
      return;
    case AggregateFunc::kTopK: {
      if (acc->topk == nullptr) {
        const size_t capacity = std::max(
            config_->min_topk_capacity,
            static_cast<size_t>(spec.topk_k) *
                config_->topk_capacity_factor);
        acc->topk =
            std::make_unique<SpaceSaving<Value, ValueHash>>(capacity);
      }
      acc->topk->Add(arg);
      return;
    }
  }
}

double Executor::GroupScaleFor(const QueryState& q,
                               const WindowState& w) const {
  if (!q.pipeline.needs_scaling) {
    return 1.0;
  }
  // Ratio estimator: (N / n) * (sum M_i / sum m_i) over reporting hosts.
  uint64_t population = 0;
  uint64_t sampled = 0;
  for (const auto& [host, hs] : w.host_stats) {
    population += hs.population;
    sampled += hs.sampled;
  }
  double scale = 1.0;
  if (sampled > 0 && population > 0) {
    scale = static_cast<double>(population) / static_cast<double>(sampled);
  }
  if (q.plan.hosts_sampled > 0 && q.plan.hosts_targeted > 0) {
    scale *= static_cast<double>(q.plan.hosts_targeted) /
             static_cast<double>(q.plan.hosts_sampled);
  }
  return scale;
}

Value Executor::FinalizeAggregate(const QueryState& q, const WindowState& w,
                                  int slot, const AggAccumulator& acc,
                                  double group_scale,
                                  double* error_bound) const {
  *error_bound = 0.0;
  const AggregateSpec& spec = q.plan.aggregates[static_cast<size_t>(slot)];
  const std::vector<int>& bounded = q.pipeline.bounded_aggregates;
  const auto bounded_it = std::find(bounded.begin(), bounded.end(), slot);
  const double scale =
      (q.pipeline.needs_scaling && spec.ScalesUnderSampling()) ? group_scale
                                                               : 1.0;

  if (bounded_it != bounded.end()) {
    // Eq. 1-3 over the window's per-host stats (ungrouped single-instance
    // path; the sharded coordinator feeds FinalizeBoundedSlot directly from
    // merged per-group readings instead).
    const size_t b = static_cast<size_t>(bounded_it - bounded.begin());
    std::vector<HostSampleStats> hosts;
    for (const auto& [host, hs] : w.host_stats) {
      HostSampleStats h;
      h.population = hs.population;
      if (b < hs.readings.size()) {
        h.readings = hs.readings[b];
      }
      // Sampled-but-filtered events are zero readings.
      const uint64_t zeros =
          hs.sampled > hs.received ? hs.sampled - hs.received : 0;
      if (zeros > 0) {
        h.readings.Merge(RunningStats::Constant(zeros, 0.0));
      }
      hosts.push_back(std::move(h));
    }
    return FinalizeBoundedSlot(spec, acc, std::move(hosts),
                               q.plan.hosts_sampled, q.plan.hosts_targeted,
                               scale, error_bound);
  }

  return FinalizeAccumulator(spec, acc, scale);
}

double Executor::WindowCompleteness(const QueryState& q,
                                    const WindowState& w) const {
  // Expected set = the hosts the plan was disseminated to. With heartbeat
  // counters on, every reachable one leaves a host_stats entry per window.
  if (q.plan.hosts_sampled == 0) {
    return 1.0;  // expected set unknown (hand-installed plan)
  }
  const double frac = static_cast<double>(w.host_stats.size()) /
                      static_cast<double>(q.plan.hosts_sampled);
  return std::min(1.0, frac);
}

void Executor::CloseWindow(QueryState& q, WindowState* w) {
  if (w->closed) {
    return;
  }
  w->closed = true;
  // WindowClose metrics cover everything up to (not including) Finalize:
  // spill replay, completeness/fidelity accounting, orphan sweep, partial
  // export. rows_in = events the window absorbed, rows_out = groups held at
  // close, one batch per closed window.
  const bool metrics = MetricsOn();
  uint64_t t0 = 0;
  if (metrics) {
    EnsureOpIndex(q);
    t0 = WorkerPool::ThreadCpuNs();
  }
  const auto stamp_close = [&]() -> uint64_t {
    const uint64_t now = metrics ? WorkerPool::ThreadCpuNs() : 0;
    if (metrics && q.op_close >= 0) {
      OperatorMetrics& m =
          q.stats.op_metrics[static_cast<size_t>(q.op_close)];
      m.rows_in += w->input_events;
      m.rows_out += w->groups.size();
      m.batches += 1;
      m.cpu_ns += now - t0;
    }
    return now;
  };
  // Deferred events replay through the ordinary fold first, so completeness,
  // orphan accounting and emission below all see exactly the state the
  // unbounded run would have built.
  ReplaySpill(q, w);
  const CentralPlan& plan = q.plan;

  const double completeness = WindowCompleteness(q, *w);
  ++q.stats.windows_closed;
  q.stats.completeness_sum += completeness;
  q.stats.completeness_min = std::min(q.stats.completeness_min, completeness);
  if (completeness < 1.0) {
    ++q.stats.windows_incomplete;
  }

  // Fidelity: the fraction of events bound for this window that actually
  // folded in. The denominator includes the agent-side staging shed reported
  // via counters; the numerator drops every central-side ladder rung
  // (budget shed, join-capacity shed, spill I/O losses).
  uint64_t agent_shed = 0;
  for (const auto& [shed_host, hs] : w->host_stats) {
    agent_shed += hs.shed;
  }
  const uint64_t central_shed = std::min(w->shed_events, w->input_events);
  const uint64_t attempted = w->input_events + agent_shed;
  const double fidelity =
      attempted == 0 ? 1.0
                     : static_cast<double>(w->input_events - central_shed) /
                           static_cast<double>(attempted);
  q.stats.agent_events_shed += agent_shed;
  q.stats.fidelity_sum += fidelity;
  q.stats.fidelity_min = std::min(q.stats.fidelity_min, fidelity);
  if (fidelity < 1.0) {
    ++q.stats.windows_lossy;
  }
  // The window's charged state dies with it (partials move it to the
  // coordinator's accounting domain, emission frees it).
  const auto release_state = [&] {
    if (accountant_ != nullptr && w->state_bytes > 0) {
      accountant_->Release(q.plan.query_id, w->state_bytes);
      w->state_bytes = 0;
    }
  };

  // Join orphans: request ids where one side never arrived. One linear pass
  // over the buffer's buckets; orphaned columnar entries drop with the
  // window without ever materializing an Event.
  const size_t sources = plan.sources.size();
  for (const JoinBuffer::Bucket& bucket : w->join.buckets()) {
    bool complete = true;
    uint64_t total = 0;
    for (size_t s = 0; s < sources; ++s) {
      complete = complete && bucket.count[s] > 0;
      total += bucket.count[s];
    }
    if (!complete) {
      q.stats.join_orphans += total;
    }
  }

  if (!plan.aggregate_mode) {
    stamp_close();
    release_state();
    return;  // raw rows were emitted eagerly (or on replay, just above)
  }

  if (q.partial_sink != nullptr) {
    // Shard mode: hand the mergeable state to the coordinator.
    WindowPartial partial;
    partial.query_id = plan.query_id;
    partial.window_start = w->start;
    partial.completeness = completeness;
    partial.input_events = w->input_events;
    partial.shed_events = central_shed;
    if (metrics) {
      // Export the delta since this shard's previous partial; the
      // coordinator sums deltas into upstream_op_metrics. Stamping close
      // first keeps this window's own close time inside its delta.
      stamp_close();
      q.exported_op_metrics.resize(q.stats.op_metrics.size());
      partial.op_metrics.resize(q.stats.op_metrics.size());
      for (size_t i = 0; i < q.stats.op_metrics.size(); ++i) {
        const OperatorMetrics& cur = q.stats.op_metrics[i];
        OperatorMetrics& base = q.exported_op_metrics[i];
        OperatorMetrics& delta = partial.op_metrics[i];
        delta.rows_in = cur.rows_in - base.rows_in;
        delta.rows_out = cur.rows_out - base.rows_out;
        delta.batches = cur.batches - base.batches;
        delta.cpu_ns = cur.cpu_ns - base.cpu_ns;
        base = cur;
      }
    }
    partial.keys.reserve(w->groups.size());
    partial.key_hashes.reserve(w->groups.size());
    partial.accumulators.reserve(w->groups.size());
    const bool ship_readings = q.pipeline.collect_group_readings;
    if (ship_readings) {
      partial.group_readings.reserve(w->groups.size());
    }
    for (auto& [hashed_key, group] : w->groups) {
      partial.keys.push_back(hashed_key.key);
      partial.key_hashes.push_back(hashed_key.hash);
      partial.accumulators.push_back(std::move(group.accumulators));
      if (ship_readings) {
        std::vector<GroupHostReadings> readings;
        readings.reserve(group.host_readings.size());
        for (auto& [reading_host, stats] : group.host_readings) {
          GroupHostReadings ghr;
          ghr.host = reading_host;
          ghr.readings = std::move(stats);
          readings.push_back(std::move(ghr));
        }
        partial.group_readings.push_back(std::move(readings));
      }
    }
    ++q.stats.rows_emitted;  // one partial per window
    q.partial_sink(std::move(partial));
    release_state();
    return;
  }

  // Everything below is the Finalize operator: estimator scales,
  // accumulator finalization, canonical-order emission.
  const uint64_t t_finalize = stamp_close();

  // Ungrouped aggregate queries emit a row even for an empty window, so
  // time series stay continuous.
  if (plan.group_by_programs.empty() && w->groups.empty()) {
    GroupState& g = w->groups[HashedGroupKey(GroupKey{})];
    g.accumulators.resize(plan.aggregates.size());
  }

  const double group_scale = GroupScaleFor(q, *w);
  std::vector<std::pair<const HashedGroupKey*, GroupState*>> ordered;
  ordered.reserve(w->groups.size());
  for (auto& [hashed_key, group] : w->groups) {
    ordered.emplace_back(&hashed_key, &group);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return CanonicalGroupOrder(*a.first, *b.first);
            });
  for (auto& [hashed_key_ptr, group_ptr] : ordered) {
    const HashedGroupKey& hashed_key = *hashed_key_ptr;
    GroupState& group = *group_ptr;
    ResultRow row;
    row.query_id = plan.query_id;
    row.window_start = w->start;
    row.window_end = w->start + plan.window_micros;
    row.completeness = completeness;
    row.fidelity = fidelity;

    std::vector<Value> agg_values(plan.aggregates.size());
    std::vector<double> agg_bounds(plan.aggregates.size(), 0.0);
    for (size_t i = 0; i < plan.aggregates.size(); ++i) {
      agg_values[i] =
          FinalizeAggregate(q, *w, static_cast<int>(i), group.accumulators[i],
                            group_scale, &agg_bounds[i]);
    }
    for (const OutputColumn& column : plan.outputs) {
      row.values.push_back(
          EvalOutputExpr(column.expr, hashed_key.key, agg_values));
      row.error_bounds.push_back(
          column.expr.kind == OutputKind::kAggregate
              ? agg_bounds[static_cast<size_t>(column.expr.index)]
              : 0.0);
    }
    ++q.stats.groups_emitted;
    ++q.stats.rows_emitted;
    q.sink(row);
  }
  if (metrics && q.op_finalize >= 0) {
    OperatorMetrics& m =
        q.stats.op_metrics[static_cast<size_t>(q.op_finalize)];
    m.rows_in += ordered.size();
    m.rows_out += ordered.size();
    m.batches += 1;
    m.cpu_ns += WorkerPool::ThreadCpuNs() - t_finalize;
  }
  release_state();
}

}  // namespace scrub
