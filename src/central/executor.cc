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
                          std::span<const Value> key) {
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

// The argument an argument-less aggregate (COUNT(*)) is updated with.
const Value kNoArg;

}  // namespace

uint32_t GroupTable::Find(std::span<const Value> key, size_t hash) const {
  if (index_.empty()) {
    return kNone;
  }
  const size_t mask = index_.size() - 1;
  for (size_t slot = HashMix64(hash) & mask;; slot = (slot + 1) & mask) {
    const uint32_t g = index_[slot];
    if (g == 0) {
      return kNone;
    }
    const HashedGroupKey& stored = groups_[g - 1].key;
    if (stored.hash == hash &&
        std::equal(key.begin(), key.end(), stored.key.begin(),
                   stored.key.end())) {
      return g - 1;
    }
  }
}

uint32_t GroupTable::Insert(GroupKey key, size_t hash) {
  if ((groups_.size() + 1) * 2 > index_.size()) {
    Grow();
  }
  const uint32_t g = static_cast<uint32_t>(groups_.size());
  groups_.push_back(Group{HashedGroupKey{std::move(key), hash}, {}});
  const size_t mask = index_.size() - 1;
  size_t slot = HashMix64(hash) & mask;
  while (index_[slot] != 0) {
    slot = (slot + 1) & mask;
  }
  index_[slot] = g + 1;
  return g;
}

void GroupTable::Grow() {
  index_.assign(std::max<size_t>(16, index_.size() * 2), 0);
  const size_t mask = index_.size() - 1;
  for (size_t g = 0; g < groups_.size(); ++g) {
    size_t slot = HashMix64(groups_[g].key.hash) & mask;
    while (index_[slot] != 0) {
      slot = (slot + 1) & mask;
    }
    index_[slot] = static_cast<uint32_t>(g + 1);
  }
}

void ChunkEvalCache::Build(const CentralPlan& plan, const ColumnBatch& batch,
                           const uint32_t* selection, size_t selected) {
  std::vector<const ExprProgram*> programs;
  if (plan.aggregate_mode) {
    for (const ExprProgram& g : plan.group_by_programs) {
      programs.push_back(&g);
    }
    for (const AggregateSpec& spec : plan.aggregates) {
      programs.push_back(spec.has_arg ? &spec.arg_program : nullptr);
    }
  } else {
    for (const ExprProgram& e : plan.raw_select_programs) {
      programs.push_back(&e);
    }
  }
  // Typed reads take their program out of the materialized set.
  selection_ = selection;
  typed_.assign(programs.size(), nullptr);
  for (size_t p = 0; p < programs.size(); ++p) {
    const ExprProgram* prog = programs[p];
    if (prog == nullptr || prog->insts.size() != 1) {
      continue;
    }
    const IrInst& in = prog->insts[0];
    if (in.op != IrOp::kLoadField || in.dst != prog->result || in.a != 0 ||
        in.imm >= 0) {
      continue;
    }
    const ColumnBatch::Column& col = batch.column(in.b);
    if (col.rep == ColumnBatch::Rep::kInt ||
        col.rep == ColumnBatch::Rep::kDouble ||
        col.rep == ColumnBatch::Rep::kBool) {
      typed_[p] = &col;
      programs[p] = nullptr;
    }
  }
  FoldColumns(programs, batch, selection, selected, &folded_);
}

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

namespace {

// The Eq. 1-3 path for one bounded slot of one group; `s` indexes the
// slot's readings (parallel to the pipeline's scaled slots). Each counted
// host's readings go against its M_i, with the sampled events this group
// did not see (filtered out, or folded into other groups) as zero
// readings. Hosts that shipped events but no counters (hand-built batches)
// follow, their observed readings standing in for the population. Silent
// sampled hosts are padded to hosts_sampled, and N is max(hosts_targeted,
// hosts). On estimator failure (no hosts at all), falls back to the
// exact-path finalization scaled by `fallback_scale` with a zero bound.
Value FinalizeBoundedSlot(const CentralPlan& plan, size_t slot, size_t s,
                          const GroupState& group, const HostCountList& hosts,
                          const std::vector<HostId>& counted,
                          double fallback_scale, double* error_bound) {
  std::vector<HostSampleStats> samples;
  for (const auto& [host, counts] : hosts) {
    HostSampleStats h;
    h.population = counts.population;
    const auto rit = group.host_readings.find(host);
    if (rit != group.host_readings.end() && s < rit->second.size()) {
      h.readings = rit->second[s];
    }
    const uint64_t observed = h.readings.count();
    if (counts.sampled > observed) {
      h.readings.Merge(
          RunningStats::Constant(counts.sampled - observed, 0.0));
    }
    samples.push_back(std::move(h));
  }
  for (const auto& [host, readings] : group.host_readings) {
    if (!std::binary_search(counted.begin(), counted.end(), host)) {
      HostSampleStats h;
      if (s < readings.size()) {
        h.readings = readings[s];
      }
      h.population = h.readings.count();
      samples.push_back(std::move(h));
    }
  }
  *error_bound = 0.0;
  for (uint64_t i = samples.size(); i < plan.hosts_sampled; ++i) {
    samples.emplace_back();
  }
  const uint64_t total_hosts =
      std::max<uint64_t>(plan.hosts_targeted, samples.size());
  if (!samples.empty()) {
    Result<ApproxSum> est = EstimateSum(samples, total_hosts, 0.95);
    if (est.ok()) {
      *error_bound = std::isfinite(est->error_bound) ? est->error_bound : 0.0;
      return Value(est->estimate);
    }
  }
  // Exact-path finalization on estimator failure (no hosts at all).
  return FinalizeAccumulator(plan.aggregates[slot], group.accumulators[slot],
                             fallback_scale);
}

}  // namespace

double RecordWindowClose(CentralQueryStats& stats, double completeness,
                         uint64_t input_events, uint64_t shed_events,
                         uint64_t agent_shed) {
  ++stats.windows_closed;
  stats.completeness_sum += completeness;
  stats.completeness_min = std::min(stats.completeness_min, completeness);
  if (completeness < 1.0) {
    ++stats.windows_incomplete;
  }
  const uint64_t central_shed = std::min(shed_events, input_events);
  const uint64_t attempted = input_events + agent_shed;
  const double fidelity =
      attempted == 0 ? 1.0
                     : static_cast<double>(input_events - central_shed) /
                           static_cast<double>(attempted);
  stats.agent_events_shed += agent_shed;
  stats.fidelity_sum += fidelity;
  stats.fidelity_min = std::min(stats.fidelity_min, fidelity);
  if (fidelity < 1.0) {
    ++stats.windows_lossy;
  }
  return fidelity;
}

size_t FinalizeGroups(const CentralPlan& plan,
                      const PhysicalPipeline& pipeline, TimeMicros start,
                      double completeness, double fidelity,
                      const HostCountList& hosts, GroupTable& groups,
                      CentralQueryStats& stats, const ResultSink& sink) {
  // Ungrouped aggregate queries emit a row even for an empty window, so
  // time series stay continuous.
  if (plan.group_by_programs.empty() && groups.empty()) {
    const uint32_t g = groups.Insert(GroupKey{}, GroupKeyHash{}(GroupKey{}));
    groups[g].state.accumulators.resize(plan.aggregates.size());
  }
  // Ratio estimator (Eq. 1): (N / n) * (sum M_i / sum m_i) over reporting
  // hosts; the fallback for scaled slots outside the bounded set.
  double ratio_scale = 1.0;
  if (pipeline.needs_scaling) {
    uint64_t population = 0;
    uint64_t sampled = 0;
    for (const auto& [host, counts] : hosts) {
      population += counts.population;
      sampled += counts.sampled;
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
  const std::vector<int>& bounded = pipeline.bounded_aggregates;
  const std::vector<int>& scaled = pipeline.scaled_slots;
  std::vector<HostId> counted;
  if (!bounded.empty()) {
    counted.reserve(hosts.size());
    for (const auto& [host, counts] : hosts) {
      counted.push_back(host);
    }
    std::sort(counted.begin(), counted.end());
  }
  // Canonical group order: neither insertion order nor partial arrival
  // order may leak into row order.
  std::vector<GroupTable::Group*> ordered;
  ordered.reserve(groups.size());
  for (GroupTable::Group& g : groups) {
    ordered.push_back(&g);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const GroupTable::Group* a, const GroupTable::Group* b) {
              return CanonicalGroupOrder(a->key, b->key);
            });
  for (GroupTable::Group* entry : ordered) {
    GroupState& group = entry->state;
    if (group.accumulators.empty()) {
      group.accumulators.resize(plan.aggregates.size());
    }
    std::vector<Value> agg_values(plan.aggregates.size());
    std::vector<double> agg_bounds(plan.aggregates.size(), 0.0);
    for (size_t i = 0; i < plan.aggregates.size(); ++i) {
      const AggregateSpec& spec = plan.aggregates[i];
      const int slot = static_cast<int>(i);
      if (std::find(bounded.begin(), bounded.end(), slot) != bounded.end()) {
        // Per-group Eq. 1-3: this group's readings for the slot, per host,
        // against the window's per-host population counters.
        const size_t s = static_cast<size_t>(
            std::find(scaled.begin(), scaled.end(), slot) - scaled.begin());
        agg_values[i] = FinalizeBoundedSlot(plan, i, s, group, hosts, counted,
                                            ratio_scale, &agg_bounds[i]);
        continue;
      }
      const double scale =
          (pipeline.needs_scaling && spec.ScalesUnderSampling()) ? ratio_scale
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
          EvalOutputExpr(column.expr, entry->key.key, agg_values));
      row.error_bounds.push_back(
          column.expr.kind == OutputKind::kAggregate
              ? agg_bounds[static_cast<size_t>(column.expr.index)]
              : 0.0);
    }
    ++stats.groups_emitted;
    ++stats.rows_emitted;
    sink(row);
  }
  return ordered.size();
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

void Executor::WindowsFor(QueryState& q, TimeMicros ts,
                          std::vector<WindowState*>* out) {
  out->clear();
  if (ts < q.plan.start_time || ts >= q.plan.end_time) {
    return;
  }
  const TimeMicros window = q.plan.window_micros;
  TimeMicros slide = q.plan.slide_micros;
  if (slide <= 0) {
    slide = window;
  }
  // A window running past end_time would hold only the span's tail yet
  // report full completeness, like the leading windows that would start
  // before start_time, so neither is created. Admission keeps the span a
  // multiple of the slide, so the full windows cover every in-span ts.
  // Newest covering window first, then earlier ones on the slide grid until
  // the window no longer covers ts.
  for (TimeMicros start = WindowStartFor(q, ts);
       start > ts - window && start >= q.plan.start_time; start -= slide) {
    if (start <= q.closed_through) {
      break;  // this and all earlier covering windows have emitted
    }
    if (start <= q.plan.end_time - window) {
      WindowState& w = q.windows[start];
      w.start = start;
      out->push_back(&w);
    }
    if (slide <= 0) {
      break;  // untimed single-window query
    }
  }
}

void Executor::CoverCell(const QueryState& q, TimeMicros ts, TimeMicros* lo,
                         TimeMicros* hi) const {
  *lo = ts;
  *hi = ts;  // empty: the next row resolves its windows afresh
  const TimeMicros window = q.plan.window_micros;
  const TimeMicros grid = q.plan.slide_micros > 0 ? q.plan.slide_micros
                                                  : window;
  if (ts < q.plan.start_time || ts >= q.plan.end_time || grid <= 0 ||
      window % grid != 0) {
    return;
  }
  // Every ts in one slide-grid cell is covered by the same windows when the
  // window spans whole cells.
  const TimeMicros start = WindowStartFor(q, ts);
  *lo = std::max(start, q.plan.start_time);
  *hi = std::min(start + grid, q.plan.end_time);
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
  // Non-join chunks resolve the group-key / aggregate-argument programs
  // once per chunk before any row folds: typed reads in place, the rest in
  // one FoldColumns pass per program. The cache dies with this call, before
  // the chunk.
  ChunkEvalCache cache;
  if (!q.plan.is_join()) {
    cache.Build(q.plan, *chunk.columns, chunk.selection, chunk.size());
  }
  // The fold's scratch: the row's group key, and the covering windows of
  // the last row's slide-grid cell [cell_lo, cell_hi). Both live on this
  // call's stack because distinct QueryStates fold concurrently.
  GroupKey key;
  std::vector<WindowState*> windows;
  TimeMicros cell_lo = 0;
  TimeMicros cell_hi = 0;
  const size_t n = chunk.size();
  for (size_t i = 0; i < n; ++i) {
    meter_->ChargeScrub(config_->costs.central_ingest_ns);
    ++q.stats.events_ingested;
    const TimeMicros ts = chunk.timestamp(i);
    if (ts < cell_lo || ts >= cell_hi) {
      CoverCell(q, ts, &cell_lo, &cell_hi);
      WindowsFor(q, ts, &windows);
      // The host is heard from (completeness). Its first touch also fixes
      // its place in host_stats, whose order Finalize sums the estimator
      // in. A chunk has one host, so one touch per window per cell visit
      // suffices. A shedding window never records the host; a window
      // starts shedding only after the host's first touch, so its state
      // here is the state its first row in this cell would see.
      for (WindowState* w : windows) {
        if (!w->shedding) {
          w->host_stats[host];
        }
      }
    }
    if (windows.empty()) {
      ++q.stats.events_late;
      continue;
    }
    for (WindowState* w : windows) {
      FoldInto(q, *w, chunk, i, column_source, host, cache, key);
    }
  }
  if (metrics) {
    StampFoldMetrics(q, n, t0, joined0, emitted0, late0, shed0, spilled0);
  }
}

void Executor::FoldInto(QueryState& q, WindowState& w, const InputChunk& chunk,
                        size_t i, int column_source, HostId host,
                        const ChunkEvalCache& cache, GroupKey& key) {
  if (!w.replaying) {
    ++w.input_events;  // fidelity denominator: folded, deferred, or shed
    if (w.shedding) {
      ShedEvent(q, w);
      return;
    }
  }
  // A deferred event's host is already in host_stats, in arrival order,
  // not at replay.
  if (!w.replaying &&
      (w.spill != nullptr ||
       (accountant_ != nullptr && accountant_->active() && OverBudget(q)))) {
    SpillOrShed(q, w, chunk, i, host);
    return;
  }
  if (q.plan.is_join()) {
    JoinFold(q, w, chunk, i, column_source, host, key);
    return;
  }
  GroupFoldColumn(q, w, host, cache, i, key);
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
      // Each block folds as one whole-block chunk, evaluated once like any
      // chunk, at the record's row.
      std::vector<InputChunk> chunks;
      std::vector<ChunkEvalCache> caches(blocks.size());
      std::vector<int> sources;  // join source of each block, or -1
      for (size_t b = 0; b < blocks.size(); ++b) {
        chunks.push_back(InputChunk::Columns(blocks[b], nullptr, 0));
        if (!q.plan.is_join()) {
          caches[b].Build(q.plan, *blocks[b], nullptr, blocks[b]->rows());
        }
        sources.push_back(
            SourceIndex(q.plan, blocks[b]->schema()->type_name()));
      }
      GroupKey key;
      for (const Record& r : records) {
        w->host_stats[r.host];  // presence, as in Fold
        FoldInto(q, *w, chunks[r.block], r.row, sources[r.block], r.host,
                 caches[r.block], key);
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
                        size_t i, int source, HostId host, GroupKey& key) {
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
      GroupFoldMixed(q, w, tuple, host, key);
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

namespace {

// `eval(program, slot, dst)` into `dst`: an evaluator that filled `dst` in
// place is done; one that returned a reference elsewhere is copied from.
template <typename EvalFn>
void EvalInto(EvalFn& eval, const ExprProgram& program, size_t slot,
              Value& dst) {
  const Value& v = eval(program, slot, dst);
  if (&v != &dst) {
    dst = v;
  }
}

}  // namespace

// The one group-fold body. Single-source (batch, row) folds and join tuples
// funnel through here with their own `eval`, so the raw-emission path, group
// creation and accounting, the Eq. 1-3 readings, and the null-skip aggregate
// update cannot drift between them. A row that hits an existing group
// allocates nothing: its key is built in the caller's scratch `key` and
// probes the window's table by hash and borrowed values.
template <typename EvalFn>
void Executor::GroupFoldWith(QueryState& q, WindowState& w, HostId host,
                             GroupKey& key, EvalFn&& eval) {
  const CentralPlan& plan = q.plan;
  if (!plan.aggregate_mode) {
    // Project operator: raw rows render and emit eagerly.
    ResultRow row;
    row.query_id = plan.query_id;
    row.window_start = w.start;
    row.window_end = w.start + plan.window_micros;
    row.values.resize(plan.raw_select_programs.size());
    for (size_t j = 0; j < plan.raw_select_programs.size(); ++j) {
      EvalInto(eval, plan.raw_select_programs[j], j, row.values[j]);
    }
    row.error_bounds.assign(row.values.size(), 0.0);
    ++q.stats.rows_emitted;
    q.sink(row);
    return;
  }

  const size_t args = plan.group_by_programs.size();  // first argument slot
  key.resize(args);
  for (size_t g = 0; g < args; ++g) {
    EvalInto(eval, plan.group_by_programs[g], g, key[g]);
  }
  // One hash per row, reused for the probe and stored with a new key.
  const size_t hash = GroupKeyHash{}(key);
  uint32_t g = w.groups.Find(key, hash);
  if (g == GroupTable::kNone) {
    g = w.groups.Insert(key, hash);
    w.groups[g].state.accumulators.resize(plan.aggregates.size());
    if (accountant_ != nullptr && accountant_->active()) {
      ChargeState(q, w, GroupCreationBytes(*config_, plan, key));
    }
  }
  GroupState& group = w.groups[g].state;
  CollectGroupReadings(q, &group, host, eval);
  Value scratch;
  for (size_t i = 0; i < plan.aggregates.size(); ++i) {
    meter_->ChargeScrub(config_->costs.central_group_update_ns);
    const AggregateSpec& spec = plan.aggregates[i];
    if (!spec.has_arg) {
      UpdateAccumulatorValue(spec, &group.accumulators[i], kNoArg);
      continue;
    }
    const Value& arg = eval(spec.arg_program, args + i, scratch);
    if (arg.is_null()) {
      continue;  // SQL-style: aggregates skip null arguments
    }
    UpdateAccumulatorValue(spec, &group.accumulators[i], arg);
  }
}

void Executor::GroupFoldColumn(QueryState& q, WindowState& w, HostId host,
                               const ChunkEvalCache& cache, size_t pos,
                               GroupKey& key) {
  GroupFoldWith(
      q, w, host, key,
      [&](const ExprProgram&, size_t slot, Value& scratch) -> const Value& {
        return cache.At(slot, pos, scratch);
      });
}

void Executor::GroupFoldMixed(QueryState& q, WindowState& w,
                              std::span<const TupleSlot> slots, HostId host,
                              GroupKey& key) {
  GroupFoldWith(
      q, w, host, key,
      [&](const ExprProgram& e, size_t, Value& scratch) -> const Value& {
        scratch = EvalProgramMixed(e, slots);
        return scratch;
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

  // Fidelity's denominator includes the agent-side staging shed reported
  // via counters; its numerator drops every central-side ladder rung
  // (budget shed, join-capacity shed, spill I/O losses).
  uint64_t agent_shed = 0;
  for (const auto& [shed_host, hs] : w->host_stats) {
    agent_shed += hs.shed;
  }
  const double completeness = WindowCompleteness(q, *w);
  const double fidelity = RecordWindowClose(
      q.stats, completeness, w->input_events, w->shed_events, agent_shed);
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
    partial.input_events = w->input_events;
    partial.shed_events = std::min(w->shed_events, w->input_events);
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
    // The window dies with this export, so its keys move out.
    for (GroupTable::Group& entry : w->groups) {
      GroupState& group = entry.state;
      partial.keys.push_back(std::move(entry.key.key));
      partial.key_hashes.push_back(entry.key.hash);
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

  // Everything below is the Finalize operator, fed the window's per-host
  // counters in host_stats order (the estimator's summation order).
  const uint64_t t_finalize = stamp_close();
  HostCountList hosts;
  if (q.pipeline.needs_scaling) {
    hosts.reserve(w->host_stats.size());
    for (const auto& [host, hs] : w->host_stats) {
      hosts.emplace_back(host, hs.counts);
    }
  }
  const size_t rows =
      FinalizeGroups(plan, q.pipeline, w->start, completeness, fidelity,
                     hosts, w->groups, q.stats, q.sink);
  if (metrics && q.op_finalize >= 0) {
    OperatorMetrics& m =
        q.stats.op_metrics[static_cast<size_t>(q.op_finalize)];
    m.rows_in += rows;
    m.rows_out += rows;
    m.batches += 1;
    m.cpu_ns += WorkerPool::ThreadCpuNs() - t_finalize;
  }
  release_state();
}

}  // namespace scrub
