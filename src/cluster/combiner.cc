#include "src/cluster/combiner.h"

#include <algorithm>
#include <utility>

namespace scrub {

namespace {

// Per-accumulator wire estimate: the fixed scalar block (count, sum,
// min/max tag + two values) plus whatever sketch state rides along. HLL
// ships its register array verbatim; SpaceSaving ships its monitored
// entries (key + count + error).
size_t AccumulatorWireSize(const AggAccumulator& acc) {
  size_t n = 24;
  if (acc.hll != nullptr) {
    n += acc.hll->SizeBytes() + 2;
  }
  if (acc.topk != nullptr) {
    n += acc.topk->size() * 48 + 8;
  }
  return n;
}

size_t PartialWireSize(const WindowPartial& partial) {
  // query_id + window_start + group count (20) and 8 reserved header
  // bytes. The transport's bandwidth term charges this estimate, so the
  // header size fixes hierarchical delivery timing and fleet byte counts.
  size_t n = 28;
  for (size_t g = 0; g < partial.keys.size(); ++g) {
    n += 8;  // stored key hash
    for (const Value& v : partial.keys[g]) {
      n += v.WireSize();
    }
    for (const AggAccumulator& acc : partial.accumulators[g]) {
      n += AccumulatorWireSize(acc);
    }
    if (g < partial.group_readings.size()) {
      for (const auto& ghr : partial.group_readings[g]) {
        n += 8 + ghr.readings.size() * 32;
      }
    }
  }
  n += 16;  // input_events + shed_events
  return n;
}

}  // namespace

size_t PartialEnvelope::WireSize() const {
  size_t n = 36;  // query_id + sender + epoch + seq + two counts
  for (const WindowPartial& partial : partials) {
    n += PartialWireSize(partial);
  }
  for (const CounterDigest& digest : digests) {
    // Host id + count, then window_start + seen/sampled/shed per counter —
    // the same 32-byte convention EventBatch::WireSize uses.
    n += 8 + 32 * digest.counters.size();
  }
  return n;
}

PartialEnvelope PartialEnvelope::Clone() const {
  PartialEnvelope copy;
  copy.query_id = query_id;
  copy.sender = sender;
  copy.epoch = epoch;
  copy.seq = seq;
  copy.partials.reserve(partials.size());
  for (const WindowPartial& partial : partials) {
    copy.partials.push_back(partial.Clone());
  }
  copy.digests = digests;
  return copy;
}

RegionalCombiner::RegionalCombiner(const SchemaRegistry* registry, HostId host,
                                   CombinerConfig config, uint64_t epoch)
    : registry_(registry),
      host_(host),
      config_(std::move(config)),
      epoch_(epoch),
      retry_rng_(config_.seed ^ (0x9E3779B97F4A7C15ULL * (host + 1))),
      inner_(std::make_unique<ScrubCentral>(registry_, config_.central)) {}

Status RegionalCombiner::InstallQuery(const CentralPlan& plan) {
  if (plans_.count(plan.query_id) > 0) {
    return OkStatus();
  }
  // The inner central runs the shard role: full Decode..WindowClose, no
  // Finalize, no expected-host bookkeeping (that stays global, at the
  // coordinator, fed by the forwarded digests).
  CentralPlan inner_plan = plan;
  inner_plan.hosts_sampled = 0;
  const QueryId qid = plan.query_id;
  Status status = inner_->InstallQueryPartial(
      inner_plan,
      [this, qid](WindowPartial&& partial) {
        buffered_[qid].push_back(std::move(partial));
      });
  if (!status.ok()) {
    return status;
  }
  plans_.emplace(qid, plan);
  return OkStatus();
}

void RegionalCombiner::RemoveQuery(QueryId query_id) {
  // Cancel semantics: the inner central's close-out partials are dropped
  // along with everything buffered or held — central has cancelled the
  // query, so there is nobody upstream to merge them.
  inner_->RemoveQuery(query_id);
  plans_.erase(query_id);
  dedup_.erase(query_id);
  buffered_.erase(query_id);
  digests_.erase(query_id);
  digest_watermark_.erase(query_id);
  next_seq_.erase(query_id);
  held_.erase(query_id);
}

RegionalCombiner::Action RegionalCombiner::IngestBatch(const EventBatch& batch,
                                                       TimeMicros now) {
  const auto pit = plans_.find(batch.query_id);
  if (pit == plans_.end()) {
    ++stats_.batches_relayed;
    return Action::kRelay;
  }
  // Dedup before the digest ledger and the inner ingest: an agent
  // retransmit whose ack was lost must not double-count counters.
  if (batch.seq != 0 &&
      !dedup_[batch.query_id][batch.host][batch.epoch].Insert(batch.seq)) {
    ++stats_.batches_duplicate;
    return Action::kAbsorbed;  // already applied; re-ack
  }
  ++stats_.batches_absorbed;
  // Ledger the per-agent counters for upstream forwarding. Summing per
  // (slot, host) is lossless for the coordinator — it needs per-host M_i /
  // m_i, and an agent's flushes are deltas that sum to its slot totals.
  const CentralPlan& plan = pit->second;
  for (const WindowCounter& counter : batch.counters) {
    if (counter.window_start < plan.start_time ||
        counter.window_start >= plan.end_time) {
      continue;
    }
    // Mirror the inner central's straggler acceptance: the last window
    // covering this slot starts at the slot itself, so once its close
    // deadline passes, the inner has late-dropped the slot's events —
    // ledgering the counter would mark the host heard for data that never
    // shipped. (A fresh post-crash incarnation applies the same deadline,
    // so retransmits into it can't vouch for slots the dead one dropped.)
    if (counter.window_start + plan.window_micros +
            config_.central.allowed_lateness <=
        now) {
      ++stats_.counters_late;
      continue;
    }
    WindowCounter& digest =
        digests_[batch.query_id][counter.window_start][batch.host];
    digest.window_start = counter.window_start;
    digest.seen += counter.seen;
    digest.sampled += counter.sampled;
    digest.shed += counter.shed;
  }
  // The full batch — counters included — feeds the inner central, so
  // heartbeat counters still create (possibly empty) windows and the
  // empty-window partials keep flat/hierarchical row streams identical.
  (void)inner_->IngestBatch(batch, now);
  return Action::kAbsorbed;
}

TimeMicros RegionalCombiner::BackoffFor(int attempts) {
  TimeMicros base = config_.retransmit_backoff;
  for (int i = 0; i < attempts && base < config_.retransmit_backoff * 8; ++i) {
    base *= 2;
  }
  const TimeMicros quarter = std::max<TimeMicros>(base / 4, 1);
  const TimeMicros jitter =
      static_cast<TimeMicros>(retry_rng_.NextBelow(
          static_cast<uint64_t>(2 * quarter))) -
      quarter;
  return std::max<TimeMicros>(base + jitter, 1);
}

std::vector<PartialEnvelope> RegionalCombiner::PumpUpstream(TimeMicros now) {
  inner_->OnTick(now);  // window closes land in buffered_ via the sinks
  std::vector<PartialEnvelope> out;

  // Fresh envelopes, ascending query id. Partials ship as soon as the inner
  // central closes them; digest slots trail the partial watermark, so a
  // host's counters for a window travel with (or after) the partial holding
  // that window's data. Shipping digests eagerly would let a partition lose
  // a window's data while its completeness accounting got through — a
  // silently-wrong 1.0. Heartbeat counters keep empty windows closing at
  // the inner central, so the watermark advances even with no matches.
  for (auto& [qid, plan] : plans_) {
    auto bit = buffered_.find(qid);
    const bool has_partials = bit != buffered_.end() && !bit->second.empty();
    auto wit = digest_watermark_.find(qid);
    if (has_partials) {
      for (const WindowPartial& partial : bit->second) {
        if (wit == digest_watermark_.end()) {
          wit = digest_watermark_.emplace(qid, partial.window_start).first;
        } else if (partial.window_start > wit->second) {
          wit->second = partial.window_start;
        }
      }
    }
    // Regroup the covered prefix of the slot -> host ledger per host,
    // ascending HostId (outer map is by slot; collect into a sorted host
    // map first).
    std::map<HostId, std::vector<WindowCounter>> by_host;
    if (wit != digest_watermark_.end()) {
      auto dit = digests_.find(qid);
      if (dit != digests_.end()) {
        std::map<TimeMicros, std::map<HostId, WindowCounter>>& slots =
            dit->second;
        for (auto sit = slots.begin();
             sit != slots.end() && sit->first <= wit->second;) {
          for (auto& [host, counter] : sit->second) {
            by_host[host].push_back(counter);
          }
          sit = slots.erase(sit);
        }
      }
    }
    if (!has_partials && by_host.empty()) {
      continue;
    }
    PartialEnvelope env;
    env.query_id = qid;
    env.sender = host_;
    env.epoch = epoch_;
    env.seq = ++next_seq_[qid];
    if (has_partials) {
      env.partials = std::move(bit->second);
      bit->second.clear();
    }
    env.digests.reserve(by_host.size());
    for (auto& [host, counters] : by_host) {
      CounterDigest digest;
      digest.host = host;
      digest.counters = std::move(counters);
      env.digests.push_back(std::move(digest));
    }
    if (config_.retransmit_budget > 0) {
      std::deque<HeldEnvelope>& held = held_[qid];
      if (held.size() >= config_.retransmit_capacity) {
        held.pop_front();
        ++stats_.envelopes_evicted;
      }
      HeldEnvelope h;
      h.envelope = env.Clone();
      h.next_retry = now + BackoffFor(0);
      h.deadline = now + config_.retransmit_budget;
      h.attempts = 0;
      held.push_back(std::move(h));
    }
    ++stats_.envelopes_sent;
    out.push_back(std::move(env));
  }

  // Due retransmits, after fresh sends (same discipline as the agent).
  for (auto& [qid, held] : held_) {
    for (auto it = held.begin(); it != held.end();) {
      if (it->deadline <= now) {
        ++stats_.envelopes_expired;
        it = held.erase(it);
        continue;
      }
      if (it->next_retry <= now) {
        ++it->attempts;
        it->next_retry = now + BackoffFor(it->attempts);
        ++stats_.envelopes_retransmitted;
        out.push_back(it->envelope.Clone());
      }
      ++it;
    }
  }

  // GC queries past their span: agents stop flushing at end_time and their
  // retransmit budget bounds stragglers; one more combiner budget covers
  // our own held envelopes.
  const TimeMicros grace = config_.central.allowed_lateness +
                           config_.retransmit_budget +
                           config_.retransmit_backoff;
  for (auto it = plans_.begin(); it != plans_.end();) {
    const QueryId qid = it->first;
    const bool expired = it->second.end_time + grace <= now;
    const auto hit = held_.find(qid);
    const bool quiesced = hit == held_.end() || hit->second.empty();
    if (expired && quiesced) {
      dedup_.erase(qid);
      buffered_.erase(qid);
      digests_.erase(qid);
      digest_watermark_.erase(qid);
      next_seq_.erase(qid);
      held_.erase(qid);
      it = plans_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

void RegionalCombiner::OnAck(QueryId query_id, uint64_t seq) {
  auto it = held_.find(query_id);
  if (it == held_.end()) {
    return;
  }
  std::deque<HeldEnvelope>& held = it->second;
  for (auto hit = held.begin(); hit != held.end(); ++hit) {
    if (hit->envelope.seq == seq) {
      held.erase(hit);
      ++stats_.envelopes_acked;
      break;
    }
  }
}

size_t RegionalCombiner::pending_retransmits() const {
  size_t n = 0;
  for (const auto& [qid, held] : held_) {
    n += held.size();
  }
  return n;
}

}  // namespace scrub
