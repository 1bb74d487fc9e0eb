#include "src/scrub/scrub_system.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/strings.h"
#include "src/plan/explain.h"

namespace scrub {

ScrubSystem::ScrubSystem(SystemConfig config)
    : config_(config),
      scheduler_(0),
      registry_(),
      transport_(&scheduler_, &registry_, config.transport),
      pool_(config.workers) {
  platform_ = std::make_unique<BiddingPlatform>(
      &scheduler_, &transport_, &registry_, &schemas_, config_.platform);
  workload_ =
      std::make_unique<WorkloadDriver>(&scheduler_, platform_.get(),
                                       config_.seed ^ 0x70ad);

  // Scrub's own infrastructure lives in DC1 and is not monitorable (queries
  // never target it).
  central_host_ =
      registry_.AddHost("scrub-central-00", "ScrubCentral", "DC1",
                        /*monitorable=*/false);
  server_host_ = registry_.AddHost("scrub-server-00", "ScrubServer", "DC1",
                                   /*monitorable=*/false);

  // Spill I/O faults ride the FaultPlan (one chaos knob) but execute inside
  // the central's SpillManager, on a stream seeded from the plan's seed yet
  // independent of the network fault RNG — arming one never perturbs the
  // other.
  if (config_.faults.spill.Active()) {
    config_.central.spill_faults = config_.faults.spill;
    config_.central.spill_seed = config_.faults.seed ^ 0x5b111e5eedULL;
  }
  central_ = std::make_unique<ScrubCentral>(&schemas_, config_.central);

  // The admission linter should judge windows against the real agent flush
  // cadence and spans against the real admission ceiling, and lateness
  // budgets against the real retransmit round trip.
  config_.server.lint.flush_interval_micros = config_.flush_interval;
  config_.server.lint.max_duration_micros =
      config_.server.analyzer.max_duration_micros;
  config_.server.lint.allowed_lateness_micros =
      config_.central.allowed_lateness;
  config_.server.lint.retry_rtt_micros =
      2 * config_.transport.cross_dc_latency + config_.agent.retransmit_backoff;
  // ... and state estimates against the central's real per-query budget.
  config_.server.lint.query_state_budget_bytes =
      config_.central.query_state_budget_bytes;

  // Reliable delivery: retransmit until the central's straggler grace is
  // spent (plus one flush round for the initial send), then shed. Heartbeat
  // counters every flush are what make completeness well-defined.
  if (config_.agent.retransmit_budget <= 0) {
    config_.agent.retransmit_budget =
        config_.central.allowed_lateness + config_.flush_interval;
  }
  config_.agent.flush_heartbeats = true;

  transport_.SetFaultPlan(config_.faults);

  // Hierarchical tier: one combiner per region, placed round-robin across
  // the platform's data centers, plus the coordinator front-end that merges
  // their partials. Built before the server so the control-plane hooks are
  // in place at its construction.
  if (config_.combiner_regions > 0) {
    const int dcs = std::max(1, config_.platform.datacenters);
    for (size_t r = 0; r < config_.combiner_regions; ++r) {
      const std::string dc_name =
          StrFormat("DC%d", static_cast<int>(r) % dcs + 1);
      const HostId chost = registry_.AddHost(
          StrFormat("scrub-combiner-%02d", static_cast<int>(r)),
          "ScrubCombiner", dc_name, /*monitorable=*/false);
      epochs_[chost] = 1;
      combiners_.emplace(chost,
                         std::make_unique<RegionalCombiner>(
                             &schemas_, chost, MakeCombinerConfig(r),
                             /*epoch=*/1));
      combiner_host_order_.push_back(chost);
    }
    // Partials lag the raw batches they summarize: the inner central holds
    // its windows for a full lateness grace, the envelope takes one more
    // hop, and lost envelopes retry for the combiner's retransmit budget.
    // Extend the coordinator's straggler grace accordingly, so hierarchical
    // windows see exactly the contributions flat windows would.
    coordinator_lateness_ = config_.central.allowed_lateness +
                            (config_.central.allowed_lateness +
                             config_.flush_interval) +
                            2 * config_.flush_interval;
    CentralConfig coord = config_.central;
    coord.allowed_lateness = coordinator_lateness_;
    coordinator_ = std::make_unique<PartialCoordinator>(coord);
    config_.server.central_install = [this](const CentralPlan& plan,
                                            ResultSink sink) {
      return InstallHierQuery(plan, std::move(sink));
    };
    config_.server.central_remove = [this](QueryId id) {
      RemoveHierQuery(id);
    };
  }

  // One agent per monitorable host.
  for (size_t i = 0; i < registry_.size(); ++i) {
    const HostInfo& info = registry_.Get(static_cast<HostId>(i));
    if (!info.monitorable) {
      continue;
    }
    agents_.emplace(info.id, std::make_unique<ScrubAgent>(
                                 info.id, &registry_.meter(info.id),
                                 config_.agent, AgentSeed(info.id, 0)));
    agent_hosts_.push_back(info.id);
  }
  std::sort(agent_hosts_.begin(), agent_hosts_.end());

  // Static agent -> combiner routing: each monitorable host ships its
  // aggregate-query batches to a combiner in its own DC, round-robin by
  // within-DC ordinal when a DC hosts several combiners. Fewer regions than
  // DCs degenerates to a fixed cross-DC assignment.
  if (!combiners_.empty()) {
    const size_t regions = combiner_host_order_.size();
    const size_t dcs =
        static_cast<size_t>(std::max(1, config_.platform.datacenters));
    std::unordered_map<std::string, size_t> dc_ordinal;
    for (const HostId host : agent_hosts_) {
      const std::string& dc = registry_.Get(host).datacenter;  // "DC<k>"
      size_t k = 0;
      if (dc.size() > 2) {
        k = static_cast<size_t>(
                std::max(1, std::atoi(dc.c_str() + 2)) - 1) %
            dcs;
      }
      std::vector<size_t> serving;
      for (size_t r = 0; r < regions; ++r) {
        if (r % dcs == k) {
          serving.push_back(r);
        }
      }
      const size_t ordinal = dc_ordinal[dc]++;
      const size_t region =
          serving.empty() ? k % regions : serving[ordinal % serving.size()];
      agent_combiner_[host] = combiner_host_order_[region];
    }
  }

  server_ = std::make_unique<QueryServer>(
      &scheduler_, &transport_, &registry_, &schemas_, central_.get(),
      server_host_, central_host_,
      [this](HostId host) { return agent(host); }, config_.server);

  if (config_.scrub_enabled) {
    platform_->SetEventLogger([this](HostId host, Event event) {
      // A crashed host's application is down with it: nothing logs there.
      if (!registry_.IsAlive(host)) {
        return int64_t{0};
      }
      if (event_tap_ != nullptr) {
        event_tap_(host, event);
      }
      ScrubAgent* a = agent(host);
      return a == nullptr ? int64_t{0} : a->LogEvent(event);
    });
  }
}

uint64_t ScrubSystem::AgentSeed(HostId host, uint64_t epoch) const {
  return config_.seed ^ (0xa9e47u + static_cast<uint64_t>(host)) ^
         (epoch * 0x9E3779B97F4A7C15ULL);
}

void ScrubSystem::SetFaultPlan(FaultPlan plan) {
  central_->SetSpillFaults(plan.spill, plan.seed ^ 0x5b111e5eedULL);
  transport_.SetFaultPlan(std::move(plan));
}

void ScrubSystem::ScheduleCrash(HostId host, TimeMicros down_at,
                                TimeMicros up_at) {
  scheduler_.ScheduleAt(down_at,
                        [this, host] { registry_.SetAlive(host, false); });
  if (up_at > down_at) {
    scheduler_.ScheduleAt(up_at, [this, host] { RestartHost(host); });
  }
}

CombinerConfig ScrubSystem::MakeCombinerConfig(size_t region) const {
  CombinerConfig cfg;
  cfg.central = config_.central;
  // A private spill namespace per combiner: inner centrals degrade
  // independently, never clobbering the real central's runs.
  cfg.central.spill_instance += StrFormat("_r%d", static_cast<int>(region));
  cfg.central.spill_seed ^= 0x9E3779B97F4A7C15ULL * (region + 1);
  cfg.retransmit_backoff = config_.agent.retransmit_backoff;
  // Same derivation as the agents': retry until central's straggler grace
  // is spent plus one flush round, then shed honestly.
  cfg.retransmit_budget =
      config_.central.allowed_lateness + config_.flush_interval;
  cfg.seed = config_.seed ^ (0xc0b1u + region);
  return cfg;
}

std::vector<HostId> ScrubSystem::combiner_hosts() const {
  std::vector<HostId> hosts;
  hosts.reserve(combiners_.size());
  for (const auto& [host, comb] : combiners_) {
    hosts.push_back(host);
  }
  return hosts;
}

const RegionalCombiner* ScrubSystem::combiner(HostId host) const {
  const auto it = combiners_.find(host);
  return it == combiners_.end() ? nullptr : it->second.get();
}

HostId ScrubSystem::combiner_for(HostId host) const {
  const auto it = agent_combiner_.find(host);
  return it == agent_combiner_.end() ? kInvalidHost : it->second;
}

Status ScrubSystem::InstallHierQuery(const CentralPlan& plan,
                                     ResultSink sink) {
  if (!CombinerEligible(plan)) {
    // Raw-mode and join queries keep the flat path end to end.
    return central_->InstallQuery(plan, std::move(sink));
  }
  if (coordinator_->HasQuery(plan.query_id)) {
    return OkStatus();  // control-plane retry: idempotent re-install
  }
  // Fan the plan out to every combiner. Modeled as part of the (already
  // transport-delivered) central install: the coordinator front-end
  // configures its tier synchronously, so no agent batch can race an
  // uninstalled combiner.
  for (auto& [chost, comb] : combiners_) {
    (void)comb->InstallQuery(plan);
  }
  Status status = coordinator_->InstallQuery(plan, std::move(sink));
  if (status.ok()) {
    hier_plans_.emplace(plan.query_id, plan);
  }
  return status;
}

void ScrubSystem::RemoveHierQuery(QueryId id) {
  if (coordinator_ == nullptr || !coordinator_->HasQuery(id)) {
    central_->RemoveQuery(id);  // flat-path query (raw mode, join)
    return;
  }
  for (auto& [chost, comb] : combiners_) {
    comb->RemoveQuery(id);
  }
  coordinator_->RemoveQuery(id);
  hier_plans_.erase(id);
}

void ScrubSystem::RestartHost(HostId host) {
  registry_.SetAlive(host, true);
  const auto cit = combiners_.find(host);
  if (cit != combiners_.end()) {
    // Fresh combiner incarnation: inner window state, digest ledgers and
    // held envelopes died with the host — the unheard agents simply leave
    // their windows incomplete, like a crashed agent would. The bumped
    // epoch keeps the coordinator's dedup from mistaking the new seq 1,
    // 2, ... for the dead incarnation's. Still-live plans are reinstalled
    // synchronously, mirroring InstallHierQuery's control-plane model.
    const uint64_t epoch = ++epochs_[host];
    size_t region = 0;
    for (size_t r = 0; r < combiner_host_order_.size(); ++r) {
      if (combiner_host_order_[r] == host) {
        region = r;
      }
    }
    cit->second = std::make_unique<RegionalCombiner>(
        &schemas_, host, MakeCombinerConfig(region), epoch);
    const TimeMicros now = scheduler_.Now();
    for (const auto& [qid, plan] : hier_plans_) {
      if (plan.end_time > now) {
        (void)cit->second->InstallQuery(plan);
      }
    }
    return;
  }
  const auto it = agents_.find(host);
  if (it != agents_.end()) {
    // A fresh incarnation: staged events, counters and retransmit buffers
    // died with the host. The bumped epoch keeps central's dedup from
    // mistaking the new agent's seq 1, 2, ... for duplicates.
    const uint64_t epoch = ++epochs_[host];
    it->second = std::make_unique<ScrubAgent>(host, &registry_.meter(host),
                                              config_.agent,
                                              AgentSeed(host, epoch), epoch);
  }
  // Still-live query objects are re-disseminated to the blank agent.
  server_->OnHostRestart(host);
}

ScrubAgent* ScrubSystem::agent(HostId host) {
  const auto it = agents_.find(host);
  return it == agents_.end() ? nullptr : it->second.get();
}

Result<SubmittedQuery> ScrubSystem::Submit(std::string_view query_text,
                                           ResultSink sink) {
  return server_->Submit(query_text, std::move(sink));
}

void ScrubSystem::PumpFlushes() {
  const TimeMicros now = scheduler_.Now();
  // Fan the per-host flush/retransmit evaluation (selection residue,
  // encoding, backoff bookkeeping) across the pool. Each task touches only
  // its own agent, its own host CostMeter and its own RNG streams, so hosts
  // are independent; determinism for any worker count comes from handing
  // the results to the (single-threaded) transport in ascending host order
  // after the join, before the clock advances.
  std::vector<std::vector<EventBatch>> per_host(agent_hosts_.size());
  pool_.ParallelFor(agent_hosts_.size(), [&](size_t i) {
    const HostId host = agent_hosts_[i];
    if (!registry_.IsAlive(host)) {
      return;  // a crashed host neither flushes nor retries
    }
    ScrubAgent& a = *agents_.at(host);
    std::vector<EventBatch> batches = a.Flush(now);
    std::vector<EventBatch> retries = a.Retransmits(now);
    batches.insert(batches.end(),
                   std::make_move_iterator(retries.begin()),
                   std::make_move_iterator(retries.end()));
    per_host[i] = std::move(batches);
  });
  for (size_t i = 0; i < agent_hosts_.size(); ++i) {
    const HostId host = agent_hosts_[i];
    for (EventBatch& batch : per_host[i]) {
      // Combiner-tier routing is per query: batches of combiner-installed
      // aggregate queries go to the host's regional combiner; raw-mode and
      // join batches keep the flat path.
      if (hier_plans_.count(batch.query_id) > 0) {
        SendBatchToCombiner(host, agent_combiner_.at(host), std::move(batch));
      } else {
        SendBatchToCentral(host, std::move(batch));
      }
    }
  }
  PumpCombiners(now);
  central_->OnTick(now);
  if (coordinator_ != nullptr) {
    coordinator_->OnTick(now);
  }
}

void ScrubSystem::SendBatchToCentral(HostId from, EventBatch batch) {
  const size_t bytes = batch.WireSize();
  transport_.Send(
      from, central_host_, bytes, TrafficCategory::kScrubEvents,
      [this, from, b = std::move(batch)] {
        const Status s = central_->IngestBatch(b, scheduler_.Now());
        (void)s;  // decode failures are programming errors
        // Ack sequenced batches (duplicates too: the retransmit that
        // raced a lost ack still needs its buffered copy released).
        if (b.seq != 0) {
          transport_.Send(central_host_, from, 24,
                          TrafficCategory::kScrubAcks,
                          [this, from, qid = b.query_id, seq = b.seq] {
                            ScrubAgent* a = agent(from);
                            if (a != nullptr) {
                              a->OnAck(qid, seq);
                            }
                          });
        }
      });
}

void ScrubSystem::SendBatchToCombiner(HostId from, HostId chost,
                                      EventBatch batch) {
  const size_t bytes = batch.WireSize();
  transport_.Send(
      from, chost, bytes, TrafficCategory::kScrubEvents,
      [this, from, chost, b = std::move(batch)] {
        // Resolve the combiner at delivery time: a restart between send and
        // delivery replaced the object behind this host id.
        const auto it = combiners_.find(chost);
        if (it == combiners_.end()) {
          return;
        }
        const RegionalCombiner::Action action =
            it->second->IngestBatch(b, scheduler_.Now());
        if (action == RegionalCombiner::Action::kAbsorbed) {
          if (b.seq != 0) {
            transport_.Send(chost, from, 24, TrafficCategory::kScrubAcks,
                            [this, from, qid = b.query_id, seq = b.seq] {
                              ScrubAgent* a = agent(from);
                              if (a != nullptr) {
                                a->OnAck(qid, seq);
                              }
                            });
          }
          return;
        }
        // kRelay (teardown raced the batch): forward unchanged; central
        // ingests — or drops an unknown query — and acks the agent, exactly
        // the flat path with one extra hop.
        transport_.Send(
            chost, central_host_, b.WireSize(), TrafficCategory::kScrubEvents,
            [this, from, b] {
              (void)central_->IngestBatch(b, scheduler_.Now());
              if (b.seq != 0) {
                transport_.Send(central_host_, from, 24,
                                TrafficCategory::kScrubAcks,
                                [this, from, qid = b.query_id, seq = b.seq] {
                                  ScrubAgent* a = agent(from);
                                  if (a != nullptr) {
                                    a->OnAck(qid, seq);
                                  }
                                });
              }
            });
      });
}

void ScrubSystem::PumpCombiners(TimeMicros now) {
  for (auto& [chost, comb] : combiners_) {
    if (!registry_.IsAlive(chost)) {
      continue;  // a crashed combiner neither ticks nor ships
    }
    std::vector<PartialEnvelope> envelopes = comb->PumpUpstream(now);
    for (PartialEnvelope& env : envelopes) {
      // shared_ptr keeps the delivery closure copyable (WindowPartial
      // holds move-only sketch state); a chaos duplicate delivery of the
      // same closure is rejected by AdmitSequenced below.
      auto shared = std::make_shared<PartialEnvelope>(std::move(env));
      const size_t bytes = shared->WireSize();
      transport_.Send(
          chost, central_host_, bytes, TrafficCategory::kScrubPartials,
          [this, chost, shared] {
            PartialEnvelope& e = *shared;
            if (coordinator_->AdmitSequenced(e.query_id, e.sender, e.epoch,
                                             e.seq)) {
              for (const CounterDigest& digest : e.digests) {
                coordinator_->AbsorbCounters(e.query_id, digest.host,
                                             digest.counters);
              }
              for (WindowPartial& partial : e.partials) {
                coordinator_->AbsorbPartial(std::move(partial));
              }
            }
            // Ack duplicates too (a retransmit racing its lost ack must
            // release the held clone). The ack resolves the combiner by
            // host at delivery and checks the incarnation, so a restarted
            // combiner's fresh seqs are never confused with the dead one's.
            transport_.Send(central_host_, chost, 24,
                            TrafficCategory::kScrubAcks,
                            [this, chost, qid = e.query_id, seq = e.seq,
                             epoch = e.epoch] {
                              const auto cit = combiners_.find(chost);
                              if (cit != combiners_.end() &&
                                  cit->second->epoch() == epoch) {
                                cit->second->OnAck(qid, seq);
                              }
                            });
          });
    }
  }
}

void ScrubSystem::RunUntil(TimeMicros until) {
  while (scheduler_.Now() < until) {
    const TimeMicros next =
        std::min(until, scheduler_.Now() + config_.flush_interval);
    scheduler_.RunUntil(next);
    PumpFlushes();
  }
}

void ScrubSystem::Drain() {
  // Let in-flight batches land and the last windows close: the allowed
  // lateness plus a few flush rounds covers the longest path. Hierarchical
  // runs wait out the coordinator's extended grace instead (inner lateness
  // plus the extra hop and retransmit rounds).
  const TimeMicros grace =
      hierarchical()
          ? coordinator_lateness_ + 4 * config_.flush_interval
          : config_.central.allowed_lateness + 3 * config_.flush_interval;
  RunUntil(scheduler_.Now() + grace);
}

std::string ScrubSystem::Explain(std::string_view query_text) const {
  return ExplainQuery(query_text, schemas_, config_.server.analyzer,
                      LintConfig());
}

LintOptions ScrubSystem::LintConfig() const {
  LintOptions options = config_.server.lint;
  options.fleet_hosts = agents_.size();  // monitorable hosts only
  options.query_state_budget_bytes = config_.central.query_state_budget_bytes;
  return options;
}

Result<std::vector<Diagnostic>> ScrubSystem::Lint(
    std::string_view query_text) const {
  return LintQueryText(query_text, schemas_, config_.server.analyzer,
                       LintConfig());
}

CostModel ScrubSystem::CalibrateLintCosts() {
  CostModel costs = config_.server.lint.costs;
  uint64_t decode_cpu = 0, decode_rows = 0;
  uint64_t join_cpu = 0, join_rows = 0;
  uint64_t fold_cpu = 0, fold_rows = 0;
  std::vector<QueryId> ids = central_->ActiveQueryIds();
  std::sort(ids.begin(), ids.end());
  for (const QueryId qid : ids) {
    const PhysicalPipeline* pipe = central_->PipelineFor(qid);
    const CentralQueryStats* cs = central_->StatsFor(qid);
    if (pipe == nullptr || cs == nullptr) {
      continue;
    }
    for (size_t i = 0;
         i < cs->op_metrics.size() && i < pipe->ops.size(); ++i) {
      const OperatorMetrics& m = cs->op_metrics[i];
      // cpu_ns == 0 marks a fused stamp (join pipelines charge the probe +
      // fold chunk to the Join op and give the downstream fold honest row
      // counts only); folding those rows in would dilute the rate.
      if (m.cpu_ns == 0 || m.rows_in == 0) {
        continue;
      }
      switch (pipe->ops[i].kind) {
        case PhysicalOpKind::kDecode:
          decode_cpu += m.cpu_ns;
          decode_rows += m.rows_in;
          break;
        case PhysicalOpKind::kJoin:
          join_cpu += m.cpu_ns;
          join_rows += m.rows_in;
          break;
        case PhysicalOpKind::kGroupFold:
        case PhysicalOpKind::kProject:
          fold_cpu += m.cpu_ns;
          fold_rows += m.rows_in;
          break;
        default:
          break;
      }
    }
  }
  if (decode_rows > 0) {
    costs.central_ingest_ns = std::max<int64_t>(
        1, static_cast<int64_t>(decode_cpu / decode_rows));
  }
  if (join_rows > 0) {
    costs.central_join_probe_ns = std::max<int64_t>(
        1, static_cast<int64_t>(join_cpu / join_rows));
  }
  if (fold_rows > 0) {
    costs.central_group_update_ns = std::max<int64_t>(
        1, static_cast<int64_t>(fold_cpu / fold_rows));
  }
  config_.server.lint.costs = costs;
  server_->SetLintCosts(costs);
  return costs;
}

std::string ScrubSystem::DescribeQuery(QueryId id) const {
  std::string out = StrFormat("query %llu\n",
                              static_cast<unsigned long long>(id));
  uint64_t considered = 0;
  uint64_t sampled_out = 0;
  uint64_t filtered = 0;
  uint64_t shipped = 0;
  uint64_t dropped = 0;
  uint64_t sent = 0;
  uint64_t retransmitted = 0;
  uint64_t acked = 0;
  uint64_t shed = 0;
  uint64_t abandoned = 0;
  int hosts_reporting = 0;
  for (const auto& [host, agent_ptr] : agents_) {
    const AgentQueryStats* s = agent_ptr->StatsFor(id);
    if (s == nullptr) {
      continue;
    }
    ++hosts_reporting;
    considered += s->events_considered;
    sampled_out += s->events_sampled_out;
    filtered += s->events_filtered;
    shipped += s->events_shipped;
    dropped += s->events_dropped;
    sent += s->batches_sent;
    retransmitted += s->batches_retransmitted;
    acked += s->batches_acked;
    shed += s->batches_expired + s->batches_evicted;
    abandoned += s->events_abandoned;
  }
  out += StrFormat(
      "  hosts: %d reporting\n"
      "  agent totals: considered=%llu sampled_out=%llu filtered=%llu "
      "shipped=%llu dropped=%llu\n"
      "  delivery: batches_sent=%llu retransmitted=%llu acked=%llu "
      "shed=%llu events_abandoned=%llu\n",
      hosts_reporting, static_cast<unsigned long long>(considered),
      static_cast<unsigned long long>(sampled_out),
      static_cast<unsigned long long>(filtered),
      static_cast<unsigned long long>(shipped),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(retransmitted),
      static_cast<unsigned long long>(acked),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(abandoned));
  // Staging shape and per-column wire encodings. The shape is a function of
  // the plan and identical fleet-wide, so one reporting agent is
  // representative — prefer a host that actually shipped a columnar flush
  // so the encodings render (a host that never logs the source type keeps
  // them empty). The shape lives in the stats, so this renders even after
  // the query is torn down.
  const AgentQueryStats* s = nullptr;
  for (const auto& [host, agent_ptr] : agents_) {
    const AgentQueryStats* cand = agent_ptr->StatsFor(id);
    if (cand == nullptr || cand->source_types.empty()) {
      continue;
    }
    if (s == nullptr) {
      s = cand;
    }
    const bool has_encodings =
        std::any_of(cand->last_encodings.begin(), cand->last_encodings.end(),
                    [](const std::vector<int>& e) { return !e.empty(); });
    if (has_encodings) {
      s = cand;
      break;
    }
  }
  if (s != nullptr) {
    const std::vector<std::string>& source_names = s->source_types;
    out += StrFormat("  staging: %s\n",
                     source_names.size() > 1 ? "columnar join" : "columnar");
    for (size_t i = 0; i < source_names.size(); ++i) {
      std::string line =
          StrFormat("    source %s:", source_names[i].c_str());
      const std::vector<int>* enc =
          i < s->last_encodings.size() && !s->last_encodings[i].empty()
              ? &s->last_encodings[i]
              : nullptr;
      if (enc == nullptr) {
        line += " no columnar flush shipped yet";
      } else {
        Result<SchemaPtr> schema = schemas_.Get(source_names[i]);
        for (size_t f = 0; f < enc->size(); ++f) {
          const std::string name =
              schema.ok() && f < (*schema)->field_count()
                  ? (*schema)->field(f).name
                  : StrFormat("f%zu", f);
          const int e = (*enc)[f];
          if (e < 0) {
            line += StrFormat(" %s=dropped", name.c_str());
          } else if (e == 0) {
            line += StrFormat(" %s=plain", name.c_str());
          } else {
            line += StrFormat(" %s=dict(%d)", name.c_str(), e);
          }
        }
      }
      out += line + "\n";
    }
  }
  const ControlStats* ctl = server_->ControlStatsFor(id);
  if (ctl != nullptr) {
    out += StrFormat(
        "  control: install_sends=%llu install_retries=%llu "
        "install_acks=%llu reinstalls=%llu teardown_sends=%llu "
        "teardown_retries=%llu teardown_acks=%llu\n",
        static_cast<unsigned long long>(ctl->install_sends),
        static_cast<unsigned long long>(ctl->install_retries),
        static_cast<unsigned long long>(ctl->install_acks),
        static_cast<unsigned long long>(ctl->reinstalls),
        static_cast<unsigned long long>(ctl->teardown_sends),
        static_cast<unsigned long long>(ctl->teardown_retries),
        static_cast<unsigned long long>(ctl->teardown_acks));
  }
  const CentralQueryStats* cs = central_->StatsFor(id);
  if (cs == nullptr && coordinator_ != nullptr) {
    // Hierarchical aggregate queries live at the coordinator front-end.
    cs = coordinator_->StatsFor(id);
  }
  if (cs == nullptr) {
    out += "  central: no record of this query\n";
    return out;
  }
  out += StrFormat(
      "  central: batches=%llu duplicates=%llu ingested=%llu late=%llu "
      "joined=%llu orphans=%llu join_shed=%llu rows=%llu\n",
      static_cast<unsigned long long>(cs->batches),
      static_cast<unsigned long long>(cs->batches_duplicate),
      static_cast<unsigned long long>(cs->events_ingested),
      static_cast<unsigned long long>(cs->events_late),
      static_cast<unsigned long long>(cs->tuples_joined),
      static_cast<unsigned long long>(cs->join_orphans),
      static_cast<unsigned long long>(cs->join_shed),
      static_cast<unsigned long long>(cs->rows_emitted));
  // Per-operator counters (DESIGN.md §16). Named from the compiled pipeline
  // when the query is still installed; a hierarchical query renders the
  // combiner tier's shard ops (summed across regions) and the coordinator's
  // Finalize separately, compiled fresh from the retained plan.
  const auto op_section = [&out](const char* label,
                                 const PhysicalPipeline* pipe,
                                 const std::vector<OperatorMetrics>& ms) {
    const bool any = std::any_of(ms.begin(), ms.end(),
                                 [](const OperatorMetrics& m) {
                                   return !m.Empty();
                                 });
    if (!any) {
      return;
    }
    out += StrFormat("  %s:\n", label);
    for (size_t i = 0; i < ms.size(); ++i) {
      if (pipe != nullptr && i < pipe->ops.size()) {
        out += "    " + AnnotateOp(pipe->ops[i], &ms[i]);
      } else {
        out += StrFormat(
            "    op[%zu]  [rows %llu -> %llu, sel %.3f, batches %llu, "
            "cpu %.3f ms]\n",
            i, static_cast<unsigned long long>(ms[i].rows_in),
            static_cast<unsigned long long>(ms[i].rows_out),
            ms[i].Selectivity(),
            static_cast<unsigned long long>(ms[i].batches),
            static_cast<double>(ms[i].cpu_ns) / 1e6);
      }
    }
  };
  const auto hit = hier_plans_.find(id);
  if (hit != hier_plans_.end()) {
    const PhysicalPipeline shard =
        CompilePhysical(hit->second, PipelineRole::kShard);
    const PhysicalPipeline fin =
        CompilePhysical(hit->second, PipelineRole::kCoordinator);
    op_section("combiner operators (summed)", &shard,
               cs->upstream_op_metrics);
    op_section("coordinator operators", &fin, cs->op_metrics);
  } else {
    op_section("operators", central_->PipelineFor(id), cs->op_metrics);
    op_section("upstream operators (summed)", nullptr,
               cs->upstream_op_metrics);
  }
  // Memory-pressure ladder: printed only once any rung engaged, so a query
  // that never felt pressure reads exactly as before.
  if (cs->events_spilled > 0 || cs->events_shed > 0 ||
      cs->agent_events_shed > 0 || cs->spill_runs > 0) {
    out += StrFormat(
        "  pressure: spilled=%llu spill_runs=%llu spill_bytes=%llu "
        "write_failures=%llu read_failures=%llu shed=%llu agent_shed=%llu\n",
        static_cast<unsigned long long>(cs->events_spilled),
        static_cast<unsigned long long>(cs->spill_runs),
        static_cast<unsigned long long>(cs->spill_bytes),
        static_cast<unsigned long long>(cs->spill_write_failures),
        static_cast<unsigned long long>(cs->spill_read_failures),
        static_cast<unsigned long long>(cs->events_shed),
        static_cast<unsigned long long>(cs->agent_events_shed));
  }
  // High-water window-state mark. Live queries read the accountant; the
  // stamped snapshot keeps the honest figure after teardown released the
  // charges (the peak-survives-retirement fix).
  const uint64_t peak = std::max<uint64_t>(
      cs->peak_state_bytes, central_->accountant().peak(id));
  if (peak > 0) {
    out += StrFormat("  state peak: %llu bytes\n",
                     static_cast<unsigned long long>(peak));
  }
  if (cs->windows_closed > 0) {
    out += StrFormat(
        "  completeness: windows=%llu incomplete=%llu min=%.3f mean=%.3f\n",
        static_cast<unsigned long long>(cs->windows_closed),
        static_cast<unsigned long long>(cs->windows_incomplete),
        cs->completeness_min,
        cs->completeness_sum / static_cast<double>(cs->windows_closed));
    out += StrFormat(
        "  fidelity: lossy=%llu min=%.3f mean=%.3f\n",
        static_cast<unsigned long long>(cs->windows_lossy), cs->fidelity_min,
        cs->fidelity_sum / static_cast<double>(cs->windows_closed));
  }
  return out;
}

std::string ScrubSystem::ExplainAnalyze(QueryId id) const {
  const PhysicalPipeline* pipeline = central_->PipelineFor(id);
  const CentralQueryStats* cs = central_->StatsFor(id);
  std::string out;
  if (pipeline != nullptr) {
    // EXPLAIN ANALYZE proper: the compiled operator tree annotated with the
    // observed per-operator counters (plain EXPLAIN shape when metrics
    // collection is off or nothing has run yet).
    out += pipeline->ToString(
        cs != nullptr && !cs->op_metrics.empty() ? &cs->op_metrics : nullptr);
    if (!out.empty() && out.back() != '\n') {
      out += '\n';
    }
  } else if (coordinator_ != nullptr && hier_plans_.count(id) > 0) {
    // Hierarchical query: the physical plan spans two tiers. Render the
    // shard-role pipeline the combiners run (annotated with the partial-
    // envelope metrics summed at the coordinator) and the coordinator's
    // Finalize stage, compiled fresh from the retained plan.
    const CentralQueryStats* hs = coordinator_->StatsFor(id);
    const CentralPlan& plan = hier_plans_.at(id);
    const PhysicalPipeline shard =
        CompilePhysical(plan, PipelineRole::kShard);
    const PhysicalPipeline fin =
        CompilePhysical(plan, PipelineRole::kCoordinator);
    out += "combiner pipeline (summed across regions):\n";
    for (size_t i = 0; i < shard.ops.size(); ++i) {
      const OperatorMetrics* m =
          hs != nullptr && i < hs->upstream_op_metrics.size()
              ? &hs->upstream_op_metrics[i]
              : nullptr;
      out += "  " + AnnotateOp(shard.ops[i], m);
    }
    out += "coordinator pipeline:\n";
    for (size_t i = 0; i < fin.ops.size(); ++i) {
      const OperatorMetrics* m =
          hs != nullptr && i < hs->op_metrics.size() ? &hs->op_metrics[i]
                                                     : nullptr;
      out += "  " + AnnotateOp(fin.ops[i], m);
    }
  }
  out += DescribeQuery(id);
  // Facility-level pressure view: budgets and high-water marks from the
  // accountant, spill-layer totals across every query.
  const MemoryAccountant& acct = central_->accountant();
  if (acct.active()) {
    // A retired query's accountant entry is gone; the stamped snapshot
    // keeps the per-query peak honest post-mortem.
    const uint64_t query_peak = std::max<uint64_t>(
        acct.peak(id), cs != nullptr ? cs->peak_state_bytes : 0);
    out += StrFormat(
        "  state bytes: usage=%llu peak=%llu central_usage=%llu "
        "central_peak=%llu budget=%llu central_budget=%llu\n",
        static_cast<unsigned long long>(acct.usage(id)),
        static_cast<unsigned long long>(query_peak),
        static_cast<unsigned long long>(acct.total_usage()),
        static_cast<unsigned long long>(acct.peak_total()),
        static_cast<unsigned long long>(acct.per_key_budget()),
        static_cast<unsigned long long>(acct.total_budget()));
  }
  const SpillStats& spill = central_->spill_stats();
  if (spill.runs_opened > 0 || spill.open_failures > 0) {
    out += StrFormat(
        "  spill: runs=%llu open_failures=%llu written=%llu bytes=%llu "
        "write_failures=%llu replayed=%llu read_failures=%llu\n",
        static_cast<unsigned long long>(spill.runs_opened),
        static_cast<unsigned long long>(spill.open_failures),
        static_cast<unsigned long long>(spill.records_written),
        static_cast<unsigned long long>(spill.bytes_written),
        static_cast<unsigned long long>(spill.write_failures),
        static_cast<unsigned long long>(spill.records_replayed),
        static_cast<unsigned long long>(spill.read_failures));
  }
  return out;
}

OverheadReport ScrubSystem::HostOverhead(HostId host) const {
  const CostMeter& meter = registry_.meter(host);
  OverheadReport report;
  report.app_ns = meter.app_ns();
  report.scrub_ns = meter.scrub_ns();
  report.scrub_fraction = meter.ScrubCpuFraction();
  return report;
}

OverheadReport ScrubSystem::ServiceOverhead(std::string_view service) const {
  OverheadReport report;
  for (size_t i = 0; i < registry_.size(); ++i) {
    const HostInfo& info = registry_.Get(static_cast<HostId>(i));
    if (info.service != service) {
      continue;
    }
    const CostMeter& meter = registry_.meter(info.id);
    report.app_ns += meter.app_ns();
    report.scrub_ns += meter.scrub_ns();
  }
  const int64_t total = report.app_ns + report.scrub_ns;
  report.scrub_fraction =
      total == 0 ? 0.0 : static_cast<double>(report.scrub_ns) / total;
  return report;
}

OverheadReport ScrubSystem::TotalOverhead() const {
  OverheadReport report;
  for (size_t i = 0; i < registry_.size(); ++i) {
    const HostInfo& info = registry_.Get(static_cast<HostId>(i));
    if (!info.monitorable) {
      continue;
    }
    const CostMeter& meter = registry_.meter(info.id);
    report.app_ns += meter.app_ns();
    report.scrub_ns += meter.scrub_ns();
  }
  const int64_t total = report.app_ns + report.scrub_ns;
  report.scrub_fraction =
      total == 0 ? 0.0 : static_cast<double>(report.scrub_ns) / total;
  return report;
}

}  // namespace scrub
