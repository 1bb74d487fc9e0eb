#include "src/server/query_server.h"

#include <algorithm>
#include <cmath>

#include "src/common/strings.h"
#include "src/query/parser.h"

namespace scrub {

QueryServer::QueryServer(Scheduler* scheduler, Transport* transport,
                         HostRegistry* registry, const SchemaRegistry* schemas,
                         ScrubCentral* central, HostId server_host,
                         HostId central_host, AgentAccessor agents,
                         ServerConfig config)
    : scheduler_(scheduler),
      transport_(transport),
      registry_(registry),
      schemas_(schemas),
      central_(central),
      server_host_(server_host),
      central_host_(central_host),
      agents_(std::move(agents)),
      config_(config),
      rng_(config.host_sampling_seed),
      ctrl_rng_(config.host_sampling_seed ^ 0xA5A5A5A5A5A5A5A5ULL) {}

Result<SubmittedQuery> QueryServer::Submit(std::string_view query_text,
                                           ResultSink user_sink) {
  Result<Query> parsed = ParseQuery(query_text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return SubmitParsed(*parsed, std::move(user_sink));
}

Result<SubmittedQuery> QueryServer::SubmitParsed(const Query& query,
                                                 ResultSink user_sink) {
  if (active_.size() >= config_.max_active_queries) {
    return ResourceExhausted(StrFormat(
        "query limit reached (%zu active); retry after some expire",
        active_.size()));
  }
  Result<AnalyzedQuery> analyzed =
      Analyze(query, *schemas_, config_.analyzer);
  if (!analyzed.ok()) {
    return analyzed.status();
  }

  // Static analysis gate: errors reject before any query object ships;
  // warnings and notes travel back with the accepted query.
  std::vector<Diagnostic> lint_warnings;
  if (config_.lint_enabled) {
    LintOptions lint_options = config_.lint;
    lint_options.fleet_hosts = registry_->MonitorableCount();
    lint_options.max_duration_micros = config_.analyzer.max_duration_micros;
    std::vector<Diagnostic> diags = LintQuery(*analyzed, lint_options);
    if (HasLintErrors(diags)) {
      std::string rendered;
      for (const Diagnostic& d : diags) {
        if (d.severity == LintSeverity::kError) {
          if (!rendered.empty()) {
            rendered += "; ";
          }
          rendered += RenderDiagnostic(d);
        }
      }
      return InvalidArgument("rejected by lint: " + rendered);
    }
    lint_warnings = std::move(diags);
  }

  // Predicted-cost admission: under heavy multi-tenant traffic the query
  // limit alone cannot protect central — 64 cheap queries and 64 full-fleet
  // unsampled scans are very different loads. Predict this query's central
  // CPU demand from the (possibly runtime-calibrated) cost model and admit
  // only if the running sum stays under budget.
  uint64_t predicted_cost = 0;
  if (config_.central_cpu_budget_ns_per_sec > 0) {
    LintOptions lint_options = config_.lint;
    lint_options.fleet_hosts = registry_->MonitorableCount();
    predicted_cost = PredictCentralCostNsPerSec(*analyzed, lint_options);
    if (admitted_cost_ns_ + predicted_cost >
        config_.central_cpu_budget_ns_per_sec) {
      ++rejected_cost_;
      return ResourceExhausted(StrFormat(
          "predicted central cost %llu ns/s exceeds remaining budget "
          "(%llu of %llu ns/s admitted); retry after some queries expire",
          static_cast<unsigned long long>(predicted_cost),
          static_cast<unsigned long long>(admitted_cost_ns_),
          static_cast<unsigned long long>(
              config_.central_cpu_budget_ns_per_sec)));
    }
  }

  // Resolve the target clause BEFORE minting the id: a bad clause fails the
  // submission outright.
  Result<std::vector<HostId>> targeted =
      registry_->Resolve(analyzed->query.targets);
  if (!targeted.ok()) {
    return targeted.status();
  }
  if (targeted->empty()) {
    return NotFound("target clause matches no hosts");
  }

  const QueryId id = next_query_id_++;
  Result<QueryPlan> plan = PlanQuery(*analyzed, id, scheduler_->Now());
  if (!plan.ok()) {
    return plan.status();
  }

  // Host-level sampling: a uniform subset of the targeted hosts.
  std::vector<HostId> chosen = *targeted;
  const double rate = analyzed->query.host_sample_rate;
  if (rate < 1.0) {
    // Fisher-Yates prefix shuffle with the server's deterministic RNG.
    for (size_t i = 0; i + 1 < chosen.size(); ++i) {
      const size_t j =
          i + static_cast<size_t>(rng_.NextBelow(chosen.size() - i));
      std::swap(chosen[i], chosen[j]);
    }
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(
               std::llround(rate * static_cast<double>(chosen.size()))));
    chosen.resize(n);
    std::sort(chosen.begin(), chosen.end());
  }

  plan->central.hosts_targeted = targeted->size();
  plan->central.hosts_sampled = chosen.size();

  // Agent-side pre-aggregation ablation: stamp the host plan only when the
  // host-side fold is provably the central fold — a single-source,
  // unsampled aggregate query whose aggregates are all plain COUNT/SUM.
  // Sampled plans are excluded because Eq. 2-3 error bounds need per-host
  // readings no delta cell can carry; sketches/min-max stay central-side.
  if (config_.agent_preaggregate && plan->central.aggregate_mode &&
      !plan->central.is_join() && !plan->central.SamplingActive()) {
    bool eligible = true;
    for (const AggregateSpec& spec : plan->central.aggregates) {
      if (spec.func != AggregateFunc::kCount &&
          spec.func != AggregateFunc::kSum) {
        eligible = false;
        break;
      }
    }
    if (eligible) {
      plan->host.preaggregate = true;
      plan->host.group_by_programs = plan->central.group_by_programs;
      plan->host.preagg.reserve(plan->central.aggregates.size());
      for (const AggregateSpec& spec : plan->central.aggregates) {
        HostPlan::PreAggSpec p;
        p.func = spec.func;
        p.has_arg = spec.has_arg;
        p.arg_program = spec.arg_program;
        plan->host.preagg.push_back(std::move(p));
      }
    }
  }

  ActiveInfo info;
  info.installed_hosts = chosen;
  info.end_time = plan->host.end_time;
  info.host_plan = plan->host;
  info.central_plan = plan->central;
  // Result rows route central -> server -> user.
  info.routed_sink = [this, sink = std::move(user_sink)](
                         const ResultRow& row) {
    size_t bytes = 24;
    for (const Value& v : row.values) {
      bytes += v.WireSize();
    }
    transport_->Send(central_host_, server_host_, bytes,
                     TrafficCategory::kScrubResults,
                     [sink, row] { sink(row); });
  };
  info.unacked_installs.insert(chosen.begin(), chosen.end());
  info.predicted_cost_ns_per_sec = predicted_cost;
  admitted_cost_ns_ += predicted_cost;
  active_.emplace(id, std::move(info));
  Disseminate(id);

  // Schedule teardown just past the span (agents and central self-expire
  // too; the explicit teardown frees state promptly when messages arrive).
  scheduler_->ScheduleAt(plan->host.end_time + 1, [this, id] { Teardown(id); });

  SubmittedQuery out;
  out.id = id;
  out.hosts_targeted = targeted->size();
  out.hosts_installed = chosen.size();
  out.start_time = plan->host.start_time;
  out.end_time = plan->host.end_time;
  out.lint_warnings = std::move(lint_warnings);
  return out;
}

TimeMicros QueryServer::Jittered(TimeMicros base) {
  const TimeMicros quarter = std::max<TimeMicros>(base / 4, 1);
  return base - quarter +
         static_cast<TimeMicros>(
             ctrl_rng_.NextBelow(static_cast<uint64_t>(2 * quarter)));
}

void QueryServer::Disseminate(QueryId id) {
  ActiveInfo& info = active_.at(id);
  ControlStats& cs = control_stats_[id];
  // Central first: its query object carries the join/group-by/aggregation
  // operators.
  ++cs.install_sends;
  SendCentralInstall(id);
  // Then the host-side query objects: selection + projection + sampling.
  for (const HostId host : info.installed_hosts) {
    ++cs.install_sends;
    SendHostInstall(id, host);
  }
  info.retry_backoff = config_.control_retry_timeout;
  ScheduleInstallRetry(id);
}

void QueryServer::SendCentralInstall(QueryId id) {
  const ActiveInfo& info = active_.at(id);
  const CentralPlan central_plan = info.central_plan;
  const ResultSink routed = info.routed_sink;
  transport_->Send(
      server_host_, central_host_, 256, TrafficCategory::kScrubControl,
      [this, central_plan, routed] {
        // Install failures here are programming errors (the plan was
        // validated at submission); a re-send hits AlreadyExists, which is
        // exactly the idempotence we want — ack either way.
        if (config_.central_install) {
          (void)config_.central_install(central_plan, routed);
        } else {
          (void)central_->InstallQuery(central_plan, routed);
        }
        const QueryId qid = central_plan.query_id;
        transport_->Send(central_host_, server_host_, 24,
                         TrafficCategory::kScrubControl,
                         [this, qid] { HandleCentralAck(qid); });
      });
}

void QueryServer::SendHostInstall(QueryId id, HostId host) {
  const HostPlan host_plan = active_.at(id).host_plan;
  transport_->Send(
      server_host_, host, host_plan.WireSize(),
      TrafficCategory::kScrubControl, [this, host, host_plan] {
        ScrubAgent* agent = agents_(host);
        if (agent == nullptr) {
          return;
        }
        agent->InstallQuery(host_plan);
        const QueryId qid = host_plan.query_id;
        transport_->Send(host, server_host_, 24,
                         TrafficCategory::kScrubControl,
                         [this, qid, host] { HandleInstallAck(qid, host); });
      });
}

void QueryServer::ScheduleInstallRetry(QueryId id) {
  const TimeMicros delay = Jittered(active_.at(id).retry_backoff);
  scheduler_->ScheduleAfter(delay, [this, id] { InstallRetryTick(id); });
}

void QueryServer::InstallRetryTick(QueryId id) {
  const auto it = active_.find(id);
  if (it == active_.end()) {
    return;  // torn down or cancelled
  }
  ActiveInfo& info = it->second;
  if (scheduler_->Now() >= info.end_time) {
    return;  // span over; self-expiry owns cleanup now
  }
  if (info.central_acked && info.unacked_installs.empty()) {
    return;  // fully disseminated
  }
  ControlStats& cs = control_stats_[id];
  if (!info.central_acked) {
    ++cs.install_retries;
    SendCentralInstall(id);
  }
  for (const HostId host : info.unacked_installs) {
    ++cs.install_retries;
    SendHostInstall(id, host);
  }
  info.retry_backoff =
      std::min(info.retry_backoff * 2, config_.control_retry_max_backoff);
  ScheduleInstallRetry(id);
}

void QueryServer::HandleInstallAck(QueryId id, HostId host) {
  ++control_stats_[id].install_acks;
  const auto it = active_.find(id);
  if (it != active_.end()) {
    it->second.unacked_installs.erase(host);
  }
}

void QueryServer::HandleCentralAck(QueryId id) {
  ++control_stats_[id].install_acks;
  const auto it = active_.find(id);
  if (it != active_.end()) {
    it->second.central_acked = true;
  }
}

void QueryServer::OnHostRestart(HostId host) {
  const TimeMicros now = scheduler_->Now();
  for (auto& [id, info] : active_) {
    if (now >= info.end_time) {
      continue;
    }
    if (std::find(info.installed_hosts.begin(), info.installed_hosts.end(),
                  host) == info.installed_hosts.end()) {
      continue;
    }
    ControlStats& cs = control_stats_[id];
    ++cs.reinstalls;
    info.unacked_installs.insert(host);
    SendHostInstall(id, host);
    info.retry_backoff = config_.control_retry_timeout;
    ScheduleInstallRetry(id);
  }
}

void QueryServer::SendTeardown(QueryId id, HostId host) {
  transport_->Send(
      server_host_, host, 32, TrafficCategory::kScrubControl,
      [this, host, id] {
        ScrubAgent* agent = agents_(host);
        if (agent == nullptr) {
          return;
        }
        agent->RemoveQuery(id);
        transport_->Send(host, server_host_, 24,
                         TrafficCategory::kScrubControl,
                         [this, id, host] { HandleTeardownAck(id, host); });
      });
}

void QueryServer::Teardown(QueryId id) {
  const auto it = active_.find(id);
  if (it == active_.end()) {
    return;
  }
  ControlStats& cs = control_stats_[id];
  PendingTeardown pending;
  pending.unacked.insert(it->second.installed_hosts.begin(),
                         it->second.installed_hosts.end());
  pending.backoff = config_.control_retry_timeout;
  for (const HostId host : it->second.installed_hosts) {
    ++cs.teardown_sends;
    SendTeardown(id, host);
  }
  // Central keeps the query alive until end_time + allowed lateness so the
  // final windows drain; its own OnTick retires it. The query's predicted
  // cost charge is released with it.
  admitted_cost_ns_ -=
      std::min(admitted_cost_ns_, it->second.predicted_cost_ns_per_sec);
  active_.erase(it);
  if (!pending.unacked.empty()) {
    const TimeMicros delay = Jittered(pending.backoff);
    teardowns_.emplace(id, std::move(pending));
    scheduler_->ScheduleAfter(delay, [this, id] { TeardownRetryTick(id); });
  }
}

void QueryServer::TeardownRetryTick(QueryId id) {
  const auto it = teardowns_.find(id);
  if (it == teardowns_.end()) {
    return;
  }
  PendingTeardown& pending = it->second;
  if (pending.unacked.empty() ||
      pending.attempts >= config_.teardown_max_attempts) {
    // Fully acked, or budget spent: self-expiry is the backstop for any
    // host that stayed unreachable.
    teardowns_.erase(it);
    return;
  }
  ++pending.attempts;
  ControlStats& cs = control_stats_[id];
  for (const HostId host : pending.unacked) {
    ++cs.teardown_retries;
    SendTeardown(id, host);
  }
  pending.backoff =
      std::min(pending.backoff * 2, config_.control_retry_max_backoff);
  const TimeMicros delay = Jittered(pending.backoff);
  scheduler_->ScheduleAfter(delay, [this, id] { TeardownRetryTick(id); });
}

void QueryServer::HandleTeardownAck(QueryId id, HostId host) {
  ++control_stats_[id].teardown_acks;
  const auto it = teardowns_.find(id);
  if (it == teardowns_.end()) {
    return;
  }
  it->second.unacked.erase(host);
  if (it->second.unacked.empty()) {
    teardowns_.erase(it);
  }
}

Status QueryServer::Cancel(QueryId id) {
  const auto it = active_.find(id);
  if (it == active_.end()) {
    return NotFound(StrFormat("query %llu is not active",
                              static_cast<unsigned long long>(id)));
  }
  // Central removal is single-shot: a lost cancel leaves central running
  // until its own span-end self-expiry, which is acceptable.
  transport_->Send(server_host_, central_host_, 32,
                   TrafficCategory::kScrubControl, [this, id] {
                     if (config_.central_remove) {
                       config_.central_remove(id);
                     } else {
                       central_->RemoveQuery(id);
                     }
                   });
  // Agent removal goes through the reliable teardown machinery.
  Teardown(id);
  return OkStatus();
}

const ControlStats* QueryServer::ControlStatsFor(QueryId id) const {
  const auto it = control_stats_.find(id);
  return it == control_stats_.end() ? nullptr : &it->second;
}

}  // namespace scrub
