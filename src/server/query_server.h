// The Scrub query server (Section 4, Figure 3).
//
// Users submit query text here. The server parses and validates the query,
// mints a unique query identifier, splits it into host-side and central-side
// query objects, resolves the @[...] target clause against the host
// registry, applies host-level sampling, and disseminates the query objects:
// selection/projection plans to the chosen application hosts,
// join/group-by/aggregation plans to ScrubCentral. Result rows flow back
// from ScrubCentral through the server to the submitting user's sink.
//
// Every query has a finite span; at expiry the server sends teardown
// messages (and agents/central also self-expire, so a lost teardown cannot
// leave load behind).
//
// Control-plane reliability: every install and teardown is acked by its
// recipient, and the server retries unacked messages with exponential
// backoff + jitter — installs until every chosen host and central have
// acked (or the span ends), teardowns a bounded number of times (agents
// self-expire, so teardown retries are an optimization, not a correctness
// requirement). A host that restarts mid-span gets its still-live query
// objects re-disseminated via OnHostRestart.

#ifndef SRC_SERVER_QUERY_SERVER_H_
#define SRC_SERVER_QUERY_SERVER_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/agent/agent.h"
#include "src/central/central.h"
#include "src/cluster/host_registry.h"
#include "src/cluster/scheduler.h"
#include "src/cluster/transport.h"
#include "src/common/rng.h"
#include "src/lint/lint.h"
#include "src/query/analyzer.h"

namespace scrub {

// How the server reaches the agent running on a given host. The simulation
// harness owns the agents; the server only addresses them.
using AgentAccessor = std::function<ScrubAgent*(HostId)>;

struct ServerConfig {
  AnalyzerOptions analyzer;
  // Static analysis at admission (Section 3.2's operational discipline made
  // mechanical): error-severity findings reject the submission before any
  // query object reaches a host; warnings/notes ride back on the accepted
  // SubmittedQuery. `lint.fleet_hosts` is overridden with the live registry
  // count at each submission.
  bool lint_enabled = true;
  LintOptions lint;
  uint64_t host_sampling_seed = 0x5eed;
  // Admission control: Scrub serves many users at once, but a runaway
  // script submitting queries in a loop must not be able to blanket the
  // fleet. Submissions beyond this are rejected with kResourceExhausted.
  size_t max_active_queries = 64;
  // Control-plane retry policy: first retry after this timeout, doubling
  // per round (capped), with +/-25% jitter.
  TimeMicros control_retry_timeout = 250 * kMicrosPerMilli;
  TimeMicros control_retry_max_backoff = 2 * kMicrosPerSecond;
  // Teardown retries are bounded: self-expiry is the backstop, so a host
  // that stays unreachable must not be paged forever.
  int teardown_max_attempts = 4;
  // Hierarchical deployments route central-side installs/removals through
  // a coordinator front-end (ScrubSystem overrides these when a combiner
  // tier is configured). Unset means the plain ScrubCentral passed at
  // construction — the flat topology.
  std::function<Status(const CentralPlan&, ResultSink)> central_install;
  std::function<void(QueryId)> central_remove;
  // Paper-faithful ablation: stamp eligible COUNT/SUM-only aggregate
  // queries for agent-side pre-aggregation (HostPlan::preaggregate), the
  // relaxation of the paper's strict hosts-select-only rule.
  bool agent_preaggregate = false;
  // Predicted-cost admission control for heavy multi-tenant traffic: each
  // submission's central CPU demand is predicted from the lint cost model
  // (PredictCentralCostNsPerSec) and the sum over live queries must stay
  // under this budget, else the submission is rejected with
  // kResourceExhausted. 0 (default) disables the check. Calibrating the
  // lint cost model from observed operator metrics tightens the prediction
  // (ScrubSystem::CalibrateLintCosts).
  uint64_t central_cpu_budget_ns_per_sec = 0;
};

// Per-query control-plane delivery accounting; retained after teardown.
struct ControlStats {
  uint64_t install_sends = 0;      // initial host + central install messages
  uint64_t install_retries = 0;    // re-sent unacked installs
  uint64_t install_acks = 0;
  uint64_t reinstalls = 0;         // restart-triggered re-dissemination
  uint64_t teardown_sends = 0;
  uint64_t teardown_retries = 0;
  uint64_t teardown_acks = 0;
};

struct SubmittedQuery {
  QueryId id = 0;
  size_t hosts_targeted = 0;   // N: hosts matched by the target clause
  size_t hosts_installed = 0;  // n: after host-level sampling
  TimeMicros start_time = 0;
  TimeMicros end_time = 0;
  // Non-fatal lint findings (warnings/notes) for the accepted query.
  std::vector<Diagnostic> lint_warnings;
};

class QueryServer {
 public:
  QueryServer(Scheduler* scheduler, Transport* transport,
              HostRegistry* registry, const SchemaRegistry* schemas,
              ScrubCentral* central, HostId server_host, HostId central_host,
              AgentAccessor agents, ServerConfig config = {});

  // Parse + validate + plan + disseminate. Rows arrive on `user_sink` as
  // windows close at ScrubCentral.
  Result<SubmittedQuery> Submit(std::string_view query_text,
                                ResultSink user_sink);
  Result<SubmittedQuery> SubmitParsed(const Query& query,
                                      ResultSink user_sink);

  // Early cancellation (before the span expires).
  Status Cancel(QueryId id);

  // The simulation harness reports a crashed host coming back: any of the
  // host's still-live query objects are re-disseminated (the fresh agent
  // lost them with the crash).
  void OnHostRestart(HostId host);

  size_t active_queries() const { return active_.size(); }
  uint64_t queries_submitted() const { return next_query_id_ - 1; }
  // Unacked teardowns still being retried (introspection for tests).
  size_t pending_teardowns() const { return teardowns_.size(); }
  const ControlStats* ControlStatsFor(QueryId id) const;
  // Replaces the lint cost model (admission linting AND the predicted-cost
  // admission check pick up the new unit costs immediately). Used by
  // ScrubSystem::CalibrateLintCosts.
  void SetLintCosts(const CostModel& costs) { config_.lint.costs = costs; }
  // Predicted-cost admission accounting: the live sum of admitted
  // predictions and how many submissions the budget rejected.
  uint64_t admitted_cost_ns_per_sec() const { return admitted_cost_ns_; }
  uint64_t queries_rejected_cost() const { return rejected_cost_; }

 private:
  struct ActiveInfo {
    std::vector<HostId> installed_hosts;
    TimeMicros end_time = 0;
    // Retained for re-sends (retry, restart re-dissemination).
    HostPlan host_plan;
    CentralPlan central_plan;
    ResultSink routed_sink;
    std::unordered_set<HostId> unacked_installs;
    bool central_acked = false;
    TimeMicros retry_backoff = 0;
    // This query's predicted central demand, released at teardown.
    uint64_t predicted_cost_ns_per_sec = 0;
  };

  struct PendingTeardown {
    std::unordered_set<HostId> unacked;
    int attempts = 1;  // the initial send
    TimeMicros backoff = 0;
  };

  void Disseminate(QueryId id);
  void SendCentralInstall(QueryId id);
  void SendHostInstall(QueryId id, HostId host);
  void ScheduleInstallRetry(QueryId id);
  void InstallRetryTick(QueryId id);
  void HandleInstallAck(QueryId id, HostId host);
  void HandleCentralAck(QueryId id);
  void Teardown(QueryId id);
  void SendTeardown(QueryId id, HostId host);
  void TeardownRetryTick(QueryId id);
  void HandleTeardownAck(QueryId id, HostId host);
  // Backoff +/-25% jitter from the control stream (separate from host
  // sampling, so retries never perturb which hosts a query lands on).
  TimeMicros Jittered(TimeMicros base);

  Scheduler* scheduler_;
  Transport* transport_;
  HostRegistry* registry_;
  const SchemaRegistry* schemas_;
  ScrubCentral* central_;
  HostId server_host_;
  HostId central_host_;
  AgentAccessor agents_;
  ServerConfig config_;
  Rng rng_;
  Rng ctrl_rng_;
  QueryId next_query_id_ = 1;
  std::unordered_map<QueryId, ActiveInfo> active_;
  std::unordered_map<QueryId, PendingTeardown> teardowns_;
  std::unordered_map<QueryId, ControlStats> control_stats_;
  uint64_t admitted_cost_ns_ = 0;  // sum of live predicted costs
  uint64_t rejected_cost_ = 0;     // submissions the cost budget rejected
};

}  // namespace scrub

#endif  // SRC_SERVER_QUERY_SERVER_H_
