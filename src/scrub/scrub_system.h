// ScrubSystem: the top-level harness wiring the whole reproduction together.
//
// One object owns the simulated cluster (scheduler, host registry,
// transport), the synthetic bidding platform, a ScrubAgent per application
// host, ScrubCentral, and the query server. This is the public API the
// examples and benchmarks use:
//
//   ScrubSystem system;
//   system.workload().SchedulePoissonLoad(...);
//   auto submitted = system.Submit(
//       "SELECT bid.user_id, COUNT(*) FROM bid "
//       "@[SERVICE IN BidServers] GROUP BY bid.user_id DURATION 2 m;",
//       [](const ResultRow& row) { ... });
//   system.RunUntil(3 * kMicrosPerMinute);
//
// Time is simulated; RunUntil drives traffic, agent flushes, transport
// deliveries and window closes deterministically.

#ifndef SRC_SCRUB_SCRUB_SYSTEM_H_
#define SRC_SCRUB_SCRUB_SYSTEM_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/agent/agent.h"
#include "src/bidsim/platform.h"
#include "src/common/worker_pool.h"
#include "src/bidsim/workload.h"
#include "src/central/central.h"
#include "src/central/coordinator.h"
#include "src/cluster/combiner.h"
#include "src/cluster/host_registry.h"
#include "src/cluster/scheduler.h"
#include "src/cluster/transport.h"
#include "src/server/query_server.h"

namespace scrub {

struct SystemConfig {
  PlatformConfig platform;
  AgentConfig agent;
  CentralConfig central;
  ServerConfig server;
  TransportConfig transport;
  // Agents batch-and-ship on this cadence; central closes windows on it.
  TimeMicros flush_interval = 500 * kMicrosPerMilli;
  // Worker threads fanning agent flush/retransmit evaluation across
  // simulated hosts each tick (0 = inline on the caller). Results are
  // bit-identical for every value: each host keeps its own RNG streams, and
  // batches are handed to the transport in host order after the pool joins,
  // before the simulated clock advances.
  size_t workers = 0;
  uint64_t seed = 1;
  // When false the platform runs un-instrumented (the A side of the
  // overhead experiments E7/E8).
  bool scrub_enabled = true;
  // Hierarchical aggregation (million-host fleets): number of regional
  // combiner nodes. 0 (default) is the flat topology — agents ship straight
  // to central. With N > 0 regions, combiner r lives in DC (r mod
  // datacenters); each monitorable host routes its aggregate-query batches
  // to a combiner in its own DC (round-robin within the DC when a DC hosts
  // several), which folds them and ships compact WindowPartials + counter
  // digests to the central coordinator. Raw-mode and join queries keep the
  // flat path regardless (the paper's host rule).
  size_t combiner_regions = 0;
  // Chaos: installed on the transport at construction. Deterministic per
  // FaultPlan::seed; an inert plan (the default) injects nothing.
  FaultPlan faults;
};

struct OverheadReport {
  int64_t app_ns = 0;
  int64_t scrub_ns = 0;
  double scrub_fraction = 0.0;  // scrub / (app + scrub)
};

class ScrubSystem {
 public:
  explicit ScrubSystem(SystemConfig config = {});

  // Submit a Scrub query; rows arrive on `sink` as windows close.
  Result<SubmittedQuery> Submit(std::string_view query_text, ResultSink sink);

  // Advances simulated time, pumping traffic, agent flushes and central
  // window closes.
  void RunUntil(TimeMicros until);
  // Runs a little further so in-flight batches land and the final windows
  // close; call once after the workload's horizon.
  void Drain();
  TimeMicros Now() const { return scheduler_.Now(); }

  // ---- Chaos controls ----
  // Replaces the transport's fault plan (reseeding its fault RNG).
  void SetFaultPlan(FaultPlan plan);
  // Schedules a host crash at `down_at` and, if `up_at > down_at`, a
  // restart. A crashed host sends/receives nothing and its agent's staged
  // state is lost; the restarted host gets a fresh agent with a bumped
  // epoch, and the query server re-disseminates its still-live queries.
  void ScheduleCrash(HostId host, TimeMicros down_at, TimeMicros up_at = 0);

  // ---- Component access ----
  Scheduler& scheduler() { return scheduler_; }
  HostRegistry& registry() { return registry_; }
  Transport& transport() { return transport_; }
  SchemaRegistry& schemas() { return schemas_; }
  BiddingPlatform& platform() { return *platform_; }
  WorkloadDriver& workload() { return *workload_; }
  ScrubCentral& central() { return *central_; }
  QueryServer& server() { return *server_; }
  ScrubAgent* agent(HostId host);

  // ---- Hierarchical topology (combiner_regions > 0) ----
  bool hierarchical() const { return coordinator_ != nullptr; }
  // The coordinator front-end merging combiner partials (null when flat).
  const PartialCoordinator* coordinator() const { return coordinator_.get(); }
  // Combiner hosts in ascending id order (empty when flat).
  std::vector<HostId> combiner_hosts() const;
  const RegionalCombiner* combiner(HostId host) const;
  // The combiner a monitorable host's aggregate batches route to
  // (kInvalidHost when flat or unknown).
  HostId combiner_for(HostId host) const;

  // Renders the host/central plan split for a query WITHOUT running it
  // (EXPLAIN): what each host would filter/project, what central would
  // compute, how sampling scales results.
  std::string Explain(std::string_view query_text) const;

  // Observation tap: called for every event logged on a live host, before
  // agent-side processing (sampling, selection, projection). The
  // differential-oracle tests record the ground-truth stream here. Only
  // active while scrub_enabled is true (the tap rides the instrumentation
  // hook).
  void SetEventTap(std::function<void(HostId, const Event&)> tap) {
    event_tap_ = std::move(tap);
  }

  // Static analysis only (the same rules the server runs at admission, with
  // the live fleet size and flush cadence): parse + analyze + lint, no plan,
  // no execution. Parse/analysis failures surface as the error status.
  Result<std::vector<Diagnostic>> Lint(std::string_view query_text) const;

  // Lint options as admission sees them (fleet size and flush cadence
  // resolved from the running system).
  LintOptions LintConfig() const;

  // Runtime diagnostics for a submitted query: per-host agent counters
  // (considered / sampled out / filtered / shipped / dropped) and central
  // counters (ingested / late / joined / rows). Works during the query's
  // span and after retirement.
  std::string DescribeQuery(QueryId id) const;

  // EXPLAIN ANALYZE: the compiled physical pipeline of an *installed* query
  // annotated with its runtime counters (DescribeQuery's view) plus the
  // central's memory-pressure ledger — state-byte usage and high-water
  // marks against the configured budgets, and spill-layer totals. The
  // pipeline and budget sections need the query still installed; the
  // counter section works after retirement too.
  std::string ExplainAnalyze(QueryId id) const;

  // Re-derives the lint cost model's central unit costs from the operator
  // metrics observed so far (decode -> central_ingest_ns, join ->
  // central_join_probe_ns, fold -> central_group_update_ns; operators with
  // no observed rows keep their configured cost). The calibrated model is
  // installed into the server's admission linter — and into its
  // predicted-cost admission check — and returned for inspection.
  CostModel CalibrateLintCosts();

  // ---- Measurement ----
  OverheadReport HostOverhead(HostId host) const;
  OverheadReport ServiceOverhead(std::string_view service) const;
  OverheadReport TotalOverhead() const;
  HostId central_host() const { return central_host_; }

 private:
  void PumpFlushes();
  void RestartHost(HostId host);
  uint64_t AgentSeed(HostId host, uint64_t epoch) const;
  // Hierarchical control plane (invoked via the server's central_install /
  // central_remove hooks). Eligible aggregate plans fan out to every
  // combiner and register at the coordinator; everything else falls back to
  // the flat ScrubCentral.
  Status InstallHierQuery(const CentralPlan& plan, ResultSink sink);
  void RemoveHierQuery(QueryId id);
  CombinerConfig MakeCombinerConfig(size_t region) const;
  void SendBatchToCentral(HostId from, EventBatch batch);
  void SendBatchToCombiner(HostId from, HostId chost, EventBatch batch);
  void PumpCombiners(TimeMicros now);

  SystemConfig config_;
  Scheduler scheduler_;
  HostRegistry registry_;
  Transport transport_;
  SchemaRegistry schemas_;
  std::unique_ptr<BiddingPlatform> platform_;
  std::unique_ptr<WorkloadDriver> workload_;
  std::unique_ptr<ScrubCentral> central_;
  std::unique_ptr<QueryServer> server_;
  std::unordered_map<HostId, std::unique_ptr<ScrubAgent>> agents_;
  // Monitorable hosts in ascending id order: the deterministic iteration
  // (and transport submission) order PumpFlushes uses regardless of how
  // many pool workers ran the per-host flush work.
  std::vector<HostId> agent_hosts_;
  WorkerPool pool_;
  std::function<void(HostId, const Event&)> event_tap_;
  std::unordered_map<HostId, uint64_t> epochs_;  // incarnation per host
  HostId central_host_ = kInvalidHost;
  HostId server_host_ = kInvalidHost;
  // Hierarchical tier (empty / null when combiner_regions == 0).
  std::unique_ptr<PartialCoordinator> coordinator_;
  std::map<HostId, std::unique_ptr<RegionalCombiner>> combiners_;
  std::vector<HostId> combiner_host_order_;      // by region index
  std::unordered_map<HostId, HostId> agent_combiner_;  // agent -> combiner
  // Combiner-eligible central plans, kept for crash-restart reinstalls and
  // per-batch routing (agents route these to their combiner).
  std::map<QueryId, CentralPlan> hier_plans_;
  // The coordinator's extended straggler grace: partials lag raw batches by
  // the inner central's lateness plus the extra hop and retransmit rounds.
  TimeMicros coordinator_lateness_ = 0;
  TimeMicros last_flush_ = 0;
};

}  // namespace scrub

#endif  // SRC_SCRUB_SCRUB_SYSTEM_H_
