// PartialCoordinator: the Finalize-stage merge node for every deployment
// that splits the pipeline at WindowClose.
//
// Shard-role centrals (ShardedCentral's shards, the regional combiners'
// inner centrals) stop at WindowClose and emit mergeable WindowPartials.
// Something must hold the global picture — per-slot host presence for
// completeness, per-host M_i / m_i for the Eq. 1-3 estimator, shed ledgers
// for fidelity — merge partials per (window, group) into the executor's
// GroupTable, and run Finalize exactly once per window. Finalize itself
// is the executor's FinalizeGroups, the same body a single instance runs,
// so the coordinator adds only the merge and the per-slot counter
// bookkeeping. ShardedCentral and the regional combiner tier (one network
// hop further out) both delegate to it.
//
// Differences from the embedded original (both inert for the synchronous
// sharded deployment, load-bearing for the distributed tier):
//
//  * Per-sender envelope dedup (AdmitSequenced) so retransmitted
//    combiner -> central partial envelopes never double-count.
//  * A closed_through watermark: once a window finalizes, later partials or
//    counters for it are dropped and counted (partials_late) instead of
//    silently re-creating — and double-emitting — the window. Combiner
//    partials arrive staggered (inner lateness + one hop + retransmit
//    rounds), so the coordinator's allowed_lateness should be extended by
//    the downstream pipeline depth; ScrubSystem does this.
//  * Per-query CentralQueryStats (live and retired) and a CostMeter, so
//    coordinator CPU is measurable (bench_fleet's second axis).

#ifndef SRC_CENTRAL_COORDINATOR_H_
#define SRC_CENTRAL_COORDINATOR_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "src/central/executor.h"

namespace scrub {

class PartialCoordinator {
 public:
  explicit PartialCoordinator(CentralConfig config = {})
      : config_(std::move(config)) {}

  // Aggregate-mode plans merge partials; raw-mode plans just forward rows
  // (ForwardRow) — the coordinator still tracks their stats and dedup.
  Status InstallQuery(const CentralPlan& plan, ResultSink sink);
  // Finalizes every held window, then retires the query's stats.
  void RemoveQuery(QueryId query_id);
  bool HasQuery(QueryId query_id) const {
    return coordinators_.count(query_id) > 0;
  }
  const CentralPlan* PlanFor(QueryId query_id) const;

  // Sequenced-sender dedup, one tracker per (sender, epoch): returns false
  // — and counts the duplicate — if this seq was already admitted. seq == 0
  // bypasses (unsequenced senders: ShardedCentral's hand-built batches).
  // Unknown queries return false (traffic raced teardown).
  bool AdmitSequenced(QueryId query_id, HostId sender, uint64_t epoch,
                      uint64_t seq);

  // Per-host sampling/completeness counters for one sender: hosts heard per
  // slide-grid slot, agent staging shed, and — for sampled plans — the
  // global M_i / m_i the Finalize estimator needs. `host` is the host the
  // counters describe (the agent), not the sender of the message; the
  // combiner tier forwards per-agent digests so the union over combiners
  // reconstructs the same global picture the flat topology sees.
  void AbsorbCounters(QueryId query_id, HostId host,
                      const std::vector<WindowCounter>& counters);

  // Merges one shard/region partial into the (window, group) state. Late
  // partials for already-finalized windows are dropped and counted.
  void AbsorbPartial(WindowPartial&& partial);

  // Raw-mode passthrough (each finished row is wholly resident on one
  // shard; no merge step).
  void ForwardRow(const ResultRow& row);

  // Finalizes windows whose lateness bound has passed, in ascending start
  // order (the closed_through watermark is monotone), and retires expired
  // queries.
  void OnTick(TimeMicros now);

  uint64_t DuplicateBatches(QueryId query_id) const;
  uint64_t LatePartials(QueryId query_id) const;
  // Live stats for an installed query, retired stats after expiry.
  const CentralQueryStats* StatsFor(QueryId query_id) const;
  const CostMeter& meter() const { return meter_; }
  const CentralConfig& config() const { return config_; }

 private:
  struct SlotCounters {
    std::map<HostId, HostCounts> hosts;
    uint64_t shed = 0;
  };

  // Central-side fidelity inputs for one window, summed over partials.
  struct WindowShed {
    uint64_t input_events = 0;
    uint64_t shed_events = 0;
  };

  struct Coordinator {
    CentralPlan plan;
    // Finalize-stage parameterization (coordinator role): which slots get
    // the per-group Eq. 1-3 bound, which fall back to the ratio scale.
    PhysicalPipeline pipeline;
    ResultSink sink;
    bool raw = false;  // raw-mode: forward rows, no merge state
    CentralQueryStats stats;
    // window -> group key -> merged accumulators and, for sampled plans,
    // per-host readings: the executor's GroupTable, merged from partials.
    std::map<TimeMicros, GroupTable> windows;
    // Sender-level dedup (per sender host, per epoch).
    std::unordered_map<HostId, std::map<uint64_t, SeqTracker>> dedup;
    // Per slide-grid slot: the hosts heard from (completeness) with their
    // M_i / m_i summed over the admitted batches/digests (the estimator),
    // and the agent staging shed (fidelity's agent part). A window sums the
    // slots it covers.
    std::map<TimeMicros, SlotCounters> slots;
    // Central-side fidelity inputs per window, merged from partials.
    std::map<TimeMicros, WindowShed> window_fidelity;
    // Windows at or before this start have finalized; later arrivals for
    // them are late, not a fresh window.
    TimeMicros closed_through = std::numeric_limits<TimeMicros>::min();
    uint64_t partials_late = 0;
  };

  // Gathers the window's completeness, fidelity and per-host counters from
  // the slide-grid slot maps, then runs the shared Finalize (FinalizeGroups).
  void FinalizeWindow(Coordinator& c, TimeMicros start, GroupTable& groups);

  CentralConfig config_;
  CostMeter meter_;
  std::unordered_map<QueryId, Coordinator> coordinators_;
  std::unordered_map<QueryId, CentralQueryStats> retired_stats_;
};

}  // namespace scrub

#endif  // SRC_CENTRAL_COORDINATOR_H_
