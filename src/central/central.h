// ScrubCentral: the dedicated centralized query-execution facility.
//
// Everything the language allows beyond selection/projection executes here
// (Section 4): the implicit equi-join on request id, tumbling-window
// assignment, group-by, exact aggregation (COUNT/SUM/AVG/MIN/MAX),
// probabilistic aggregation (TOP-K via SpaceSaving, COUNT_DISTINCT via
// HyperLogLog), and the sampling estimator of Equations 1-3.
//
// Execution model: batches arrive from host agents; events are decoded,
// window-assigned by their host-side timestamp, joined per request id
// within a window, and folded into per-(window, group) accumulators. A
// window closes once the clock passes its end plus an allowed-lateness
// grace (covering cross-DC transit and agent flush cadence); closing emits
// result rows to the registered sink. Late events landing in a closed
// window are counted and dropped — accuracy traded for bounded state,
// exactly the paper's stance.
//
// ScrubCentral itself is a thin facility adapter: it owns query lifecycle
// (install / dedup / retire) and maps every ingest entry point onto the
// physical-operator Executor (src/central/executor.h), which interprets the
// pipeline CompilePhysical() built from the plan. Every event reaches that
// one executor as a ColumnBatch selection, whatever the shard role.

#ifndef SRC_CENTRAL_CENTRAL_H_
#define SRC_CENTRAL_CENTRAL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/central/executor.h"

namespace scrub {

class ScrubCentral {
 public:
  ScrubCentral(const SchemaRegistry* registry, CentralConfig config = {})
      : registry_(registry), config_(config) {
    accountant_.set_budgets(config_.query_state_budget_bytes,
                            config_.central_state_budget_bytes);
    accountant_.set_tracking(config_.track_state_bytes);
    spill_.Configure(config_.spill_dir, config_.spill_instance,
                     config_.spill_seed, config_.spill_faults);
  }

  // Registers a query; rows will flow to `sink` as windows close. Compiles
  // the single-instance pipeline (every stage, Finalize included).
  Status InstallQuery(const CentralPlan& plan, ResultSink sink);
  // Shard mode: windows close by emitting mergeable per-group partials
  // instead of finalized rows (aggregate-mode plans only; the coordinator
  // merges and finalizes). Sampled plans shard too: the compiled shard
  // pipeline collects per-(group, host) readings and the coordinator runs
  // the Eq. 1-3 estimator over globally merged counters.
  Status InstallQueryPartial(const CentralPlan& plan, PartialSink sink);
  // Finalizes every open window (emitting rows) and forgets the query.
  void RemoveQuery(QueryId query_id);
  bool HasQuery(QueryId query_id) const { return queries_.count(query_id) > 0; }

  // Ingests one host batch (decodes payload against the schema registry).
  Status IngestBatch(const EventBatch& batch, TimeMicros now);

  // Sharded-router fast path: folds the selected rows of an already-decoded,
  // already-deduplicated ColumnBatch from `host` straight into accumulators.
  // The router dedups before re-bucketing and owns counter accounting, so
  // this skips both; window assignment, the request-id join, grouping and
  // accumulation are exactly IngestBatch's. `selection` lists row indices in
  // fold order (nullptr = all rows). Join plans probe the request-id column
  // directly and buffer (batch, row) references, which is why the batch
  // arrives shared: the window's join buffer pins it past the call.
  // Distinct ScrubCentral instances may run this concurrently (each touches
  // only its own state); one instance must not.
  Status IngestColumns(QueryId query_id, HostId host,
                       std::shared_ptr<const ColumnBatch> batch,
                       const uint32_t* selection, size_t selected);

  // Join twin of IngestColumns: folds a multi-source columnar slice (per-
  // source sections plus the agent's staging interleave) in the exact order
  // the rows were staged, so the join transcript is byte-identical to
  // folding them one at a time. Same concurrency contract as IngestColumns.
  Status IngestJoinColumns(QueryId query_id, HostId host,
                           const ColumnJoinSlice& slice);

  // Closes windows whose grace period has passed; retires queries whose span
  // plus grace has passed. Call periodically from the scheduler.
  void OnTick(TimeMicros now);

  const CentralQueryStats* StatsFor(QueryId query_id) const;
  // Ids of every installed (not yet retired) query, unordered. Cost
  // calibration walks these to read per-operator metrics.
  std::vector<QueryId> ActiveQueryIds() const {
    std::vector<QueryId> ids;
    ids.reserve(queries_.size());
    for (const auto& [qid, q] : queries_) {
      ids.push_back(qid);
    }
    return ids;
  }
  const CostMeter& meter() const { return meter_; }
  // State-size introspection (memory pressure experiments).
  size_t OpenWindows(QueryId query_id) const;
  // Compiled pipeline for an installed query (EXPLAIN, tests).
  const PhysicalPipeline* PipelineFor(QueryId query_id) const;

  // Memory-pressure introspection (DESIGN.md §13): the state accountant and
  // what the spill layer has done so far.
  const MemoryAccountant& accountant() const { return accountant_; }
  const SpillStats& spill_stats() const { return spill_.stats(); }
  // Re-arms the spill fault stream (chaos controls; forwarded by
  // ScrubSystem::SetFaultPlan).
  void SetSpillFaults(SpillFaultSpec faults, uint64_t seed) {
    config_.spill_faults = faults;
    spill_.SetFaults(faults, seed);
  }

 private:
  Status Install(const CentralPlan& plan, QueryState q);

  const SchemaRegistry* registry_;
  CentralConfig config_;
  CostMeter meter_;
  MemoryAccountant accountant_;
  SpillManager spill_;
  Executor executor_{registry_, &config_, &meter_, &accountant_, &spill_};
  std::unordered_map<QueryId, QueryState> queries_;
  std::unordered_map<QueryId, CentralQueryStats> retired_stats_;
};

}  // namespace scrub

#endif  // SRC_CENTRAL_CENTRAL_H_
