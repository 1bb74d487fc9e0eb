// Ablation comparator: host-side aggregation ("pushdown").
//
// Conventional query optimization moves operators toward the data: group-by
// and aggregation would run on the application hosts, shipping only
// aggregated partials. Scrub deliberately rejects this (Sections 2 and 4) —
// this module implements the rejected design so the trade can be measured
// (bench_ablation_pushdown):
//
//  * Pushdown ships fewer bytes when the group cardinality is low (many
//    events fold into few groups).
//  * But the host pays CPU per event for key evaluation + table update, and
//    holds per-(window, group) state whose size is *unbounded and
//    input-dependent* — a grouped query on user_id holds one entry per
//    active user, per window, per query. Under SLOs, that unpredictability
//    is exactly what Scrub refuses to put on the hosts.
//
// Supported subset: single-source queries with COUNT/SUM/AVG/MIN/MAX
// (sketch-based aggregates would need mergeable sketches per host, growing
// state further). A coordinator merges per-host partials into final rows so
// results can be checked against Scrub's.

#ifndef SRC_BASELINE_PUSHDOWN_AGENT_H_
#define SRC_BASELINE_PUSHDOWN_AGENT_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/central/central.h"
#include "src/common/cost_model.h"
#include "src/plan/plan.h"
#include "src/query/analyzer.h"

namespace scrub {

struct PushdownPlan {
  QueryId query_id = 0;
  HostSourcePlan source;  // selection, exactly as a Scrub agent runs it
  std::vector<ExprProgram> group_by;
  std::vector<AggregateSpec> aggregates;
  std::vector<OutputColumn> outputs;
  TimeMicros window_micros = 0;
  TimeMicros start_time = 0;
  TimeMicros end_time = 0;
};

// Fails (kUnimplemented) for joins, raw queries, or sketch aggregates.
Result<PushdownPlan> BuildPushdownPlan(const AnalyzedQuery& analyzed,
                                       QueryId query_id,
                                       TimeMicros submit_time);

// One group's partial aggregates, as shipped host -> coordinator.
struct GroupPartial {
  std::vector<Value> key;
  std::vector<uint64_t> counts;     // per aggregate slot
  std::vector<double> sums;         // per aggregate slot
  std::vector<Value> mins;
  std::vector<Value> maxs;

  size_t WireSize() const;
};

struct PartialBatch {
  QueryId query_id = 0;
  HostId host = kInvalidHost;
  TimeMicros window_start = 0;
  std::vector<GroupPartial> groups;

  size_t WireSize() const;
};

class PushdownAgent {
 public:
  PushdownAgent(HostId host, CostMeter* meter, CostModel costs = {})
      : host_(host), meter_(meter), costs_(costs) {}

  void InstallQuery(PushdownPlan plan);
  void RemoveQuery(QueryId query_id);

  // Applies selection, then updates the host-side group table. Returns the
  // simulated nanoseconds charged (same convention as ScrubAgent).
  int64_t LogEvent(const Event& event);

  // Ships partials for windows that have fully passed `now` (and all state
  // on query expiry).
  std::vector<PartialBatch> Flush(TimeMicros now);

  // Peak number of (window, group) entries ever held — the memory the paper
  // refuses to spend on application hosts.
  size_t peak_state_entries() const { return peak_state_entries_; }
  size_t current_state_entries() const;

 private:
  struct GroupKeyHash {
    size_t operator()(const std::vector<Value>& key) const {
      size_t seed = 0x9b97;
      for (const Value& v : key) {
        seed ^= v.Hash() + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2);
      }
      return seed;
    }
  };
  struct ActiveQuery {
    PushdownPlan plan;
    // window start -> group key -> partial
    std::map<TimeMicros,
             std::unordered_map<std::vector<Value>, GroupPartial,
                                GroupKeyHash>>
        windows;
  };

  TimeMicros WindowStartFor(const ActiveQuery& q, TimeMicros ts) const;

  HostId host_;
  CostMeter* meter_;
  CostModel costs_;
  std::unordered_map<QueryId, ActiveQuery> queries_;
  size_t peak_state_entries_ = 0;
};

// Merges per-host partials and renders final rows (for result parity checks
// against ScrubCentral).
class PushdownCoordinator {
 public:
  explicit PushdownCoordinator(PushdownPlan plan) : plan_(std::move(plan)) {}

  void Ingest(const PartialBatch& batch);
  // Rows for every window seen, sorted by window start.
  std::vector<ResultRow> Finalize() const;

 private:
  struct Merged {
    std::vector<uint64_t> counts;
    std::vector<double> sums;
    std::vector<Value> mins;
    std::vector<Value> maxs;
  };

  PushdownPlan plan_;
  std::map<TimeMicros, std::map<std::string, std::pair<std::vector<Value>,
                                                       Merged>>>
      windows_;  // keyed by rendered group key for deterministic order
};

}  // namespace scrub

#endif  // SRC_BASELINE_PUSHDOWN_AGENT_H_
