// AdaptiveController: per-query flush batch tuning driven by the operator
// metrics plane (DESIGN.md §16).
//
// The controller runs at the coordinator tier (ScrubSystem pumps it once
// per flush tick, single-threaded) and makes one kind of decision per
// query: the agents' flush batch cap. It watches the decode operator's
// average batch fill and doubles the per-query cap when flushes run
// near-full (halves it when they run near-empty), within
// [min_batch_events, max_batch_events]. Safe because chunk boundaries carry
// no fold effects at central, so every decision is transcript-neutral.
//
// Determinism: the controller's inputs (central per-operator counters) are
// themselves bit-identical across worker counts, so its decision sequence —
// and therefore the transcript — is too. The `enabled` flag is a kill
// switch; when false the controller issues no overrides at all.

#ifndef SRC_CENTRAL_ADAPTIVE_H_
#define SRC_CENTRAL_ADAPTIVE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/central/executor.h"

namespace scrub {

struct AdaptiveConfig {
  // Master kill switch. Off (the default) means the controller never
  // issues an override: execution is exactly the static configuration.
  bool enabled = false;
  // Bounds for the per-query flush batch cap.
  size_t min_batch_events = 128;
  size_t max_batch_events = 16384;
  // Batch tuning cadence (pumps between re-evaluations) and the average
  // fill thresholds that trigger a resize.
  size_t tune_interval_pumps = 4;
  double grow_fill = 0.9;    // avg fill >= grow_fill * cap -> double
  double shrink_fill = 0.25;  // avg fill < shrink_fill * cap -> halve
};

// One logged decision, rendered verbatim by DescribeQuery.
struct AdaptiveDecision {
  TimeMicros at = 0;
  std::string text;
};

class AdaptiveController {
 public:
  // The override callback fans a decision out to the agent fleet;
  // ScrubSystem wires it to ScrubAgent::SetBatchOverride on every host.
  using BatchOverrideFn = std::function<void(QueryId, size_t)>;

  AdaptiveController(AdaptiveConfig config, size_t default_batch,
                     BatchOverrideFn set_batch)
      : config_(config),
        default_batch_(default_batch),
        set_batch_(std::move(set_batch)) {}

  // Registers a query (idempotent); tuning starts from the default cap.
  void OnInstall(QueryId id, TimeMicros now);

  // One control step for one query, fed the central's live stats. Called
  // from the single-threaded pump; never concurrently.
  void OnPump(QueryId id, TimeMicros now, const CentralQueryStats& stats);

  // Decision log for DescribeQuery (empty string when the controller never
  // saw the query or is disabled).
  std::string Describe(QueryId id) const;

  const std::vector<AdaptiveDecision>* DecisionsFor(QueryId id) const;

  bool enabled() const { return config_.enabled; }

 private:
  struct QueryControl {
    size_t batch = 0;  // current flush cap
    size_t pumps_since_tune = 0;
    // Decode input rows/batches at the last re-evaluation, so each tuning
    // interval measures only its own traffic.
    uint64_t base_rows = 0;
    uint64_t base_batches = 0;
    std::vector<AdaptiveDecision> decisions;
  };

  void Log(QueryControl& c, TimeMicros now, std::string text);
  void TuneBatch(QueryId id, TimeMicros now, QueryControl& c,
                 const CentralQueryStats& stats);

  AdaptiveConfig config_;
  size_t default_batch_;
  BatchOverrideFn set_batch_;
  // Ordered map: Describe and tests iterate deterministically; state
  // survives query retirement for post-mortem DescribeQuery.
  std::map<QueryId, QueryControl> queries_;
};

}  // namespace scrub

#endif  // SRC_CENTRAL_ADAPTIVE_H_
