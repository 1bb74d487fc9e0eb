#include "src/central/adaptive.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"

namespace scrub {

void AdaptiveController::Log(QueryControl& c, TimeMicros now,
                             std::string text) {
  AdaptiveDecision d;
  d.at = now;
  d.text = std::move(text);
  c.decisions.push_back(std::move(d));
}

void AdaptiveController::OnInstall(QueryId id, TimeMicros now) {
  if (!config_.enabled || queries_.count(id) > 0) {
    return;
  }
  QueryControl c;
  c.batch = default_batch_;
  Log(c, now, StrFormat("batch tuning started at %zu", c.batch));
  queries_.emplace(id, std::move(c));
}

void AdaptiveController::TuneBatch(QueryId id, TimeMicros now,
                                   QueryControl& c,
                                   const CentralQueryStats& stats) {
  // The decode op is ops[0] in every compiled pipeline, so its rows_in /
  // batches are "events the central folded" / "batches it folded them in".
  if (stats.op_metrics.empty()) {
    return;
  }
  const OperatorMetrics& decode = stats.op_metrics[0];
  const uint64_t rows = decode.rows_in - std::min(decode.rows_in, c.base_rows);
  const uint64_t batches =
      decode.batches - std::min(decode.batches, c.base_batches);
  if (batches == 0) {
    return;  // no traffic this interval; keep the snapshot running
  }
  const double avg_fill = static_cast<double>(rows) /
                          static_cast<double>(batches);
  const size_t cap = c.batch;
  size_t next = cap;
  if (avg_fill >= config_.grow_fill * static_cast<double>(cap)) {
    next = std::min(cap * 2, config_.max_batch_events);
  } else if (avg_fill < config_.shrink_fill * static_cast<double>(cap)) {
    next = std::max(cap / 2, config_.min_batch_events);
  }
  if (next != cap) {
    c.batch = next;
    set_batch_(id, next);
    Log(c, now,
        StrFormat("batch %zu -> %zu (avg fill %.0f rows/flush)", cap, next,
                  avg_fill));
  }
  c.base_rows = decode.rows_in;
  c.base_batches = decode.batches;
}

void AdaptiveController::OnPump(QueryId id, TimeMicros now,
                                const CentralQueryStats& stats) {
  if (!config_.enabled) {
    return;
  }
  const auto it = queries_.find(id);
  if (it == queries_.end()) {
    return;
  }
  QueryControl& c = it->second;
  if (++c.pumps_since_tune >= config_.tune_interval_pumps) {
    c.pumps_since_tune = 0;
    TuneBatch(id, now, c, stats);
  }
}

const std::vector<AdaptiveDecision>* AdaptiveController::DecisionsFor(
    QueryId id) const {
  const auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : &it->second.decisions;
}

std::string AdaptiveController::Describe(QueryId id) const {
  const auto it = queries_.find(id);
  if (it == queries_.end()) {
    return "";
  }
  const QueryControl& c = it->second;
  std::string out = StrFormat("  adaptive: batch=%zu decisions=%zu\n",
                              c.batch, c.decisions.size());
  for (const AdaptiveDecision& d : c.decisions) {
    out += StrFormat("    [t=%lld] %s\n", static_cast<long long>(d.at),
                     d.text.c_str());
  }
  return out;
}

}  // namespace scrub
