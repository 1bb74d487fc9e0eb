// A deliberately naive, single-threaded reference executor: the oracle the
// differential tests compare Scrub against.
//
// It shares nothing with Scrub's execution machinery except the operator
// definitions (ApplyBinaryOp/ApplyUnaryOp) and the output-expression
// renderer, so both sides agree on operator semantics by construction. It
// copies its own WHERE, group keys, raw select items and aggregate
// arguments straight from the AnalyzedQuery and evaluates those trees with
// the tree walker in tests/tree_eval.h — it never reads the planner's
// lowered, folded or pruned programs. Everything the paper's
// pipeline does incrementally — host-side selection/projection, batching,
// the symmetric hash join, per-window accumulators, sketches — the oracle
// does the slow obvious way: buffer every ground-truth event, then for each
// window materialize the join as an explicit per-request cross product,
// filter with the full WHERE, group with ordinary maps, and aggregate with
// exact arithmetic (real sets for COUNT_DISTINCT, full count maps for TOPK).
//
// Semantics intentionally mirrored from ScrubCentral:
//  * windows start on the slide grid at plan.start_time; events are admitted
//    when start <= ts < start + window; no window runs past end_time
//    (admission keeps the duration a multiple of the slide);
//  * aggregates skip null arguments (SQL-style);
//  * COUNT finalizes as int64, SUM/AVG as double, AVG of nothing is null;
//  * ungrouped aggregate queries emit a row even for an empty window;
//  * grouped queries emit nothing for groups that never formed.
//
// Sketch-backed aggregates are finalized EXACTLY here (true distinct count,
// full sorted count list for TOPK); the caller compares Scrub's estimates
// against them within documented error bounds (see differential_test.cc).

#ifndef TESTS_REFERENCE_EXECUTOR_H_
#define TESTS_REFERENCE_EXECUTOR_H_

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/strings.h"
#include "src/plan/plan.h"
#include "src/query/analyzer.h"
#include "tests/tree_eval.h"

namespace scrub {

// How the differential test must compare a given output column.
enum class ColumnCheck {
  kExact,            // group keys, COUNT, MIN/MAX, literals: byte equality
  kApproxDouble,     // SUM/AVG: float accumulation order differs
  kDistinctEstimate,  // COUNT_DISTINCT: HLL estimate vs exact count
  kTopK,             // TOPK: exact counts, tie-tolerant ordering
};

class ReferenceExecutor {
 public:
  // `analyzed` supplies every expression (the un-split WHERE included);
  // `plan` the central-side shape: window, mode, aggregate functions and
  // output expressions. Sampling must be inactive (the oracle models exact
  // execution only) and joins are at most two-way, like the pipeline's
  // pairwise tuples.
  ReferenceExecutor(const AnalyzedQuery& analyzed, CentralPlan plan)
      : plan_(std::move(plan)), sources_(analyzed.query.sources) {
    assert(!plan_.SamplingActive());
    assert(plan_.sources.size() <= 2);
    const Query& q = analyzed.query;
    if (q.where != nullptr) {
      where_ = q.where->Clone();
    }
    if (plan_.aggregate_mode) {
      for (const ExprPtr& g : q.group_by) {
        group_by_.push_back(g->Clone());
      }
      // Aggregate slots in the order the planner numbers them: depth-first
      // through each select item, items in select order.
      for (const SelectItem& item : q.select) {
        CollectAggregateArgs(*item.expr);
      }
      if (agg_args_.size() != plan_.aggregates.size()) {
        std::abort();  // slot numbering drifted from the planner's
      }
    } else {
      for (const SelectItem& item : q.select) {
        raw_select_.push_back(item.expr->Clone());
      }
    }
    events_.resize(plan_.sources.size());
  }

  const CentralPlan& plan() const { return plan_; }

  // Feed one ground-truth event (any order; non-source types are ignored).
  void Observe(const Event& event) {
    for (size_t s = 0; s < plan_.sources.size(); ++s) {
      if (plan_.sources[s] == event.type_name()) {
        if (event.timestamp() >= plan_.start_time &&
            event.timestamp() < plan_.end_time) {
          events_[s].push_back(event);
        }
        return;
      }
    }
  }

  // Per output column, how the caller should compare Scrub's value to ours.
  std::vector<ColumnCheck> ColumnChecks() const {
    std::vector<ColumnCheck> checks;
    checks.reserve(plan_.outputs.size());
    for (const OutputColumn& column : plan_.outputs) {
      checks.push_back(CheckFor(column.expr));
    }
    return checks;
  }

  // Runs the whole query naively. Rows come out window-ascending; group
  // order within a window is unspecified (match rows by key, not position).
  // Raw-mode rows keep arrival order within a window; compare as multisets.
  std::vector<ResultRow> Execute() const {
    std::vector<ResultRow> rows;
    const TimeMicros window =
        plan_.window_micros > 0 ? plan_.window_micros
                                : plan_.end_time - plan_.start_time;
    const TimeMicros slide =
        plan_.slide_micros > 0 ? plan_.slide_micros : window;
    // No window runs past end_time: admission keeps the span a multiple of
    // the slide, so the full windows cover it.
    for (TimeMicros start = plan_.start_time; start < plan_.end_time;
         start += slide) {
      if (start + window > plan_.end_time) {
        break;
      }
      ExecuteWindow(start, window, &rows);
      if (slide <= 0) {
        break;
      }
    }
    return rows;
  }

 private:
  // Exact accumulator state for one aggregate slot.
  struct NaiveAcc {
    uint64_t count = 0;
    double sum = 0.0;
    bool has_minmax = false;
    Value min_value;
    Value max_value;
    // COUNT_DISTINCT: the actual set; TOPK: the actual per-key counts.
    // Keyed by rendered value (Value::ToString is injective per type here).
    std::map<std::string, uint64_t> keyed;
  };

  struct NaiveGroup {
    std::vector<Value> key;
    std::vector<NaiveAcc> slots;
  };

  // One aggregate slot's argument; COUNT(*) has none (null).
  void CollectAggregateArgs(const Expr& e) {
    if (e.kind == ExprKind::kAggregate) {
      agg_args_.push_back(e.children.empty() ? nullptr
                                             : e.children[0]->Clone());
      return;
    }
    for (const ExprPtr& child : e.children) {
      CollectAggregateArgs(*child);
    }
  }

  // The loosest aggregate anywhere in the column expression decides how the
  // column can be compared.
  ColumnCheck CheckFor(const OutputExpr& expr) const {
    ColumnCheck check = ColumnCheck::kExact;
    WalkAggregates(expr, &check);
    return check;
  }

  static void Loosen(ColumnCheck* check, ColumnCheck to) {
    if (static_cast<int>(to) > static_cast<int>(*check)) {
      *check = to;
    }
  }

  void WalkAggregates(const OutputExpr& expr, ColumnCheck* check) const {
    if (expr.kind == OutputKind::kAggregate) {
      switch (plan_.aggregates[static_cast<size_t>(expr.index)].func) {
        case AggregateFunc::kSum:
        case AggregateFunc::kAvg:
          Loosen(check, ColumnCheck::kApproxDouble);
          break;
        case AggregateFunc::kCountDistinct:
          Loosen(check, ColumnCheck::kDistinctEstimate);
          break;
        case AggregateFunc::kTopK:
          Loosen(check, ColumnCheck::kTopK);
          break;
        case AggregateFunc::kCount:
        case AggregateFunc::kMin:
        case AggregateFunc::kMax:
          break;
      }
    }
    for (const OutputExpr& child : expr.children) {
      WalkAggregates(child, check);
    }
  }

  void ExecuteWindow(TimeMicros start, TimeMicros window,
                     std::vector<ResultRow>* rows) const {
    const TimeMicros end = start + window;
    // Materialize the window's joined tuples the obvious way.
    std::vector<EventTuple> tuples;
    if (plan_.sources.size() == 1) {
      for (const Event& e : events_[0]) {
        if (InWindow(e, start, end)) {
          tuples.push_back(EventTuple{&e});
        }
      }
    } else {
      // Explicit per-request cross product: the naive spelling of the
      // pipeline's symmetric hash join.
      std::map<RequestId, std::pair<std::vector<const Event*>,
                                    std::vector<const Event*>>>
          by_request;
      for (const Event& e : events_[0]) {
        if (InWindow(e, start, end)) {
          by_request[e.request_id()].first.push_back(&e);
        }
      }
      for (const Event& e : events_[1]) {
        if (InWindow(e, start, end)) {
          by_request[e.request_id()].second.push_back(&e);
        }
      }
      for (const auto& [rid, sides] : by_request) {
        for (const Event* a : sides.first) {
          for (const Event* b : sides.second) {
            tuples.push_back(EventTuple{a, b});
          }
        }
      }
    }

    if (!plan_.aggregate_mode) {
      for (const EventTuple& tuple : tuples) {
        if (where_ != nullptr && !TreePredicate(*where_, sources_, tuple)) {
          continue;
        }
        ResultRow row;
        row.query_id = plan_.query_id;
        row.window_start = start;
        row.window_end = end;
        for (const ExprPtr& e : raw_select_) {
          row.values.push_back(TreeEval(*e, sources_, tuple));
        }
        row.error_bounds.assign(row.values.size(), 0.0);
        rows->push_back(std::move(row));
      }
      return;
    }

    std::map<std::string, NaiveGroup> groups;
    for (const EventTuple& tuple : tuples) {
      if (where_ != nullptr && !TreePredicate(*where_, sources_, tuple)) {
        continue;
      }
      std::vector<Value> key;
      std::string rendered;
      for (const ExprPtr& g : group_by_) {
        key.push_back(TreeEval(*g, sources_, tuple));
        rendered += key.back().ToString() + "\x1f";
      }
      NaiveGroup& group = groups[rendered];
      if (group.slots.empty()) {
        group.key = key;
        group.slots.resize(plan_.aggregates.size());
      }
      for (size_t i = 0; i < plan_.aggregates.size(); ++i) {
        Update(plan_.aggregates[i], agg_args_[i].get(), tuple,
               &group.slots[i]);
      }
    }

    // Continuous time series for ungrouped queries, like CloseWindow.
    if (group_by_.empty() && groups.empty()) {
      groups[""].slots.resize(plan_.aggregates.size());
    }

    for (const auto& [rendered, group] : groups) {
      ResultRow row;
      row.query_id = plan_.query_id;
      row.window_start = start;
      row.window_end = end;
      std::vector<Value> agg_values(plan_.aggregates.size());
      for (size_t i = 0; i < plan_.aggregates.size(); ++i) {
        agg_values[i] = Finalize(plan_.aggregates[i], group.slots[i]);
      }
      for (const OutputColumn& column : plan_.outputs) {
        row.values.push_back(
            EvalOutputExpr(column.expr, group.key, agg_values));
      }
      row.error_bounds.assign(row.values.size(), 0.0);
      rows->push_back(std::move(row));
    }
  }

  bool InWindow(const Event& e, TimeMicros start, TimeMicros end) const {
    // end_time also bounds admission: a window straddling the query's end
    // only sees events before end_time (WindowsFor rejects the rest).
    return e.timestamp() >= start && e.timestamp() < end &&
           e.timestamp() < plan_.end_time;
  }

  void Update(const AggregateSpec& spec, const Expr* arg_expr,
              const EventTuple& tuple, NaiveAcc* acc) const {
    Value arg;
    if (arg_expr != nullptr) {
      arg = TreeEval(*arg_expr, sources_, tuple);
      if (arg.is_null()) {
        return;  // aggregates skip null arguments
      }
    }
    switch (spec.func) {
      case AggregateFunc::kCount:
        ++acc->count;
        return;
      case AggregateFunc::kSum:
      case AggregateFunc::kAvg:
        ++acc->count;
        acc->sum += arg.is_numeric() ? arg.AsNumber() : 0.0;
        return;
      case AggregateFunc::kMin:
      case AggregateFunc::kMax:
        if (!acc->has_minmax) {
          acc->min_value = arg;
          acc->max_value = arg;
          acc->has_minmax = true;
        } else {
          if (arg.Compare(acc->min_value) < 0) {
            acc->min_value = arg;
          }
          if (arg.Compare(acc->max_value) > 0) {
            acc->max_value = arg;
          }
        }
        return;
      case AggregateFunc::kCountDistinct:
      case AggregateFunc::kTopK:
        ++acc->keyed[arg.ToString()];
        return;
    }
  }

  static Value Finalize(const AggregateSpec& spec, const NaiveAcc& acc) {
    switch (spec.func) {
      case AggregateFunc::kCount:
        return Value(static_cast<int64_t>(acc.count));
      case AggregateFunc::kSum:
        return Value(acc.sum);
      case AggregateFunc::kAvg:
        if (acc.count == 0) {
          return Value::Null();
        }
        return Value(acc.sum / static_cast<double>(acc.count));
      case AggregateFunc::kMin:
        return acc.has_minmax ? acc.min_value : Value::Null();
      case AggregateFunc::kMax:
        return acc.has_minmax ? acc.max_value : Value::Null();
      case AggregateFunc::kCountDistinct:
        return Value(static_cast<int64_t>(acc.keyed.size()));
      case AggregateFunc::kTopK: {
        // The FULL exact ranking (not truncated to k), count-descending
        // with key ascending as the tiebreak; rendered "key:count" like
        // FinalizeAccumulator. The test's TOPK comparator prefix-matches
        // Scrub's k entries against this, tolerating tie reordering.
        std::vector<std::pair<uint64_t, std::string>> ranked;
        ranked.reserve(acc.keyed.size());
        for (const auto& [key, count] : acc.keyed) {
          ranked.emplace_back(count, key);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto& a, const auto& b) {
                    if (a.first != b.first) {
                      return a.first > b.first;
                    }
                    return a.second < b.second;
                  });
        std::vector<Value> out;
        out.reserve(ranked.size());
        for (const auto& [count, key] : ranked) {
          out.push_back(Value(StrFormat("%s:%.0f", key.c_str(),
                                        static_cast<double>(count))));
        }
        return Value(std::move(out));
      }
    }
    return Value::Null();
  }

  CentralPlan plan_;
  std::vector<std::string> sources_;  // what the trees' qualifiers name
  ExprPtr where_;                     // null: no WHERE
  std::vector<ExprPtr> group_by_;     // aggregate mode
  std::vector<ExprPtr> agg_args_;     // aggregate mode, one per slot
  std::vector<ExprPtr> raw_select_;   // raw mode
  std::vector<std::vector<Event>> events_;  // per source, arrival order
};

}  // namespace scrub

#endif  // TESTS_REFERENCE_EXECUTOR_H_
