// E13 — query pipeline costs (paper Section 4/5).
//
// Microbenchmarks of the control path (parse -> analyze -> plan, paid once
// per query at the server) and, crucially, the per-event host path: the
// agent's log() plus its share of the flush under 0..32 installed queries,
// with and without event sampling. Log() only samples and stages; selection,
// projection and encoding run at flush, so the flush is timed too. The
// per-event numbers are the mechanism behind E7's host overhead curve.

#include <benchmark/benchmark.h>

#include "src/agent/agent.h"
#include "src/bidsim/schemas.h"
#include "src/plan/plan.h"
#include "src/query/analyzer.h"
#include "src/query/parser.h"

namespace scrub {
namespace {

const char kSpamQuery[] =
    "SELECT bid.user_id, COUNT(*) FROM bid "
    "@[SERVICE IN BidServers AND SERVER = host1] "
    "GROUP BY bid.user_id WINDOW 10 s DURATION 20 m;";

const char kJoinQuery[] =
    "SELECT impression.line_item_id, COUNT(*), AVG(auction.winning_price) "
    "FROM auction, impression WHERE auction.line_item_ids CONTAINS 7777 "
    "GROUP BY impression.line_item_id WINDOW 1 h DURATION 1 h;";

SchemaRegistry* BidsimRegistry() {
  static SchemaRegistry* registry = [] {
    auto* r = new SchemaRegistry();
    (void)RegisterBidsimSchemas(r);
    return r;
  }();
  return registry;
}

void BM_Parse(benchmark::State& state) {
  const char* text = state.range(0) == 0 ? kSpamQuery : kJoinQuery;
  for (auto _ : state) {
    Result<Query> q = ParseQuery(text);
    benchmark::DoNotOptimize(q.ok());
  }
  state.SetLabel(state.range(0) == 0 ? "spam query" : "join query");
}
BENCHMARK(BM_Parse)->Arg(0)->Arg(1);

void BM_ParseAnalyzePlan(benchmark::State& state) {
  SchemaRegistry* registry = BidsimRegistry();
  AnalyzerOptions options;
  options.max_duration_micros = 24 * kMicrosPerHour;
  const char* text = state.range(0) == 0 ? kSpamQuery : kJoinQuery;
  for (auto _ : state) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, *registry, options);
    Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
    benchmark::DoNotOptimize(plan.ok());
  }
  state.SetLabel(state.range(0) == 0 ? "spam query" : "join query");
}
BENCHMARK(BM_ParseAnalyzePlan)->Arg(0)->Arg(1);

Event MakeBidEvent(const SchemaRegistry& registry, RequestId rid,
                   TimeMicros ts) {
  Event e(*registry.Get(kBidEvent), rid, ts);
  e.SetField(0, Value(int64_t{2}));            // exchange_id
  e.SetField(1, Value("san_jose"));            // city
  e.SetField(2, Value("US"));                  // country
  e.SetField(3, Value(2.25));                  // bid_price
  e.SetField(4, Value(int64_t{7}));            // campaign_id
  e.SetField(5, Value(int64_t{1007}));         // line_item_id
  e.SetField(6, Value(static_cast<int64_t>(rid % 10000)));  // user_id
  e.SetField(7, Value(int64_t{13}));           // publisher_id
  return e;
}

// The hot path: log() with N installed queries, with the periodic flush
// that selects, projects and encodes the staged events inside the timed
// region.
void BM_AgentLogEvent(benchmark::State& state) {
  SchemaRegistry* registry = BidsimRegistry();
  CostMeter meter;
  AgentConfig config;
  config.staging_capacity = 1 << 16;
  ScrubAgent agent(0, &meter, config, 1);

  AnalyzerOptions options;
  options.max_duration_micros = 24 * kMicrosPerHour;
  const int queries = static_cast<int>(state.range(0));
  const bool sampled = state.range(1) != 0;
  for (int q = 0; q < queries; ++q) {
    std::string text =
        "SELECT bid.user_id, COUNT(*) FROM bid WHERE bid.bid_price > 1.0 "
        "GROUP BY bid.user_id WINDOW 10 s DURATION 10 h";
    if (sampled) {
      text += " SAMPLE EVENTS 10%";
    }
    text += ";";
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, *registry, options);
    Result<QueryPlan> plan =
        PlanQuery(*aq, static_cast<QueryId>(q + 1), 0);
    agent.InstallQuery(plan->host);
  }

  RequestId rid = 1;
  for (auto _ : state) {
    const Event e = MakeBidEvent(*registry, rid, static_cast<TimeMicros>(
                                                     100 + rid % 1000));
    ++rid;
    benchmark::DoNotOptimize(agent.LogEvent(e));
    // Flush often enough that staging never saturates (drops would change
    // the cost profile). Timed: this is where the predicates run.
    if (rid % 16384 == 0) {
      benchmark::DoNotOptimize(
          agent.Flush(static_cast<TimeMicros>(rid % 1000)));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(std::to_string(queries) +
                 (sampled ? " queries, 10% sampling" : " queries") +
                 ", flush timed");
}
BENCHMARK(BM_AgentLogEvent)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({16, 0})
    ->Args({32, 0})
    ->Args({32, 1});

void BM_PredicateEval(benchmark::State& state) {
  SchemaRegistry* registry = BidsimRegistry();
  AnalyzerOptions options;
  options.max_duration_micros = 24 * kMicrosPerHour;
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid WHERE bid.bid_price > 1.5 AND "
      "bid.country IN ('US', 'CA', 'GB') AND bid.exchange_id != 3;",
      *registry, options);
  // The host filter the agent runs: the planner's folded, pruned programs.
  Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
  const HostSourcePlan& filter = plan->host.sources[0];
  const Event e = MakeBidEvent(*registry, 42, 100);
  for (auto _ : state) {
    int64_t insts = 0;
    benchmark::DoNotOptimize(filter.Selects(e, &insts));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PredicateEval);

}  // namespace
}  // namespace scrub
