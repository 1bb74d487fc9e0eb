// E9 — ScrubCentral throughput (paper Section 9).
//
// Microbenchmarks of the central engine's ingest path: selection-only
// (raw rows), grouped aggregation with varying group cardinality, the
// request-id join, and probabilistic aggregates. Events arrive pre-encoded
// in batches exactly as hosts ship them, so decode cost is included — this
// is the rate one ScrubCentral instance absorbs.

#include <algorithm>

#include <benchmark/benchmark.h>

#include "src/central/central.h"
#include "src/central/sharded_central.h"
#include "src/common/rng.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

constexpr size_t kBatchEvents = 512;

class CentralBench {
 public:
  CentralBench() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .AddField("price", FieldType::kDouble)
                       .AddField("exchange_id", FieldType::kLong)
                       .Build();
    imp_schema_ = *EventSchema::Builder("impression")
                       .AddField("line_item_id", FieldType::kLong)
                       .AddField("cost", FieldType::kDouble)
                       .Build();
    (void)registry_.Register(bid_schema_);
    (void)registry_.Register(imp_schema_);
  }

  CentralPlan Plan(const std::string& text) {
    AnalyzerOptions options;
    options.max_duration_micros = 24 * kMicrosPerHour;
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_, options);
    Result<QueryPlan> plan = PlanQuery(*aq, next_id_++, 0);
    CentralPlan central = plan->central;
    central.hosts_targeted = 1;
    central.hosts_sampled = 1;
    return central;
  }

  // One batch of bid events with `groups` distinct users, timestamps inside
  // window 0.
  EventBatch BidBatch(QueryId qid, int64_t groups, uint64_t seed) {
    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(kBatchEvents);
    for (size_t i = 0; i < kBatchEvents; ++i) {
      Event e(bid_schema_, rng.NextUint64(), 100 + static_cast<int64_t>(i));
      e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(
                        static_cast<uint64_t>(groups)))));
      e.SetField(1, Value(rng.NextDouble() * 5));
      e.SetField(2, Value(static_cast<int64_t>(rng.NextBelow(4) + 1)));
      events.push_back(std::move(e));
    }
    EventBatch batch;
    batch.query_id = qid;
    batch.host = 0;
    batch.event_count = events.size();
    batch.format = EncodeEvents(events, &batch.payload);
    return batch;
  }

  // Matched bid+impression pairs sharing request ids (join workload).
  EventBatch JoinBatch(QueryId qid, uint64_t seed) {
    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(kBatchEvents);
    for (size_t i = 0; i < kBatchEvents / 2; ++i) {
      const RequestId rid = rng.NextUint64();
      Event bid(bid_schema_, rid, 100 + static_cast<int64_t>(i));
      bid.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(1000))));
      bid.SetField(1, Value(rng.NextDouble() * 5));
      bid.SetField(2, Value(int64_t{1}));
      events.push_back(std::move(bid));
      Event imp(imp_schema_, rid, 150 + static_cast<int64_t>(i));
      imp.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(100))));
      imp.SetField(1, Value(rng.NextDouble() / 1000));
      events.push_back(std::move(imp));
    }
    EventBatch batch;
    batch.query_id = qid;
    batch.host = 0;
    batch.event_count = events.size();
    batch.format = EncodeEvents(events, &batch.payload);
    return batch;
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
  SchemaPtr imp_schema_;
  QueryId next_id_ = 1;
};

void BM_IngestRawSelection(benchmark::State& state) {
  CentralBench bench;
  ScrubCentral central(&bench.registry_);
  const CentralPlan plan = bench.Plan(
      "SELECT bid.user_id, bid.price FROM bid WINDOW 1 h DURATION 1 h;");
  size_t rows = 0;
  (void)central.InstallQuery(plan, [&rows](const ResultRow&) { ++rows; });
  uint64_t seed = 1;
  for (auto _ : state) {
    const EventBatch batch = bench.BidBatch(plan.query_id, 1000, seed++);
    const Status s = central.IngestBatch(batch, 0);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchEvents));
}
BENCHMARK(BM_IngestRawSelection);

void BM_IngestGroupedCount(benchmark::State& state) {
  CentralBench bench;
  ScrubCentral central(&bench.registry_);
  const CentralPlan plan = bench.Plan(
      "SELECT bid.user_id, COUNT(*), AVG(bid.price) FROM bid "
      "GROUP BY bid.user_id WINDOW 1 h DURATION 1 h;");
  (void)central.InstallQuery(plan, [](const ResultRow&) {});
  const int64_t groups = state.range(0);
  uint64_t seed = 1;
  for (auto _ : state) {
    const EventBatch batch = bench.BidBatch(plan.query_id, groups, seed++);
    const Status s = central.IngestBatch(batch, 0);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchEvents));
  state.SetLabel(std::to_string(groups) + " groups");
}
BENCHMARK(BM_IngestGroupedCount)->Arg(10)->Arg(1000)->Arg(100000);

void BM_IngestTopKAndDistinct(benchmark::State& state) {
  CentralBench bench;
  ScrubCentral central(&bench.registry_);
  const CentralPlan plan = bench.Plan(
      "SELECT TOPK(10, bid.user_id), COUNT_DISTINCT(bid.user_id) FROM bid "
      "WINDOW 1 h DURATION 1 h;");
  (void)central.InstallQuery(plan, [](const ResultRow&) {});
  uint64_t seed = 1;
  for (auto _ : state) {
    const EventBatch batch = bench.BidBatch(plan.query_id, 50000, seed++);
    const Status s = central.IngestBatch(batch, 0);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchEvents));
}
BENCHMARK(BM_IngestTopKAndDistinct);

void BM_IngestRequestIdJoin(benchmark::State& state) {
  CentralBench bench;
  ScrubCentral central(&bench.registry_);
  const CentralPlan plan = bench.Plan(
      "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
      "GROUP BY impression.line_item_id WINDOW 1 h DURATION 1 h;");
  (void)central.InstallQuery(plan, [](const ResultRow&) {});
  uint64_t seed = 1;
  for (auto _ : state) {
    const EventBatch batch = bench.JoinBatch(plan.query_id, seed++);
    const Status s = central.IngestBatch(batch, 0);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchEvents));
}
BENCHMARK(BM_IngestRequestIdJoin);

void BM_WindowClose(benchmark::State& state) {
  // Cost of closing a window holding `groups` groups.
  CentralBench bench;
  const int64_t groups = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    ScrubCentral central(&bench.registry_);
    const CentralPlan plan = bench.Plan(
        "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
        "WINDOW 1 s DURATION 1 h;");
    size_t rows = 0;
    (void)central.InstallQuery(plan, [&rows](const ResultRow&) { ++rows; });
    for (int i = 0; i < 8; ++i) {
      (void)central.IngestBatch(
          bench.BidBatch(plan.query_id, groups, static_cast<uint64_t>(i)),
          0);
    }
    state.ResumeTiming();
    central.OnTick(10 * kMicrosPerSecond);
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel(std::to_string(groups) + " groups/window");
}
BENCHMARK(BM_WindowClose)->Arg(100)->Arg(4096);

void BM_ShardedScaleOut(benchmark::State& state) {
  // E9b: the "small ScrubCentral cluster". Identical traffic through N
  // shards; the cluster's critical path is its most loaded shard, so the
  // max-shard share of simulated CPU (~1/N when balanced) is the scale-out
  // factor parallel hardware would realize.
  CentralBench bench;
  const size_t shards = static_cast<size_t>(state.range(0));
  ShardedCentral central(&bench.registry_, shards);
  const CentralPlan plan = bench.Plan(
      "SELECT bid.user_id, COUNT(*), AVG(bid.price) FROM bid "
      "GROUP BY bid.user_id WINDOW 1 h DURATION 1 h;");
  (void)central.InstallQuery(plan, [](const ResultRow&) {});
  uint64_t seed = 1;
  for (auto _ : state) {
    const EventBatch batch = bench.BidBatch(plan.query_id, 10000, seed++);
    const Status s = central.IngestBatch(batch, 0);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchEvents));
  int64_t total_ns = 0;
  int64_t max_ns = 0;
  for (size_t i = 0; i < central.shard_count(); ++i) {
    const int64_t ns = central.shard(i).meter().scrub_ns();
    total_ns += ns;
    max_ns = std::max(max_ns, ns);
  }
  state.counters["max_shard_share"] =
      total_ns == 0 ? 0.0
                    : static_cast<double>(max_ns) /
                          static_cast<double>(total_ns);
  state.SetLabel(std::to_string(shards) + " shard(s)");
}
BENCHMARK(BM_ShardedScaleOut)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace scrub
