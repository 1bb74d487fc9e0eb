// Operator-metrics plane and the calibrated cost model (DESIGN.md §16):
// per-operator counters accumulate on every pipeline shape (columnar, join,
// sharded, hierarchical), surface through DescribeQuery / EXPLAIN ANALYZE,
// survive teardown, and feed the predicted-cost admission check.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/central/sharded_central.h"
#include "src/common/rng.h"
#include "src/event/wire.h"
#include "src/lint/lint.h"
#include "src/query/analyzer.h"
#include "src/scrub/scrub_system.h"

namespace scrub {
namespace {

constexpr const char* kAggQuery =
    "SELECT bid.user_id, COUNT(*), SUM(bid.bid_price) FROM bid "
    "GROUP BY bid.user_id WINDOW 1 s DURATION 10 s;";
constexpr const char* kJoinQuery =
    "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
    "GROUP BY impression.line_item_id WINDOW 1 s DURATION 10 s;";

SystemConfig SmallSystem() {
  SystemConfig config;
  config.seed = 7;
  config.platform.seed = 7;
  config.platform.bidservers_per_dc = 3;
  config.platform.adservers_per_dc = 1;
  config.platform.presentation_per_dc = 1;
  return config;
}

void DriveLoad(ScrubSystem& system, double qps = 300,
               TimeMicros duration = 3 * kMicrosPerSecond) {
  PoissonLoadConfig load;
  load.requests_per_second = qps;
  load.duration = duration;
  system.workload().SchedulePoissonLoad(load);
}

// ---------------------------------------------------------------------------
// Metrics accumulation per pipeline shape.
// ---------------------------------------------------------------------------

TEST(MetricsTest, CountersConsistentWithCentralStats) {
  ScrubSystem system(SmallSystem());
  DriveLoad(system);
  auto submitted = system.Submit(kAggQuery, [](const ResultRow&) {});
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  system.RunUntil(4 * kMicrosPerSecond);

  const CentralQueryStats* cs = system.central().StatsFor(submitted->id);
  ASSERT_NE(cs, nullptr);
  const PhysicalPipeline* pipe = system.central().PipelineFor(submitted->id);
  ASSERT_NE(pipe, nullptr);
  ASSERT_EQ(cs->op_metrics.size(), pipe->ops.size());

  // Decode's input is exactly what central ingested; the tail op's output is
  // exactly the rows emitted so far.
  const OperatorMetrics& decode = cs->op_metrics.front();
  EXPECT_GT(decode.rows_in, 0u);
  EXPECT_EQ(decode.rows_in, cs->events_ingested);
  EXPECT_GT(decode.batches, 0u);
  EXPECT_EQ(cs->op_metrics.back().rows_out, cs->rows_emitted);

  // Chunk-granularity thread-CPU timing: the pipeline as a whole must have
  // burned measurable time on thousands of events.
  uint64_t total_cpu = 0;
  for (const OperatorMetrics& m : cs->op_metrics) {
    total_cpu += m.cpu_ns;
  }
  EXPECT_GT(total_cpu, 0u);

  // Selectivity is rows_out / rows_in, clamped sane.
  for (const OperatorMetrics& m : cs->op_metrics) {
    if (m.rows_in > 0) {
      EXPECT_GE(m.Selectivity(), 0.0);
    }
  }
}

TEST(MetricsTest, JoinPipelineFusesProbeAndFold) {
  ScrubSystem system(SmallSystem());
  DriveLoad(system);
  auto submitted = system.Submit(kJoinQuery, [](const ResultRow&) {});
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  system.RunUntil(4 * kMicrosPerSecond);

  const CentralQueryStats* cs = system.central().StatsFor(submitted->id);
  const PhysicalPipeline* pipe = system.central().PipelineFor(submitted->id);
  ASSERT_NE(cs, nullptr);
  ASSERT_NE(pipe, nullptr);
  ASSERT_EQ(cs->op_metrics.size(), pipe->ops.size());
  int join_at = -1;
  for (size_t i = 0; i < pipe->ops.size(); ++i) {
    if (pipe->ops[i].kind == PhysicalOpKind::kJoin) {
      join_at = static_cast<int>(i);
    }
  }
  ASSERT_GE(join_at, 0);
  const OperatorMetrics& join = cs->op_metrics[static_cast<size_t>(join_at)];
  EXPECT_GT(join.rows_in, 0u);
  // The fold downstream of the probe is fused into the join loop: it still
  // counts rows honestly but carries no CPU stamp of its own.
  ASSERT_GT(cs->op_metrics.size(), static_cast<size_t>(join_at) + 1);
  const OperatorMetrics& fold =
      cs->op_metrics[static_cast<size_t>(join_at) + 1];
  EXPECT_GT(fold.rows_in, 0u);
  EXPECT_EQ(fold.cpu_ns, 0u);
}

TEST(MetricsTest, CollectionOffLeavesStatsEmpty) {
  SystemConfig config = SmallSystem();
  config.central.collect_op_metrics = false;
  ScrubSystem system(config);
  DriveLoad(system);
  auto submitted = system.Submit(kAggQuery, [](const ResultRow&) {});
  ASSERT_TRUE(submitted.ok());
  system.RunUntil(4 * kMicrosPerSecond);
  const CentralQueryStats* cs = system.central().StatsFor(submitted->id);
  ASSERT_NE(cs, nullptr);
  EXPECT_GT(cs->events_ingested, 0u);  // the query itself still ran
  EXPECT_TRUE(cs->op_metrics.empty());
}

TEST(MetricsTest, ShardedCentralMergesShardMetricsAtCoordinator) {
  SchemaRegistry registry;
  SchemaPtr schema = *EventSchema::Builder("bid")
                          .AddField("user_id", FieldType::kLong)
                          .AddField("price", FieldType::kDouble)
                          .Build();
  ASSERT_TRUE(registry.Register(schema).ok());
  AnalyzerOptions options;
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT bid.user_id, COUNT(*), SUM(bid.price) FROM bid "
      "GROUP BY bid.user_id WINDOW 1 s DURATION 10 s;",
      registry, options);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  Result<QueryPlan> plan = PlanQuery(*aq, 1, 0);
  ASSERT_TRUE(plan.ok());
  CentralPlan central = plan->central;
  central.hosts_targeted = 1;
  central.hosts_sampled = 1;

  ShardedCentral sharded(&registry, /*shards=*/4, CentralConfig{},
                         /*workers=*/2);
  ASSERT_TRUE(sharded.InstallQuery(central, [](const ResultRow&) {}).ok());
  Rng rng(99);
  uint64_t seq = 1;
  for (int tick = 0; tick < 4; ++tick) {
    std::vector<Event> events;
    for (int i = 0; i < 200; ++i) {
      Event e(schema, rng.NextUint64(),
              tick * 500 * kMicrosPerMilli +
                  static_cast<TimeMicros>(rng.NextBelow(500'000)));
      e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(16))));
      e.SetField(1, Value(rng.NextDouble() * 5));
      events.push_back(std::move(e));
    }
    EventBatch batch;
    batch.query_id = 1;
    batch.host = 0;
    batch.seq = seq++;
    batch.event_count = events.size();
    batch.format = EncodeEvents(events, &batch.payload);
    ASSERT_TRUE(sharded.IngestBatch(batch, (tick + 1) * 500 * kMicrosPerMilli)
                    .ok());
    sharded.OnTick((tick + 1) * 500 * kMicrosPerMilli);
  }
  sharded.OnTick(8 * kMicrosPerSecond);

  // Shard-side metrics sum across the 4 shards and cover all 800 events.
  const std::vector<OperatorMetrics> shard_ops = sharded.ShardOpMetrics(1);
  ASSERT_FALSE(shard_ops.empty());
  EXPECT_EQ(shard_ops.front().rows_in, 800u);

  // The coordinator absorbed the same metrics from WindowPartial deltas and
  // stamped its own Finalize counters.
  const CentralQueryStats* cs = sharded.coordinator().StatsFor(1);
  ASSERT_NE(cs, nullptr);
  ASSERT_FALSE(cs->upstream_op_metrics.empty());
  EXPECT_EQ(cs->upstream_op_metrics.front().rows_in, 800u);
  ASSERT_FALSE(cs->op_metrics.empty());
  EXPECT_GT(cs->op_metrics.back().rows_out, 0u);
}

TEST(MetricsTest, HierarchicalMetricsReachTheCoordinator) {
  SystemConfig config = SmallSystem();
  config.combiner_regions = 2;
  ScrubSystem system(config);
  DriveLoad(system);
  auto submitted = system.Submit(kAggQuery, [](const ResultRow&) {});
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(system.hierarchical());
  system.RunUntil(5 * kMicrosPerSecond);

  const CentralQueryStats* cs = system.coordinator()->StatsFor(submitted->id);
  ASSERT_NE(cs, nullptr);
  EXPECT_FALSE(cs->upstream_op_metrics.empty());
  const std::string described = system.DescribeQuery(submitted->id);
  EXPECT_NE(described.find("combiner operators (summed)"), std::string::npos)
      << described;
  const std::string analyzed = system.ExplainAnalyze(submitted->id);
  EXPECT_NE(analyzed.find("coordinator pipeline:"), std::string::npos)
      << analyzed;
}

// ---------------------------------------------------------------------------
// Surfacing: DescribeQuery, EXPLAIN ANALYZE, post-teardown peak.
// ---------------------------------------------------------------------------

TEST(MetricsTest, ExplainAnalyzeRendersAnnotatedOperators) {
  ScrubSystem system(SmallSystem());
  DriveLoad(system);
  auto submitted = system.Submit(kAggQuery, [](const ResultRow&) {});
  ASSERT_TRUE(submitted.ok());
  system.RunUntil(4 * kMicrosPerSecond);
  const std::string analyzed = system.ExplainAnalyze(submitted->id);
  EXPECT_NE(analyzed.find("Decode"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("rows "), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("sel "), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("batches"), std::string::npos) << analyzed;
  const std::string described = system.DescribeQuery(submitted->id);
  EXPECT_NE(described.find("operators:"), std::string::npos) << described;
}

TEST(MetricsTest, PeakStateBytesSurviveTeardown) {
  SystemConfig config = SmallSystem();
  config.central.track_state_bytes = true;
  ScrubSystem system(config);
  DriveLoad(system);
  auto submitted = system.Submit(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 1 s DURATION 3 s;",
      [](const ResultRow&) {});
  ASSERT_TRUE(submitted.ok());
  system.RunUntil(6 * kMicrosPerSecond);
  system.Drain();  // span expired: the query is torn down and retired

  const CentralQueryStats* cs = system.central().StatsFor(submitted->id);
  ASSERT_NE(cs, nullptr);
  EXPECT_GT(cs->peak_state_bytes, 0u);
  const std::string described = system.DescribeQuery(submitted->id);
  EXPECT_NE(described.find("state peak:"), std::string::npos) << described;
}

// ---------------------------------------------------------------------------
// Calibrated cost model and predicted-cost admission.
// ---------------------------------------------------------------------------

TEST(CostModelTest, PredictionScalesWithFleetAndPlanShape) {
  SchemaRegistry registry;
  ASSERT_TRUE(registry
                  .Register(*EventSchema::Builder("bid")
                                 .AddField("user_id", FieldType::kLong)
                                 .AddField("price", FieldType::kDouble)
                                 .Build())
                  .ok());
  ASSERT_TRUE(registry
                  .Register(*EventSchema::Builder("impression")
                                 .AddField("line_item_id", FieldType::kLong)
                                 .Build())
                  .ok());
  AnalyzerOptions options;
  const auto analyze = [&](const char* text) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry, options);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    return std::move(*aq);
  };
  LintOptions lint;
  const AnalyzedQuery simple = analyze(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 10 s;");
  const AnalyzedQuery join = analyze(
      "SELECT COUNT(*) FROM bid, impression WINDOW 1 s DURATION 10 s;");
  const AnalyzedQuery sampled = analyze(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 10 s "
      "SAMPLE EVENTS 10%;");

  const uint64_t simple_cost = PredictCentralCostNsPerSec(simple, lint);
  EXPECT_GT(simple_cost, 0u);
  // A join pays the probe on top of ingest, over twice the sources.
  EXPECT_GT(PredictCentralCostNsPerSec(join, lint), simple_cost);
  // Event sampling scales the shipped rate straight down.
  EXPECT_LT(PredictCentralCostNsPerSec(sampled, lint), simple_cost / 5);
  // Twice the fleet, twice the demand.
  LintOptions big = lint;
  big.fleet_hosts = lint.fleet_hosts * 2;
  EXPECT_EQ(PredictCentralCostNsPerSec(simple, big), simple_cost * 2);
}

TEST(CostModelTest, AdmissionRejectsWhenBudgetExhausted) {
  SystemConfig config = SmallSystem();
  ScrubSystem system_probe(config);
  // Size the budget to admit exactly one copy of the query: predict its
  // cost under the same lint options admission will use.
  AnalyzerOptions analyzer;
  Result<AnalyzedQuery> aq =
      ParseAndAnalyze(kAggQuery, system_probe.schemas(), analyzer);
  ASSERT_TRUE(aq.ok());
  const uint64_t cost =
      PredictCentralCostNsPerSec(*aq, system_probe.LintConfig());
  ASSERT_GT(cost, 0u);

  config.server.central_cpu_budget_ns_per_sec = cost + cost / 2;
  ScrubSystem system(config);
  auto first = system.Submit(kAggQuery, [](const ResultRow&) {});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(system.server().admitted_cost_ns_per_sec(), cost);

  auto second = system.Submit(kAggQuery, [](const ResultRow&) {});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(system.server().queries_rejected_cost(), 1u);

  // Tearing the first down releases its charge; the next submission fits.
  ASSERT_TRUE(system.server().Cancel(first->id).ok());
  EXPECT_EQ(system.server().admitted_cost_ns_per_sec(), 0u);
  auto third = system.Submit(kAggQuery, [](const ResultRow&) {});
  EXPECT_TRUE(third.ok()) << third.status().ToString();
}

TEST(CostModelTest, CalibrationDerivesUnitCostsFromObservedMetrics) {
  ScrubSystem system(SmallSystem());
  DriveLoad(system);
  auto submitted = system.Submit(kAggQuery, [](const ResultRow&) {});
  ASSERT_TRUE(submitted.ok());
  system.RunUntil(4 * kMicrosPerSecond);

  const CostModel calibrated = system.CalibrateLintCosts();
  EXPECT_GT(calibrated.central_ingest_ns, 0);
  EXPECT_GT(calibrated.central_group_update_ns, 0);
  // The calibrated model is live in the server's lint options: admission
  // predictions now use observed costs.
  EXPECT_EQ(system.LintConfig().costs.central_ingest_ns,
            calibrated.central_ingest_ns);
}

}  // namespace
}  // namespace scrub
