// Unit tests for the pushdown (host-side aggregation) ablation comparator:
// it must refuse the shapes it cannot handle, aggregate correctly on the
// host, and merge partials to exactly what ScrubCentral would compute.

#include <gtest/gtest.h>

#include "src/baseline/pushdown_agent.h"
#include "src/event/wire.h"

namespace scrub {
namespace {

class PushdownTest : public ::testing::Test {
 protected:
  PushdownTest() {
    schema_ = *EventSchema::Builder("bid")
                   .AddField("user_id", FieldType::kLong)
                   .AddField("price", FieldType::kDouble)
                   .Build();
    imp_schema_ = *EventSchema::Builder("impression")
                       .AddField("cost", FieldType::kDouble)
                       .Build();
    EXPECT_TRUE(registry_.Register(schema_).ok());
    EXPECT_TRUE(registry_.Register(imp_schema_).ok());
  }

  Result<PushdownPlan> Plan(std::string_view text) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    if (!aq.ok()) {
      return aq.status();
    }
    return BuildPushdownPlan(*aq, 1, 0);
  }

  Event MakeBid(RequestId rid, TimeMicros ts, int64_t user, double price) {
    Event e(schema_, rid, ts);
    e.SetField(0, Value(user));
    e.SetField(1, Value(price));
    return e;
  }

  SchemaRegistry registry_;
  SchemaPtr schema_;
  SchemaPtr imp_schema_;
  CostMeter meter_;
};

TEST_F(PushdownTest, RejectsUnsupportedShapes) {
  // Joins.
  EXPECT_EQ(Plan("SELECT COUNT(*) FROM bid, impression;").status().code(),
            StatusCode::kUnimplemented);
  // Raw (non-aggregate) queries.
  EXPECT_EQ(Plan("SELECT bid.user_id FROM bid;").status().code(),
            StatusCode::kUnimplemented);
  // Sketch aggregates.
  EXPECT_EQ(Plan("SELECT COUNT_DISTINCT(bid.user_id) FROM bid;")
                .status()
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(Plan("SELECT TOPK(5, bid.user_id) FROM bid;").status().code(),
            StatusCode::kUnimplemented);
  // Sliding windows.
  EXPECT_EQ(Plan("SELECT COUNT(*) FROM bid WINDOW 10 s SLIDE 5 s "
                 "DURATION 60 s;")
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

TEST_F(PushdownTest, AggregatesOnHostAndShipsPartials) {
  Result<PushdownPlan> plan = Plan(
      "SELECT bid.user_id, COUNT(*), AVG(bid.price), MIN(bid.price), "
      "MAX(bid.price) FROM bid GROUP BY bid.user_id "
      "WINDOW 10 s DURATION 60 s;");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PushdownAgent agent(0, &meter_);
  agent.InstallQuery(*plan);

  // User 1: prices 1,3. User 2: price 10.
  EXPECT_GT(agent.LogEvent(MakeBid(1, 100, 1, 1.0)), 0);
  agent.LogEvent(MakeBid(2, 200, 1, 3.0));
  agent.LogEvent(MakeBid(3, 300, 2, 10.0));
  EXPECT_EQ(agent.current_state_entries(), 2u);
  EXPECT_GT(meter_.scrub_ns(), 0);

  // Window [0,10s) not yet closed.
  EXPECT_TRUE(agent.Flush(5 * kMicrosPerSecond).empty());
  std::vector<PartialBatch> batches = agent.Flush(12 * kMicrosPerSecond);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].groups.size(), 2u);
  EXPECT_GT(batches[0].WireSize(), 0u);
  EXPECT_EQ(agent.current_state_entries(), 0u);

  PushdownCoordinator coordinator(*plan);
  coordinator.Ingest(batches[0]);
  std::vector<ResultRow> rows = coordinator.Finalize();
  ASSERT_EQ(rows.size(), 2u);
  for (const ResultRow& row : rows) {
    if (row.values[0] == Value(int64_t{1})) {
      EXPECT_EQ(row.values[1], Value(int64_t{2}));
      EXPECT_EQ(row.values[2], Value(2.0));   // AVG
      EXPECT_EQ(row.values[3], Value(1.0));   // MIN
      EXPECT_EQ(row.values[4], Value(3.0));   // MAX
    } else {
      EXPECT_EQ(row.values[0], Value(int64_t{2}));
      EXPECT_EQ(row.values[1], Value(int64_t{1}));
    }
  }
}

TEST_F(PushdownTest, SelectionAppliesBeforeAggregation) {
  Result<PushdownPlan> plan = Plan(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 5.0 "
      "WINDOW 10 s DURATION 60 s;");
  ASSERT_TRUE(plan.ok());
  PushdownAgent agent(0, &meter_);
  agent.InstallQuery(*plan);
  agent.LogEvent(MakeBid(1, 100, 1, 10.0));
  agent.LogEvent(MakeBid(2, 200, 1, 1.0));  // filtered
  std::vector<PartialBatch> batches = agent.Flush(12 * kMicrosPerSecond);
  ASSERT_EQ(batches.size(), 1u);
  PushdownCoordinator coordinator(*plan);
  coordinator.Ingest(batches[0]);
  const std::vector<ResultRow> rows = coordinator.Finalize();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values[0], Value(int64_t{1}));
}

TEST_F(PushdownTest, MergesPartialsFromMultipleHosts) {
  Result<PushdownPlan> plan = Plan(
      "SELECT COUNT(*), SUM(bid.price) FROM bid WINDOW 10 s DURATION 60 s;");
  ASSERT_TRUE(plan.ok());
  PushdownCoordinator coordinator(*plan);
  CostMeter meters[2];
  for (int h = 0; h < 2; ++h) {
    PushdownAgent agent(h, &meters[h]);
    agent.InstallQuery(*plan);
    for (int i = 0; i < 5; ++i) {
      agent.LogEvent(MakeBid(static_cast<RequestId>(h * 10 + i),
                             100 + i, 1, 2.0));
    }
    for (const PartialBatch& batch : agent.Flush(12 * kMicrosPerSecond)) {
      coordinator.Ingest(batch);
    }
  }
  const std::vector<ResultRow> rows = coordinator.Finalize();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values[0], Value(int64_t{10}));
  EXPECT_EQ(rows[0].values[1], Value(20.0));
}

TEST_F(PushdownTest, PeakStateGrowsWithCardinality) {
  Result<PushdownPlan> plan = Plan(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 60 s DURATION 60 s;");
  ASSERT_TRUE(plan.ok());
  PushdownAgent agent(0, &meter_);
  agent.InstallQuery(*plan);
  for (int64_t u = 0; u < 500; ++u) {
    agent.LogEvent(MakeBid(static_cast<RequestId>(u), 100, u, 1.0));
  }
  EXPECT_EQ(agent.peak_state_entries(), 500u);
}

TEST_F(PushdownTest, ExpiryDropsState) {
  Result<PushdownPlan> plan =
      Plan("SELECT COUNT(*) FROM bid WINDOW 10 s DURATION 20 s;");
  ASSERT_TRUE(plan.ok());
  PushdownAgent agent(0, &meter_);
  agent.InstallQuery(*plan);
  agent.LogEvent(MakeBid(1, 100, 1, 1.0));
  // Query expires; the final flush ships everything and frees the query.
  std::vector<PartialBatch> batches = agent.Flush(25 * kMicrosPerSecond);
  EXPECT_EQ(batches.size(), 1u);
  agent.LogEvent(MakeBid(2, 26 * kMicrosPerSecond, 1, 1.0));
  EXPECT_TRUE(agent.Flush(30 * kMicrosPerSecond).empty());
}

// Selection costs what a Scrub agent charges: predicate_term_ns per
// instruction of the planner's folded, pruned programs. `4.0 / 2.0` folds
// to a constant and `price > 1.0` is implied by `price > 2.0`, so the
// redundant WHERE costs exactly what `price > 2.0` alone costs.
TEST_F(PushdownTest, SelectionChargesTheFoldedProgramsLikeTheAgent) {
  Result<PushdownPlan> redundant = Plan(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 4.0 / 2.0 AND "
      "bid.price > 1.0 WINDOW 10 s DURATION 60 s;");
  Result<PushdownPlan> plain = Plan(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 2.0 "
      "WINDOW 10 s DURATION 60 s;");
  Result<PushdownPlan> unfiltered =
      Plan("SELECT COUNT(*) FROM bid WINDOW 10 s DURATION 60 s;");
  ASSERT_TRUE(redundant.ok()) << redundant.status().ToString();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(unfiltered.ok()) << unfiltered.status().ToString();
  for (const double price : {0.5, 1.5, 3.0}) {
    CostMeter meters[3];
    PushdownAgent a(0, &meters[0]);
    PushdownAgent b(0, &meters[1]);
    PushdownAgent c(0, &meters[2]);
    a.InstallQuery(*redundant);
    b.InstallQuery(*plain);
    c.InstallQuery(*unfiltered);
    const Event e = MakeBid(1, 100, 1, price);
    const int64_t plain_ns = b.LogEvent(e);
    EXPECT_EQ(a.LogEvent(e), plain_ns) << "price " << price;
    if (price > 2.0) {
      // load + const + compare: three instructions on top of the rest.
      EXPECT_EQ(plain_ns - c.LogEvent(e), 3 * CostModel{}.predicate_term_ns);
    }
  }
}

TEST_F(PushdownTest, ContradictoryWhereShipsNothingAndChargesNoPredicate) {
  Result<PushdownPlan> plan = Plan(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 5.0 AND bid.price < 1.0 "
      "WINDOW 10 s DURATION 60 s;");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->source.never_matches);
  PushdownAgent agent(0, &meter_);
  agent.InstallQuery(*plan);
  const CostModel costs;
  for (const double price : {0.5, 3.0, 10.0}) {
    EXPECT_EQ(agent.LogEvent(MakeBid(1, 100, 1, price)),
              costs.log_fixed_ns + 2 * costs.log_per_field_ns);
  }
  EXPECT_EQ(agent.current_state_entries(), 0u);
  EXPECT_TRUE(agent.Flush(12 * kMicrosPerSecond).empty());
}

}  // namespace
}  // namespace scrub
