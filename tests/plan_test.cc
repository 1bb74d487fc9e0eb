// Unit tests for src/plan: expression lowering/evaluation and the
// host/central planner split. Expressions run through the lowered IR and are
// checked against the tree oracle (tests/tree_eval.h).

#include <gtest/gtest.h>

#include "src/event/column_batch.h"
#include "src/plan/expr_ir.h"
#include "src/plan/plan.h"
#include "src/query/analyzer.h"
#include "src/query/parser.h"
#include "tests/tree_eval.h"

namespace scrub {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .AddField("price", FieldType::kDouble)
                       .AddField("country", FieldType::kString)
                       .AddField("items", FieldType::kLongList)
                       .Build();
    click_schema_ = *EventSchema::Builder("click")
                         .AddField("user_id", FieldType::kLong)
                         .AddField("model", FieldType::kString)
                         .Build();
    EXPECT_TRUE(registry_.Register(bid_schema_).ok());
    EXPECT_TRUE(registry_.Register(click_schema_).ok());
  }

  Event MakeBid(RequestId rid, TimeMicros ts, int64_t user, double price,
                const char* country) {
    Event e(bid_schema_, rid, ts);
    e.SetField(0, Value(user));
    e.SetField(1, Value(price));
    e.SetField(2, Value(country));
    return e;
  }

  Result<QueryPlan> Plan(std::string_view text, TimeMicros submit = 0) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    if (!aq.ok()) {
      return aq.status();
    }
    return PlanQuery(*aq, 1, submit);
  }

  // The analyzed WHERE of a single-source query, for direct evaluation.
  ExprPtr ParseWhere(std::string_view text) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    return aq->query.where->Clone();
  }

  // The lowered IR's verdict on a bid, checked against the tree oracle.
  bool Matches(const ExprPtr& pred, const Event& e) {
    Result<ExprProgram> program = LowerExpr(*pred, {"bid"}, {bid_schema_});
    if (!program.ok()) {
      ADD_FAILURE() << program.status().ToString();
      return false;
    }
    const bool ir = EvalProgramPredicateSingle(*program, e);
    EXPECT_EQ(ir, TreePredicateSingle(*pred, e));
    return ir;
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
  SchemaPtr click_schema_;
};

TEST_F(PlanTest, PredicateEvaluation) {
  const ExprPtr pred = ParseWhere(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 1.5 AND "
      "bid.country IN ('US', 'CA');");
  Event yes = MakeBid(1, 10, 100, 2.0, "US");
  Event no_price = MakeBid(2, 10, 100, 1.0, "US");
  Event no_country = MakeBid(3, 10, 100, 2.0, "JP");
  EXPECT_TRUE(Matches(pred, yes));
  EXPECT_FALSE(Matches(pred, no_price));
  EXPECT_FALSE(Matches(pred, no_country));
}

TEST_F(PlanTest, ArithmeticAndComparisonSemantics) {
  const ExprPtr pred = ParseWhere(
      "SELECT COUNT(*) FROM bid WHERE bid.price * 2 + 1 >= 4.0;");
  EXPECT_TRUE(Matches(pred, MakeBid(1, 0, 1, 1.5, "US")));
  EXPECT_FALSE(Matches(pred, MakeBid(1, 0, 1, 1.49, "US")));
}

TEST_F(PlanTest, NullFieldsFailComparisons) {
  const ExprPtr pred =
      ParseWhere("SELECT COUNT(*) FROM bid WHERE bid.price > 0.0;");
  Event e(bid_schema_, 1, 0);  // price never set -> null
  EXPECT_FALSE(Matches(pred, e));

  const ExprPtr isnull =
      ParseWhere("SELECT COUNT(*) FROM bid WHERE bid.price = NULL;");
  EXPECT_TRUE(Matches(isnull, e));
  EXPECT_FALSE(
      Matches(isnull, MakeBid(1, 0, 1, 2.0, "US")));
}

TEST_F(PlanTest, DivisionByZeroYieldsNull) {
  const ExprPtr pred =
      ParseWhere("SELECT COUNT(*) FROM bid WHERE bid.price / 0 > 1;");
  // null > 1 is false, not a crash.
  EXPECT_FALSE(Matches(pred, MakeBid(1, 0, 1, 5.0, "US")));
}

TEST_F(PlanTest, ContainsEvaluation) {
  const ExprPtr pred =
      ParseWhere("SELECT COUNT(*) FROM bid WHERE bid.items CONTAINS 7;");
  Event with(bid_schema_, 1, 0);
  with.SetField(3, Value(std::vector<Value>{Value(int64_t{5}),
                                            Value(int64_t{7})}));
  Event without(bid_schema_, 2, 0);
  without.SetField(3, Value(std::vector<Value>{Value(int64_t{5})}));
  Event unset(bid_schema_, 3, 0);
  EXPECT_TRUE(Matches(pred, with));
  EXPECT_FALSE(Matches(pred, without));
  EXPECT_FALSE(Matches(pred, unset));
}

TEST_F(PlanTest, SystemFieldAccess) {
  const ExprPtr pred = ParseWhere(
      "SELECT COUNT(*) FROM bid WHERE __timestamp >= 100 AND "
      "__request_id = 9;");
  EXPECT_TRUE(Matches(pred, MakeBid(9, 100, 1, 1.0, "US")));
  EXPECT_FALSE(Matches(pred, MakeBid(9, 99, 1, 1.0, "US")));
  EXPECT_FALSE(Matches(pred, MakeBid(8, 100, 1, 1.0, "US")));
}

TEST_F(PlanTest, ShortCircuitAndOr) {
  // Right side would be null-ish; short circuit means the left decides.
  const ExprPtr pred = ParseWhere(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 100.0 AND "
      "bid.country = 'US';");
  EXPECT_FALSE(Matches(pred, MakeBid(1, 0, 1, 1.0, "US")));
}

TEST_F(PlanTest, HostPlanContainsOnlySelectionAndProjection) {
  Result<QueryPlan> plan = Plan(
      "SELECT bid.user_id, COUNT(*) FROM bid WHERE bid.price > 1.0 "
      "GROUP BY bid.user_id WINDOW 10 s DURATION 60 s;",
      /*submit=*/1000);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const HostPlan& host = plan->host;
  EXPECT_EQ(host.query_id, 1u);
  EXPECT_EQ(host.start_time, 1000);
  EXPECT_EQ(host.end_time, 1000 + 60 * kMicrosPerSecond);
  ASSERT_EQ(host.sources.size(), 1u);
  EXPECT_EQ(host.sources[0].programs.size(), 1u);
  // Projection: user_id and price read; country and items dropped.
  EXPECT_TRUE(host.sources[0].keep_field[0]);
  EXPECT_TRUE(host.sources[0].keep_field[1]);
  EXPECT_FALSE(host.sources[0].keep_field[2]);
  EXPECT_FALSE(host.sources[0].keep_field[3]);
  EXPECT_EQ(host.sources[0].kept_fields, 2);
}

TEST_F(PlanTest, CentralPlanCarriesAggregatesAndGrouping) {
  Result<QueryPlan> plan = Plan(
      "SELECT bid.user_id, COUNT(*) AS n, 1000 * AVG(bid.price) FROM bid "
      "GROUP BY bid.user_id;");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const CentralPlan& central = plan->central;
  EXPECT_TRUE(central.aggregate_mode);
  ASSERT_EQ(central.group_by_programs.size(), 1u);
  ASSERT_EQ(central.aggregates.size(), 2u);
  EXPECT_EQ(central.aggregates[0].func, AggregateFunc::kCount);
  EXPECT_EQ(central.aggregates[1].func, AggregateFunc::kAvg);
  ASSERT_EQ(central.outputs.size(), 3u);
  EXPECT_EQ(central.outputs[0].expr.kind, OutputKind::kGroupKey);
  EXPECT_EQ(central.outputs[1].expr.kind, OutputKind::kAggregate);
  EXPECT_EQ(central.outputs[1].name, "n");
  EXPECT_EQ(central.outputs[2].expr.kind, OutputKind::kBinary);
}

TEST_F(PlanTest, RawModeForProjectionQueries) {
  Result<QueryPlan> plan =
      Plan("SELECT bid.user_id, bid.price FROM bid WHERE bid.price > 2.0;");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->central.aggregate_mode);
  EXPECT_EQ(plan->central.raw_select_programs.size(), 2u);
  EXPECT_EQ(plan->central.column_names.size(), 2u);
}

TEST_F(PlanTest, JoinConjunctsRouteToTheirSources) {
  Result<QueryPlan> plan = Plan(
      "SELECT COUNT(*) FROM bid, click "
      "WHERE bid.price > 1.0 AND click.model = 'modelA';");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->host.sources.size(), 2u);
  EXPECT_EQ(plan->host.sources[0].event_type, "bid");
  EXPECT_EQ(plan->host.sources[0].programs.size(), 1u);
  EXPECT_EQ(plan->host.sources[1].event_type, "click");
  EXPECT_EQ(plan->host.sources[1].programs.size(), 1u);
}

TEST_F(PlanTest, JoinedTupleEvaluation) {
  Result<AnalyzedQuery> aq = ParseAndAnalyze(
      "SELECT COUNT(*) FROM bid, click WHERE bid.user_id = 5;", registry_);
  ASSERT_TRUE(aq.ok());
  // Cross-source select expression lowered against the full source list,
  // evaluated over a joined tuple the way central's join fold binds it.
  const ExprPtr model_ref = Expr::MakeFieldRef("click", "model");
  Result<ExprProgram> program =
      LowerExpr(*model_ref, aq->query.sources, aq->schemas);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Event bid = MakeBid(1, 0, 5, 1.0, "US");
  Event click(click_schema_, 1, 5);
  click.SetField(0, Value(int64_t{5}));
  click.SetField(1, Value("modelB"));
  ColumnBatch bids(bid_schema_);
  bids.AppendEvent(bid);
  ColumnBatch clicks(click_schema_);
  clicks.AppendEvent(click);
  const TupleSlot slots[] = {{&bids, 0}, {&clicks, 0}};
  EXPECT_EQ(EvalProgramMixed(*program, slots), Value("modelB"));
  EXPECT_EQ(TreeEval(*model_ref, aq->query.sources, {&bid, &click}),
            Value("modelB"));
}

TEST_F(PlanTest, OutputExprEvaluation) {
  Result<QueryPlan> plan = Plan(
      "SELECT bid.user_id, 1000 * AVG(bid.price) FROM bid "
      "GROUP BY bid.user_id;");
  ASSERT_TRUE(plan.ok());
  const std::vector<Value> group_key = {Value(int64_t{42})};
  const std::vector<Value> aggs = {Value(2.5)};
  EXPECT_EQ(EvalOutputExpr(plan->central.outputs[0].expr, group_key, aggs),
            Value(int64_t{42}));
  EXPECT_EQ(EvalOutputExpr(plan->central.outputs[1].expr, group_key, aggs),
            Value(2500.0));
}

TEST_F(PlanTest, NodeCountsChargeable) {
  Result<QueryPlan> plan = Plan(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 1.0 AND "
      "bid.country = 'US';");
  ASSERT_TRUE(plan.ok());
  // Conjuncts: (price > 1.0) has 3 nodes; (country = 'US') has 3 nodes.
  EXPECT_EQ(plan->host.sources[0].predicate_nodes, 6);
  // Header 64, then per source: type name "bid" + 16, 24 per predicate
  // node, one projection-mask byte per schema field.
  EXPECT_EQ(plan->host.WireSize(),
            64u + 3u + 16u + 6u * 24u + bid_schema_->field_count());
}

TEST_F(PlanTest, SamplingRatesPropagate) {
  Result<QueryPlan> plan = Plan(
      "SELECT COUNT(*) FROM bid DURATION 60 s "
      "SAMPLE HOSTS 50% SAMPLE EVENTS 25%;");
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->host.event_sample_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan->central.host_sample_rate, 0.50);
  EXPECT_DOUBLE_EQ(plan->central.event_sample_rate, 0.25);
  EXPECT_TRUE(plan->central.SamplingActive());
}

}  // namespace
}  // namespace scrub
